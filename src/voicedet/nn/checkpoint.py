"""Versioned binary checkpoint container.

Layout: an 8-byte magic, a little-endian uint64 header length, a JSON header
(format version, embedded model config, a manifest of named arrays with
shape/dtype/offset), then the raw little-endian array payload. Round trips
are bit-exact. A missing file, one too short for its header or manifest,
or a header that is not JSON, holds a bad model config or a manifest entry
whose shape and dtype do not fill its nbytes, is rejected with
InvalidArgument.
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from ..dsp import InvalidArgument, read_bytes
from .model import ModelConfig

MAGIC = b"VDCKPT01"

_DTYPES = {"float32": "<f4", "float64": "<f8"}


def save_checkpoint(path: str | Path, cfg: ModelConfig,
                    params: dict[str, np.ndarray],
                    buffers: dict[str, np.ndarray] | None = None) -> None:
    buffers = buffers or {}
    manifest = []
    blobs = []
    offset = 0
    for kind, arrays in (("param", params), ("buffer", buffers)):
        for name in sorted(arrays):
            arr = arrays[name]
            dtype = str(arr.dtype)
            if dtype not in _DTYPES:
                raise InvalidArgument(f"{name}: unsupported checkpoint dtype {dtype}")
            raw = np.ascontiguousarray(arr).astype(_DTYPES[dtype], copy=False).tobytes()
            manifest.append(
                {
                    "name": name,
                    "kind": kind,
                    "shape": list(arr.shape),
                    "dtype": dtype,
                    "offset": offset,
                    "nbytes": len(raw),
                }
            )
            blobs.append(raw)
            offset += len(raw)
    header = json.dumps(
        {"format_version": 1, "config": cfg.to_dict(), "arrays": manifest},
        sort_keys=True,
    ).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for raw in blobs:
            fh.write(raw)


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, dict[str, np.ndarray], dict[str, np.ndarray]]:
    data = read_bytes(path)
    if data[:8] != MAGIC:
        raise InvalidArgument(f"{path}: not a {MAGIC.decode()} checkpoint")
    if len(data) < 16:
        raise InvalidArgument(f"{path}: truncated checkpoint: no header length")
    (header_len,) = struct.unpack("<Q", data[8:16])
    if 16 + header_len > len(data):
        raise InvalidArgument(
            f"{path}: truncated checkpoint: header needs {16 + header_len} bytes, file has {len(data)}"
        )
    try:
        header = json.loads(data[16 : 16 + header_len].decode())
        if not isinstance(header, dict) or header.get("format_version") != 1:
            raise InvalidArgument("unsupported checkpoint version")
        cfg = ModelConfig.from_dict(header["config"])
        entries = header["arrays"]
        for entry in entries:
            _check_entry(entry)
    except InvalidArgument as err:
        raise InvalidArgument(f"{path}: {err}") from None
    except (ValueError, TypeError, KeyError) as err:
        # ValueError also covers bytes that are not UTF-8 or not JSON; KeyError a missing key
        raise InvalidArgument(f"{path}: bad checkpoint header: {type(err).__name__}: {err}") from None
    payload = data[16 + header_len :]
    params: dict[str, np.ndarray] = {}
    buffers: dict[str, np.ndarray] = {}
    for entry in entries:
        end = entry["offset"] + entry["nbytes"]
        if end > len(payload):
            raise InvalidArgument(
                f"{path}: truncated checkpoint: {entry['name']} needs {end} payload bytes, "
                f"file has {len(payload)}"
            )
        raw = payload[entry["offset"] : end]
        arr = np.frombuffer(raw, dtype=_DTYPES[entry["dtype"]]).reshape(entry["shape"])
        arr = arr.astype(entry["dtype"])  # native byte order, writable
        (params if entry["kind"] == "param" else buffers)[entry["name"]] = arr
    return cfg, params, buffers


def _check_entry(entry: dict) -> None:
    """A manifest entry's kind and dtype are known and its shape fills exactly
    nbytes; a missing key raises KeyError."""
    name = entry["name"]
    if entry["kind"] not in ("param", "buffer"):
        raise InvalidArgument(f"{name}: unknown kind {entry['kind']!r}")
    if entry["dtype"] not in _DTYPES:
        raise InvalidArgument(f"{name}: unsupported dtype {entry['dtype']!r}")
    ints = [entry["offset"], entry["nbytes"], *entry["shape"]]
    if not all(isinstance(v, int) and v >= 0 for v in ints):
        raise InvalidArgument(f"{name}: offset, nbytes and shape must be non-negative integers")
    expect = math.prod(entry["shape"]) * np.dtype(_DTYPES[entry["dtype"]]).itemsize
    if entry["nbytes"] != expect:
        raise InvalidArgument(f"{name}: nbytes {entry['nbytes']} != {expect} for shape {entry['shape']}")
