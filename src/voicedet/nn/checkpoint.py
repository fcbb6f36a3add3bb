"""Checkpoints: an uncompressed zip holding `config.json` (the model config)
and one NEP 1 `.npy` member per array, named `param/<name>.npy` or
`buffer/<name>.npy`; `np.load(path, allow_pickle=False)` opens one.

Members are written in a fixed order with a fixed timestamp, so equal
checkpoints are equal bytes, and round trips are bit-exact. The reader
checks every member's CRC-32 and rejects, as InvalidArgument naming the
path, a file that is not such a zip, a compressed or encrypted member, a
member of another name or dtype, and a config that is not a ModelConfig.
A config may name a key of the fixed Conv-DC geometry (as one written while
it was configurable does) only at its fixed value.
"""
from __future__ import annotations

import io
import json
import tokenize
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..dsp import InvalidArgument
from . import model
from .model import ModelConfig

_DTYPES = ("float32", "float64")
_KINDS = ("param", "buffer")
_FIXED_KEYS = dict(composite_kernel=model.COMPOSITE_KERNEL, composite_pad=model.PAD, gated_pad=model.PAD,
                   gated_kernel=model.GATED_KERNEL, gated_stride=model.GATED_STRIDE, bn_eps=model.BN_EPS,
                   input_channels=model.INPUT_CHANNELS, bn_momentum=model.BN_MOMENTUM)


def save_checkpoint(path: str | Path, cfg: ModelConfig,
                    params: dict[str, np.ndarray], buffers: dict[str, np.ndarray]) -> None:
    arrays = {f"{kind}/{name}.npy": arr
              for kind, group in zip(_KINDS, (params, buffers)) for name, arr in group.items()}
    for member, arr in arrays.items():
        if arr.dtype.name not in _DTYPES:
            raise InvalidArgument(f"{member}: unsupported checkpoint dtype {arr.dtype}")
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr(_member("config.json"), json.dumps(asdict(cfg)))
        for member in sorted(arrays):
            arr = arrays[member]
            with zf.open(_member(member), "w") as fh:
                little = arr.astype(arr.dtype.newbyteorder("<"), order="C", copy=False)
                np.lib.format.write_array(fh, little, allow_pickle=False)


def _member(name: str) -> zipfile.ZipInfo:
    """A stored member with a fixed timestamp."""
    return zipfile.ZipInfo(name, (1980, 1, 1, 0, 0, 0))


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, dict[str, np.ndarray], dict[str, np.ndarray]]:
    arrays: dict[str, dict[str, np.ndarray]] = {kind: {} for kind in _KINDS}
    try:
        with zipfile.ZipFile(path) as zf:
            for info in zf.infolist():
                if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
                    raise InvalidArgument(f"{info.filename}: compressed or encrypted member")
                if info.filename != "config.json":
                    kind, name = _array_name(info.filename)
                    arrays[kind][name] = _read_array(zf, info)
            cfg = _model_config(json.loads(zf.read("config.json")))
    except InvalidArgument as err:
        raise InvalidArgument(f"{path}: {err}") from None
    except OSError as err:
        raise InvalidArgument(f"{path}: cannot read file: {err.strerror or err}") from None
    except (zipfile.BadZipFile, ValueError, TypeError, KeyError, EOFError, NotImplementedError,
            SyntaxError, tokenize.TokenError, MemoryError) as err:
        # ValueError covers JSON, UTF-8 and most .npy header errors, SyntaxError and
        # TokenError the rest of them, MemoryError a header shape far beyond the
        # member's bytes, TypeError a config that is not an object of ModelConfig
        # keys, EOFError a member cut short and NotImplementedError a zip version
        # or feature zipfile does not read
        raise InvalidArgument(f"{path}: bad checkpoint: {type(err).__name__}: {err}") from None
    return cfg, arrays["param"], arrays["buffer"]


def _model_config(fields) -> ModelConfig:
    """The ModelConfig of config.json, less the fixed-geometry keys at their fixed values."""
    if isinstance(fields, dict):
        for key, value in _FIXED_KEYS.items():
            got = fields.pop(key, value)
            if type(got) is not type(value) or got != value:
                raise InvalidArgument(f"config.json: {key} is {got!r}; the model fixes it at {value!r}")
    return ModelConfig(**fields)


def _array_name(member: str) -> tuple[str, str]:
    kind, _, name = member.partition("/")
    if kind not in _KINDS or not name.endswith(".npy"):
        raise InvalidArgument(f"{member}: unknown checkpoint member")
    return kind, name.removesuffix(".npy")


def _read_array(zf: zipfile.ZipFile, info: zipfile.ZipInfo) -> np.ndarray:
    """The member's array in native byte order, parsed only once its CRC-32 matched."""
    raw = io.BytesIO(zf.read(info))
    arr = np.lib.format.read_array(raw, allow_pickle=False)
    if raw.read(1):
        raise InvalidArgument(f"{info.filename}: bytes after the array")
    if arr.dtype.name not in _DTYPES:
        raise InvalidArgument(f"{info.filename}: unsupported dtype {arr.dtype}")
    return arr.astype(arr.dtype.name, copy=False)
