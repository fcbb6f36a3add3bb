import io
import tempfile
import zipfile

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from voicedet._alloc import tune_allocator

tune_allocator()

# Derandomized, deadline-free property tests: the same examples every run,
# and no flaky timeouts on a loaded machine.
settings.register_profile("voicedet", derandomize=True, deadline=None, database=None)
settings.load_profile("voicedet")

# database=None does not stop hypothesis from writing .hypothesis/constants/
# into the working directory; give it a home that is removed at exit.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="voicedet-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def assert_bits_equal(actual, expected, name=""):
    """Same dtype, same shape and the same raw bits in every element, so a
    flipped zero sign or a different NaN counts as a difference."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype, f"{name}: dtype {actual.dtype} != {expected.dtype}"
    assert actual.shape == expected.shape, f"{name}: shape {actual.shape} != {expected.shape}"
    bits = f"u{actual.dtype.itemsize}"
    differ = np.flatnonzero(actual.reshape(-1).view(bits) != expected.reshape(-1).view(bits))
    if differ.size:
        i = differ[0]
        raise AssertionError(
            f"{name}: {differ.size} of {actual.size} elements differ in their bits; "
            f"first at flat index {i}: {actual.flat[i]!r} != {expected.flat[i]!r}"
        )


def member_span(data: bytes, name: str) -> tuple[int, int]:
    """Start and end offsets of a stored zip member's data in `data`."""
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        info = zf.getinfo(name)
    start = info.header_offset + 30 + len(info.filename.encode()) + len(info.extra)
    return start, start + info.compress_size


def cut_points(data: bytes) -> dict[str, int]:
    """Truncation points of a checkpoint: inside the first local header,
    inside config.json, inside an array member, and one byte short."""
    (c0, c1), (a0, a1) = member_span(data, "config.json"), member_span(data, "param/head.w.npy")
    return {"local_header": 10, "config": (c0 + c1) // 2, "array": (a0 + a1) // 2,
            "one_short": len(data) - 1}
