import tempfile

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
