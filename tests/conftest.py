import tempfile

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
