from hypothesis import settings

from voicedet._alloc import tune_allocator

tune_allocator()

# Derandomized, deadline-free property tests: the same examples every run,
# and no flaky timeouts on a loaded machine.
settings.register_profile("voicedet", derandomize=True, deadline=None, database=None)
settings.load_profile("voicedet")
