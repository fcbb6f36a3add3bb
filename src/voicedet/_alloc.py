"""Allocator tuning for large-array workloads.

glibc serves big allocations through mmap and returns them to the kernel on
free, so every fresh numpy temporary page-faults its whole buffer. Training
and inference allocate large activation tensors constantly; keeping those
buffers on the retained heap made one epoch of the reduced DC-CRN (the
benchmark's `train` workload) about 10% faster: 4.06 -> 4.46 audio seconds
per second, median of ten alternating runs each way (nine of the ten pairs
won) on a 2-CPU Xeon VM with numpy 2.4 and OpenBLAS 0.3.31. Peak RSS was
731 MB with and without it in every run. `VOICEDET_NO_ALLOC_TUNING=1`
turns it off. No-op on platforms without glibc mallopt.
"""
from __future__ import annotations

import ctypes
import os

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_done = False


def tune_allocator() -> bool:
    """Raise the mmap threshold so large buffers are reused; idempotent."""
    global _done
    if _done or os.environ.get("VOICEDET_NO_ALLOC_TUNING"):
        return False
    _done = True
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(_M_MMAP_THRESHOLD, 1 << 30)
        libc.mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
        return True
    except (OSError, AttributeError):
        return False
