"""One worker pool for the large array ops, with OpenBLAS on one thread.

Importing this module sets numpy's OpenBLAS to one thread (it starts no
thread of its own). The pool is a thread pool created on first use, with
one worker per CPU this process may run on, the calling thread included.
An op hands it disjoint slices of its output, and each slice is computed
exactly as the whole would be: no sum is ever split across slices.

Matrix products are split only where OpenBLAS computes every output element
the same way in a slice as in the whole product. A product's output rows
are cut at multiples of `ROW_ALIGN`, so each slice holds whole register
tiles and the last one the same ragged edge as the whole product; and each
slice, like the whole, must hold at least `PRODUCT_FLOOR` multiply-adds, so
that neither is small enough for OpenBLAS's small-matrix kernels (at most
100**3 multiply-adds), which sum in another order. Elementwise work is
split once a slice holds `ELEMENT_FLOOR` elements. Ops whose slices make
temporaries (columns, per-tap products) cut them into tasks of at most
`PRODUCT_CHUNK` multiply-adds or `ELEMENT_CHUNK` elements, which the
workers take from one queue: small temporaries stay in cache and keep the
worker threads' malloc arenas small.

A forked child forgets its parent's pool (it has none of its threads) and
creates its own if it needs one.
"""
from __future__ import annotations

import ctypes
import itertools
import os
from concurrent.futures import ThreadPoolExecutor, wait

ROW_ALIGN = 16
PRODUCT_FLOOR = 1 << 20
PRODUCT_CHUNK = 1 << 21
ELEMENT_FLOOR = 1 << 16
ELEMENT_CHUNK = 1 << 19

_BLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads",
)

_executor: ThreadPoolExecutor | None = None
_executor_threads = 0


def _pin_blas() -> None:
    """Set every OpenBLAS loaded into this process to one thread. Where the
    libraries cannot be listed (no /proc/self/maps), BLAS keeps its threads."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SET_THREADS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(1)
                break


def _workers() -> int:
    """Worker count, the caller included: the CPUs this process may use."""
    return len(os.sched_getaffinity(0))


def _pool(threads: int) -> ThreadPoolExecutor:
    global _executor, _executor_threads
    if _executor is None or _executor_threads != threads:
        if _executor is not None:
            _executor.shutdown()
        _executor = ThreadPoolExecutor(threads, thread_name_prefix="voicedet-nn")
        _executor_threads = threads
    return _executor


def _forget_pool() -> None:
    global _executor, _executor_threads
    _executor, _executor_threads = None, 0


def _run(tasks) -> None:
    """Call every task once, spread over the workers; return when all are
    done, raising the first error. A task must not call `_run` itself."""
    tasks = list(tasks)
    helpers = min(_workers(), len(tasks)) - 1
    if helpers < 1:
        for task in tasks:
            task()
        return
    order = itertools.count()  # next() on a count is atomic under the GIL

    def drain():
        while (i := next(order)) < len(tasks):
            tasks[i]()

    pool = _pool(_workers() - 1)
    futures = [pool.submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _gather(work: int, *calls) -> list:
    """The results of independent zero-argument calls, made in parallel once
    the `work` they do together reaches ELEMENT_FLOOR."""
    if work < ELEMENT_FLOOR:
        return [call() for call in calls]
    results = [None] * len(calls)

    def task(i):
        results[i] = calls[i]()

    _run([lambda i=i: task(i) for i in range(len(calls))])
    return results


def _slices(n: int, work: int, floor: int, align: int = 1, most: int = 0) -> list[slice]:
    """Contiguous slices covering range(n): one per worker, or more where a
    slice would otherwise hold more than `most` of the `work` that the n
    rows hold together. Every cut is at a multiple of `align`, and every
    slice holds at least `floor` of the work; if no two slices can, [0:n]."""
    parts = max(_workers(), -(-work // most) if most else 0)
    parts = min(parts, n // align, work // max(floor, 1))
    while parts > 1:
        cuts = [align * round(n * i / (parts * align)) for i in range(parts)] + [n]
        if min(b - a for a, b in zip(cuts, cuts[1:])) * work >= floor * n:
            return [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        parts -= 1
    return [slice(0, n)]


def _for_slices(body, n: int, work: int, floor: int, align: int = 1, most: int = 0) -> None:
    """body(s) for each slice s of `_slices(n, work, floor, align, most)`,
    spread over the workers."""
    if work < 2 * floor:  # one slice; skip the bookkeeping on small arrays
        body(slice(0, n))
        return
    _run([lambda s=s: body(s) for s in _slices(n, work, floor, align, most)])


os.register_at_fork(after_in_child=_forget_pool)
_pin_blas()
