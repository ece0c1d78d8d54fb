"""Fixed blocks of rows or columns, run side by side on the process's CPUs.

numpy releases the GIL inside BLAS calls and ufunc loops, so Python threads
can work on disjoint slices of one array at the same time.  A caller cuts
its work with ``blocks``, from an array's shape and a module constant of its
own, and hands each slice to ``run_blocks``.  Every output entry is made
whole inside one block: a block never holds part of a sum that another block
finishes.  The partition never depends on the worker count, so the bytes do
not either; the blocks only decide where the work may be split.

The worker count is the number of CPUs the process may run on, capped at
``MAX_WORKERS``.  At most that many blocks' buffers are alive at once.  With
one block, or one worker, the blocks run inline and no thread is started.
"""

from __future__ import annotations

import os

# Threads of the block pool; at most this many blocks are in flight at once.
MAX_WORKERS = 2

_executor = None


def blocks(n: int, size: int, split: bool = True) -> list[slice]:
    """``ceil(n / size)`` consecutive slices of ``range(n)``, of near-equal length.

    Near-equal, so that no block is a sliver: a GEMM of one row runs as a
    GEMV, which rounds differently.  A caller whose rows make one block
    passes ``split=False`` for its other axes, so that a small call runs each
    product as one GEMM.
    """
    count = max(1, -(-n // size)) if split else 1
    bounds = [i * n // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def workers() -> int:
    """CPUs this process may run on, capped at ``MAX_WORKERS``."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return min(len(cpus), MAX_WORKERS)


def run_blocks(fn, slices: list[slice]) -> None:
    """Call ``fn`` on each slice; more than one slice goes to the pool, if there are workers.

    Returns, or raises the first failed block's error, once every block has
    finished.  ``fn`` must not call ``run_blocks``: a block waiting on the
    pool from inside it could wait for ever.
    """
    if len(slices) == 1 or workers() == 1:
        for part in slices:
            fn(part)
        return
    from concurrent.futures import wait

    futures = [_pool().submit(fn, part) for part in slices]
    wait(futures)
    for future in futures:
        future.result()


def _pool():
    """The process's thread pool, started at its first use."""
    global _executor
    if _executor is None:
        from concurrent.futures import ThreadPoolExecutor

        _executor = ThreadPoolExecutor(max_workers=workers(), thread_name_prefix="steinfed-block")
    return _executor
