"""Worker pools for independent jobs: experiment sweeps and figure runs.

:func:`parallel_imap_unordered` hands each item to a worker process and
yields the results as they complete; :func:`default_workers` sizes the pool.
The multi-worker objective precompute lives in the shard workers
(:mod:`repro.hpc.sharded`), which evaluate their chunk of the feasible space
with :func:`~repro.problems.registry.objective_on_labels`.

The worker passed to a pool must be picklable (a module-level function or a
:func:`functools.partial` of one).  ``processes=1`` short-circuits to a
serial loop so the same code path works in restricted environments and in
tests.
"""

from __future__ import annotations

import os
import warnings
from functools import partial
from multiprocessing import get_context
from typing import Callable, Iterable, Iterator

__all__ = [
    "default_workers",
    "parallel_imap_unordered",
]


def default_workers() -> int:
    """Number of worker processes to use by default (``REPRO_WORKERS`` or CPU count)."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring invalid REPRO_WORKERS value {env!r}; "
                "expected a positive integer, falling back to the CPU count",
                RuntimeWarning,
                stacklevel=2,
            )
    return max(1, os.cpu_count() or 1)


def _pool_context():
    """The multiprocessing context used for worker pools (fork where available)."""
    try:
        return get_context("fork")
    except ValueError:  # platforms without fork (e.g. Windows)
        return get_context()


def _apply_indexed(worker, indexed):
    index, item = indexed
    return index, worker(item)


def parallel_imap_unordered(
    worker: Callable,
    items: Iterable,
    *,
    processes: int | None = None,
) -> Iterator[tuple[int, object]]:
    """Yield ``(index, worker(item))`` pairs as results complete, in any order.

    The experiment runner uses it: results are handed back as soon as a
    worker finishes so the caller can persist them incrementally (crash-safe
    sweeps).  With ``processes<=1`` or a single item the work runs serially
    in-process, which keeps the code path identical in restricted
    environments and in tests.  ``worker`` must be picklable (a module-level
    function or :func:`functools.partial` of one) when more than one process
    is used.
    """
    items = list(items)
    processes = default_workers() if processes is None else max(1, processes)
    if processes <= 1 or len(items) <= 1:
        for pair in enumerate(items):
            yield _apply_indexed(worker, pair)
        return
    with _pool_context().Pool(processes=min(processes, len(items))) as pool:
        yield from pool.imap_unordered(partial(_apply_indexed, worker), enumerate(items))
