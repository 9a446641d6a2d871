"""Timing and memory measurement utilities for the benchmark harness."""

from __future__ import annotations

import time
from typing import Callable

from ..hpc.memory import measure_peak_allocation

__all__ = ["time_call", "time_and_memory"]


def time_call(func: Callable[[], object], *, repeats: int = 3, warmup: int = 1) -> dict:
    """Run ``func`` several times and report wall-clock statistics in seconds.

    ``warmup`` runs are executed first and discarded (cache/JIT effects); the
    returned dict has ``min``, ``mean``, ``max`` and the per-run ``times``.
    The minimum is the most robust single number on a shared machine and is
    what the figure harness reports.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    for _ in range(max(0, warmup)):
        func()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return {
        "min": min(times),
        "mean": sum(times) / len(times),
        "max": max(times),
        "times": times,
    }


def time_and_memory(func: Callable[[], object], *, repeats: int = 3, warmup: int = 1) -> dict:
    """Wall-clock statistics plus the peak Python-heap allocation of one run."""
    stats = time_call(func, repeats=repeats, warmup=warmup)
    _, peak = measure_peak_allocation(func)
    stats["peak_bytes"] = int(peak)
    return stats
