"""Timing and memory measurement utilities for the benchmark harness."""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

from ..hpc.memory import measure_peak_allocation

__all__ = ["time_call", "time_and_memory", "merge_backend_records"]


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


def merge_backend_records(
    path: Path, payload: dict, records: list[dict], backend: str
) -> dict:
    """Write a BENCH_*.json keeping other backends' rows (the per-backend column).

    Every record gains a ``"backend"`` field; rows previously recorded under a
    *different* backend are preserved, rows for ``backend`` are replaced — so
    one file accumulates a column per backend (numpy locally, torch from
    the CI backend matrix) without runs clobbering each other.  Returns the
    full payload that was written.
    """
    for record in records:
        record["backend"] = backend
    kept: list[dict] = []
    if path.exists():
        try:
            previous = json.loads(path.read_text())
            kept = [
                record
                for record in previous.get("records", [])
                # legacy rows without a backend field were numpy runs
                if record.get("backend", "numpy") != backend
            ]
        except (json.JSONDecodeError, OSError):
            kept = []
    payload = dict(payload)
    payload["records"] = kept + records
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload
