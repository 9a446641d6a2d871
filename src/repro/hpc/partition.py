"""Partitioning of state spaces across shard workers.

Each shard worker (:mod:`repro.hpc.sharded`) owns one disjoint chunk of the
feasible space and evaluates its objective there, with no communication.
The paper notes that the full hypercube partitions trivially as integer ranges
and that Hamming-weight-``k`` spaces can be walked with Gosper's hack; the
combinatorial ranking of :mod:`repro.hilbert.dicke` lets us jump straight to
the ``r``-th weight-``k`` state so each worker starts without enumerating its
predecessors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from ..hilbert.bitops import gosper_next
from ..hilbert.dicke import unrank_state

__all__ = ["Chunk", "split_range", "split_full_space", "split_dicke_space", "chunk_labels"]


@dataclass(frozen=True)
class Chunk:
    """A contiguous slice of a feasible space assigned to one worker.

    For the full hypercube ``start``/``stop`` are integer state labels; for a
    Dicke space they are *ranks* in the canonical weight-``k`` ordering and
    ``start_label`` holds the corresponding first state label.
    """

    index: int
    start: int
    stop: int
    start_label: int | None = None

    @property
    def size(self) -> int:
        """Number of states in the chunk."""
        return self.stop - self.start


def split_range(total: int, num_chunks: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into at most ``num_chunks`` near-equal contiguous ranges."""
    if total < 0:
        raise ValueError("total must be non-negative")
    if num_chunks < 1:
        raise ValueError("num_chunks must be positive")
    num_chunks = min(num_chunks, max(total, 1))
    base, extra = divmod(total, num_chunks)
    ranges = []
    start = 0
    for i in range(num_chunks):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return [r for r in ranges if r[1] > r[0]] or [(0, 0)]


def split_full_space(n: int, num_workers: int) -> list[Chunk]:
    """Partition the full ``2^n`` label range across workers."""
    if n < 0:
        raise ValueError("n must be non-negative")
    ranges = split_range(1 << n, num_workers)
    return [Chunk(index=i, start=a, stop=b) for i, (a, b) in enumerate(ranges)]


def split_dicke_space(n: int, k: int, num_workers: int) -> list[Chunk]:
    """Partition the weight-``k`` subspace across workers by rank ranges.

    Each chunk records the label of its first state (obtained by combinatorial
    unranking) so workers can resume Gosper iteration from there directly.
    """
    total = comb(n, k)
    ranges = split_range(total, num_workers)
    chunks = []
    for i, (a, b) in enumerate(ranges):
        start_label = unrank_state(a, n, k) if b > a else None
        chunks.append(Chunk(index=i, start=a, stop=b, start_label=start_label))
    return chunks


def chunk_labels(chunk: Chunk, n: int, k: int | None = None) -> np.ndarray:
    """Materialize the state labels of a chunk.

    For full-space chunks (``k is None``) this is just an ``arange``; for
    Dicke chunks the labels are generated by Gosper iteration starting from
    the chunk's first label.
    """
    if k is None:
        return np.arange(chunk.start, chunk.stop, dtype=np.int64)
    if chunk.size == 0:
        return np.zeros(0, dtype=np.int64)
    if chunk.start_label is None:
        raise ValueError("Dicke chunk is missing its start label")
    labels = np.empty(chunk.size, dtype=np.int64)
    label = chunk.start_label
    for i in range(chunk.size):
        labels[i] = label
        if i + 1 < chunk.size:
            label = gosper_next(label)
    return labels
