"""Compressed objective representations for Grover-mixer QAOA.

Sec. 2.4 of the paper: with the Grover mixer all states sharing an objective
value keep identical amplitudes throughout the evolution ("fair sampling"), so
the simulation only needs the *distinct* objective values and how many states
take each value (the degeneracies), not the full ``2^n`` value vector.  That
compressed spectrum is what enables Grover-QAOA simulation up to ``n ≈ 100``.

Three ways of obtaining the compressed spectrum are provided:

* :func:`compress_objective` — from an explicit value vector (small ``n``),
* :func:`compress_streaming` — by streaming over the feasible space in chunks
  without ever materializing the full vector (this is the path that
  parallelizes across workers; see :mod:`repro.grover.parallel`),
* analytic constructors for structured objectives
  (:func:`hamming_weight_spectrum`, :func:`binomial_spectrum`) where the
  degeneracies follow from counting arguments and arbitrary ``n`` is possible.

Degeneracies are kept as Python integers (exact even beyond 2^53) and
converted to floats only where they enter amplitude arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

import numpy as np

from ..hilbert.bitops import gosper_iter, ints_to_bit_matrix

__all__ = [
    "CompressedObjective",
    "compress_objective",
    "compress_streaming",
    "compress_streaming_dicke",
    "hamming_weight_spectrum",
    "binomial_spectrum",
]


@dataclass(frozen=True)
class CompressedObjective:
    """Distinct objective values with exact degeneracy counts.

    Attributes
    ----------
    values:
        Sorted (ascending) distinct objective values.
    degeneracies:
        Number of feasible states attaining each value (exact Python ints).
    total:
        Total number of feasible states (sum of degeneracies), kept separately
        because it can exceed 2^53.
    """

    values: np.ndarray
    degeneracies: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("compressed spectrum must contain at least one value")
        if np.any(np.diff(values) <= 0):
            raise ValueError("distinct values must be strictly increasing")
        degeneracies = tuple(int(d) for d in self.degeneracies)
        if len(degeneracies) != values.size:
            raise ValueError("values and degeneracies must have the same length")
        if any(d <= 0 for d in degeneracies):
            raise ValueError("degeneracies must be positive")
        total = sum(degeneracies)
        if total != self.total:
            raise ValueError(f"total={self.total} does not match the sum of degeneracies ({total})")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "degeneracies", degeneracies)

    # ------------------------------------------------------------------
    @property
    def num_distinct(self) -> int:
        """Number of distinct objective values."""
        return int(self.values.size)

    @property
    def optimum(self) -> float:
        """Largest objective value (maximization convention)."""
        return float(self.values[-1])

    @property
    def optimum_degeneracy(self) -> int:
        """Number of optimal states."""
        return self.degeneracies[-1]

    def degeneracy_array(self) -> np.ndarray:
        """Degeneracies as a float array (loses exactness above 2^53; used in arithmetic)."""
        return np.array([float(d) for d in self.degeneracies], dtype=np.float64)

    def mean(self) -> float:
        """Mean objective value over the feasible space."""
        degs = self.degeneracy_array()
        return float(np.dot(self.values, degs) / float(self.total))

    def merge(self, other: "CompressedObjective") -> "CompressedObjective":
        """Combine two partial spectra (e.g. from different workers)."""
        combined: dict[float, int] = {}
        for value, deg in zip(self.values, self.degeneracies):
            combined[float(value)] = combined.get(float(value), 0) + deg
        for value, deg in zip(other.values, other.degeneracies):
            combined[float(value)] = combined.get(float(value), 0) + deg
        values = np.array(sorted(combined), dtype=np.float64)
        degs = tuple(combined[float(v)] for v in values)
        return CompressedObjective(values=values, degeneracies=degs, total=self.total + other.total)

    def expand(self) -> np.ndarray:
        """The full (sorted) objective vector — only sensible for small totals."""
        if self.total > 1 << 22:
            raise ValueError("refusing to expand a spectrum with more than 2^22 states")
        return np.repeat(self.values, [int(d) for d in self.degeneracies])


def compress_objective(
    obj_vals: np.ndarray | Sequence[float], decimals: int | None = None
) -> CompressedObjective:
    """Compress an explicit objective vector into distinct values + degeneracies.

    ``decimals`` optionally rounds values before grouping, which is useful for
    continuous objectives where floating-point noise would otherwise split
    classes.
    """
    vals = np.asarray(obj_vals, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ValueError("objective values must be non-empty")
    if decimals is not None:
        vals = np.round(vals, decimals)
    distinct, counts = np.unique(vals, return_counts=True)
    return CompressedObjective(
        values=distinct,
        degeneracies=tuple(int(c) for c in counts),
        total=int(vals.size),
    )


def compress_streaming(
    cost_vectorized: Callable[[np.ndarray], np.ndarray],
    n: int,
    *,
    start: int = 0,
    stop: int | None = None,
    chunk_size: int = 1 << 14,
    decimals: int | None = None,
) -> CompressedObjective:
    """Compress the objective over labels ``[start, stop)`` without storing all values.

    The label range is processed in chunks; each chunk is converted to a bit
    matrix, evaluated with ``cost_vectorized`` and folded into a running
    value → count dictionary.  Partitioning ``[0, 2^n)`` across workers and
    merging the partial spectra reproduces the paper's multi-worker degeneracy
    counting for unconstrained problems.
    """
    if stop is None:
        stop = 1 << n
    if not 0 <= start <= stop <= (1 << n):
        raise ValueError(f"invalid label range [{start}, {stop}) for n={n}")
    if chunk_size < 1:
        raise ValueError("chunk size must be positive")
    counts: dict[float, int] = {}
    position = start
    while position < stop:
        block = np.arange(position, min(position + chunk_size, stop), dtype=np.int64)
        bits = ints_to_bit_matrix(block, n)
        vals = np.asarray(cost_vectorized(bits), dtype=np.float64)
        if decimals is not None:
            vals = np.round(vals, decimals)
        distinct, block_counts = np.unique(vals, return_counts=True)
        for value, count in zip(distinct, block_counts):
            counts[float(value)] = counts.get(float(value), 0) + int(count)
        position += chunk_size
    values = np.array(sorted(counts), dtype=np.float64)
    degs = tuple(counts[float(v)] for v in values)
    return CompressedObjective(values=values, degeneracies=degs, total=stop - start)


def compress_streaming_dicke(
    cost_vectorized: Callable[[np.ndarray], np.ndarray],
    n: int,
    k: int,
    *,
    chunk_size: int = 1 << 14,
    decimals: int | None = None,
) -> CompressedObjective:
    """Compress the objective over all Hamming-weight-``k`` states via Gosper iteration."""
    counts: dict[float, int] = {}
    buffer: list[int] = []
    total = 0

    def flush() -> None:
        nonlocal total
        if not buffer:
            return
        bits = ints_to_bit_matrix(np.array(buffer, dtype=np.int64), n)
        vals = np.asarray(cost_vectorized(bits), dtype=np.float64)
        if decimals is not None:
            vals = np.round(vals, decimals)
        distinct, block_counts = np.unique(vals, return_counts=True)
        for value, count in zip(distinct, block_counts):
            counts[float(value)] = counts.get(float(value), 0) + int(count)
        total += len(buffer)
        buffer.clear()

    for label in gosper_iter(n, k):
        buffer.append(label)
        if len(buffer) >= chunk_size:
            flush()
    flush()
    values = np.array(sorted(counts), dtype=np.float64)
    degs = tuple(counts[float(v)] for v in values)
    return CompressedObjective(values=values, degeneracies=degs, total=total)


def hamming_weight_spectrum(n: int, value_of_weight: Callable[[int], float]) -> CompressedObjective:
    """Analytic spectrum for objectives that depend only on the Hamming weight.

    The degeneracy of weight ``w`` is ``C(n, w)`` exactly, so this works for
    arbitrary ``n`` (the paper's ``n = 100`` Grover simulations target exactly
    this kind of structured objective).  Weights mapping to the same value are
    merged.
    """
    if n < 1:
        raise ValueError("n must be positive")
    counts: dict[float, int] = {}
    for w in range(n + 1):
        value = float(value_of_weight(w))
        counts[value] = counts.get(value, 0) + comb(n, w)
    values = np.array(sorted(counts), dtype=np.float64)
    degs = tuple(counts[float(v)] for v in values)
    return CompressedObjective(values=values, degeneracies=degs, total=1 << n)


def binomial_spectrum(values: Sequence[float], degeneracies: Sequence[int]) -> CompressedObjective:
    """Build a spectrum from explicit (value, degeneracy) pairs (synthetic workloads)."""
    order = np.argsort(np.asarray(values, dtype=np.float64))
    sorted_values = np.asarray(values, dtype=np.float64)[order]
    sorted_degs = tuple(int(degeneracies[i]) for i in order)
    return CompressedObjective(
        values=sorted_values,
        degeneracies=sorted_degs,
        total=sum(sorted_degs),
    )
