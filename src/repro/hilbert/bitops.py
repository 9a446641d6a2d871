"""Bit-level utilities for enumerating and manipulating computational basis states.

QAOA statevector simulation indexes the Hilbert space by integers whose binary
expansion is the computational basis state.  This module provides the
bit-twiddling primitives the rest of the package is built on:

* vectorized popcounts and parities over ``numpy`` integer arrays,
* Gosper's hack for iterating over all ``n``-bit words with a fixed number of
  set bits (used for Hamming-weight-constrained, i.e. Dicke-subspace,
  problems, as described in Sec. 2.4 of the paper),
* conversions between integer labels and explicit 0/1 bit arrays.

Bit order convention
--------------------
Bit ``i`` of the integer label corresponds to qubit ``i``; qubit 0 is the
least-significant bit.  An explicit bit array ``x`` therefore satisfies
``label = sum(x[i] << i)``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "popcount",
    "parity",
    "bit_get",
    "bits_to_int",
    "int_to_bits",
    "ints_to_bit_matrix",
    "bit_matrix_to_ints",
    "gosper_next",
    "gosper_iter",
    "first_weight_k",
    "last_weight_k",
]

# 16-bit lookup table for vectorized popcount on arbitrary integer arrays.
_POPCOUNT16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def popcount(values: np.ndarray | int) -> np.ndarray | int:
    """Number of set bits of each element of ``values``.

    Accepts Python ints or numpy integer arrays (any integer dtype up to 64
    bits) and returns the same shape.  Scalar input returns a Python int.
    """
    if isinstance(values, (int, np.integer)):
        return int(values).bit_count()
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"popcount requires an integer array, got {arr.dtype}")
    v = arr.astype(np.uint64, copy=False)
    total = np.zeros(v.shape, dtype=np.int64)
    for shift in (0, 16, 32, 48):
        total += _POPCOUNT16[((v >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.int64)]
    return total


def parity(values: np.ndarray | int) -> np.ndarray | int:
    """Parity (popcount mod 2) of each element of ``values``."""
    p = popcount(values)
    if isinstance(p, (int, np.integer)):
        return int(p) & 1
    return (p & 1).astype(np.int8)


def bit_get(values: np.ndarray | int, bit: int) -> np.ndarray | int:
    """Value (0/1) of bit ``bit`` of each element of ``values``."""
    if isinstance(values, (int, np.integer)):
        return (int(values) >> bit) & 1
    arr = np.asarray(values).astype(np.uint64, copy=False)
    return ((arr >> np.uint64(bit)) & np.uint64(1)).astype(np.int8)


def bits_to_int(bits) -> int:
    """Convert an iterable of 0/1 values (qubit 0 first) to its integer label."""
    label = 0
    for i, b in enumerate(bits):
        b = int(b)
        if b not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {b!r} at position {i}")
        label |= b << i
    return label


def int_to_bits(label: int, n: int) -> np.ndarray:
    """Convert an integer label to an explicit length-``n`` 0/1 array (qubit 0 first)."""
    if label < 0:
        raise ValueError("state labels must be non-negative")
    if n < 0:
        raise ValueError("number of qubits must be non-negative")
    if label >> n:
        raise ValueError(f"label {label} does not fit in {n} bits")
    return np.array([(label >> i) & 1 for i in range(n)], dtype=np.int8)


def ints_to_bit_matrix(labels: np.ndarray, n: int) -> np.ndarray:
    """Convert an array of integer labels to a ``(len(labels), n)`` 0/1 matrix.

    Returns a C-contiguous ``int8`` array.  The bits come from unpacking each
    label's eight little-endian bytes, which never forms a ``(m, n)`` uint64
    temporary.
    """
    arr = np.ascontiguousarray(np.asarray(labels, dtype=np.uint64), dtype="<u8")
    bits = np.unpackbits(
        arr.view(np.uint8).reshape(-1, 8), axis=1, count=n, bitorder="little"
    )
    return bits.view(np.int8)


def bit_matrix_to_ints(bits: np.ndarray) -> np.ndarray:
    """Convert a ``(m, n)`` 0/1 matrix to integer labels (inverse of ints_to_bit_matrix)."""
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("expected a 2-D bit matrix")
    n = bits.shape[1]
    weights = (np.uint64(1) << np.arange(n, dtype=np.uint64))
    return (bits.astype(np.uint64) * weights[None, :]).sum(axis=1)


def gosper_next(v: int) -> int:
    """Next integer with the same popcount as ``v`` (Gosper's hack).

    The classic bit trick used by the paper to enumerate Hamming-weight-k
    states without touching infeasible states.  ``v`` must be positive.
    """
    if v <= 0:
        raise ValueError("Gosper's hack requires a positive integer")
    c = v & -v
    r = v + c
    return (((r ^ v) >> 2) // c) | r


def first_weight_k(n: int, k: int) -> int:
    """Smallest ``n``-bit integer with ``k`` set bits."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return (1 << k) - 1


def last_weight_k(n: int, k: int) -> int:
    """Largest ``n``-bit integer with ``k`` set bits."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return ((1 << k) - 1) << (n - k)


def gosper_iter(n: int, k: int) -> Iterator[int]:
    """Iterate over all ``n``-bit integers with exactly ``k`` set bits, ascending.

    Yields ``C(n, k)`` integers.  ``k = 0`` yields the single value 0.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        yield 0
        return
    v = first_weight_k(n, k)
    limit = 1 << n
    while v < limit:
        yield v
        if v == last_weight_k(n, k):
            return
        v = gosper_next(v)
