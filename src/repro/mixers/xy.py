"""XY-interaction mixers on Hamming-weight-constrained (Dicke) subspaces.

The Clique and Ring mixers of Hadfield et al. (2019) are sums of two-qubit
XY interactions,

    H_M = sum_{(i,j) in P}  ( X_i X_j + Y_i Y_j ) ,

over an interaction pattern ``P`` (all pairs for the Clique mixer, nearest
neighbours on a cycle for the Ring mixer).  Each XY term swaps a 01 pair into
a 10 pair with amplitude 2 and annihilates 00/11 pairs, so the mixer conserves
Hamming weight and acts block-diagonally on Dicke subspaces.

Unlike the products-of-X mixers these do not diagonalize with single-qubit
rotations, so — exactly as the paper does — we restrict the operator to the
``C(n, k)``-dimensional feasible subspace, build that dense matrix once,
eigendecompose it (``H_M = V D V^T``; the matrix is real symmetric), and reuse
the factors for every layer and every angle.  The decomposition can be cached
to disk (Listing 2's ``file=`` option) via :mod:`repro.io.cache`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from ..hilbert.dicke import dicke_labels
from ..hilbert.subspace import DickeSpace
from ..io.cache import cached_eigendecomposition
from .base import DiagonalizedMixer

__all__ = [
    "xy_subspace_matrix",
    "XYMixer",
    "CliqueMixer",
    "RingMixer",
    "mixer_clique",
    "mixer_ring",
]


def xy_subspace_matrix(n: int, k: int, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Dense matrix of ``sum_{(i,j)} (X_i X_j + Y_i Y_j)`` on the weight-``k`` subspace.

    The matrix is indexed by the canonical Dicke ordering of
    :func:`repro.hilbert.dicke.dicke_labels`.  Entry ``(a, b)`` is 2 for every
    interaction pair whose swap maps state ``b`` to state ``a``.
    """
    labels = dicke_labels(n, k)
    dim = len(labels)
    index = {int(label): idx for idx, label in enumerate(labels)}
    mat = np.zeros((dim, dim), dtype=np.float64)
    for a_idx, label in enumerate(labels):
        label = int(label)
        for i, j in pairs:
            bi = (label >> i) & 1
            bj = (label >> j) & 1
            if bi == bj:
                continue
            swapped = label ^ ((1 << i) | (1 << j))
            b_idx = index[swapped]
            # (X X + Y Y) |01> = 2 |10>, so each differing pair contributes 2.
            mat[b_idx, a_idx] += 2.0
    return mat


def _validate_pairs(n: int, pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    cleaned = []
    for i, j in pairs:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError("XY interaction pairs must connect distinct qubits")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pair ({i},{j}) out of range for n={n}")
        cleaned.append((min(i, j), max(i, j)))
    if not cleaned:
        raise ValueError("at least one interaction pair is required")
    return tuple(sorted(set(cleaned)))


class XYMixer(DiagonalizedMixer):
    """General XY mixer restricted to a Dicke subspace, with cached spectral data."""

    def __init__(
        self,
        n: int,
        k: int,
        pairs: Sequence[tuple[int, int]],
        *,
        name: str = "xy",
        file: str | Path | None = None,
    ):
        space = DickeSpace(n, k)
        self.pairs = _validate_pairs(n, pairs)
        self.pattern_name = name
        self._file = Path(file) if file is not None else None
        key = self._make_key(n, k)
        eigenvalues, eigenvectors = cached_eigendecomposition(
            self._file, key, lambda: self._compute_decomposition(n, k)
        )
        # XY mixers are real symmetric, so the eigenbasis is real — coerce
        # complex-typed arrays from older disk caches back to float64 so the
        # real-GEMM fast path of DiagonalizedMixer is always taken.
        eigenvectors = np.asarray(eigenvectors)
        if np.iscomplexobj(eigenvectors):
            if np.abs(eigenvectors.imag).max() > 1e-12:
                raise ValueError(
                    f"cached eigenvectors for {key!r} have non-real entries; "
                    "the spectral cache is corrupted — delete it and rebuild"
                )
            eigenvectors = np.ascontiguousarray(eigenvectors.real)
        super().__init__(space, eigenvalues, eigenvectors)
        self.k = k

    def _make_key(self, n: int, k: int) -> str:
        return f"{self.pattern_name}_n{n}_k{k}_pairs{len(self.pairs)}"

    def _compute_decomposition(self, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        mat = xy_subspace_matrix(n, k, self.pairs)
        eigenvalues, eigenvectors = np.linalg.eigh(mat)
        return eigenvalues, eigenvectors

    def _require_real_basis(self) -> None:
        if not self._real_basis:
            raise RuntimeError(
                f"{type(self).__name__} lost its real eigenbasis; spectral "
                "data was replaced after construction"
            )

    def apply_batch(
        self,
        Psi: np.ndarray,
        betas: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched XY layer: the two basis-change GEMMs run as real GEMMs.

        The constructor guarantees a real eigenbasis, so both GEMMs of the
        diagonalized batch path operate on the interleaved re/im float view —
        half the flops of complex GEMMs.  This override pins that invariant so
        a silent fall-back to the promoted complex path cannot creep in.
        """
        self._require_real_basis()
        return super().apply_batch(Psi, betas, out=out, workspace=workspace, columns=columns)

    def apply_hamiltonian_batch(
        self,
        Psi: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Batched ``H_M`` product with the same real-GEMM invariant as
        :meth:`apply_batch` (the batched adjoint pass calls this every round)."""
        self._require_real_basis()
        return super().apply_hamiltonian_batch(Psi, out=out, workspace=workspace)

    def cache_key(self) -> str:
        return self._make_key(self.n, self.k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.n}, k={self.k}, "
            f"pairs={len(self.pairs)}, dim={self.dim})"
        )


class CliqueMixer(XYMixer):
    """Complete-graph XY mixer ``sum_{i<j} X_i X_j + Y_i Y_j`` on the weight-``k`` subspace."""

    def __init__(self, n: int, k: int, *, file: str | Path | None = None):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        super().__init__(n, k, pairs, name="clique", file=file)


class RingMixer(XYMixer):
    """Cyclic nearest-neighbour XY mixer ``sum_i X_i X_{i+1} + Y_i Y_{i+1}`` (indices mod n)."""

    def __init__(self, n: int, k: int, *, file: str | Path | None = None):
        if n < 2:
            raise ValueError("the ring mixer needs at least two qubits")
        pairs = [(i, (i + 1) % n) for i in range(n)]
        # On two qubits the "ring" degenerates to the single edge (0, 1).
        super().__init__(n, k, pairs, name="ring", file=file)


def mixer_clique(n: int, k: int, *, file: str | Path | None = None) -> CliqueMixer:
    """Convenience constructor mirroring the paper's ``mixer_clique(n, k; file=...)``."""
    return CliqueMixer(n, k, file=file)


def mixer_ring(n: int, k: int, *, file: str | Path | None = None) -> RingMixer:
    """Convenience constructor mirroring the paper's ``mixer_ring(n, k; file=...)``."""
    return RingMixer(n, k, file=file)
