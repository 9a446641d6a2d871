"""Arbitrary user-supplied mixers.

The paper notes that "any mixer that is not of the above formats ... can be
implemented as a unitary matrix, and JuliQAOA will compute and store the
eigendecomposition".  Two entry points cover that:

* :class:`HermitianMixer` — the mixer Hamiltonian is given as an explicit
  Hermitian matrix over the feasible space; it is eigendecomposed once and
  then behaves like any other diagonalized mixer.
* :class:`FixedUnitaryMixer` — a fixed unitary ``U`` is given; its matrix
  logarithm defines an effective Hamiltonian ``H = i log(U)`` so that
  ``beta = 1`` reproduces ``U`` exactly and other angles interpolate along the
  same one-parameter group.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..backend import kernels
from ..hilbert.subspace import FeasibleSpace, FullSpace
from ..io.cache import cached_eigendecomposition
from .base import DiagonalizedMixer, per_input

__all__ = ["HermitianMixer", "FixedUnitaryMixer", "is_hermitian", "is_unitary"]


def is_hermitian(matrix: np.ndarray, atol: float = 1e-10) -> bool:
    """Whether ``matrix`` is Hermitian to tolerance ``atol``."""
    matrix = np.asarray(matrix)
    return matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1] and np.allclose(
        matrix, matrix.conj().T, atol=atol
    )


def is_unitary(matrix: np.ndarray, atol: float = 1e-10) -> bool:
    """Whether ``matrix`` is unitary to tolerance ``atol``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return np.allclose(matrix @ matrix.conj().T, identity, atol=atol)


class HermitianMixer(DiagonalizedMixer):
    """Mixer defined by an explicit Hermitian matrix over the feasible space."""

    def __init__(
        self,
        matrix: np.ndarray,
        space: FeasibleSpace | None = None,
        *,
        file: str | Path | None = None,
        name: str = "hermitian",
    ):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("mixer matrix must be square")
        if not is_hermitian(matrix):
            raise ValueError(
                "mixer matrix must be Hermitian; use FixedUnitaryMixer for unitary input"
            )
        dim = matrix.shape[0]
        if space is None:
            n = dim.bit_length() - 1
            if 1 << n != dim:
                raise ValueError(
                    "matrix dimension is not a power of two; pass the feasible space explicitly"
                )
            space = FullSpace(n)
        if space.dim != dim:
            raise ValueError(
                f"matrix dimension {dim} does not match feasible-space dimension {space.dim}"
            )
        self.name = name
        key = f"{name}_dim{dim}"
        eigenvalues, eigenvectors = cached_eigendecomposition(
            file, key, lambda: np.linalg.eigh(matrix)
        )
        super().__init__(space, eigenvalues, eigenvectors)

    def cache_key(self) -> str:
        return f"{self.name}_dim{self.dim}"


class FixedUnitaryMixer(DiagonalizedMixer):
    """Mixer defined by a fixed unitary ``U``; a layer at angle ``beta`` applies ``U^beta``.

    The effective Hamiltonian is ``H = i log(U)`` computed from the unitary's
    eigendecomposition: ``U = W diag(e^{i phi}) W^†`` gives eigenvalues
    ``-phi`` for ``H`` so that ``exp(-i * 1 * H) = U``.
    """

    def __init__(
        self, unitary: np.ndarray, space: FeasibleSpace | None = None, *, name: str = "unitary"
    ):
        unitary = np.asarray(unitary, dtype=np.complex128)
        if not is_unitary(unitary):
            raise ValueError("input matrix is not unitary")
        dim = unitary.shape[0]
        if space is None:
            n = dim.bit_length() - 1
            if 1 << n != dim:
                raise ValueError(
                    "matrix dimension is not a power of two; pass the feasible space explicitly"
                )
            space = FullSpace(n)
        if space.dim != dim:
            raise ValueError(
                f"matrix dimension {dim} does not match feasible-space dimension {space.dim}"
            )
        # A unitary is normal, so Schur form is diagonal: U = W T W^† with T diagonal.
        from scipy.linalg import schur

        T, W = schur(unitary, output="complex")
        phases = np.angle(np.diag(T))
        self.name = name
        self.unitary = unitary
        super().__init__(space, -phases, W)

    def apply_batch(
        self,
        Psi: np.ndarray,
        betas: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched layer with a ``beta = 1`` fast path.

        When every column uses ``beta = 1`` (the defining case: apply ``U``
        itself), the layer is a single GEMM with the stored unitary — exact by
        construction and half the work of the eigenbasis round trip through
        ``i log(U)``; with a column map it runs on the distinct inputs only.
        Mixed angles fall back to the diagonalized batch path.
        """
        Psi, out, M = self._check_batch(Psi, out, columns)
        betas = self._batch_angles(betas, M)
        if M > 0 and np.all(betas == 1.0):
            def gemm(src, dst):
                return kernels.matmul(self.unitary, src, out=dst)

            if columns is None and not np.may_share_memory(out, Psi):
                return gemm(Psi, out)
            free = workspace.scratch(M) if workspace is not None else np.empty_like(out)
            if columns is None:
                out[:] = gemm(Psi, free)
                return out
            return per_input(gemm, Psi, out, columns, free)
        return super().apply_batch(Psi, betas, out=out, workspace=workspace, columns=columns)

    def cache_key(self) -> str:
        return f"{self.name}_dim{self.dim}"
