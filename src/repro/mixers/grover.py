"""The Grover mixer.

The Grover mixer (Bärtschi & Eidenbenz 2020; Sec. 2.4 of the paper) is the
rank-one projector onto the initial state,

    H_G = |psi0><psi0| ,

where ``|psi0>`` is the uniform superposition over the feasible space (the
full hypercube for unconstrained problems, a Dicke state for Hamming-weight
constrained ones).  Its exponential has a closed form,

    exp(-i beta H_G) = I + (e^{-i beta} - 1) |psi0><psi0| ,

so one layer costs a single inner product and an axpy — ``O(dim)`` with a tiny
constant, no transforms or matrix products at all.  Because the mixer only
couples states through their overlap with ``|psi0>``, amplitudes of states
with equal objective value remain equal throughout the evolution ("fair
sampling"), which is what the compressed simulation in :mod:`repro.grover`
exploits.
"""

from __future__ import annotations

import numpy as np

from ..backend import kernels
from ..hilbert.subspace import DickeSpace, FeasibleSpace, FullSpace
from .base import Mixer

__all__ = ["GroverMixer", "grover_mixer", "grover_mixer_dicke"]


class GroverMixer(Mixer):
    """Rank-one Grover mixer ``H_G = |psi0><psi0|`` over an arbitrary feasible space."""

    def __init__(self, space: FeasibleSpace, initial: np.ndarray | None = None):
        super().__init__(space)
        if initial is None:
            initial = space.initial_state()
        initial = np.asarray(initial, dtype=np.complex128)
        if initial.shape != (space.dim,):
            raise ValueError(f"initial state has shape {initial.shape}, expected ({space.dim},)")
        norm = np.linalg.norm(initial)
        if not np.isclose(norm, 1.0):
            if norm == 0:
                raise ValueError("initial state must be non-zero")
            initial = initial / norm
        self.psi0 = initial
        self._psi0_conj = initial.conj()

    def apply_batch(
        self,
        Psi: np.ndarray,
        betas: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched rank-one update in ``O(dim * M)``.

        One GEMV collects all M overlaps ``<psi0|psi_j>`` at once (only the
        distinct inputs' under a column map), then a single outer-product
        update applies every column's phase factor — no transforms or matrix
        products, ``O(dim)`` per statevector.
        """
        Psi, out, M = self._check_batch(Psi, out, columns)
        betas = self._batch_angles(betas, M)
        overlaps = kernels.matmul(self._psi0_conj, Psi)
        if columns is not None:
            overlaps = overlaps[columns]
            np.take(Psi, columns, axis=1, out=out, mode="clip")
        elif out is not Psi:
            out[:] = Psi
        factors = (np.exp(-1j * betas) - 1.0) * overlaps
        if workspace is not None:
            update = np.multiply(self.psi0[:, None], factors[None, :], out=workspace.scratch(M))
            out += update
        else:
            out += self.psi0[:, None] * factors[None, :]
        return out

    def apply_hamiltonian_batch(
        self,
        Psi: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Batched rank-one product: one GEMV of overlaps, one outer product."""
        Psi, out, M = self._check_batch(Psi, out)
        overlaps = kernels.matmul(self._psi0_conj, Psi)
        np.multiply(self.psi0[:, None], overlaps[None, :], out=out)
        return out

    def matrix(self) -> np.ndarray:
        return np.outer(self.psi0, self.psi0.conj())

    def initial_state(self, dtype=np.complex128) -> np.ndarray:
        return self.psi0.astype(dtype, copy=True)

    def cache_key(self) -> str:
        return f"GroverMixer_n{self.n}_{self.space.name}"


def grover_mixer(n: int) -> GroverMixer:
    """Grover mixer over the full ``2^n`` space (unconstrained problems)."""
    return GroverMixer(FullSpace(n))


def grover_mixer_dicke(n: int, k: int) -> GroverMixer:
    """Grover mixer over the Hamming-weight-``k`` Dicke subspace.

    The Grover mixer conserves Hamming weight (Sec. 2.4, property 1), so it is
    a valid constrained mixer when restricted to the feasible subspace.
    """
    return GroverMixer(DickeSpace(n, k))
