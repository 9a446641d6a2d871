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

from functools import cached_property

import numpy as np

from ..backend import kernels
from ..hilbert.subspace import DickeSpace, FeasibleSpace, FullSpace
from .base import Mixer

__all__ = ["GroverMixer", "grover_mixer", "grover_mixer_dicke"]


class GroverMixer(Mixer):
    """Rank-one Grover mixer ``H_G = |psi0><psi0|`` over an arbitrary feasible space."""

    def __init__(self, space: FeasibleSpace, initial: np.ndarray | None = None):
        super().__init__(space)
        if initial is not None:
            initial = np.asarray(initial, dtype=np.complex128)
            if initial.shape != (space.dim,):
                raise ValueError(
                    f"initial state has shape {initial.shape}, expected ({space.dim},)"
                )
            norm = np.linalg.norm(initial)
            if not np.isclose(norm, 1.0):
                if norm == 0:
                    raise ValueError("initial state must be non-zero")
                initial = initial / norm
        self._initial = initial

    @cached_property
    def psi0(self) -> np.ndarray:
        """The start state the mixer projects onto (the uniform one built on first use)."""
        return self.space.initial_state() if self._initial is None else self._initial

    @cached_property
    def _psi0_conj(self) -> np.ndarray:
        return self.psi0.conj()

    @property
    def flip_invariant(self) -> bool:
        """The uniform state over the full space is flip-invariant; other spaces
        and custom start states are not taken to be."""
        return self._initial is None and self.space.is_full

    def flip_folded(self) -> "GroverMixer":
        """The Grover mixer of the flip-symmetric half: the uniform state over
        the half is the full uniform state, so it is Grover on ``FullSpace(n - 1)``."""
        if not self.flip_invariant:
            return super().flip_folded()
        return GroverMixer(FullSpace(self.n - 1))

    def _add_psi0(self, out: np.ndarray, factors: np.ndarray, workspace) -> None:
        """``out += |psi0> factors``: one outer-product update of every column."""
        update = None if workspace is None else workspace.scratch(out.shape[1])
        out += np.multiply(self.psi0[:, None], factors[None, :], out=update)

    def apply_batch(
        self,
        Psi: np.ndarray,
        betas: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
        columns: np.ndarray | None = None,
        record: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched rank-one update in ``O(dim * M)``.

        One GEMV collects all M overlaps ``<psi0|psi_j>`` at once (only the
        distinct inputs' under a column map), then a single outer-product
        update applies every column's phase factor — no transforms or matrix
        products, ``O(dim)`` per statevector.  Nothing is recorded: the
        adjoint needs only the layer input.
        """
        Psi, out, M = self._check_batch(Psi, out, columns)
        betas = self._batch_angles(betas, M)
        overlaps = kernels.matmul(self._psi0_conj, Psi)
        if columns is not None:
            overlaps = overlaps[columns]
            np.take(Psi, columns, axis=1, out=out, mode="clip")
        elif out is not Psi:
            out[:] = Psi
        self._add_psi0(out, (np.exp(-1j * betas) - 1.0) * overlaps, workspace)
        return out

    def adjoint_batch(self, Phi: np.ndarray, chi: np.ndarray, record: np.ndarray,
                      betas: np.ndarray, *, workspace=None) -> np.ndarray:
        """Backward round: two GEMVs and one rank-one update.

        The layer output's overlap is ``<psi0|psi_j> = e^{-i beta_j}
        <psi0|chi_j>``, so the derivative ``2 Im(conj(<psi0|phi_j>)
        <psi0|psi_j>)`` needs only the input ``chi``.
        """
        M = self._check_adjoint(Phi)
        betas = self._batch_angles(betas, M)
        phi_overlaps = kernels.matmul(self._psi0_conj, Phi)
        psi_overlaps = np.exp(-1j * betas) * kernels.matmul(self._psi0_conj, chi)
        grads = 2.0 * np.imag(np.conj(phi_overlaps) * psi_overlaps)
        self._add_psi0(Phi, (np.exp(1j * betas) - 1.0) * phi_overlaps, workspace)
        return grads[None, :]

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
