"""Trotterized XY mixers (the QOKit-style constrained baseline).

QOKit (Lykov et al. 2023), discussed in Sec. 4 of the paper, implements the
Clique and Ring mixers as a *first-order Trotter approximation*: instead of
the exact ``exp(-i beta sum_{(i,j)} (X_i X_j + Y_i Y_j))`` it applies the
product of the individual pair rotations.  The pair terms do not commute, so
the product only agrees with the exact evolution to ``O(beta^2)`` and no
longer exactly preserves the optimizer's view of the mixer spectrum — but it
avoids the expensive eigendecomposition.

:class:`TrotterXYMixer` implements that product directly on the Dicke
subspace (each pair term is a Givens rotation between the two states related
by swapping the pair's bits).  The rotations index rows, so one call updates
a whole ``(dim, M)`` batch; the mixer implements the two batched kernels of
the :class:`~repro.mixers.base.Mixer` interface — its adjoint differentiates
the Trotterized layer itself, not the exact XY evolution — and can be
dropped into ``simulate`` and compared head-to-head with the exact
:class:`~repro.mixers.xy.CliqueMixer` / ``RingMixer``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..hilbert.dicke import dicke_labels
from ..hilbert.subspace import DickeSpace
from ..mixers.base import Mixer
from ..mixers.xy import xy_subspace_matrix

__all__ = ["TrotterXYMixer", "trotter_clique_mixer", "trotter_ring_mixer"]


class TrotterXYMixer(Mixer):
    """First-order Trotterized XY mixer on the weight-``k`` subspace.

    Parameters
    ----------
    n, k:
        Qubits and Hamming weight of the feasible subspace.
    pairs:
        XY interaction pairs, applied in the given order each Trotter step.
    trotter_steps:
        Number of repetitions per layer; the angle of each pair rotation is
        ``beta / trotter_steps``.  More steps converge toward the exact mixer.
    """

    def __init__(
        self,
        n: int,
        k: int,
        pairs: Sequence[tuple[int, int]],
        *,
        trotter_steps: int = 1,
        name: str = "trotter-xy",
    ):
        super().__init__(DickeSpace(n, k))
        if trotter_steps < 1:
            raise ValueError("trotter_steps must be at least 1")
        self.k = k
        self.pairs = [(int(i), int(j)) for i, j in pairs]
        if not self.pairs:
            raise ValueError("at least one interaction pair is required")
        for i, j in self.pairs:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"invalid pair ({i},{j}) for n={n}")
        self.trotter_steps = int(trotter_steps)
        self.pattern_name = name
        # Pre-compute, for every pair, the index pairs (a, b) it couples: the
        # subspace states whose labels differ by swapping bits i and j.
        labels = dicke_labels(n, k)
        index = {int(label): idx for idx, label in enumerate(labels)}
        self._couplings: list[tuple[np.ndarray, np.ndarray]] = []
        for i, j in self.pairs:
            lows, highs = [], []
            for a_idx, label in enumerate(labels):
                label = int(label)
                bi, bj = (label >> i) & 1, (label >> j) & 1
                if bi == 1 and bj == 0:
                    partner = index[label ^ ((1 << i) | (1 << j))]
                    lows.append(a_idx)
                    highs.append(partner)
            self._couplings.append(
                (np.asarray(lows, dtype=np.int64), np.asarray(highs, dtype=np.int64))
            )

    def _rotate(self, state: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                lows: np.ndarray, highs: np.ndarray) -> None:
        """One pair term on every column: the rows ``lows``/``highs`` mix as
        ``(cos a + sin b, cos b + sin a)``."""
        a = state[lows]
        b = state[highs]
        state[lows] = cos * a + sin * b
        state[highs] = cos * b + sin * a

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
        """The Trotterized layer on every column: each pair term is a Givens
        rotation of two rows, applied to all M columns at once.  Nothing is
        recorded: the adjoint recomputes the layer from its input."""
        Psi, out, M = self._check_batch(Psi, out, columns)
        betas = self._batch_angles(betas, M)
        if columns is not None:
            np.take(Psi, columns, axis=1, out=out)
        elif out is not Psi:
            out[:] = Psi
        # exp(-i theta (XX+YY)) restricted to the {|01>, |10>} pair is a
        # Givens-like rotation with mixing angle 2 theta.
        angles = 2.0 * betas / self.trotter_steps
        cos, sin = np.cos(angles), -1j * np.sin(angles)
        for _ in range(self.trotter_steps):
            for lows, highs in self._couplings:
                self._rotate(out, cos, sin, lows, highs)
        return out

    def adjoint_batch(self, Phi: np.ndarray, chi: np.ndarray, record: np.ndarray,
                      betas: np.ndarray, *, workspace=None) -> np.ndarray:
        """Exact derivatives of the Trotterized layer: a reverse walk over its rotations.

        The layer is ``G_R ... G_1`` with ``G_r = exp(-i beta h_r / steps)``,
        so ``dE/dbeta = sum_r (2 / steps) Im <phi_r| h_r |s_r>`` where
        ``s_r`` is the state after rotation ``r`` and ``phi_r`` the adjoint
        state there.  The layer output is recomputed from ``chi``, then
        rotation by rotation, last first, the term is accumulated and both
        states step back through ``G_r^†``; ``Phi`` ends at ``U^† Phi``.
        """
        M = self._check_adjoint(Phi)
        betas = self._batch_angles(betas, M)
        state = workspace.scratch(M) if workspace is not None else None
        state = self.apply_batch(chi, betas, out=state)
        angles = 2.0 * betas / self.trotter_steps
        cos, sin = np.cos(angles), 1j * np.sin(angles)  # G_r^† mixes with +i sin
        grads = np.zeros(M, dtype=np.float64)
        for _ in range(self.trotter_steps):
            for lows, highs in reversed(self._couplings):
                # h_r maps each coupled pair's rows onto each other with weight 2
                grads += np.imag(
                    np.conj(Phi[lows]) * state[highs] + np.conj(Phi[highs]) * state[lows]
                ).sum(axis=0)
                self._rotate(Phi, cos, sin, lows, highs)
                self._rotate(state, cos, sin, lows, highs)
        return (4.0 / self.trotter_steps) * grads[None, :]

    def matrix(self) -> np.ndarray:
        """Dense matrix of the exact (un-Trotterized) XY Hamiltonian."""
        return xy_subspace_matrix(self.n, self.k, self.pairs)

    def trotter_error(self, beta: float) -> float:
        """Operator-norm distance between the Trotterized layer and the exact evolution."""
        from scipy.linalg import expm

        exact = expm(-1j * beta * self.matrix())
        approx = self.apply_batch(np.eye(self.dim, dtype=np.complex128), beta)
        return float(np.linalg.norm(exact - approx, ord=2))

    def cache_key(self) -> str:
        return f"{self.pattern_name}_n{self.n}_k{self.k}_steps{self.trotter_steps}"


def trotter_clique_mixer(n: int, k: int, *, trotter_steps: int = 1) -> TrotterXYMixer:
    """Trotterized complete-graph XY mixer (QOKit-style Clique mixer)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return TrotterXYMixer(n, k, pairs, trotter_steps=trotter_steps, name="trotter-clique")


def trotter_ring_mixer(n: int, k: int, *, trotter_steps: int = 1) -> TrotterXYMixer:
    """Trotterized cyclic XY mixer (QOKit-style Ring mixer)."""
    if n < 2:
        raise ValueError("the ring mixer needs at least two qubits")
    pairs = [(i, (i + 1) % n) for i in range(n)]
    return TrotterXYMixer(n, k, pairs, trotter_steps=trotter_steps, name="trotter-ring")
