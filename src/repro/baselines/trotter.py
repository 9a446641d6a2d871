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
the :class:`~repro.mixers.base.Mixer` interface and can be dropped into
``simulate`` and compared head-to-head with the exact
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

    def apply_batch(
        self,
        Psi: np.ndarray,
        betas: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """The Trotterized layer on every column: each pair term is a Givens
        rotation of two rows, applied to all M columns at once."""
        Psi, out, M = self._check_batch(Psi, out, columns)
        betas = self._batch_angles(betas, M)
        if columns is not None:
            np.take(Psi, columns, axis=1, out=out)
        elif out is not Psi:
            out[:] = Psi
        # exp(-i theta (XX+YY)) restricted to the {|01>, |10>} pair is a
        # Givens-like rotation with mixing angle 2 theta.
        step_angles = 2.0 * betas / self.trotter_steps
        cos, sin = np.cos(step_angles), -1j * np.sin(step_angles)
        for _ in range(self.trotter_steps):
            for lows, highs in self._couplings:
                a = out[lows]
                b = out[highs]
                out[lows] = cos * a + sin * b
                out[highs] = cos * b + sin * a
        return out

    def apply_hamiltonian_batch(
        self,
        Psi: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """``H_M |psi_j>`` for the *exact* XY Hamiltonian (gradients remain exact)."""
        Psi, out, M = self._check_batch(Psi, out)
        result = np.zeros((self.dim, M), dtype=np.complex128)
        for lows, highs in self._couplings:
            result[lows] += 2.0 * Psi[highs]
            result[highs] += 2.0 * Psi[lows]
        out[:] = result
        return out

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
