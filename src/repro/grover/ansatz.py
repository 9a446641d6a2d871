"""The compressed Grover-QAOA :class:`~repro.core.engine.Engine`.

With the Grover mixer ``H_G = |psi0><psi0|`` (``|psi0>`` the uniform
superposition over the feasible space), the amplitude of a basis state
depends only on its objective value at every point of the evolution, so the
state is stored as one complex amplitude per *distinct* objective value:

* phase separator: ``a_v <- exp(-i gamma v) a_v``
* Grover mixer:    ``a_v <- a_v + (e^{-i beta} - 1) <psi0|psi> / sqrt(N)``,
  with ``<psi0|psi> = sum_v d_v a_v / sqrt(N)``

where ``d_v`` are the degeneracies and ``N`` the number of feasible states.
:class:`CompressedGroverAnsatz` evolves M angle sets at once as a ``(D, M)``
complex matrix (``D`` = number of distinct objective values) and computes
exact adjoint gradients with every dense inner product collapsed to a
degeneracy-weighted reduction.  Only the rank-one Grover update is its own:
the angle layout (:func:`~repro.core.simulator.split_angles_batch`,
:func:`~repro.core.simulator.join_angles_batch`) and the energy and
γ-gradient reductions (:func:`~repro.mixers.base.weighted_sq_norms`,
:func:`~repro.mixers.base.weighted_imag_vdot`, weighted by the
degeneracies) are the dense engine's.  Memory and time per round are ``O(D * M)``,
which is the paper's route to n ≈ 100 (Sec. 2.4).  The single-row calls and
the ``loss`` family come from :class:`~repro.core.engine.Engine`, so every
registered angle strategy that drives the dense ansatz runs unchanged on the
compressed representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.engine import Engine
from ..core.gradients import EvaluationCounter
from ..core.precompute import OPTIMAL_ATOL, OPTIMAL_RTOL
from ..core.simulator import join_angles_batch, split_angles_batch
from ..mixers.base import weighted_imag_vdot, weighted_sq_norms
from .compress import CompressedObjective

__all__ = ["CompressedGroverAnsatz", "CompressedSimulation"]


@dataclass
class CompressedSimulation:
    """Final compressed state of one Grover-QAOA evolution.

    The compressed analogue of :class:`repro.core.simulator.QAOAResult`:
    everything that reduces over value classes (expectation, optimal-state
    probability, value sampling) is exact; per-*label* quantities are not
    materializable without enumerating the space and raise with an
    explanation.
    """

    class_amplitudes: np.ndarray
    spectrum: CompressedObjective
    angles: np.ndarray
    maximize: bool = True
    _cache: dict = field(default_factory=dict, repr=False)

    def class_probabilities(self) -> np.ndarray:
        """Total probability of each objective-value class (sums to 1).

        These are the exact degeneracy-weighted sampling probabilities: every
        state in class ``j`` carries ``|class_amplitudes[j]|^2`` individually
        (Grover-mixer fair sampling), and there are ``degeneracies[j]`` of
        them.
        """
        if "class_probs" not in self._cache:
            degs = self.spectrum.degeneracy_array()
            self._cache["class_probs"] = degs * np.abs(self.class_amplitudes) ** 2
        return self._cache["class_probs"]

    def expectation(self) -> float:
        """``<C>`` over the feasible space."""
        return float(np.dot(self.class_probabilities(), self.spectrum.values))

    def ground_state_probability(self) -> float:
        """Probability of measuring any optimal state (by the recorded sense)."""
        idx = -1 if self.maximize else 0
        return float(self.class_probabilities()[idx])

    def probability_of_value(self, value: float) -> float:
        """Probability of measuring a state whose objective equals ``value``
        (under the tolerances of ``PrecomputedCost.optimal_indices``)."""
        idx = np.flatnonzero(
            np.isclose(self.spectrum.values, value, rtol=OPTIMAL_RTOL, atol=OPTIMAL_ATOL)
        )
        if idx.size == 0:
            raise KeyError(f"objective value {value} is not in the spectrum")
        return float(self.class_probabilities()[idx].sum())

    def norm(self) -> float:
        """Statevector norm (should be 1 up to round-off)."""
        return float(np.sqrt(self.class_probabilities().sum()))

    def probabilities(self) -> np.ndarray:
        """Unavailable: per-label probabilities need the enumerated space."""
        raise ValueError(
            "per-label probabilities are not materializable in the compressed "
            "representation; use class_probabilities() (per distinct objective "
            "value) or sample_values()"
        )

    def sample(self, shots: int, rng=None) -> np.ndarray:
        """Unavailable: label sampling needs the enumerated space."""
        raise ValueError(
            "label sampling is not materializable in the compressed "
            "representation; use sample_values() to draw objective values "
            "with the exact degeneracy-weighted probabilities"
        )

    def sample_values(
        self, shots: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Draw ``shots`` measured *objective values* from the final state."""
        if shots < 1:
            raise ValueError("shots must be positive")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        probs = self.class_probabilities()
        probs = probs / probs.sum()
        indices = rng.choice(probs.size, size=shots, p=probs)
        return self.spectrum.values[indices]


class CompressedGroverAnsatz(Engine):
    """Grover-mixer QAOA over a value spectrum.

    Parameters
    ----------
    spectrum:
        The :class:`~repro.grover.compress.CompressedObjective` (distinct
        objective values + exact degeneracies) of the problem.
    p:
        Number of QAOA rounds.
    n:
        Number of qubits (reporting only; the evolution never touches 2^n).
    maximize:
        Optimization sense; determines which spectrum end is "optimal".
    """

    def __init__(
        self,
        spectrum: CompressedObjective,
        p: int,
        *,
        n: int,
        maximize: bool = True,
    ):
        if p < 1:
            raise ValueError("a QAOA needs at least one round")
        self.spectrum = spectrum
        self.maximize = bool(maximize)
        self.dim = int(spectrum.num_distinct)
        self.p = int(p)
        self.beta_counts = [1] * self.p
        self.num_angles = 2 * self.p
        self.n = int(n)
        self.counter = EvaluationCounter()
        degs = spectrum.degeneracy_array()
        self._values = np.asarray(spectrum.values, dtype=np.float64)
        self._weighted_values = degs * self._values
        self._amp0 = 1.0 / float(np.sqrt(float(spectrum.total)))
        # <psi0|psi> = bra0 @ a: the degeneracy-weighted uniform bra
        self._bra0 = (degs * self._amp0).astype(np.complex128)
        # the Grover-layer update weights, bra0 / sqrt(N)
        self._mix_bra = self._bra0 * self._amp0
        self._neg_j_values = -1j * self._values

    @property
    def optimum(self) -> float:
        """Best objective value in the spectrum (by the optimization sense)."""
        return float(self._values[-1] if self.maximize else self._values[0])

    # ------------------------------------------------------------------
    def _evolve_batch(
        self, betas: list[np.ndarray], gammas: np.ndarray, *, store_layers: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Evolve the split angles (see :func:`~repro.core.simulator.split_angles_batch`);
        returns the final ``(D, M)`` state and, if asked, each round's
        separator and mixer outputs."""
        M = gammas.shape[1]
        # Every round's separator phases in one exp, as (p, D, M); the state
        # starts as the first round's phases times the uniform amplitude.
        phases = gammas[:, None, :] * self._neg_j_values[:, None]
        np.exp(phases, out=phases)
        layers = (
            np.empty((self.p, 2, self.dim, M), dtype=np.complex128) if store_layers else None
        )
        # Grover-layer update per round: a += (e^{-i beta} - 1) <psi0|a> / sqrt(N)
        mixing = np.exp(-1j * np.concatenate(betas))
        mixing -= 1.0
        a = phases[0]
        a *= self._amp0
        for k in range(self.p):
            if k:
                a *= phases[k]
            if layers is not None:
                layers[k, 0] = a
            a += (self._mix_bra @ a) * mixing[k]
            if layers is not None:
                layers[k, 1] = a
        return a, layers

    # ------------------------------------------------------------------
    def expectation_batch(self, angles: np.ndarray) -> np.ndarray:
        """``<C>`` for every row of an ``(M, 2p)`` angle matrix."""
        betas, gammas = split_angles_batch(angles, self.beta_counts)
        self.counter.forward_passes += gammas.shape[1]
        final, _ = self._evolve_batch(betas, gammas)
        return weighted_sq_norms(self._weighted_values, final)

    def value_and_gradient_batch(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched expectation values and exact degeneracy-weighted adjoint gradients.

        The adjoint recursion of :mod:`repro.core.gradients` with every dense
        ``(dim, M)`` inner product collapsed to a degeneracy-weighted
        ``(D, M)`` reduction.  Shapes ``(M,)`` and ``(M, 2p)``.
        """
        betas, gammas = split_angles_batch(angles, self.beta_counts)
        M = gammas.shape[1]
        self.counter.forward_passes += M
        final, layers = self._evolve_batch(betas, gammas, store_layers=True)
        energies = weighted_sq_norms(self._weighted_values, final)

        bra0 = self._bra0
        phi = final * self._values[:, None]
        phase = np.empty_like(phi)
        unmixing = (np.exp(1j * np.concatenate(betas)) - 1.0) * self._amp0
        grad_betas = np.empty((self.p, M), dtype=np.float64)
        grad_gammas = np.empty((self.p, M), dtype=np.float64)
        for k in range(self.p - 1, -1, -1):
            chi_k = layers[k, 0]
            # 2 Im <phi | H_G | psi_k> with H_G = |psi0><psi0|: both overlaps
            # with psi0 are degeneracy-weighted reductions.
            overlap = bra0 @ phi
            grad_betas[k] = 2.0 * np.imag(np.conj(overlap) * (bra0 @ layers[k, 1]))
            self.counter.hamiltonian_applications += M
            # phi <- exp(+i beta_k H_G) phi (the inverse Grover layer).
            phi += overlap * unmixing[k]
            # 2 Im <phi | C | chi_k> with degeneracy-weighted vdots.
            grad_gammas[k] = 2.0 * weighted_imag_vdot(self._weighted_values, phi, chi_k)
            if k:
                np.multiply.outer(self._neg_j_values, -gammas[k], out=phase)
                phi *= np.exp(phase, out=phase)

        return energies, join_angles_batch([grad_betas], grad_gammas)

    def simulate(self, angles: np.ndarray) -> CompressedSimulation:
        """Full evolution returning a :class:`CompressedSimulation`."""
        angles = np.asarray(angles, dtype=np.float64).ravel()
        betas, gammas = split_angles_batch(angles, self.beta_counts)
        final, _ = self._evolve_batch(betas, gammas)
        return CompressedSimulation(
            class_amplitudes=final[:, 0],
            spectrum=self.spectrum,
            angles=angles.copy(),
            maximize=self.maximize,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompressedGroverAnsatz(n={self.n}, distinct={self.spectrum.num_distinct}, "
            f"p={self.p}, maximize={self.maximize})"
        )
