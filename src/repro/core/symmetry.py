"""Bit-flip symmetry: objectives with ``C(x) = C(x̄)`` run on ``n - 1`` qubits.

The global flip ``X^{⊗n}`` commutes with every X-string mixer and the
full-space Grover mixer, and the uniform start state is flip-invariant.  So
when the objective is flip-symmetric too, the state keeps equal amplitudes at
``x`` and ``x̄ = 2^n - 1 - x``: it lives in the span of the pairs
``(|x> + |x̄>) / sqrt(2)``, and the run is an ordinary ``n - 1``-qubit QAOA
(Shaydulin, Hadfield, Hogg and Safro, "Classical symmetries and the Quantum
Approximate Optimization Algorithm", 2021).  Its objective is the ``n``-bit
one on the labels ``[0, 2^{n-1})`` (an aligned block of the quadratic
kernel, so the values equal the full evaluation's there bit for bit), and
its mixers are folded (:meth:`~repro.mixers.base.Mixer.flip_folded`).
Energies, gradients and optimal-state probabilities are the same sums over
the half; per-label results expand on request (:func:`expand_flip_pairs`,
:func:`complement_half`).

:func:`flip_reducible` is the one decision, made at construction by routing,
:class:`~repro.api.solver.QAOASolver` and
:meth:`~repro.core.ansatz.QAOAAnsatz.from_problem`.  It reads the quadratic
form in O(n^2) and never compares full-space values, which would build the
table the reduction avoids.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..mixers.base import Mixer
from ..mixers.schedules import MixerSchedule
from .precompute import PrecomputedCost

__all__ = [
    "FLIP_MIXERS",
    "flip_reducible",
    "flip_folded_mixer",
    "flip_half",
    "flip_half_cost",
    "expand_flip_pairs",
    "complement_half",
]

#: Mixer families that commute with the global flip on the full space.
FLIP_MIXERS = frozenset({"x", "multiangle_x", "grover"})


def _layers(mixer) -> list:
    if isinstance(mixer, Mixer):
        return [mixer]
    return list(mixer.layers if isinstance(mixer, MixerSchedule) else mixer)


def flip_reducible(problem, mixer, *, shards: int | None = None) -> bool:
    """Whether ``problem`` under ``mixer`` runs on the flip-symmetric half.

    ``problem`` is a :class:`~repro.problems.registry.ProblemInstance`;
    ``mixer`` is a canonical mixer family name (before anything is built)
    or the built mixer, per-round mixers or schedule.  The answer is yes for
    a full-space problem of at least two qubits whose quadratic form is
    flip-symmetric, under mixers that are all flip-invariant (the ``x``,
    ``multiangle_x`` and full-space ``grover`` families), when the halved
    state can still give each of ``shards`` shards (if given) one state.
    """
    form = getattr(problem, "quadratic", None)
    if form is None or problem.n < 2 or problem.k is not None:
        return False
    if shards is not None and shards > 1 << (problem.n - 1):
        return False
    if isinstance(mixer, str):
        if mixer not in FLIP_MIXERS:
            return False
    elif not all(getattr(layer, "flip_invariant", False) for layer in _layers(mixer)):
        return False
    return form.flip_symmetric


def flip_folded_mixer(mixer):
    """``mixer`` (one mixer, per-round mixers or a schedule) on the flip-symmetric
    half; a mixer repeated across rounds stays one shared folded mixer."""
    if isinstance(mixer, Mixer):
        return mixer.flip_folded()
    folded: dict[int, Mixer] = {}
    for layer in _layers(mixer):
        if id(layer) not in folded:
            folded[id(layer)] = layer.flip_folded()
    return [folded[id(layer)] for layer in _layers(mixer)]


def flip_half(problem):
    """The ``n - 1``-qubit problem of the flip-symmetric half of ``problem``
    (a :class:`~repro.problems.registry.ProblemInstance`).

    The half is marked ``flip_pairs`` and its feasible space is
    ``FullSpace(n - 1)``.  Its labels are the ``n``-bit labels with the top
    bit clear, so the ``n``-bit quadratic form evaluates it as it is; the
    bit-matrix callables get that clear top bit appended.
    """
    return replace(
        problem,
        n=problem.n - 1,
        value_of_weight=None,
        flip_pairs=True,
        cost=lambda x: problem.cost(np.append(x, 0)),
        cost_vectorized=lambda bits: problem.cost_vectorized(np.pad(bits, ((0, 0), (0, 1)))),
    )


def flip_half_cost(problem) -> PrecomputedCost:
    """The objective of the flip-symmetric half: ``problem``'s at labels ``[0, 2^{n-1})``."""
    half = flip_half(problem)
    return PrecomputedCost(
        values=half.objective_values(),
        space=half.space,
        maximize=problem.maximize,
        flip_pairs=True,
    )


def expand_flip_pairs(half: np.ndarray) -> np.ndarray:
    """Full-space amplitudes of a flip-symmetric half state: label ``x`` and its
    complement ``2 * len(half) - 1 - x`` both get ``half[x] / sqrt(2)``."""
    return np.concatenate([half, half[::-1]]) / np.sqrt(2.0)


def complement_half(labels: np.ndarray, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Half-space ``labels`` (of a ``dim``-state half) complemented with probability 1/2 each."""
    flips = rng.random(labels.shape) < 0.5
    return np.where(flips, 2 * dim - 1 - labels, labels)
