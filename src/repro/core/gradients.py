"""Gradients of the QAOA expectation value.

The paper's angle-finding loop relies on automatic differentiation (via
Enzyme.jl) to get exact gradients of ``<beta,gamma| C |beta,gamma>`` at the
cost of roughly one extra expectation-value evaluation, versus the ``O(p)``
evaluations a finite-difference scheme needs (Sec. 4 and Fig. 5).

For this fixed computation graph reverse-mode AD is exactly the adjoint
recursion, which we implement analytically:

with per-round states ``|chi_k> = e^{-i gamma_k C} |psi_{k-1}>`` (after the
phase separator) and ``|psi_k> = e^{-i beta_k H_M} |chi_k>`` (after the
mixer), and the adjoint state ``|phi_p> = C |psi_p>`` propagated backwards
through the inverse unitaries,

    dE/dbeta_k  = 2 Im <phi_k | H_M | psi_k> ,
    dE/dgamma_k = 2 Im <phi'_k | C | chi_k> ,   phi'_k = e^{+i beta_k H_M} |phi_k> ,
    |phi_{k-1}> = e^{+i gamma_k C} |phi'_k> .

The mixer round runs in its eigenbasis ``H_M = W D W^†``.  The forward
layer records its middle vector ``mid_k = e^{-i beta_k D} W^† chi_k``
(``psi_k = W mid_k``), so one backward round,
:meth:`~repro.mixers.base.Mixer.adjoint_batch`, is

    phi~ = W^† phi_k ,   dE/dbeta_k = 2 Im <phi~ | D ⊙ mid_k> ,
    phi'_k = W (e^{+i beta_k D} ⊙ phi~) :

two basis changes (WHTs or GEMMs), as many as a forward layer; a
multi-angle layer reads every term's derivative off the same ``phi~``.  The
total work is one forward pass plus one backward pass of the same cost —
independent of ``p`` relative to the cost of an expectation value, which is
the property Figure 5 measures.
:func:`qaoa_value_and_gradient_batch` runs the recursion on M angle sets at
once as ``(dim, M)`` matrices; :func:`finite_difference_gradient` is the
generic ``O(p)`` baseline that
:meth:`~repro.core.engine.Engine.finite_difference_gradient` drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..backend.base import DiagonalPhase, distinct_levels
from ..mixers.base import Mixer, weighted_imag_vdot, weighted_sq_norms
from ..mixers.schedules import MixerSchedule, as_schedule
from .precompute import PrecomputedCost
from .simulator import evolve_state_batch, join_angles_batch, split_angles_batch
from .workspace import BatchedWorkspace

__all__ = [
    "EvaluationCounter",
    "qaoa_value_and_gradient_batch",
    "finite_difference_gradient",
]


@dataclass
class EvaluationCounter:
    """Counts the state evolutions spent by a gradient scheme.

    ``forward_passes`` counts full ``p``-round state evolutions;
    ``hamiltonian_applications`` counts the β-derivatives the adjoint pass
    evaluated, one per beta angle per column.  Benchmarks use these to
    report the O(p) separation between adjoint and finite-difference
    gradients without depending on wall-clock noise.
    """

    forward_passes: int = 0
    hamiltonian_applications: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.forward_passes = 0
        self.hamiltonian_applications = 0


def qaoa_value_and_gradient_batch(
    angles: np.ndarray,
    mixer: Mixer | Sequence[Mixer] | MixerSchedule,
    obj_vals: np.ndarray | PrecomputedCost,
    *,
    p: int | None = None,
    initial_state: np.ndarray | None = None,
    workspace: BatchedWorkspace | None = None,
    counter: EvaluationCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Expectation values and exact adjoint gradients for M angle sets at once.

    ``angles`` is an ``(M, num_angles)`` matrix whose rows are flat (betas,
    gammas) vectors; a single flat vector is one row (the M=1 call every
    single-row gradient is).  One ``(dim, M)`` forward pass records the
    per-round batches in the workspace's layer store (each phase
    separator's output and each mixer's ``record``), then one batched
    backward pass walks the adjoint recursion, one
    :meth:`~repro.mixers.base.Mixer.adjoint_batch` call per round.
    Multi-angle layers get one derivative per term.  Returns ``(values,
    gradients)`` with shapes ``(M,)`` and ``(M, num_angles)``.

    Memory: the layer store holds ``p * 2 * dim * M`` complex128 values —
    chunk large batches (as the vectorized multi-start refiner does) to bound
    peak scratch.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim == 1:
        angles = angles[None, :]
    schedule = as_schedule(mixer, p, angles.shape[1])
    values = obj_vals.values if isinstance(obj_vals, PrecomputedCost) else np.asarray(
        obj_vals, dtype=np.float64
    )
    if values.shape != (schedule.dim,):
        raise ValueError(f"objective values have shape {values.shape}, expected ({schedule.dim},)")
    beta_rounds, gammas = split_angles_batch(angles, schedule.beta_counts())
    M = angles.shape[0]
    dim = schedule.dim

    if workspace is None:
        workspace = BatchedWorkspace(dim, M)
    workspace.ensure(M)
    layer_store = workspace.ensure_layers(schedule.p, M)

    if initial_state is None:
        initial_state = schedule.initial_state()
    if isinstance(obj_vals, PrecomputedCost):
        cost_levels = obj_vals.phase_levels()
    else:
        cost_levels = distinct_levels(values)

    # Forward pass, recording per-round intermediate batches.
    psi = evolve_state_batch(
        beta_rounds,
        gammas,
        schedule,
        values,
        initial_state,
        workspace=workspace,
        cost_levels=cost_levels,
        layer_store=layer_store,
    )
    if counter is not None:
        counter.forward_passes += M
    energies = weighted_sq_norms(values, psi)

    # Backward (adjoint) pass: phi lives in the workspace state buffer (psi is
    # no longer needed once the energies and the layer store exist).
    phi = psi
    phi *= values[:, None]
    grad_betas: list[np.ndarray] = [None] * schedule.p  # type: ignore[list-item]
    grad_gammas = np.empty((schedule.p, M), dtype=np.float64)

    for k in range(schedule.p - 1, -1, -1):
        chi_k = layer_store[k, 0]
        beta_k = beta_rounds[k]
        beta_arg = beta_k[0] if beta_k.shape[0] == 1 else beta_k
        grad_betas[k] = schedule[k].adjoint_batch(
            phi, chi_k, layer_store[k, 1], beta_arg, workspace=workspace
        )
        if counter is not None:
            counter.hamiltonian_applications += grad_betas[k].size

        # Gamma derivative uses the adjoint batch *before* the mixer.
        grad_gammas[k] = 2.0 * weighted_imag_vdot(values, phi, chi_k)
        if k:
            # Undo the phase separator to obtain phi_{k-1} (per-column
            # phases); phi_{-1} is never read, so the last round skips it.
            phases = DiagonalPhase(values, gammas[k], +1.0, levels=cost_levels)
            phi *= phases.fill(workspace.phase(M))

    return energies, join_angles_batch(grad_betas, grad_gammas)


def finite_difference_gradient(
    func: Callable[[np.ndarray], float],
    x: np.ndarray,
    *,
    eps: float = 1e-6,
    scheme: str = "central",
) -> np.ndarray:
    """Generic finite-difference gradient of a scalar function.

    ``scheme`` is ``"central"`` (2 evaluations per coordinate, O(eps^2) error)
    or ``"forward"`` (1 extra evaluation per coordinate, O(eps) error).

    One shared perturbation buffer is nudged in place and restored per
    coordinate, so the sweep allocates a single copy of ``x`` regardless of
    dimension; ``func`` therefore must not retain a reference to (or mutate)
    the array it is called with.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    perturbed = x.copy()
    if scheme == "central":
        for i in range(x.size):
            center = x[i]
            perturbed[i] = center + eps
            f_plus = func(perturbed)
            perturbed[i] = center - eps
            f_minus = func(perturbed)
            perturbed[i] = center
            grad[i] = (f_plus - f_minus) / (2.0 * eps)
    elif scheme == "forward":
        f0 = func(perturbed)
        for i in range(x.size):
            center = x[i]
            perturbed[i] = center + eps
            grad[i] = (func(perturbed) - f0) / eps
            perturbed[i] = center
    else:
        raise ValueError(f"unknown finite-difference scheme {scheme!r}")
    return grad

