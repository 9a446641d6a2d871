"""Independent dense reference for the QAOA kernels under test.

Every mixer layer here is ``scipy.linalg.expm(-1j * beta * H)`` of the
mixer's dense matrix; a multi-angle layer exponentiates its per-term X
products, built as permutation matrices.  The reference therefore shares no
kernel (Walsh–Hadamard transform, eigenbasis GEMM, rank-one update) with the
code it checks.  The adjoint recursion is the one documented in
:mod:`repro.core.gradients`, written one state at a time.

The helper ``apply_mixer`` runs a single state through a mixer's batched
layer kernel as a one-column batch; ``apply_hamiltonian`` reads the mixer
Hamiltonian's action off its adjoint round at zero angle.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from repro.core.precompute import PrecomputedCost
from repro.mixers import MultiAngleXMixer
from repro.mixers.schedules import as_schedule


def apply_mixer(mixer, psi, beta, out=None):
    """``exp(-i beta H_M) |psi>`` through ``apply_batch`` as a one-column batch.

    A contiguous complex ``psi`` and ``out`` are passed as views, so ``out``
    may alias ``psi`` exactly as it may alias the batch.
    """
    betas = np.asarray(beta, dtype=np.float64)
    betas = betas.reshape(1) if betas.size == 1 else betas.reshape(-1, 1)
    column = np.ascontiguousarray(psi, dtype=np.complex128).reshape(-1, 1)
    target = None if out is None else out.reshape(-1, 1)
    result = mixer.apply_batch(column, betas, out=target)
    if out is None:
        return result[:, 0]
    assert np.shares_memory(result, out), "apply_batch did not write into out"
    return out


def apply_hamiltonian_batch(mixer, Psi) -> np.ndarray:
    """``H_t Psi`` for every angle term ``t``, read off the adjoint round at β = 0.

    At zero angle ``dU/dbeta_t = -i H_t``, so a backward round against the
    probe ``phi = e_k`` returns ``2 Im (H_t psi)_k`` and against
    ``phi = i e_k`` returns ``-2 Re (H_t psi)_k``.  Each input column is
    probed with all ``2 dim`` of these at once; the result has shape
    ``(num_angles, dim, M)``.
    """
    Psi = np.asarray(Psi, dtype=np.complex128)
    dim, M = Psi.shape
    probes = np.concatenate([np.eye(dim), 1j * np.eye(dim)], axis=1)
    num_betas = getattr(mixer, "num_angles", 1)
    out = np.empty((num_betas, dim, M), dtype=np.complex128)
    for j in range(M):
        chi = np.ascontiguousarray(np.repeat(Psi[:, j : j + 1], 2 * dim, axis=1))
        betas = np.zeros((num_betas, 2 * dim)) if num_betas > 1 else np.zeros(2 * dim)
        record = np.empty_like(chi)
        mixer.apply_batch(chi, betas, record=record)
        grads = mixer.adjoint_batch(np.ascontiguousarray(probes), chi, record, betas)
        out[:, :, j] = -0.5 * grads[:, dim:] + 0.5j * grads[:, :dim]
    return out


def apply_hamiltonian(mixer, psi) -> np.ndarray:
    """``H_M |psi>`` (the sum of the angle terms) as a one-column batch."""
    column = np.asarray(psi, dtype=np.complex128).reshape(-1, 1)
    return apply_hamiltonian_batch(mixer, column).sum(axis=0)[:, 0]


def term_matrices(mixer) -> list[np.ndarray]:
    """The Hamiltonian terms that carry one angle each: the per-term X
    products of a multi-angle layer, else the mixer's one dense matrix."""
    if not isinstance(mixer, MultiAngleXMixer):
        return [np.asarray(mixer.matrix(), dtype=np.complex128)]
    labels = np.arange(mixer.dim)
    terms = []
    for term in mixer.terms:
        mask = sum(1 << q for q in term)
        flip = np.zeros((mixer.dim, mixer.dim), dtype=np.complex128)
        flip[labels ^ mask, labels] = 1.0
        terms.append(flip)
    return terms


def layer_unitary(terms: list[np.ndarray], betas) -> np.ndarray:
    """``expm(-i sum_t beta_t H_t)`` (the terms of one layer commute)."""
    generator = sum(float(b) * h for b, h in zip(np.atleast_1d(betas), terms))
    return expm(-1j * generator)


def _setup(angles, mixer, obj_vals, p, initial_state):
    angles = np.asarray(angles, dtype=np.float64).ravel()
    schedule = as_schedule(mixer, p, angles.size)
    values = obj_vals.values if isinstance(obj_vals, PrecomputedCost) else np.asarray(
        obj_vals, dtype=np.float64
    )
    if values.shape != (schedule.dim,):
        raise ValueError(f"objective values have shape {values.shape}, expected ({schedule.dim},)")
    total = schedule.total_betas + schedule.p
    if angles.size != total:
        raise ValueError(f"expected {total} angles, got {angles.size}")
    counts = schedule.beta_counts()
    starts = np.cumsum([0] + counts)
    betas = [angles[starts[k] : starts[k + 1]] for k in range(schedule.p)]
    gammas = angles[schedule.total_betas :]
    psi = schedule.initial_state() if initial_state is None else initial_state
    terms = [term_matrices(m) for m in schedule]
    return schedule, values, betas, gammas, np.asarray(psi, dtype=np.complex128), terms


def reference_state(angles, mixer, obj_vals, *, p=None, initial_state=None) -> np.ndarray:
    """The final QAOA statevector, one dense matrix exponential per layer."""
    schedule, values, betas, gammas, psi, terms = _setup(
        angles, mixer, obj_vals, p, initial_state
    )
    for k in range(schedule.p):
        psi = layer_unitary(terms[k], betas[k]) @ (np.exp(-1j * gammas[k] * values) * psi)
    return psi


def reference_expectation(angles, mixer, obj_vals, **kwargs) -> float:
    """``<C>`` at the final state of :func:`reference_state`."""
    values = obj_vals.values if isinstance(obj_vals, PrecomputedCost) else np.asarray(
        obj_vals, dtype=np.float64
    )
    psi = reference_state(angles, mixer, obj_vals, **kwargs)
    return float(np.real(np.vdot(psi, values * psi)))


def reference_value_and_gradient(
    angles, mixer, obj_vals, *, p=None, initial_state=None
) -> tuple[float, np.ndarray]:
    """Expectation value and exact adjoint gradient of one angle set.

    The gradient is in the flat (betas, gammas) layout of ``angles``; a
    multi-angle layer gets one derivative per term.
    """
    schedule, values, betas, gammas, psi, terms = _setup(
        angles, mixer, obj_vals, p, initial_state
    )
    unitaries, chis, psis = [], [], []
    for k in range(schedule.p):
        chi = np.exp(-1j * gammas[k] * values) * psi
        unitaries.append(layer_unitary(terms[k], betas[k]))
        psi = unitaries[k] @ chi
        chis.append(chi)
        psis.append(psi)
    energy = float(np.real(np.vdot(psi, values * psi)))

    phi = values * psi
    grad_betas: list[np.ndarray] = [None] * schedule.p  # type: ignore[list-item]
    grad_gammas = np.empty(schedule.p)
    for k in range(schedule.p - 1, -1, -1):
        grad_betas[k] = np.array(
            [2.0 * np.imag(np.vdot(phi, h @ psis[k])) for h in terms[k]]
        )
        phi = unitaries[k].conj().T @ phi
        grad_gammas[k] = 2.0 * np.imag(np.vdot(phi, values * chis[k]))
        phi = np.exp(1j * gammas[k] * values) * phi
    return energy, np.concatenate(grad_betas + [grad_gammas])
