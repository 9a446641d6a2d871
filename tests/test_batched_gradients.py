"""The batched adjoint-gradient engine against an independent reference.

The batched gradient kernel evolves M angle sets as one ``(dim, M)`` matrix
through a recorded forward pass and a batched adjoint backward pass; these
tests pin every row to the one-angle-set-at-a-time ``expm`` adjoint of
``qaoa_reference`` across every mixer family (including mixed multi-angle
schedules), pin every mixer's ``adjoint_batch`` round to dense matrix
exponentials, count the basis changes a value-and-gradient costs, and check
that the vectorized multi-start refiner reaches scipy-BFGS-quality optima on
the tier-1 problems.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from qaoa_reference import (
    apply_hamiltonian_batch,
    layer_unitary,
    reference_value_and_gradient,
    term_matrices,
)
from scipy.linalg import expm

from repro.angles import (
    find_angles_random,
    local_minimize,
    multistart_minimize,
)
from repro.backend import kernels
from repro.baselines.trotter import TrotterXYMixer
from repro.core import BatchedWorkspace, QAOAAnsatz, qaoa_value_and_gradient_batch
from repro.core.gradients import finite_difference_gradient
from repro.hilbert import state_matrix
from repro.mixers import (
    MixerSchedule,
    MultiAngleXMixer,
    grover_mixer,
    grover_mixer_dicke,
    mixer_clique,
    mixer_ring,
    transverse_field_mixer,
)
from repro.mixers.base import Mixer
from repro.mixers.unitary import FixedUnitaryMixer, HermitianMixer
from repro.mixers.xy import xy_subspace_matrix
from repro.problems import erdos_renyi, maxcut_values

_N = 6
_K = 3


def _objective(dim: int, seed: int = 11) -> np.ndarray:
    return np.random.default_rng(seed).random(dim)


def _mixer(kind: str):
    if kind == "x":
        return transverse_field_mixer(_N)
    if kind == "grover-full":
        return grover_mixer(_N)
    if kind == "grover-dicke":
        return grover_mixer_dicke(_N, _K)
    if kind == "clique":
        return mixer_clique(_N, _K)
    if kind == "ring":
        return mixer_ring(_N, _K)
    if kind == "hermitian":
        rng = np.random.default_rng(3)
        mat = rng.random((16, 16)) + 1j * rng.random((16, 16))
        return HermitianMixer(mat + mat.conj().T)
    raise ValueError(kind)


_ALL_KINDS = ["x", "grover-full", "grover-dicke", "clique", "ring", "hermitian"]


# ---------------------------------------------------------------------------
# batched value-and-gradient vs the reference adjoint
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", _ALL_KINDS)
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("batch", [1, 7])
def test_value_and_gradient_batch_matches_scalar(kind, p, batch):
    mixer = _mixer(kind)
    obj = _objective(mixer.dim)
    rng = np.random.default_rng(100 * p + batch)
    angles = 2.0 * np.pi * rng.random((batch, 2 * p))
    values, grads = qaoa_value_and_gradient_batch(angles, mixer, obj, p=p)
    assert values.shape == (batch,)
    assert grads.shape == (batch, 2 * p)
    for j in range(batch):
        value, grad = reference_value_and_gradient(angles[j], mixer, obj, p=p)
        assert abs(values[j] - value) <= 1e-10
        assert np.abs(grads[j] - grad).max() <= 1e-10


def test_multiangle_value_and_gradient_batch():
    mixer = MultiAngleXMixer(4, [(0,), (1,), (2,), (3,)])
    obj = maxcut_values(erdos_renyi(4, 0.6, seed=2), state_matrix(4))
    schedule = MixerSchedule([mixer, mixer])
    num_angles = schedule.total_betas + schedule.p
    rng = np.random.default_rng(4)
    angles = rng.uniform(-1, 1, size=(6, num_angles))
    values, grads = qaoa_value_and_gradient_batch(angles, schedule, obj)
    assert grads.shape == (6, num_angles)
    for j in range(6):
        value, grad = reference_value_and_gradient(angles[j], schedule, obj)
        assert abs(values[j] - value) <= 1e-10
        assert np.abs(grads[j] - grad).max() <= 1e-10


def test_mixed_schedule_value_and_gradient_batch():
    """Multi-angle and plain layers interleaved in one schedule."""
    multi = MultiAngleXMixer(4, [(0,), (1,), (2, 3)])
    plain = transverse_field_mixer(4)
    schedule = MixerSchedule([multi, plain, multi])
    obj = _objective(16, seed=8)
    num_angles = schedule.total_betas + schedule.p
    rng = np.random.default_rng(9)
    angles = rng.uniform(-np.pi, np.pi, size=(5, num_angles))
    values, grads = qaoa_value_and_gradient_batch(angles, schedule, obj)
    for j in range(5):
        value, grad = reference_value_and_gradient(angles[j], schedule, obj)
        assert abs(values[j] - value) <= 1e-10
        assert np.abs(grads[j] - grad).max() <= 1e-10


def test_batch_gradient_with_initial_state():
    mixer = mixer_clique(_N, _K)
    obj = _objective(mixer.dim, seed=21)
    rng = np.random.default_rng(5)
    init = rng.random(mixer.dim) + 1j * rng.random(mixer.dim)
    init /= np.linalg.norm(init)
    angles = 2.0 * np.pi * rng.random((4, 4))
    values, grads = qaoa_value_and_gradient_batch(angles, mixer, obj, p=2, initial_state=init)
    for j in range(4):
        value, grad = reference_value_and_gradient(angles[j], mixer, obj, p=2, initial_state=init)
        assert abs(values[j] - value) <= 1e-10
        assert np.abs(grads[j] - grad).max() <= 1e-10


def test_single_flat_angle_vector_is_one_row():
    mixer = transverse_field_mixer(4)
    obj = _objective(16, seed=1)
    angles = np.array([0.3, 0.9, 1.2, 0.4])
    values, grads = qaoa_value_and_gradient_batch(angles, mixer, obj, p=2)
    assert values.shape == (1,)
    assert grads.shape == (1, 4)
    value, grad = reference_value_and_gradient(angles, mixer, obj, p=2)
    assert abs(values[0] - value) <= 1e-12
    assert np.abs(grads[0] - grad).max() <= 1e-12


# ---------------------------------------------------------------------------
# adjoint_batch rounds vs dense matrix exponentials
# ---------------------------------------------------------------------------

def _fixed_unitary():
    rng = np.random.default_rng(12)
    mat = rng.random((16, 16)) + 1j * rng.random((16, 16))
    eigenvalues, eigenvectors = np.linalg.eigh(mat + mat.conj().T)
    return FixedUnitaryMixer((eigenvectors * np.exp(-1j * eigenvalues)) @ eigenvectors.conj().T)


_ADJOINT_KINDS = _ALL_KINDS + ["multiangle", "unitary-beta1", "unitary-mixed", "trotter"]


def _adjoint_mixer(kind: str):
    if kind == "multiangle":
        return MultiAngleXMixer(4, [(0,), (1, 2), (3,)])
    if kind.startswith("unitary"):
        return _fixed_unitary()
    if kind == "trotter":
        return TrotterXYMixer(_N, _K, [(i, (i + 1) % _N) for i in range(_N)], trotter_steps=2)
    return _mixer(kind)


def _reference_layer(mixer, betas) -> tuple[np.ndarray, list[np.ndarray]]:
    """The layer unitary ``U`` and its derivatives ``dU/dbeta_t``, from ``expm``.

    A Trotterized layer is the product of its pair rotations
    ``exp(-i beta h_r / steps)``, built from each pair's subspace matrix.
    """
    if isinstance(mixer, TrotterXYMixer):
        steps = mixer.trotter_steps
        rotations = [
            xy_subspace_matrix(mixer.n, mixer.k, [pair]) for pair in mixer.pairs
        ] * steps
        factors = [expm(-1j * betas[0] / steps * h) for h in rotations]
        unitary = np.eye(mixer.dim, dtype=np.complex128)
        for factor in factors:
            unitary = factor @ unitary
        derivative = np.zeros_like(unitary)
        for r, h in enumerate(rotations):
            before = np.eye(mixer.dim, dtype=np.complex128)
            for factor in factors[: r + 1]:
                before = factor @ before
            after = np.eye(mixer.dim, dtype=np.complex128)
            for factor in factors[r + 1 :]:
                after = factor @ after
            derivative += after @ (-1j / steps * h) @ before
        return unitary, [derivative]
    terms = term_matrices(mixer)
    unitary = layer_unitary(terms, betas)
    return unitary, [-1j * h @ unitary for h in terms]


def _random_columns(rng, dim: int, M: int) -> np.ndarray:
    states = rng.normal(size=(dim, M)) + 1j * rng.normal(size=(dim, M))
    return np.ascontiguousarray(states / np.linalg.norm(states, axis=0))


@pytest.mark.parametrize("kind", _ADJOINT_KINDS)
@pytest.mark.parametrize("with_workspace", [False, True])
def test_adjoint_batch_matches_expm(kind, with_workspace):
    """One backward round returns ``2 Re <phi| dU/dbeta_t |chi>`` per term and
    leaves ``U^† phi`` in place, reading what the recording forward layer left."""
    mixer = _adjoint_mixer(kind)
    rng = np.random.default_rng(17)
    M = 3
    num_betas = getattr(mixer, "num_angles", 1)
    betas = rng.uniform(-np.pi, np.pi, size=(num_betas, M))
    if kind == "unitary-beta1":
        betas[:] = 1.0
    beta_arg = betas if isinstance(mixer, MultiAngleXMixer) else betas[0]
    chi = _random_columns(rng, mixer.dim, M)
    Phi = _random_columns(rng, mixer.dim, M)
    workspace = BatchedWorkspace(mixer.dim, M) if with_workspace else None
    record = np.empty((mixer.dim, M), dtype=np.complex128)
    chi_before = chi.copy()
    psi = mixer.apply_batch(chi, beta_arg, workspace=workspace, record=record)
    updated = Phi.copy()
    grads = mixer.adjoint_batch(updated, chi, record, beta_arg, workspace=workspace)
    assert grads.shape == (num_betas, M)
    assert np.array_equal(chi, chi_before)
    for j in range(M):
        unitary, derivatives = _reference_layer(mixer, betas[:, j])
        assert np.abs(psi[:, j] - unitary @ chi[:, j]).max() <= 1e-10
        assert np.abs(updated[:, j] - unitary.conj().T @ Phi[:, j]).max() <= 1e-10
        for t, derivative in enumerate(derivatives):
            expected = 2.0 * np.real(np.vdot(Phi[:, j], derivative @ chi[:, j]))
            assert abs(grads[t, j] - expected) <= 1e-10


@pytest.mark.parametrize("kind", _ALL_KINDS)
def test_apply_hamiltonian_batch_matches_column_loop(kind):
    """The Hamiltonian the adjoint round differentiates is the mixer's matrix."""
    mixer = _mixer(kind)
    rng = np.random.default_rng(7)
    Psi = rng.random((mixer.dim, 5)) + 1j * rng.random((mixer.dim, 5))
    batched = apply_hamiltonian_batch(mixer, Psi)[0]
    matrix = mixer.matrix()
    for j in range(5):
        looped = matrix @ Psi[:, j]
        assert np.abs(batched[:, j] - looped).max() <= 1e-10


def test_apply_hamiltonian_batch_multiangle():
    mixer = MultiAngleXMixer(4, [(0,), (1, 2), (3,)])
    rng = np.random.default_rng(2)
    Psi = rng.random((16, 3)) + 1j * rng.random((16, 3))
    batched = apply_hamiltonian_batch(mixer, Psi).sum(axis=0)
    summed = sum(term_matrices(mixer))
    for j in range(3):
        looped = summed @ Psi[:, j]
        assert np.abs(batched[:, j] - looped).max() <= 1e-10


def test_adjoint_batch_rejects_non_contiguous_phi():
    mixer = transverse_field_mixer(3)
    Phi = np.zeros((8, 4), dtype=np.complex128)[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        mixer.adjoint_batch(Phi, Phi.copy(), Phi.copy(), np.zeros(2))


@pytest.mark.parametrize("p", [1, 3])
def test_value_and_gradient_costs_two_basis_changes_per_layer(monkeypatch, p):
    """At M=1 the forward layers and the backward rounds cost 2 basis changes
    each: 4p Walsh–Hadamard transforms (X) or 4p real GEMMs (clique)."""
    rng = np.random.default_rng(p)
    x_ansatz = QAOAAnsatz(_objective(2**_N), transverse_field_mixer(_N), p)
    clique = mixer_clique(_N, _K)
    clique_ansatz = QAOAAnsatz(_objective(clique.dim), clique, p)
    calls = Counter()
    for name in ("wht_gemm", "real_gemm"):
        def counted(*args, _name=name, _kernel=getattr(kernels, name), **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counted)
    x_ansatz.value_and_gradient_batch(2.0 * np.pi * rng.random((1, 2 * p)))
    assert calls == {"wht_gemm": 4 * p}
    calls.clear()
    clique_ansatz.value_and_gradient_batch(2.0 * np.pi * rng.random((1, 2 * p)))
    assert calls == {"real_gemm": 4 * p}


def test_mixer_without_batch_kernels_is_abstract():
    """The batched kernels are the mixer interface: no column-loop fallback."""

    class MatrixOnlyMixer(Mixer):
        def matrix(self):
            return np.eye(self.dim)

    with pytest.raises(TypeError, match="apply_batch"):
        MatrixOnlyMixer(transverse_field_mixer(2).space)


# ---------------------------------------------------------------------------
# workspace plumbing
# ---------------------------------------------------------------------------

class TestBatchedGradientWorkspace:
    def test_ensure_layers_shape_and_contiguity(self):
        ws = BatchedWorkspace(10, 4)
        store = ws.ensure_layers(3, 4)
        assert store.shape == (3, 2, 10, 4)
        assert store.flags.c_contiguous
        assert store[1, 0].flags.c_contiguous
        # shrinking requests reuse the same backing buffer
        smaller = ws.ensure_layers(2, 3)
        assert smaller.shape == (2, 2, 10, 3)
        with pytest.raises(ValueError):
            ws.ensure_layers(-1, 4)
        with pytest.raises(ValueError):
            ws.ensure_layers(2, 0)

    def test_ansatz_batch_gradient_reuses_workspace(self):
        obj = _objective(2**_N, seed=13)
        ansatz = QAOAAnsatz(obj, transverse_field_mixer(_N), 2)
        rng = np.random.default_rng(1)
        ansatz.value_and_gradient_batch(2.0 * np.pi * rng.random((8, 4)))
        ws = ansatz._batched_workspace
        assert ws is not None and ws.capacity == 8
        ansatz.value_and_gradient_batch(2.0 * np.pi * rng.random((3, 4)))
        assert ansatz._batched_workspace is ws and ws.capacity == 8
        assert ansatz.counter.forward_passes == 11
        assert ansatz.counter.hamiltonian_applications == 2 * 11

    def test_loss_and_gradient_batch_signs(self):
        obj = _objective(16, seed=4)
        rng = np.random.default_rng(2)
        angles = 2.0 * np.pi * rng.random((3, 4))
        for maximize in (True, False):
            ansatz = QAOAAnsatz(obj, transverse_field_mixer(4), 2, maximize=maximize)
            values, grads = ansatz.value_and_gradient_batch(angles)
            losses, lgrads = ansatz.loss_and_gradient_batch(angles)
            sign = -1.0 if maximize else 1.0
            assert np.allclose(losses, sign * values)
            assert np.allclose(lgrads, sign * grads)


# ---------------------------------------------------------------------------
# vectorized multi-start refinement
# ---------------------------------------------------------------------------

def _maxcut_ansatz(n=_N, p=2, seed=1, maximize=True):
    graph = erdos_renyi(n, 0.5, seed=seed)
    obj = maxcut_values(graph, state_matrix(n))
    return QAOAAnsatz(obj, transverse_field_mixer(n), p, maximize=maximize)


class TestMultistartMinimize:
    def test_reaches_scipy_quality_best_value(self):
        """Best-of-M values match the per-seed scipy BFGS loop on tier-1 problems."""
        for seed, p in ((1, 1), (4, 2)):
            ansatz = _maxcut_ansatz(p=p, seed=seed)
            rng = np.random.default_rng(0)
            seeds = 2.0 * np.pi * rng.random((16, ansatz.num_angles))
            report = multistart_minimize(ansatz, seeds)
            scipy_best = max(
                local_minimize(ansatz, seeds[j]).value for j in range(len(seeds))
            )
            assert report.values.max() >= scipy_best - 1e-6

    def test_refined_points_are_local_optima(self):
        ansatz = _maxcut_ansatz(p=2)
        rng = np.random.default_rng(3)
        seeds = 2.0 * np.pi * rng.random((12, ansatz.num_angles))
        report = multistart_minimize(ansatz, seeds, gtol=1e-6)
        assert report.converged.all()
        for j in range(len(seeds)):
            grad = ansatz.gradient(report.angles[j])
            assert np.abs(grad).max() <= 1e-5

    def test_monotone_improvement_over_seeds(self):
        ansatz = _maxcut_ansatz(p=2)
        rng = np.random.default_rng(7)
        seeds = 2.0 * np.pi * rng.random((10, ansatz.num_angles))
        seed_values = ansatz.expectation_batch(seeds)
        report = multistart_minimize(ansatz, seeds)
        assert np.all(report.values >= seed_values - 1e-9)

    def test_minimization_sense(self):
        ansatz = _maxcut_ansatz(p=1, maximize=False)
        rng = np.random.default_rng(5)
        seeds = 2.0 * np.pi * rng.random((8, ansatz.num_angles))
        report = multistart_minimize(ansatz, seeds)
        seed_values = ansatz.expectation_batch(seeds)
        assert np.all(report.values <= seed_values + 1e-9)

    def test_chunking_matches_unchunked(self):
        ansatz = _maxcut_ansatz(p=2)
        rng = np.random.default_rng(9)
        seeds = 2.0 * np.pi * rng.random((9, ansatz.num_angles))
        full = multistart_minimize(ansatz, seeds)
        chunked = multistart_minimize(ansatz, seeds, batch_size=4)
        assert np.abs(full.values - chunked.values).max() <= 1e-8

    def test_column_evaluations_sum(self):
        ansatz = _maxcut_ansatz(p=1)
        rng = np.random.default_rng(11)
        seeds = 2.0 * np.pi * rng.random((6, ansatz.num_angles))
        report = multistart_minimize(ansatz, seeds)
        assert report.evaluations == int(report.column_evaluations.sum())
        assert np.all(report.column_evaluations >= 1)
        assert np.all(report.iterations <= 200)

    def test_validates_inputs(self):
        ansatz = _maxcut_ansatz(p=1)
        with pytest.raises(ValueError):
            multistart_minimize(ansatz, np.zeros((3, 5)))
        with pytest.raises(ValueError):
            multistart_minimize(ansatz, np.zeros((3, 2)), maxiter=0)
        with pytest.raises(ValueError):
            multistart_minimize(ansatz, np.zeros((3, 2)), batch_size=0)


# ---------------------------------------------------------------------------
# find_angles_random rewiring (scoring satellite + vectorized default)
# ---------------------------------------------------------------------------

class TestFindAnglesRandomRewire:
    def test_no_prune_skips_seed_scoring(self, monkeypatch):
        """With refine_top=None every seed is refined: zero scoring evolutions."""
        ansatz = _maxcut_ansatz(p=1)

        def forbid(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("seed scoring must be skipped when nothing is pruned")

        monkeypatch.setattr(ansatz, "expectation_batch", forbid)
        result = find_angles_random(ansatz, iters=4, rng=0)
        assert all(entry["seed_value"] is None for entry in result.history)

    def test_no_prune_skips_scoring_scalar_path_too(self, monkeypatch):
        # the per-seed scipy loop evaluates single rows through
        # expectation_batch, so the scorer itself is what must not run
        from repro.angles import random_restart

        ansatz = _maxcut_ansatz(p=1)

        def forbid(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("seed scoring must be skipped when nothing is pruned")

        monkeypatch.setattr(random_restart, "_score_seeds", forbid)
        result = find_angles_random(ansatz, iters=3, rng=0, gradient="numeric", vectorized=False)
        assert all(entry["seed_value"] is None for entry in result.history)

    def test_scoring_is_chunked(self, monkeypatch):
        ansatz = _maxcut_ansatz(p=1)
        batches = []
        original = ansatz.expectation_batch

        def spy(angles):
            angles = np.asarray(angles)
            batches.append(angles.shape[0])
            return original(angles)

        monkeypatch.setattr(ansatz, "expectation_batch", spy)
        find_angles_random(ansatz, iters=25, rng=0, refine_top=2, score_batch_size=8)
        # refinement runs through loss_and_gradient_batch, so every
        # expectation_batch call here is a bounded scoring chunk
        assert batches == [8, 8, 8, 1]

    def test_peak_scratch_bounded_by_chunk_budget(self):
        """The workspace never grows to the full (dim, iters) batch."""
        ansatz = _maxcut_ansatz(p=1)
        find_angles_random(ansatz, iters=40, rng=0, refine_top=2, score_batch_size=16)
        assert ansatz._batched_workspace is not None
        assert ansatz._batched_workspace.capacity <= 16

    def test_vectorized_matches_scalar_backend_quality(self):
        ansatz = _maxcut_ansatz(p=2)
        vec = find_angles_random(ansatz, iters=12, rng=3)
        sci = find_angles_random(ansatz, iters=12, rng=3, vectorized=False)
        assert vec.value >= sci.value - 1e-6
        assert vec.strategy == sci.strategy == "random-restart"

    def test_vectorized_requires_adjoint(self):
        with pytest.raises(ValueError):
            find_angles_random(_maxcut_ansatz(p=1), iters=2, gradient="finite", vectorized=True)

    def test_vectorized_deterministic(self):
        ansatz = _maxcut_ansatz(p=1)
        a = find_angles_random(ansatz, iters=5, rng=8)
        b = find_angles_random(ansatz, iters=5, rng=8)
        assert np.allclose(a.angles, b.angles)
        assert a.value == b.value

    def test_refine_top_with_vectorized_path(self):
        ansatz = _maxcut_ansatz(p=1)
        summary, results = find_angles_random(
            ansatz, iters=10, rng=2, refine_top=3, return_all=True
        )
        assert sum(entry["refined"] for entry in summary.history) == 3
        assert all(entry["seed_value"] is not None for entry in summary.history)
        refined = [r for r in results if r.strategy == "bfgs-adjoint-batched"]
        assert len(refined) == 3
        assert all(r.evaluations > 0 for r in refined)


# ---------------------------------------------------------------------------
# finite-difference buffer-reuse satellite
# ---------------------------------------------------------------------------

class TestFiniteDifferenceBufferReuse:
    def test_single_buffer_perturbed_in_place(self):
        seen = []

        def func(v):
            seen.append(id(v))
            return float(v[0] ** 2 + 3.0 * v[1])

        grad = finite_difference_gradient(func, np.array([2.0, 5.0]))
        assert np.allclose(grad, [4.0, 3.0], atol=1e-4)
        assert len(set(seen)) == 1  # one shared perturbation buffer

    def test_input_array_not_mutated(self):
        x = np.array([0.4, 1.3, -0.2])
        before = x.copy()
        finite_difference_gradient(lambda v: float(np.sin(v).sum()), x)
        assert np.array_equal(x, before)
        finite_difference_gradient(lambda v: float(np.cos(v).sum()), x, scheme="forward")
        assert np.array_equal(x, before)
