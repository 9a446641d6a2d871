"""The batched adjoint-gradient engine against an independent reference.

The batched gradient kernel evolves M angle sets as one ``(dim, M)`` matrix
through a recorded forward pass and a batched adjoint backward pass; these
tests pin every row to the one-angle-set-at-a-time ``expm`` adjoint of
``qaoa_reference`` across every mixer family (including mixed multi-angle
schedules), pin every mixer's ``apply_hamiltonian_batch`` to dense matrix
products, and check that the vectorized multi-start refiner reaches
scipy-BFGS-quality optima on the tier-1 problems.
"""

from __future__ import annotations

import numpy as np
import pytest
from qaoa_reference import reference_value_and_gradient, term_matrices

from repro.angles import (
    find_angles_random,
    local_minimize,
    multistart_minimize,
)
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
from repro.mixers.unitary import HermitianMixer
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
# apply_hamiltonian_batch vs dense matrix products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", _ALL_KINDS)
def test_apply_hamiltonian_batch_matches_column_loop(kind):
    mixer = _mixer(kind)
    rng = np.random.default_rng(7)
    Psi = rng.random((mixer.dim, 5)) + 1j * rng.random((mixer.dim, 5))
    Psi = np.ascontiguousarray(Psi)
    batched = mixer.apply_hamiltonian_batch(Psi)
    matrix = mixer.matrix()
    for j in range(5):
        looped = matrix @ Psi[:, j]
        assert np.abs(batched[:, j] - looped).max() <= 1e-10


def test_apply_hamiltonian_batch_multiangle():
    mixer = MultiAngleXMixer(4, [(0,), (1, 2), (3,)])
    rng = np.random.default_rng(2)
    Psi = np.ascontiguousarray(rng.random((16, 3)) + 1j * rng.random((16, 3)))
    batched = mixer.apply_hamiltonian_batch(Psi)
    summed = sum(term_matrices(mixer))
    for j in range(3):
        looped = summed @ Psi[:, j]
        assert np.abs(batched[:, j] - looped).max() <= 1e-10


def test_apply_hamiltonian_batch_out_aliases_and_workspace():
    mixer = mixer_ring(_N, _K)
    rng = np.random.default_rng(6)
    Psi = np.ascontiguousarray(rng.random((mixer.dim, 4)) + 1j * rng.random((mixer.dim, 4)))
    expected = mixer.apply_hamiltonian_batch(Psi.copy())
    inplace = Psi.copy()
    ws = BatchedWorkspace(mixer.dim, 4)
    mixer.apply_hamiltonian_batch(inplace, out=inplace, workspace=ws)
    assert np.abs(inplace - expected).max() <= 1e-12


def test_mixer_without_batch_kernels_is_abstract():
    """The batched kernels are the mixer interface: no column-loop fallback."""

    class MatrixOnlyMixer(Mixer):
        def matrix(self):
            return np.eye(self.dim)

    with pytest.raises(TypeError, match="apply_batch"):
        MatrixOnlyMixer(transverse_field_mixer(2).space)


def test_term_gradients_batch_matches_per_term_products():
    mixer = MultiAngleXMixer(4, [(0,), (1,), (2, 3)])
    rng = np.random.default_rng(10)
    Phi = np.ascontiguousarray(rng.random((16, 4)) + 1j * rng.random((16, 4)))
    Psi = np.ascontiguousarray(rng.random((16, 4)) + 1j * rng.random((16, 4)))
    grads = mixer.term_gradients_batch(Phi, Psi)
    assert grads.shape == (3, 4)
    for t, term in enumerate(term_matrices(mixer)):
        for j in range(4):
            h_psi = term @ Psi[:, j]
            expected = 2.0 * float(np.imag(np.vdot(Phi[:, j], h_psi)))
            assert abs(grads[t, j] - expected) <= 1e-10


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

    def test_aux_is_lazy_and_grows(self):
        ws = BatchedWorkspace(8, 2)
        assert ws._aux_flat is None
        aux = ws.aux(2)
        assert aux.shape == (8, 2)
        grown = ws.aux(5)
        assert grown.shape == (8, 5)
        with pytest.raises(ValueError):
            ws.aux(0)

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
