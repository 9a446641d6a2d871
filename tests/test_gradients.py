"""Tests for the adjoint (autodiff-equivalent) and finite-difference gradients.

The library's adjoint is the M=1 row of the batched kernel; it is checked
against finite differences of the library's expectation and against the
independent ``expm`` reference in ``qaoa_reference``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from qaoa_reference import reference_value_and_gradient

from repro.core import (
    EvaluationCounter,
    QAOAAnsatz,
    expectation_value_batch,
    qaoa_value_and_gradient_batch,
    random_angles,
)
from repro.core.gradients import finite_difference_gradient
from repro.hilbert import DickeSpace, FullSpace, state_matrix
from repro.mixers import (
    CliqueMixer,
    GroverMixer,
    MixerSchedule,
    MultiAngleXMixer,
    RingMixer,
    transverse_field_mixer,
)
from repro.problems import densest_subgraph_values, erdos_renyi, maxcut_values


def qaoa_value_and_gradient(angles, mixer, obj, counter=None):
    """One row of the batched adjoint, checked against the ``expm`` reference."""
    values, grads = qaoa_value_and_gradient_batch(
        np.asarray(angles)[None, :], mixer, obj, counter=counter
    )
    ref_value, ref_grad = reference_value_and_gradient(angles, mixer, obj)
    assert abs(values[0] - ref_value) <= 1e-10
    assert np.abs(grads[0] - ref_grad).max() <= 1e-10
    return float(values[0]), grads[0]


def qaoa_gradient(angles, mixer, obj):
    return qaoa_value_and_gradient(angles, mixer, obj)[1]


def expectation_value(angles, mixer, obj):
    return float(expectation_value_batch(np.asarray(angles)[None, :], mixer, obj)[0])


def qaoa_finite_difference_gradient(angles, mixer, obj):
    """Central differences of the library's expectation value."""
    return finite_difference_gradient(lambda a: expectation_value(a, mixer, obj), angles)


def _maxcut_setup(n=6, seed=1):
    graph = erdos_renyi(n, 0.5, seed=seed)
    obj = maxcut_values(graph, state_matrix(n))
    return obj, transverse_field_mixer(n)


class TestGenericFiniteDifference:
    def test_quadratic_gradient(self):
        func = lambda x: float(x[0] ** 2 + 3 * x[1])  # noqa: E731
        grad = finite_difference_gradient(func, np.array([2.0, 5.0]))
        assert np.allclose(grad, [4.0, 3.0], atol=1e-4)

    def test_forward_scheme(self):
        func = lambda x: float(np.sin(x[0]))  # noqa: E731
        grad = finite_difference_gradient(func, np.array([0.3]), scheme="forward", eps=1e-7)
        assert np.allclose(grad, np.cos(0.3), atol=1e-5)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda x: 0.0, np.zeros(2), scheme="spectral")


class TestAdjointGradientCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_finite_difference_transverse_field(self, p):
        obj, mixer = _maxcut_setup()
        angles = random_angles(p, rng=p)
        _, grad = qaoa_value_and_gradient(angles, mixer, obj)
        fd = qaoa_finite_difference_gradient(angles, mixer, obj)
        assert np.allclose(grad, fd, atol=1e-6)

    def test_matches_finite_difference_grover(self):
        obj, _ = _maxcut_setup()
        mixer = GroverMixer(FullSpace(6))
        angles = random_angles(3, rng=5)
        assert np.allclose(
            qaoa_gradient(angles, mixer, obj),
            qaoa_finite_difference_gradient(angles, mixer, obj),
            atol=1e-6,
        )

    def test_matches_finite_difference_clique(self, small_graph):
        space = DickeSpace(6, 3)
        obj = densest_subgraph_values(small_graph, space.bits)
        mixer = CliqueMixer(6, 3)
        angles = random_angles(2, rng=6)
        assert np.allclose(
            qaoa_gradient(angles, mixer, obj),
            qaoa_finite_difference_gradient(angles, mixer, obj),
            atol=1e-6,
        )

    def test_matches_finite_difference_ring(self, small_graph):
        space = DickeSpace(6, 3)
        obj = densest_subgraph_values(small_graph, space.bits)
        mixer = RingMixer(6, 3)
        angles = random_angles(2, rng=7)
        assert np.allclose(
            qaoa_gradient(angles, mixer, obj),
            qaoa_finite_difference_gradient(angles, mixer, obj),
            atol=1e-6,
        )

    def test_matches_finite_difference_multi_angle(self):
        n = 4
        graph = erdos_renyi(n, 0.6, seed=9)
        obj = maxcut_values(graph, state_matrix(n))
        mixer = MultiAngleXMixer(n, [(q,) for q in range(n)])
        schedule = MixerSchedule([mixer, mixer])
        rng = np.random.default_rng(10)
        angles = rng.uniform(-1, 1, size=schedule.total_betas + 2)
        _, grad = qaoa_value_and_gradient(angles, schedule, obj)
        fd = qaoa_finite_difference_gradient(angles, schedule, obj)
        assert grad.shape == fd.shape == (10,)
        assert np.allclose(grad, fd, atol=1e-6)

    def test_value_matches_expectation(self):
        obj, mixer = _maxcut_setup()
        angles = random_angles(3, rng=11)
        value, _ = qaoa_value_and_gradient(angles, mixer, obj)
        assert np.isclose(value, expectation_value(angles, mixer, obj))

    def test_gradient_zero_at_stationary_point(self):
        """All-zero angles leave the uniform state invariant — a stationary point
        in beta (the mixer's generator commutes with the state)."""
        obj, mixer = _maxcut_setup()
        angles = np.zeros(4)
        grad = qaoa_gradient(angles, mixer, obj)
        # The beta components vanish because |+>^n is an eigenstate of the mixer.
        assert np.allclose(grad[:2], 0.0, atol=1e-9)

    def test_directional_derivative_against_secant(self):
        obj, mixer = _maxcut_setup()
        angles = random_angles(2, rng=12)
        value, grad = qaoa_value_and_gradient(angles, mixer, obj)
        rng = np.random.default_rng(0)
        direction = rng.normal(size=angles.size)
        direction /= np.linalg.norm(direction)
        eps = 1e-5
        plus = expectation_value(angles + eps * direction, mixer, obj)
        minus = expectation_value(angles - eps * direction, mixer, obj)
        secant = (plus - minus) / (2 * eps)
        assert np.isclose(np.dot(grad, direction), secant, atol=1e-5)


class TestEvaluationCounting:
    def test_adjoint_cost_independent_of_p(self):
        obj, mixer = _maxcut_setup()
        for p in (1, 3, 6):
            counter = EvaluationCounter()
            angles = random_angles(p, rng=p)
            qaoa_value_and_gradient(angles, mixer, obj, counter=counter)
            assert counter.forward_passes == 1
            assert counter.hamiltonian_applications == p
            ansatz = QAOAAnsatz(obj, mixer, p)
            ansatz.value_and_gradient(angles)
            assert ansatz.counter.forward_passes == 1
            assert ansatz.counter.hamiltonian_applications == p

    def test_finite_difference_cost_scales_with_p(self):
        obj, mixer = _maxcut_setup()
        counts = {}
        for p in (1, 3, 6):
            ansatz = QAOAAnsatz(obj, mixer, p)
            angles = random_angles(p, rng=p)
            ansatz.finite_difference_gradient(angles)
            counts[p] = ansatz.counter.forward_passes
        assert counts[1] == 4    # central differences: 2 * 2p
        assert counts[3] == 12
        assert counts[6] == 24
        # The O(p) separation the paper's Fig. 5 measures.
        assert counts[6] / counts[1] == 6

    def test_counter_reset(self):
        counter = EvaluationCounter(forward_passes=3, hamiltonian_applications=2)
        counter.reset()
        assert counter.forward_passes == 0
        assert counter.hamiltonian_applications == 0


class TestGradientValidation:
    def test_objective_shape_mismatch(self):
        _, mixer = _maxcut_setup()
        with pytest.raises(ValueError):
            qaoa_value_and_gradient_batch(random_angles(1, rng=0), mixer, np.zeros(10))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_property_adjoint_equals_finite_difference(p, seed):
    rng = np.random.default_rng(seed)
    graph = erdos_renyi(5, 0.5, seed=seed)
    obj = maxcut_values(graph, state_matrix(5))
    mixer = transverse_field_mixer(5)
    angles = rng.uniform(-np.pi, np.pi, size=2 * p)
    grad = qaoa_gradient(angles, mixer, obj)
    fd = qaoa_finite_difference_gradient(angles, mixer, obj)
    assert np.allclose(grad, fd, atol=1e-5)
