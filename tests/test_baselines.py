"""Tests for the baseline QAOA simulators (circuit-based and Trotterized)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
from qaoa_reference import apply_mixer

from repro.baselines import (
    DecomposedCircuitQAOA,
    DenseUnitaryQAOA,
    DirectQAOA,
    GateCircuitQAOA,
    TrotterXYMixer,
    trotter_clique_mixer,
    trotter_ring_mixer,
)
from repro.core import (
    expectation_value_batch,
    qaoa_value_and_gradient_batch,
    random_angles,
    simulate,
)
from repro.hilbert import DickeSpace
from repro.mixers import CliqueMixer
from repro.problems import densest_subgraph_values, erdos_renyi

ALL_BASELINES = [DirectQAOA, GateCircuitQAOA, DecomposedCircuitQAOA, DenseUnitaryQAOA]


@pytest.fixture(scope="module")
def graph5():
    return erdos_renyi(5, 0.5, seed=30)


class TestCircuitBaselinesAgree:
    @pytest.mark.parametrize("cls", ALL_BASELINES)
    @pytest.mark.parametrize("p", [1, 2])
    def test_expectation_matches_direct(self, graph5, cls, p):
        angles = random_angles(p, rng=p)
        reference = DirectQAOA(graph5, p).expectation(angles)
        assert np.isclose(cls(graph5, p).expectation(angles), reference, atol=1e-9)

    @pytest.mark.parametrize("cls", [GateCircuitQAOA, DecomposedCircuitQAOA, DenseUnitaryQAOA])
    def test_statevector_matches_direct_up_to_global_phase(self, graph5, cls):
        angles = random_angles(2, rng=5)
        direct = DirectQAOA(graph5, 2).statevector(angles)
        other = cls(graph5, 2).statevector(angles)
        overlap = np.abs(np.vdot(direct, other))
        assert np.isclose(overlap, 1.0, atol=1e-9)

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_angle_count_validation(self, graph5, cls):
        simulator = cls(graph5, 2)
        with pytest.raises(ValueError):
            simulator.expectation(np.zeros(3))

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_p_validation(self, graph5, cls):
        with pytest.raises(ValueError):
            cls(graph5, 0)

    def test_evaluation_counters(self, graph5):
        sim = GateCircuitQAOA(graph5, 1)
        angles = random_angles(1, rng=0)
        sim.expectation(angles)
        sim.expectation(angles)
        assert sim.evaluations == 2

    def test_gate_counts_ordering(self, graph5):
        """The decomposed baseline runs strictly more gates than the plain
        circuit baseline; the direct simulator runs none."""
        p = 2
        gate = GateCircuitQAOA(graph5, p).gate_count()
        decomposed = DecomposedCircuitQAOA(graph5, p).gate_count()
        assert decomposed > gate > 0
        assert DirectQAOA(graph5, p).gate_count() == 0

    def test_direct_gradient_available(self, graph5):
        sim = DirectQAOA(graph5, 2)
        angles = random_angles(2, rng=1)
        grad = sim.gradient(angles)
        assert grad.shape == (4,)


class TestTrotterMixer:
    def test_single_pair_is_exact(self, rng):
        """With one interaction pair there is nothing to Trotterize."""
        mixer = TrotterXYMixer(4, 2, [(0, 1)], trotter_steps=1)
        exact = sla.expm(-1j * 0.7 * mixer.matrix())
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        assert np.allclose(apply_mixer(mixer, psi, 0.7), exact @ psi, atol=1e-10)

    def test_converges_to_exact_with_steps(self, rng):
        n, k, beta = 6, 3, 0.5
        exact_mixer = CliqueMixer(n, k)
        psi = rng.normal(size=20) + 1j * rng.normal(size=20)
        psi /= np.linalg.norm(psi)
        exact = apply_mixer(exact_mixer, psi, beta)
        errors = []
        for steps in (1, 4, 16, 64):
            approx = apply_mixer(trotter_clique_mixer(n, k, trotter_steps=steps), psi, beta)
            errors.append(np.linalg.norm(exact - approx))
        assert errors[0] > errors[1] > errors[2] > errors[3]
        # First-order Trotter error scales as 1/steps.
        assert errors[3] < errors[0] / 30
        assert errors[3] < 5e-3

    def test_trotter_error_metric_decreases(self):
        one = trotter_clique_mixer(5, 2, trotter_steps=1).trotter_error(0.4)
        many = trotter_clique_mixer(5, 2, trotter_steps=10).trotter_error(0.4)
        assert many < one

    def test_unitarity_and_weight_conservation(self, rng):
        n, k = 6, 2
        mixer = trotter_ring_mixer(n, k, trotter_steps=2)
        psi = rng.normal(size=15) + 1j * rng.normal(size=15)
        psi /= np.linalg.norm(psi)
        out = apply_mixer(mixer, psi, 1.3)
        assert np.isclose(np.linalg.norm(out), 1.0)

    @pytest.mark.parametrize("steps", [1, 2])
    def test_adjoint_gradient_matches_central_differences(self, steps):
        """The adjoint differentiates the Trotterized layer, not the exact XY evolution."""
        mixer = trotter_ring_mixer(5, 2, trotter_steps=steps)
        rng = np.random.default_rng(0)
        obj = rng.random(mixer.dim)
        angles = 2.0 * np.pi * rng.random(4)
        _, grads = qaoa_value_and_gradient_batch(angles, mixer, obj, p=2)
        eps = 1e-5
        for i in range(angles.size):
            shifted = np.stack([angles, angles])
            shifted[0, i] += eps
            shifted[1, i] -= eps
            plus, minus = expectation_value_batch(shifted, mixer, obj, p=2)
            assert abs(grads[0, i] - (plus - minus) / (2 * eps)) <= 1e-6

    def test_plugs_into_simulate(self, small_graph):
        space = DickeSpace(6, 3)
        obj = densest_subgraph_values(small_graph, space.bits)
        angles = random_angles(2, rng=2)
        exact_result = simulate(angles, CliqueMixer(6, 3), obj)
        trotter_result = simulate(angles, trotter_clique_mixer(6, 3), obj)
        # Both stay normalized, values differ but are in the feasible range.
        assert np.isclose(trotter_result.norm(), 1.0)
        assert obj.min() - 1e-9 <= trotter_result.expectation() <= obj.max() + 1e-9
        assert not np.isclose(trotter_result.expectation(), exact_result.expectation(), atol=1e-6)

    def test_many_steps_simulation_approaches_exact(self, small_graph):
        space = DickeSpace(6, 3)
        obj = densest_subgraph_values(small_graph, space.bits)
        angles = random_angles(2, rng=3)
        exact = simulate(angles, CliqueMixer(6, 3), obj).expectation()
        approx = simulate(angles, trotter_clique_mixer(6, 3, trotter_steps=64), obj).expectation()
        assert np.isclose(approx, exact, atol=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrotterXYMixer(4, 2, [], trotter_steps=1)
        with pytest.raises(ValueError):
            TrotterXYMixer(4, 2, [(0, 1)], trotter_steps=0)
        with pytest.raises(ValueError):
            TrotterXYMixer(4, 2, [(0, 0)])
        with pytest.raises(ValueError):
            trotter_ring_mixer(1, 0)

    def test_out_buffer_aliasing(self, rng):
        mixer = trotter_ring_mixer(5, 2)
        psi = rng.normal(size=10) + 1j * rng.normal(size=10)
        psi /= np.linalg.norm(psi)
        expected = apply_mixer(mixer, psi, 0.8)
        apply_mixer(mixer, psi, 0.8, out=psi)
        assert np.allclose(psi, expected)
