"""Tests for compressed Grover-QAOA simulation (Sec. 2.4 of the paper).

Every call goes through :class:`~repro.grover.CompressedGroverAnsatz`, whose
single-row calls are the M=1 rows of its batched kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import QAOAAnsatz, random_angles, simulate
from repro.grover import (
    CompressedGroverAnsatz,
    CompressedObjective,
    compress_objective,
    hamming_weight_spectrum,
)
from repro.hilbert import DickeSpace, FullSpace, state_matrix
from repro.mixers import GroverMixer
from repro.problems import densest_subgraph_values, erdos_renyi, maxcut_values


def _simulate(angles, spectrum, n=7):
    """Compressed final state at one flat angle vector of ``p`` betas then ``p`` gammas."""
    return CompressedGroverAnsatz(spectrum, len(angles) // 2, n=n).simulate(angles)


@pytest.fixture(scope="module")
def grover_setup():
    graph = erdos_renyi(7, 0.5, seed=17)
    obj = maxcut_values(graph, state_matrix(7))
    return obj, compress_objective(obj), GroverMixer(FullSpace(7))


class TestAgreementWithDenseSimulation:
    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_expectation_matches_dense(self, grover_setup, p):
        obj, spectrum, mixer = grover_setup
        angles = random_angles(p, rng=p)
        dense = simulate(angles, mixer, obj)
        compressed = _simulate(angles, spectrum)
        assert np.isclose(compressed.expectation(), dense.expectation(), atol=1e-10)

    def test_ground_state_probability_matches_dense(self, grover_setup):
        obj, spectrum, mixer = grover_setup
        angles = random_angles(3, rng=9)
        dense = simulate(angles, mixer, obj)
        compressed = _simulate(angles, spectrum)
        assert np.isclose(
            compressed.ground_state_probability(),
            dense.ground_state_probability(),
            atol=1e-10,
        )

    def test_class_amplitudes_match_dense_amplitudes(self, grover_setup):
        obj, spectrum, mixer = grover_setup
        angles = random_angles(2, rng=10)
        dense = simulate(angles, mixer, obj)
        compressed = _simulate(angles, spectrum)
        # Every dense amplitude equals its class amplitude (fair sampling).
        for value, amplitude in zip(spectrum.values, compressed.class_amplitudes):
            mask = obj == value
            assert np.allclose(dense.statevector[mask], amplitude, atol=1e-10)

    def test_dicke_constrained_grover(self, small_graph):
        space = DickeSpace(6, 3)
        obj = densest_subgraph_values(small_graph, space.bits)
        spectrum = compress_objective(obj)
        mixer = GroverMixer(space)
        angles = random_angles(3, rng=11)
        dense = simulate(angles, mixer, obj)
        compressed = _simulate(angles, spectrum)
        assert np.isclose(compressed.expectation(), dense.expectation(), atol=1e-10)


class TestCompressedResult:
    def test_norm_is_one(self, grover_setup):
        _, spectrum, _ = grover_setup
        result = _simulate(random_angles(4, rng=12), spectrum)
        assert np.isclose(result.norm(), 1.0)
        assert np.isclose(result.class_probabilities().sum(), 1.0)

    def test_probability_of_value(self, grover_setup):
        _, spectrum, _ = grover_setup
        result = _simulate(random_angles(2, rng=13), spectrum)
        total = sum(result.probability_of_value(v) for v in spectrum.values)
        assert np.isclose(total, 1.0)
        with pytest.raises(KeyError):
            result.probability_of_value(-123.0)

    def test_probability_of_value_keeps_close_large_values_apart(self):
        # 1e6 and 1e6 + 5 agree to numpy's default rtol of 1e-5, but they
        # are distinct classes of the spectrum
        spectrum = CompressedObjective(
            values=np.array([0.0, 1e6, 1e6 + 5]), degeneracies=(5, 2, 1), total=8
        )
        result = _simulate(np.array([0.7, 1.3e-6]), spectrum, n=3)
        classes = result.class_probabilities()
        assert classes[1] != classes[2]
        for value, probability in zip(spectrum.values, classes):
            assert result.probability_of_value(value) == probability
        total = sum(result.probability_of_value(v) for v in spectrum.values)
        assert np.isclose(total, 1.0)

    def test_zero_angles_uniform(self, grover_setup):
        obj, spectrum, _ = grover_setup
        result = _simulate(np.zeros(2), spectrum)
        assert np.isclose(result.expectation(), obj.mean())

    def test_odd_angle_count_rejected(self, grover_setup):
        _, spectrum, _ = grover_setup
        with pytest.raises(ValueError):
            CompressedGroverAnsatz(spectrum, 1, n=7).simulate(np.zeros(3))

    def test_grover_expectation_helper(self, grover_setup):
        _, spectrum, _ = grover_setup
        angles = random_angles(2, rng=14)
        assert np.isclose(
            CompressedGroverAnsatz(spectrum, 2, n=7).expectation(angles),
            _simulate(angles, spectrum).expectation(),
        )


class TestCompressedGradient:
    @pytest.mark.parametrize("p", [1, 3])
    def test_matches_dense_finite_difference(self, grover_setup, p):
        obj, spectrum, mixer = grover_setup
        angles = random_angles(p, rng=20 + p)
        engine = CompressedGroverAnsatz(spectrum, p, n=7)
        value, grad = engine.value_and_gradient(angles)
        dense_fd = QAOAAnsatz(obj, mixer, p).finite_difference_gradient(angles)
        assert np.isclose(value, engine.expectation(angles))
        assert np.allclose(grad, dense_fd, atol=1e-6)

    def test_odd_angle_count_rejected(self, grover_setup):
        _, spectrum, _ = grover_setup
        with pytest.raises(ValueError):
            CompressedGroverAnsatz(spectrum, 2, n=7).value_and_gradient(np.zeros(5))


class TestLargeN:
    def test_n_100_simulation_runs(self):
        spectrum = hamming_weight_spectrum(100, lambda w: float(min(w, 100 - w)))
        angles = np.array([0.4, 0.1, 0.9, 1.3])
        result = _simulate(angles, spectrum, n=100)
        assert np.isclose(result.norm(), 1.0, atol=1e-9)
        assert 0.0 <= result.expectation() <= 50.0
        assert result.spectrum.total == 2**100

    def test_grover_search_via_threshold(self):
        """Threshold phase separator + Grover mixer reproduces amplitude
        amplification: one marked class out of N gets boosted by the optimal
        angles (pi phases), exactly as in Grover's algorithm."""
        n = 10
        # Indicator objective: 1 on a single marked state class, 0 elsewhere.
        from repro.grover.compress import binomial_spectrum

        N = 2**n
        spectrum = binomial_spectrum([0.0, 1.0], [N - 1, 1])
        # One Grover iteration corresponds to beta = gamma = pi.
        angles_1 = np.array([np.pi, np.pi])
        result = _simulate(angles_1, spectrum, n=n)
        start_prob = 1.0 / N
        boosted = result.probability_of_value(1.0)
        # One iteration boosts the marked probability by roughly a factor of 9.
        assert boosted > 8 * start_prob
