"""Cross-validation of the direct simulator against brute-force dense evolution.

These are the strongest correctness tests in the suite: for every mixer family
the optimized simulation (Walsh–Hadamard transforms, rank-one updates, cached
eigendecompositions) must reproduce, to near machine precision, the naive
reference that exponentiates the dense mixer matrix with scipy.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from repro.core import simulate
from repro.hilbert import DickeSpace, state_matrix
from repro.mixers import (
    CliqueMixer,
    GroverMixer,
    MixerSchedule,
    MultiAngleXMixer,
    RingMixer,
    mixer_x,
    transverse_field_mixer,
)
from repro.hilbert import FullSpace
from repro.problems import (
    densest_subgraph_values,
    erdos_renyi,
    ksat_values,
    maxcut_values,
    random_ksat,
    vertex_cover_values,
)


@pytest.fixture(scope="module")
def graph6():
    return erdos_renyi(6, 0.5, seed=11)


@pytest.fixture(scope="module")
def angles3():
    rng = np.random.default_rng(42)
    return rng.uniform(-np.pi, np.pi, size=6)


def _check_against_dense(mixer, obj_vals, angles, dense_reference, initial=None, atol=1e-9):
    p = len(angles) // 2
    betas, gammas = angles[:p], angles[p:]
    if initial is None:
        initial = mixer.initial_state()
    expected = dense_reference(obj_vals, mixer.matrix(), initial, betas, gammas)
    result = simulate(angles, mixer, obj_vals, initial_state=initial)
    assert np.allclose(result.statevector, expected, atol=atol)
    expected_value = float(np.real(np.vdot(expected, np.asarray(obj_vals) * expected)))
    assert np.isclose(result.expectation(), expected_value, atol=atol)


class TestUnconstrainedAgainstDense:
    def test_maxcut_transverse_field(self, graph6, angles3, dense_reference):
        obj = maxcut_values(graph6, state_matrix(6))
        _check_against_dense(transverse_field_mixer(6), obj, angles3, dense_reference)

    def test_maxcut_grover(self, graph6, angles3, dense_reference):
        obj = maxcut_values(graph6, state_matrix(6))
        _check_against_dense(GroverMixer(FullSpace(6)), obj, angles3, dense_reference)

    def test_ksat_transverse_field(self, angles3, dense_reference):
        inst = random_ksat(5, k=3, clause_density=4.0, seed=3)
        obj = ksat_values(inst, state_matrix(5))
        _check_against_dense(transverse_field_mixer(5), obj, angles3, dense_reference)

    def test_higher_order_x_mixer(self, graph6, angles3, dense_reference):
        obj = maxcut_values(graph6, state_matrix(6))
        _check_against_dense(mixer_x([1, 2], 6), obj, angles3, dense_reference)

    def test_multi_angle_layers(self, graph6, dense_reference):
        import scipy.linalg as sla

        n = 4
        graph = erdos_renyi(n, 0.6, seed=5)
        obj = maxcut_values(graph, state_matrix(n))
        terms = [(q,) for q in range(n)]
        mixer = MultiAngleXMixer(n, terms)
        schedule = MixerSchedule([mixer, mixer])
        rng = np.random.default_rng(8)
        betas = rng.uniform(-1, 1, size=(2, n))
        gammas = rng.uniform(-1, 1, size=2)
        angles = np.concatenate([betas.ravel(), gammas])

        # Dense reference with per-term angles.
        psi = mixer.initial_state()
        for layer in range(2):
            psi = np.exp(-1j * gammas[layer] * obj) * psi
            for t, term in enumerate(terms):
                # exp(-i beta X_q) from the single-term mixer's dense matrix
                single = MultiAngleXMixer(n, [term])
                psi = expm(-1j * betas[layer, t] * single.matrix()) @ psi
        result = simulate(angles, schedule, obj)
        assert np.allclose(result.statevector, psi, atol=1e-9)

    def test_custom_warm_start_initial_state(self, graph6, angles3, dense_reference, rng):
        obj = maxcut_values(graph6, state_matrix(6))
        warm = rng.normal(size=64) + 1j * rng.normal(size=64)
        warm /= np.linalg.norm(warm)
        _check_against_dense(transverse_field_mixer(6), obj, angles3, dense_reference, initial=warm)


class TestConstrainedAgainstDense:
    def test_densest_subgraph_clique(self, graph6, angles3, dense_reference):
        space = DickeSpace(6, 3)
        obj = densest_subgraph_values(graph6, space.bits)
        _check_against_dense(CliqueMixer(6, 3), obj, angles3, dense_reference)

    def test_vertex_cover_ring(self, graph6, angles3, dense_reference):
        space = DickeSpace(6, 3)
        obj = vertex_cover_values(graph6, space.bits)
        _check_against_dense(RingMixer(6, 3), obj, angles3, dense_reference)

    def test_densest_subgraph_grover_dicke(self, graph6, angles3, dense_reference):
        space = DickeSpace(6, 2)
        obj = densest_subgraph_values(graph6, space.bits)
        _check_against_dense(GroverMixer(space), obj, angles3, dense_reference)

    @pytest.mark.parametrize("k", [1, 2, 4, 5])
    def test_clique_mixer_all_weights(self, graph6, dense_reference, k):
        space = DickeSpace(6, k)
        obj = densest_subgraph_values(graph6, space.bits)
        rng = np.random.default_rng(k)
        angles = rng.uniform(-1, 1, size=4)
        _check_against_dense(CliqueMixer(6, k), obj, angles, dense_reference)


class TestMixedSchedulesAgainstDense:
    def test_alternating_mixers(self, graph6, dense_reference):
        import scipy.linalg as sla

        n = 5
        graph = erdos_renyi(n, 0.5, seed=21)
        obj = maxcut_values(graph, state_matrix(n))
        tf = transverse_field_mixer(n)
        gm = GroverMixer(FullSpace(n))
        schedule = MixerSchedule([tf, gm, tf])
        rng = np.random.default_rng(3)
        angles = rng.uniform(-1, 1, size=6)
        betas, gammas = angles[:3], angles[3:]

        psi = tf.initial_state()
        matrices = [tf.matrix(), gm.matrix(), tf.matrix()]
        for mat, beta, gamma in zip(matrices, betas, gammas):
            psi = np.exp(-1j * gamma * obj) * psi
            psi = sla.expm(-1j * beta * mat) @ psi
        result = simulate(angles, schedule, obj)
        assert np.allclose(result.statevector, psi, atol=1e-9)
