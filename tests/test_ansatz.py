"""Tests for the high-level QAOAAnsatz object."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PrecomputedCost, QAOAAnsatz
from repro.hilbert import DickeSpace
from repro.mixers import CliqueMixer, MixerSchedule, MultiAngleXMixer, transverse_field_mixer
from repro.problems import densest_subgraph_values


class TestConstruction:
    def test_basic(self, maxcut_obj, tf_mixer_6):
        ansatz = QAOAAnsatz(maxcut_obj, tf_mixer_6, 3)
        assert ansatz.p == 3
        assert ansatz.n == 6
        assert ansatz.num_angles == 6

    def test_requires_p_for_single_mixer(self, maxcut_obj, tf_mixer_6):
        with pytest.raises(ValueError):
            QAOAAnsatz(maxcut_obj, tf_mixer_6)

    def test_accepts_schedule(self, maxcut_obj, tf_mixer_6):
        schedule = MixerSchedule(tf_mixer_6, rounds=2)
        ansatz = QAOAAnsatz(maxcut_obj, schedule)
        assert ansatz.p == 2

    def test_accepts_precomputed_cost(self, maxcut_obj, tf_mixer_6):
        cost = PrecomputedCost(values=maxcut_obj)
        ansatz = QAOAAnsatz(cost, tf_mixer_6, 1)
        assert ansatz.cost is cost

    def test_dimension_mismatch_rejected(self, tf_mixer_6):
        with pytest.raises(ValueError):
            QAOAAnsatz(np.zeros(10), tf_mixer_6, 1)

    def test_initial_state_normalized(self, maxcut_obj, tf_mixer_6, rng):
        raw = rng.normal(size=64) + 1j * rng.normal(size=64)
        ansatz = QAOAAnsatz(maxcut_obj, tf_mixer_6, 1, initial_state=raw)
        assert np.isclose(np.linalg.norm(ansatz.initial_state), 1.0)
        with pytest.raises(ValueError):
            QAOAAnsatz(maxcut_obj, tf_mixer_6, 1, initial_state=np.zeros(64))
        with pytest.raises(ValueError):
            QAOAAnsatz(maxcut_obj, tf_mixer_6, 1, initial_state=np.ones(8))

    def test_multi_angle_num_angles(self, maxcut_obj):
        mixer = MultiAngleXMixer(6, [(q,) for q in range(6)])
        ansatz = QAOAAnsatz(maxcut_obj, MixerSchedule([mixer, mixer]))
        assert ansatz.num_angles == 2 * 6 + 2


class TestEvaluation:
    def test_expectation_matches_simulate(self, maxcut_obj, tf_mixer_6):
        ansatz = QAOAAnsatz(maxcut_obj, tf_mixer_6, 2)
        angles = ansatz.random_angles(0)
        assert np.isclose(ansatz.expectation(angles), ansatz.simulate(angles).expectation())

    def test_value_and_gradient_consistent(self, maxcut_obj, tf_mixer_6):
        ansatz = QAOAAnsatz(maxcut_obj, tf_mixer_6, 2)
        angles = ansatz.random_angles(1)
        value, grad = ansatz.value_and_gradient(angles)
        assert np.isclose(value, ansatz.expectation(angles))
        assert np.allclose(grad, ansatz.finite_difference_gradient(angles), atol=1e-6)
        assert np.allclose(grad, ansatz.gradient(angles))

    def test_loss_sign_for_maximization(self, maxcut_obj, tf_mixer_6):
        ansatz = QAOAAnsatz(maxcut_obj, tf_mixer_6, 1)
        angles = ansatz.random_angles(2)
        assert np.isclose(ansatz.loss(angles), -ansatz.expectation(angles))
        loss, grad = ansatz.loss_and_gradient(angles)
        assert np.isclose(loss, -ansatz.expectation(angles))
        assert np.allclose(grad, -ansatz.gradient(angles))

    def test_loss_sign_for_minimization(self, maxcut_obj, tf_mixer_6):
        ansatz = QAOAAnsatz(maxcut_obj, tf_mixer_6, 1, maximize=False)
        angles = ansatz.random_angles(3)
        assert np.isclose(ansatz.loss(angles), ansatz.expectation(angles))

    def test_counter_tracks_calls(self, maxcut_obj, tf_mixer_6):
        ansatz = QAOAAnsatz(maxcut_obj, tf_mixer_6, 2)
        ansatz.counter.reset()
        angles = ansatz.random_angles(4)
        ansatz.expectation(angles)
        ansatz.value_and_gradient(angles)
        assert ansatz.counter.forward_passes == 2
        assert ansatz.counter.hamiltonian_applications == 2

    def test_random_angles_deterministic(self, maxcut_obj, tf_mixer_6):
        ansatz = QAOAAnsatz(maxcut_obj, tf_mixer_6, 3)
        assert np.allclose(ansatz.random_angles(7), ansatz.random_angles(7))
        assert ansatz.random_angles(7).shape == (6,)

    def test_workspace_shared_across_calls(self, maxcut_obj, tf_mixer_6):
        ansatz = QAOAAnsatz(maxcut_obj, tf_mixer_6, 2)
        ansatz.expectation(ansatz.random_angles(0))
        workspace = ansatz._batched_workspace
        before = workspace.calls_served
        for seed in range(4):
            ansatz.expectation(ansatz.random_angles(seed))
        ansatz.gradient(ansatz.random_angles(5))
        ansatz.simulate(ansatz.random_angles(6))
        assert ansatz._batched_workspace is workspace
        assert workspace.calls_served == before + 6


class TestWithRounds:
    def test_extends_rounds(self, maxcut_obj, tf_mixer_6):
        ansatz = QAOAAnsatz(maxcut_obj, tf_mixer_6, 1)
        bigger = ansatz.with_rounds(4)
        assert bigger.p == 4
        assert bigger.cost is ansatz.cost
        assert bigger.num_angles == 8

    def test_constrained_with_rounds(self, small_graph):
        space = DickeSpace(6, 3)
        obj = densest_subgraph_values(small_graph, space.bits)
        ansatz = QAOAAnsatz(obj, CliqueMixer(6, 3), 1)
        assert ansatz.with_rounds(3).p == 3

    def test_rejects_heterogeneous_schedule(self, maxcut_obj, tf_mixer_6):
        from repro.mixers.grover import grover_mixer

        schedule = MixerSchedule([tf_mixer_6, grover_mixer(6)])
        ansatz = QAOAAnsatz(maxcut_obj, schedule)
        with pytest.raises(ValueError):
            ansatz.with_rounds(3)
