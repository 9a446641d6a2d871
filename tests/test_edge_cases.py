"""Edge cases and failure-injection tests cutting across modules."""

from __future__ import annotations

import json

import numpy as np
import pytest
from qaoa_reference import apply_mixer

from repro.angles import AngleCheckpoint, AngleResult
from repro.core import PrecomputedCost, QAOAAnsatz, random_angles, simulate
from repro.grover import CompressedGroverAnsatz, compress_objective
from repro.hilbert import CustomSpace, DickeSpace, FullSpace
from repro.mixers import GroverMixer, XMixer, mixer_clique, transverse_field_mixer
from repro.problems import erdos_renyi, graph_from_edges, maxcut_values
from repro.hilbert import state_matrix


class TestDegenerateProblems:
    def test_constant_objective(self):
        """A constant cost function: the QAOA does nothing useful but stays valid."""
        n = 4
        obj = np.full(1 << n, 3.0)
        res = simulate(random_angles(2, rng=0), transverse_field_mixer(n), obj)
        assert np.isclose(res.expectation(), 3.0)
        assert np.isclose(res.ground_state_probability(), 1.0)  # every state is optimal
        spectrum = compress_objective(obj)
        assert spectrum.num_distinct == 1
        comp = CompressedGroverAnsatz(spectrum, 2, n=n).simulate(random_angles(2, rng=0))
        assert np.isclose(comp.expectation(), 3.0)

    def test_edgeless_graph(self):
        graph = graph_from_edges(4, [])
        obj = maxcut_values(graph, state_matrix(4))
        res = simulate(random_angles(1, rng=1), transverse_field_mixer(4), obj)
        assert np.isclose(res.expectation(), 0.0)

    def test_single_feasible_state_space(self):
        """A Dicke space with k = 0 contains one state; everything is trivial."""
        space = DickeSpace(4, 0)
        assert space.dim == 1
        mixer = GroverMixer(space)
        res = simulate(random_angles(2, rng=2), mixer, np.array([5.0]))
        assert np.isclose(res.expectation(), 5.0)
        assert np.isclose(res.norm(), 1.0)

    def test_negative_objective_values(self):
        """Mixed-sign objectives are allowed; the offset helper shifts them."""
        n = 4
        rng = np.random.default_rng(3)
        obj = rng.normal(size=1 << n)
        cost = PrecomputedCost(values=obj, space=FullSpace(n), offset=10.0)
        assert cost.values.min() > 0
        res = simulate(random_angles(2, rng=3), transverse_field_mixer(n), cost)
        assert cost.values.min() - 1e-9 <= res.expectation() <= cost.values.max() + 1e-9

    def test_custom_space_two_states(self):
        space = CustomSpace(3, [1, 6], name="pair")
        mixer = GroverMixer(space)
        obj = np.array([0.0, 1.0])
        ansatz = QAOAAnsatz(obj, mixer, 1)
        value = ansatz.expectation(np.array([np.pi, np.pi]))
        assert 0.0 <= value <= 1.0


class TestCheckpointRobustness:
    def test_corrupted_checkpoint_raises_cleanly(self, tmp_path):
        path = tmp_path / "angles.json"
        path.write_text("{ this is not valid json")
        with pytest.raises(json.JSONDecodeError):
            AngleCheckpoint(path)

    def test_checkpoint_overwrite_updates_round(self, tmp_path):
        path = tmp_path / "angles.json"
        checkpoint = AngleCheckpoint(path)
        checkpoint.store(AngleResult(angles=np.array([0.1, 0.2]), value=1.0, p=1))
        checkpoint.store(AngleResult(angles=np.array([0.3, 0.4]), value=2.0, p=1))
        reloaded = AngleCheckpoint(path)
        assert reloaded.get(1).value == 2.0
        assert len(reloaded) == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "angles.json"
        checkpoint = AngleCheckpoint(path)
        for p in range(1, 4):
            checkpoint.store(AngleResult(angles=np.zeros(2 * p), value=float(p), p=p))
        leftovers = [f for f in tmp_path.iterdir() if f.suffix == ".tmp"]
        assert leftovers == []


class TestMixerEdgeCases:
    def test_xmixer_cache_key_distinguishes_terms(self):
        a = XMixer(4, [(0,), (1,)])
        b = XMixer(4, [(0, 1)])
        assert a.cache_key() != b.cache_key()
        assert a.cache_key() == XMixer(4, [(0,), (1,)]).cache_key()

    def test_clique_mixer_k_equals_n(self):
        """Weight-n subspace has a single state: the mixer acts trivially."""
        mixer = mixer_clique(4, 4)
        assert mixer.dim == 1
        out = apply_mixer(mixer, np.array([1.0 + 0j]), 0.7)
        assert np.isclose(np.abs(out[0]), 1.0)

    def test_large_beta_periodicity_grover(self):
        mixer = GroverMixer(FullSpace(4))
        psi = mixer.initial_state()
        a = apply_mixer(mixer, psi, 0.3)
        b = apply_mixer(mixer, psi, 0.3 + 2 * np.pi)
        assert np.allclose(a, b, atol=1e-10)

    def test_zero_coefficient_term_is_identity_contribution(self, rng):
        mixer = XMixer(3, [(0,), (1,)], [1.0, 0.0])
        reference = XMixer(3, [(0,)], [1.0])
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.allclose(apply_mixer(mixer, psi, 0.4), apply_mixer(reference, psi, 0.4))


class TestNumericalStability:
    def test_many_rounds_norm_drift(self):
        """Norm stays at 1 to high precision even after 50 rounds."""
        n = 5
        graph = erdos_renyi(n, 0.5, seed=11)
        obj = maxcut_values(graph, state_matrix(n))
        mixer = transverse_field_mixer(n)
        p = 50
        angles = random_angles(p, rng=4)
        res = simulate(angles, mixer, obj)
        assert abs(res.norm() - 1.0) < 1e-10

    def test_tiny_and_huge_angles(self):
        n = 4
        graph = erdos_renyi(n, 0.5, seed=12)
        obj = maxcut_values(graph, state_matrix(n))
        mixer = transverse_field_mixer(n)
        for scale in (1e-12, 1e3):
            res = simulate(scale * np.ones(4), mixer, obj)
            assert np.isclose(res.norm(), 1.0, atol=1e-9)
            assert obj.min() - 1e-9 <= res.expectation() <= obj.max() + 1e-9
