"""Public-API surface checks and end-to-end integration tests."""

from __future__ import annotations

import numpy as np

import repro
from repro import (
    QAOAAnsatz,
    erdos_renyi,
    get_exp_value,
    grover_mixer,
    maxcut_values,
    mixer_clique,
    mixer_x,
    simulate,
    state_matrix,
)
from repro.analysis import normalized_approximation_ratio
from repro.angles import find_angles
from repro.grover import CompressedGroverAnsatz, compress_objective
from repro.problems import densest_subgraph, make_problem


class TestPublicAPI:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_listing1_quickstart(self):
        """The paper's Listing 1 translated to this package's API."""
        n = 6
        graph = erdos_renyi(n, 0.5, seed=0)
        obj_vals = [repro.maxcut(graph, x) for x in repro.states(n)]
        mixer = mixer_x([1], n)
        p = 3
        rng = np.random.default_rng(0)
        angles = rng.random(2 * p)
        res = simulate(angles, mixer, np.array(obj_vals))
        exp_value = get_exp_value(res)
        assert 0 <= exp_value <= max(obj_vals)

    def test_listing2_constrained_setup(self, tmp_path):
        """The paper's Listing 2: Densest-k-Subgraph with a cached Clique mixer."""
        n, k = 6, 3
        graph = erdos_renyi(n, 0.5, seed=0)
        obj_vals = [densest_subgraph(graph, x) for x in repro.dicke_states(n, k)]
        mixer_path = tmp_path / "clique.npz"
        mixer = mixer_clique(n, k, file=mixer_path)
        assert mixer_path.exists()
        res = simulate(np.full(4, 0.3), mixer, np.array(obj_vals))
        assert np.isclose(res.norm(), 1.0)

    def test_listing3_find_angles(self, tmp_path):
        """The paper's Listing 3: find_angles with a checkpoint file."""
        n = 5
        graph = erdos_renyi(n, 0.5, seed=1)
        obj_vals = maxcut_values(graph, state_matrix(n))
        mixer = mixer_x([1], n)
        results = find_angles(
            2, mixer, obj_vals, file=tmp_path / "angles.json", n_hops=1, n_starts_p1=1, rng=0
        )
        assert (tmp_path / "angles.json").exists()
        assert results[2].value >= results[1].value - 1e-6


class TestEndToEndWorkflows:
    def test_full_unconstrained_study(self):
        """Pre-compute -> iterative angle finding -> simulate at the best angles."""
        problem = make_problem("maxcut", 6, seed=3)
        obj = problem.objective_values()
        mixer = mixer_x([1], 6)
        results = find_angles(3, mixer, obj, n_hops=2, n_starts_p1=1, rng=1)
        best = results[3]
        res = simulate(best.angles, mixer, obj)
        ratio = normalized_approximation_ratio(res.expectation(), obj.max(), obj.min())
        assert ratio > 0.8
        assert res.ground_state_probability() > 1 / 64  # better than uniform guessing

    def test_full_constrained_study(self):
        """Constrained QAOA never leaves the feasible subspace and improves with p."""
        problem = make_problem("densest_subgraph", 6, seed=4, k=3)
        obj = problem.objective_values()
        mixer = mixer_clique(6, 3)
        results = find_angles(2, mixer, obj, n_hops=2, n_starts_p1=1, rng=2)
        assert results[2].value >= results[1].value - 1e-6
        res = simulate(results[2].angles, mixer, obj)
        assert res.statevector.shape == (20,)
        ratio = normalized_approximation_ratio(res.expectation(), obj.max(), obj.min())
        assert ratio > 0.6

    def test_grover_compressed_angle_finding(self):
        """Angle finding directly in the compressed Grover representation."""
        from scipy.optimize import minimize

        problem = make_problem("ksat", 6, seed=5, clause_density=4.0)
        obj = problem.objective_values()
        engine = CompressedGroverAnsatz(compress_objective(obj), 2, n=6)

        x0 = np.full(4, 0.2)
        res = minimize(engine.loss_and_gradient, x0, jac=True, method="BFGS")
        optimized = engine.simulate(res.x)
        baseline = engine.simulate(x0)
        assert optimized.expectation() >= baseline.expectation()
        # Cross-check the optimized value against the dense simulator.
        dense = simulate(res.x, grover_mixer(6), obj)
        assert np.isclose(dense.expectation(), optimized.expectation(), atol=1e-9)

    def test_warm_start_changes_outcome(self):
        """A warm-start initial state biases the QAOA toward its neighbourhood."""
        problem = make_problem("maxcut", 6, seed=6)
        obj = problem.objective_values()
        mixer = mixer_x([1], 6)
        best_label = int(problem.optimal_states()[0])
        warm = np.zeros(64, dtype=complex)
        warm[best_label] = 1.0
        angles = np.full(2, 0.05)  # nearly-identity QAOA
        warm_res = simulate(angles, mixer, obj, initial_state=warm)
        cold_res = simulate(angles, mixer, obj)
        assert warm_res.ground_state_probability() > cold_res.ground_state_probability()

    def test_qaoa_ansatz_and_problem_agree(self):
        problem = make_problem("vertex_cover", 6, seed=7, k=3)
        from repro.mixers import mixer_ring

        ansatz = QAOAAnsatz(problem.objective_values(), mixer_ring(6, 3), 2)
        angles = ansatz.random_angles(0)
        assert np.isclose(ansatz.expectation(angles), ansatz.simulate(angles).expectation())
        assert problem.space.dim == ansatz.schedule.dim
