"""Tests for the ProblemInstance registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.precompute import PrecomputedCost
from repro.core.symmetry import flip_half
from repro.hilbert import dicke_labels, ints_to_bit_matrix
from repro.problems import PROBLEM_NAMES, make_problem
from repro.problems.registry import BIT_MATRIX_BLOCK, objective_on_labels


class TestMakeProblem:
    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_builds_every_family(self, name):
        problem = make_problem(name, 6, seed=1)
        assert problem.name == name
        assert problem.n == 6
        vals = problem.objective_values()
        assert vals.shape == (problem.space.dim,)
        assert np.isfinite(vals).all()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_problem("travelling_salesman", 6)

    def test_unknown_name_lists_sorted_choices(self):
        with pytest.raises(ValueError) as err:
            make_problem("travelling_salesman", 6)
        message = str(err.value)
        assert str(sorted(PROBLEM_NAMES)) in message

    def test_name_lookup_is_case_insensitive(self):
        upper = make_problem("MaxCut", 6, seed=3)
        lower = make_problem("maxcut", 6, seed=3)
        assert upper.name == "maxcut"
        assert np.array_equal(upper.objective_values(), lower.objective_values())

    def test_extra_families_registered(self):
        for name in ("max_independent_set", "number_partition", "ising", "qubo"):
            assert name in PROBLEM_NAMES

    def test_unconstrained_use_full_space(self):
        assert make_problem("maxcut", 5).space.is_full
        assert make_problem("ksat", 5).space.is_full
        assert make_problem("max_independent_set", 5).space.is_full
        assert make_problem("number_partition", 5).space.is_full
        assert make_problem("ising", 5).space.is_full
        assert make_problem("qubo", 5).space.is_full

    def test_ising_is_minimization(self):
        problem = make_problem("ising", 5, seed=1)
        assert not problem.maximize
        assert problem.optimum() == problem.objective_values().min()

    def test_max_independent_set_penalty_forwarded(self):
        mild = make_problem("max_independent_set", 6, seed=2, penalty=1.5)
        harsh = make_problem("max_independent_set", 6, seed=2, penalty=10.0)
        assert mild.metadata["penalty"] == 1.5
        assert not np.array_equal(mild.objective_values(), harsh.objective_values())

    def test_number_partition_objective_nonpositive(self):
        problem = make_problem("number_partition", 6, seed=3)
        assert (problem.objective_values() <= 0).all()
        assert problem.metadata["weights"].shape == (6,)

    def test_constrained_use_dicke_space(self):
        dks = make_problem("densest_subgraph", 6, k=2)
        assert dks.space.hamming_weight == 2
        assert dks.space.dim == 15
        kvc = make_problem("vertex_cover", 6)
        assert kvc.space.hamming_weight == 3  # defaults to n // 2

    def test_deterministic_in_seed(self):
        a = make_problem("maxcut", 8, seed=5).objective_values()
        b = make_problem("maxcut", 8, seed=5).objective_values()
        c = make_problem("maxcut", 8, seed=6).objective_values()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_objective_values_cached(self):
        problem = make_problem("maxcut", 6, seed=2)
        first = problem.objective_values()
        second = problem.objective_values()
        assert first is second

    def test_space_is_built_on_first_read_and_never_replaced_over(self):
        problem = make_problem("maxcut", 6, seed=2)
        assert problem.dim == 64 and "space" not in problem._cache
        space = problem.space
        assert problem.space is space and space.is_full and space.dim == 64
        half = flip_half(problem)
        assert half.n == 5 and half.flip_pairs and "space" not in half._cache
        assert half.space.dim == 32
        np.testing.assert_array_equal(half.objective_values(), problem.objective_values()[:32])

    def test_optimum_and_optimal_states(self):
        problem = make_problem("maxcut", 6, seed=3)
        vals = problem.objective_values()
        assert problem.optimum() == vals.max()
        labels = problem.optimal_states()
        assert len(labels) >= 1
        for label in labels:
            idx = problem.space.index_of(int(label))
            assert vals[idx] == problem.optimum()

    @pytest.mark.parametrize("seed, count", [(1, 4), (2, 2), (4, 2)])
    def test_optimal_states_use_the_engines_tolerances(self, seed, count):
        # number_partition's float optima have near-ties that np.isclose's
        # default rtol=1e-5 counted as optimal (6/4/4 states on these seeds)
        problem = make_problem("number_partition", 16, seed=seed)
        cost = PrecomputedCost(problem.objective_values(), space=problem.space,
                               maximize=problem.maximize)
        assert len(problem.optimal_states()) == count
        np.testing.assert_array_equal(problem.optimal_states(), cost.optimal_labels())

    def test_approximation_ratio(self):
        problem = make_problem("maxcut", 6, seed=3)
        assert np.isclose(problem.approximation_ratio(problem.optimum()), 1.0)
        assert problem.approximation_ratio(0.0) == 0.0

    def test_scalar_cost_matches_vectorized(self):
        for name in PROBLEM_NAMES:
            problem = make_problem(name, 6, seed=4)
            bits = problem.space.bits
            sample = [0, len(bits) // 2, len(bits) - 1]
            for idx in sample:
                assert problem.cost(bits[idx]) == pytest.approx(problem.objective_values()[idx])

    def test_ksat_metadata(self):
        problem = make_problem("ksat", 6, seed=0, clause_density=4.0, sat_k=2)
        inst = problem.metadata["instance"]
        assert inst.k == 2
        assert inst.num_clauses == 24


class TestObjectiveOnLabelsBlocks:
    """The bit-matrix families evaluate in blocks of ``BIT_MATRIX_BLOCK`` labels."""

    @pytest.mark.parametrize("name", ["ksat", "number_partition"])
    @pytest.mark.parametrize(
        "n,labels",
        [
            (16, np.arange(3, 2 * BIT_MATRIX_BLOCK + 5)),  # a range starting mid-block
            (15, np.arange((1 << 15) - 1)),  # the full space minus its last state
            (17, dicke_labels(17, 8)),  # 24310 labels with gaps
        ],
        ids=["range", "full", "dicke"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_blocks_match_one_call(self, name, n, labels, seed):
        assert labels.size > BIT_MATRIX_BLOCK and labels.size % BIT_MATRIX_BLOCK
        structure = make_problem(name, n, seed=seed)
        one_call = structure.cost_vectorized(ints_to_bit_matrix(labels, n))
        assert np.array_equal(objective_on_labels(structure, labels), one_call)
