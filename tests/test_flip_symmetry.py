"""Bit-flip symmetry: flip-symmetric objectives run on n - 1 qubits.

A problem with ``C(x) = C(x̄)`` under the ``x``, ``multiangle_x`` or
full-space ``grover`` mixer runs on the flip-symmetric half (see
:mod:`repro.core.symmetry`).  Its values, gradients and results must be the
full-space engine's: the references here are plain ``QAOAAnsatz`` objects
built on the full objective and the full-space mixer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.mixers import make_mixer
from repro.api.routing import ExecutionPlan, select_execution_path
from repro.api.solver import QAOASolver, memoized_problem
from repro.api.spec import SolveSpec
from repro.cli import main as cli_main
from repro.core import QAOAAnsatz
from repro.core.symmetry import flip_half, flip_half_cost, flip_reducible
from repro.hpc.partition import split_full_space
from repro.hpc.sharded.executor import _WorkerConfig, _WorkerState
from repro.hpc.memory import warm_entry_bytes
from repro.mixers import GroverMixer, MultiAngleXMixer, mixer_x
from repro.mixers.xmixer import flip_fold_mask
from repro.problems.extra import ising_energy, ising_energy_values
from repro.problems.quadratic import PenalizedForm, QuadraticForm, ising_form
from repro.problems.registry import ProblemInstance, make_problem
from repro.service.pools import WarmPool

FAMILIES = ("maxcut", "hamming", "ising")
MIXERS = ("x", "multiangle_x", "grover")
TOL = 1e-10


def _instance(family: str, n: int, seed: int, maximize: bool) -> ProblemInstance:
    """A flip-symmetric instance: a registry family, or an Ising model without fields."""
    if family == "ising":
        J = np.triu(np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n)), k=1)
        h = np.zeros(n)
        return ProblemInstance(
            name="ising", n=n, k=None,
            cost=lambda x: ising_energy(h, J, x),
            cost_vectorized=lambda bits: ising_energy_values(h, J, bits),
            maximize=maximize, quadratic=ising_form(h, J),
        )
    base = make_problem(family, n, seed=seed)
    return ProblemInstance(
        name=base.name, n=n, k=None, cost=base.cost,
        cost_vectorized=base.cost_vectorized, maximize=maximize, quadratic=base.quadratic,
    )


def _assert_same_results(sim, ref):
    assert abs(sim.expectation() - ref.expectation()) <= TOL
    assert abs(sim.ground_state_probability() - ref.ground_state_probability()) <= TOL
    np.testing.assert_allclose(sim.probabilities(), ref.probabilities(), rtol=0, atol=TOL)


class TestDetection:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_symmetric_families_are_detected(self, family):
        problem = _instance(family, 7, seed=4, maximize=True)
        assert problem.quadratic.flip_symmetric
        values = problem.objective_values()
        # label x̄ is 2^n - 1 - x; float couplings sum in another order there
        np.testing.assert_allclose(values, values[::-1], rtol=0, atol=1e-12)

    def test_seeded_ising_with_fields_is_not_reduced(self):
        structure = make_problem("ising", 6, seed=0)
        assert not structure.quadratic.flip_symmetric
        assert not flip_reducible(structure, "x")
        spec = SolveSpec.build("ising", 6, mixer="x", p=1)
        plan = select_execution_path(spec)
        assert not plan.flip_reduced and "flip-reduced" not in plan.describe()
        solver = QAOASolver(spec)
        assert solver.ansatz.dim == 1 << 6 and not solver.ansatz.cost.flip_pairs

    @pytest.mark.parametrize("family", ["ksat", "number_partition", "qubo",
                                        "max_independent_set"])
    def test_other_full_space_families_run_unreduced(self, family):
        structure = make_problem(family, 6, seed=1)
        assert not flip_reducible(structure, "x")

    def test_only_flip_invariant_mixers_qualify(self):
        structure = make_problem("maxcut", 6, seed=1)
        assert all(flip_reducible(structure, name) for name in MIXERS)
        assert not flip_reducible(structure, "clique")
        dicke = make_problem("densest_subgraph", 6, seed=1)
        assert not flip_reducible(dicke, "grover")
        problem = make_problem("maxcut", 4, seed=1)
        custom = np.arange(1, 17, dtype=np.complex128)
        assert flip_reducible(problem, GroverMixer(problem.space))
        assert not flip_reducible(problem, GroverMixer(problem.space, custom))

    def test_a_form_off_by_one_ulp_is_not_symmetric(self):
        form = make_problem("maxcut", 6, seed=2).quadratic
        linear = form.linear.copy()
        linear[3] = np.nextafter(linear[3], np.inf)
        assert not QuadraticForm(form.const, linear, form.pairs).flip_symmetric

    def test_penalized_form_needs_both_forms_symmetric(self):
        cut = make_problem("maxcut", 5, seed=1).quadratic
        assert PenalizedForm(cut, cut, 2.0).flip_symmetric
        mis = make_problem("max_independent_set", 5, seed=1).quadratic
        assert not mis.flip_symmetric

    def test_shard_counts_the_half_cannot_hold_run_unreduced(self):
        spec = SolveSpec.build("maxcut", 3, mixer="x", p=1)
        plan = select_execution_path(spec, shards=8)
        assert plan.path == "sharded" and plan.shards == 8 and not plan.flip_reduced
        assert select_execution_path(spec, shards=4).flip_reduced

    def test_auto_sharding_compares_the_held_dimension(self, monkeypatch):
        import repro.api.routing as routing

        monkeypatch.setattr(routing, "SHARDED_AUTO_DIM", 1 << 8)
        held_128 = select_execution_path(SolveSpec.build("maxcut", 8, mixer="x"))
        assert held_128.path == "dense" and held_128.flip_reduced
        held_256 = select_execution_path(SolveSpec.build("maxcut", 9, mixer="x"))
        assert held_256.path == "sharded" and held_256.flip_reduced
        unreduced = select_execution_path(SolveSpec.build("ksat", 8, mixer="x"))
        assert unreduced.path == "sharded" and not unreduced.flip_reduced


class TestFolding:
    def test_fold_mask(self):
        assert flip_fold_mask(0b0100, 3) == 0b011  # X on the top qubit
        assert flip_fold_mask(0b111, 3) == 0  # the global flip is the identity
        assert flip_fold_mask(0b110, 3) == 0b001
        assert flip_fold_mask(0b011, 3) == 0b011  # no top bit: unchanged

    def test_sharded_config_folds_like_the_dense_mixer(self):
        # the shard workers of a flip half read the folded registry mixer;
        # their diagonal chunks, stacked, are the dense folded diagonal
        n, shards = 6, 2
        params = {"orders": [1, 2], "coefficients": [0.7, -0.3]}
        full = make_problem("maxcut", n, seed=3)
        half = flip_half(full)
        folded = make_mixer("x", full.space, **params).flip_folded()
        assert folded.masks == mixer_x([1, 2], n, [0.7, -0.3]).flip_folded().masks
        chunks = []
        for chunk in split_full_space(n - 1, shards):
            state = _WorkerState(_WorkerConfig(
                index=chunk.index, chunk=chunk, n=half.n, k=None, shards=shards,
                problem=half, mixer=folded,
            ))
            masks, coeffs = state._terms()
            assert list(masks) == folded.masks
            assert list(coeffs) == folded.coefficients
            chunks.append(state._chunk_diagonal())
        np.testing.assert_allclose(np.concatenate(chunks), folded.diagonal, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mixer", [
        mixer_x([1, 5], 5),  # the all-qubit term folds into the identity
        MultiAngleXMixer(5, [(0, 4), (1, 2, 3, 4), (2,)]),
    ])
    def test_folded_terms_match_the_full_mixer(self, mixer):
        problem = make_problem("maxcut", 5, seed=6)
        reduced = QAOAAnsatz.from_problem(problem, mixer, 2)
        reference = QAOAAnsatz(problem.objective_values(), mixer, 2)
        assert reduced.dim == 16 and reduced.num_angles == reference.num_angles
        angles = 2 * np.pi * np.random.default_rng(1).random((4, reference.num_angles))
        values, grads = reduced.value_and_gradient_batch(angles)
        ref_values, ref_grads = reference.value_and_gradient_batch(angles)
        np.testing.assert_allclose(values, ref_values, rtol=0, atol=TOL)
        np.testing.assert_allclose(grads, ref_grads, rtol=0, atol=TOL)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [2, 3, 8, 13])
def test_reduced_values_equal_the_full_values_bit_for_bit(family, n):
    problem = _instance(family, n, seed=9, maximize=True)
    cost = flip_half_cost(problem)
    assert cost.flip_pairs and cost.space.n == n - 1
    assert np.array_equal(cost.values, problem.objective_values()[: 1 << (n - 1)])


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(3, 10),
    p=st.integers(1, 3),
    maximize=st.booleans(),
    mixer=st.sampled_from(MIXERS),
    seed=st.integers(0, 2**16),
)
def test_property_reduced_engine_matches_the_full_engine(family, n, p, maximize, mixer, seed):
    problem = _instance(family, n, seed, maximize)
    full_mixer = make_mixer(mixer, problem.space)
    reduced = QAOAAnsatz.from_problem(problem, full_mixer, p)
    reference = QAOAAnsatz(problem.objective_values(), full_mixer, p, maximize=maximize)
    assert reduced.dim == 1 << (n - 1) and reduced.n == n
    assert reduced.num_angles == reference.num_angles
    if family == "ising":  # float couplings: a complement's value may differ by an ulp
        assert abs(reduced.optimum - reference.optimum) <= 1e-12
    else:
        assert reduced.optimum == reference.optimum
    angles = 2 * np.pi * np.random.default_rng(seed).random((3, reference.num_angles))
    values, grads = reduced.value_and_gradient_batch(angles)
    ref_values, ref_grads = reference.value_and_gradient_batch(angles)
    np.testing.assert_allclose(values, ref_values, rtol=0, atol=TOL)
    np.testing.assert_allclose(grads, ref_grads, rtol=0, atol=TOL)
    np.testing.assert_allclose(reduced.expectation_batch(angles), ref_values, rtol=0, atol=TOL)
    sim, ref = reduced.simulate(angles[0]), reference.simulate(angles[0])
    _assert_same_results(sim, ref)
    np.testing.assert_allclose(sim.statevector, ref.statevector, rtol=0, atol=TOL)
    label = int(np.random.default_rng(seed).integers(1 << n))
    assert abs(sim.amplitude_of(label) - ref.amplitude_of(label)) <= TOL


@pytest.mark.parametrize("mixer,shards", [("x", 2), ("multiangle_x", 4), ("grover", 3)])
def test_sharded_reduced_matches_dense_unreduced(mixer, shards):
    n, p = 7, 2
    spec = SolveSpec.build("maxcut", n, problem_seed=3, mixer=mixer, p=p)
    plan = select_execution_path(spec, shards=shards)
    assert plan.path == "sharded" and plan.flip_reduced
    problem = make_problem("maxcut", n, seed=3)
    dense = QAOAAnsatz(problem.objective_values(), make_mixer(mixer, problem.space), p)
    solver = QAOASolver(spec, plan=plan)
    try:
        engine = solver.ansatz
        assert engine.dim == 1 << (n - 1) and engine.n == n
        assert engine.optimum == dense.optimum
        angles = 2 * np.pi * np.random.default_rng(2).random((3, dense.num_angles))
        np.testing.assert_allclose(
            engine.expectation_batch(angles), dense.expectation_batch(angles), rtol=0, atol=TOL
        )
        values, grads = engine.value_and_gradient_batch(angles)
        ref_values, ref_grads = dense.value_and_gradient_batch(angles)
        np.testing.assert_allclose(values, ref_values, rtol=0, atol=TOL)
        np.testing.assert_allclose(grads, ref_grads, rtol=0, atol=TOL)
        sim, ref = engine.simulate(angles[0]), dense.simulate(angles[0])
        _assert_same_results(sim, ref)
        np.testing.assert_allclose(sim.statevector(), ref.statevector, rtol=0, atol=TOL)
        # sampling: half labels, each complemented with probability 1/2
        shots = 40_000
        counts = np.bincount(sim.sample(shots, rng=5), minlength=1 << n)
        np.testing.assert_allclose(counts / shots, ref.probabilities(), rtol=0, atol=0.01)
    finally:
        solver.close()


class _EnumeratingRng(np.random.Generator):
    """Draws every half label once per side of the coin, recording the weights
    it was asked to draw with, so one call enumerates the sampler's whole
    distribution."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))
        self.weights = None

    def choice(self, a, size=None, p=None):
        self.weights = np.asarray(p)
        return np.tile(np.arange(a), 2)

    def random(self, size=None):
        return np.repeat([0.25, 0.75], int(np.prod(size)) // 2)


def test_sampling_distribution_is_exact():
    n = 4
    problem = make_problem("maxcut", n, seed=2)
    mixer = mixer_x([1], n)
    reduced = QAOAAnsatz.from_problem(problem, mixer, 2)
    reference = QAOAAnsatz(problem.objective_values(), mixer, 2)
    angles = np.array([0.4, 1.3, 0.9, 2.2])
    sim = reduced.simulate(angles)
    rng = _EnumeratingRng()
    half = 1 << (n - 1)
    labels = sim.sample(2 * half, rng=rng)
    assert sorted(labels) == list(range(1 << n))  # each label exactly once
    # a label's probability: its pair's draw weight times the fair coin
    distribution = np.zeros(1 << n)
    distribution[labels] = 0.5 * np.tile(rng.weights, 2)
    np.testing.assert_allclose(
        distribution, reference.simulate(angles).probabilities(), rtol=0, atol=1e-14
    )
    # and a real generator samples that distribution
    shots = 40_000
    counts = np.bincount(sim.sample(shots, rng=3), minlength=1 << n)
    np.testing.assert_allclose(counts / shots, distribution, rtol=0, atol=0.01)


class TestSolverPaths:
    def test_solver_builds_nothing_full_space(self):
        spec = SolveSpec.build("maxcut", 10, mixer="x", p=1)
        solver = QAOASolver(spec)
        assert solver.ansatz.dim == 1 << 9
        assert "obj_vals" not in memoized_problem(spec.problem)._cache
        assert "diagonal" not in vars(solver.mixer)  # the full-space spectrum

    def test_custom_initial_state_runs_unreduced(self):
        problem = make_problem("maxcut", 5, seed=1)
        start = np.full(32, 1 / np.sqrt(32), dtype=np.complex128)
        ansatz = QAOAAnsatz.from_problem(problem, mixer_x([1], 5), 1, initial_state=start)
        assert ansatz.dim == 32 and not ansatz.cost.flip_pairs

    def test_positional_plan_still_builds_and_rows_keep_their_keys(self):
        spec = SolveSpec.build("maxcut", 6, mixer="x", strategy="random",
                               strategy_params={"iters": 2}, p=1)
        plan = ExecutionPlan("dense", "reference", 1 << 6)
        assert not plan.flip_reduced
        solver = QAOASolver(spec, plan=plan)
        assert solver.plan.flip_reduced  # the reduction the engine was built with
        result = solver.run()
        assert set(result.to_row()) == {
            "problem", "n", "problem_seed", "problem_params", "mixer", "mixer_params",
            "strategy", "strategy_params", "p", "seed", "value", "optimum",
            "approximation_ratio", "ground_state_probability", "evaluations", "angles",
            "wall_time_s", "execution", "timed_out", "setup_s",
        }
        assert result.probabilities().shape == (1 << 6,)

    def test_explain_names_the_reduction(self, capsys):
        assert cli_main(["solve", "--problem", "maxcut", "--n", "8", "--mixer", "x",
                         "--strategy", "random", "--param", "iters=1", "--explain"]) == 0
        assert "flip-reduced to n-1 = 7 qubits" in capsys.readouterr().out


class TestWarmPool:
    def test_dense_entry_is_sized_at_the_half(self):
        spec = SolveSpec.build("maxcut", 8, mixer="x", strategy="random",
                               strategy_params={"iters": 2}, p=2)
        entry = WarmPool().entry_for(spec)
        assert entry.ansatz.dim == 1 << 7
        assert entry.estimated_bytes == warm_entry_bytes(1 << 7, p=2)

    def test_sharded_entry_is_sized_at_the_half(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        spec = SolveSpec.build("maxcut", 8, mixer="x", p=1)
        entry = WarmPool().entry_for(spec)
        try:
            assert entry.plan.path == "sharded" and entry.plan.flip_reduced
            assert entry.estimated_bytes == warm_entry_bytes(
                1 << 7, p=1, batch_capacity=entry.ansatz.executor.workspace.batch,
                kind="sharded", shards=2,
            )
        finally:
            entry.close()
