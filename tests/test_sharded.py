"""Tests for the sharded statevector engine (`repro.hpc.sharded`)."""

from __future__ import annotations

import os
import signal
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.angles.grid import _evolution_columns, grid_search
from repro.api.mixers import make_mixer
from repro.backend.base import DiagonalPhase
from repro.core.ansatz import QAOAAnsatz
from repro.core.symmetry import flip_half
from repro.hilbert import FullSpace, state_matrix
from repro.hpc.partition import split_full_space
from repro.hpc.sharded import (
    ShardedAnsatz,
    ShardedExecutionError,
    ShardedExecutor,
    ShardedWorkspace,
)
from repro.hpc.sharded.executor import _openblas_calls, _WorkerConfig, _WorkerState
from repro.mixers.grover import GroverMixer
from repro.problems.registry import ProblemInstance, make_problem
from repro.problems.weighted import random_weighted_graph, weighted_maxcut_values


def _dense(name, n, mixer, p, *, k=None, mixer_params=None):
    kwargs = {} if k is None else {"k": k}
    problem = make_problem(name, n, seed=3, **kwargs)
    mx = make_mixer(mixer, problem.space, **(mixer_params or {}))
    return problem, QAOAAnsatz.from_problem(problem, mx, p)


def _sharded(name, n, mixer, p, shards, *, k=None, mixer_params=None):
    problem = make_problem(name, n, seed=3, k=k)
    mx = make_mixer(mixer, problem.space, **(mixer_params or {}))
    return ShardedAnsatz(problem, mx, p, shards)


class TestShardedWorkspace:
    def test_segment_layout_and_bytes(self):
        ws = ShardedWorkspace([8, 8, 8, 8], batch=2, slots=2)
        try:
            names = ws.segment_names()
            assert len(names) == 2 and all(len(slot) == 4 for slot in names)
            assert len({n for slot in names for n in slot}) == 8
            assert ws.state_bytes() == 2 * 4 * 8 * 2 * 16
            assert ws.capacity == 2
        finally:
            ws.close()

    def test_ensure_rebuilds_with_new_names(self):
        ws = ShardedWorkspace([16, 16], batch=1)
        try:
            before = ws.segment_names()
            assert ws.ensure(1) is False
            assert ws.ensure(4) is True
            after = ws.segment_names()
            assert ws.batch == 4
            assert not set(after[0]) & set(before[0])
            # Shrinks rebuild too (exact sizing keeps residency tight).
            assert ws.ensure(2) is True
            assert ws.batch == 2
        finally:
            ws.close()

    def test_ensure_slots_grows_monotonically(self):
        ws = ShardedWorkspace([4], batch=1, slots=2)
        try:
            assert ws.num_slots == 2
            assert ws.ensure_slots(3) is True
            assert ws.ensure_slots(2) is False
            assert ws.num_slots == 3
        finally:
            ws.close()

    def test_close_idempotent(self):
        ws = ShardedWorkspace([4], batch=1)
        ws.close()
        ws.close()
        with pytest.raises(RuntimeError):
            ws.ensure_slots(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedWorkspace([4], batch=0)
        with pytest.raises(ValueError):
            ShardedWorkspace([4, 0])


CASES = [
    # (problem, n, k, mixer, p, shards, mixer_params)
    ("maxcut", 6, None, "x", 2, 4, None),
    ("hamming", 7, None, "x", 1, 2, None),
    ("maxcut", 6, None, "x", 1, 2, {"orders": [1, 2]}),
    ("ksat", 6, None, "multiangle_x", 2, 4, None),
    ("maxcut", 6, None, "grover", 2, 4, None),
    ("maxcut", 7, None, "grover", 1, 3, None),  # non-power-of-two shards
    ("densest_subgraph", 7, 3, "grover", 2, 4, None),  # Dicke subspace
    ("ising", 6, None, "x", 2, 2, None),  # float couplings, aligned label ranges
    ("densest_subgraph", 8, 4, "grover", 1, 3, None),  # Dicke labels, gathered
]


class TestShardedMatchesDense:
    @pytest.mark.parametrize("problem,n,k,mixer,p,shards,params", CASES)
    def test_expectation_and_gradient(self, problem, n, k, mixer, p, shards, params):
        _, dense = _dense(problem, n, mixer, p, k=k, mixer_params=params)
        sharded = _sharded(problem, n, mixer, p, shards, k=k, mixer_params=params)
        try:
            assert sharded.num_angles == dense.num_angles
            rng = np.random.default_rng(11)
            angles = 2 * np.pi * rng.random((3, dense.num_angles))
            np.testing.assert_allclose(
                sharded.expectation_batch(angles),
                dense.expectation_batch(angles),
                rtol=0,
                atol=1e-10,
            )
            values_d, grads_d = dense.value_and_gradient_batch(angles)
            values_s, grads_s = sharded.value_and_gradient_batch(angles)
            np.testing.assert_allclose(values_s, values_d, rtol=0, atol=1e-10)
            np.testing.assert_allclose(grads_s, grads_d, rtol=0, atol=1e-10)
        finally:
            sharded.close()

    @pytest.mark.parametrize("problem,n,k,mixer,p,shards,params", CASES)
    def test_worker_values_equal_dense_objective(self, problem, n, k, mixer, p, shards, params):
        dense_problem, _ = _dense(problem, n, mixer, p, k=k, mixer_params=params)
        sharded = _sharded(problem, n, mixer, p, shards, k=k, mixer_params=params)
        try:
            # every worker's chunk of the objective, in shard order
            chunks = sharded.executor._command("__getattribute__", "values")
            assert np.array_equal(np.concatenate(chunks), dense_problem.objective_values())
        finally:
            sharded.close()

    @pytest.mark.parametrize("problem,n,k,mixer,p,shards,params", CASES)
    def test_simulate_scalars_and_state(self, problem, n, k, mixer, p, shards, params):
        _, dense = _dense(problem, n, mixer, p, k=k, mixer_params=params)
        sharded = _sharded(problem, n, mixer, p, shards, k=k, mixer_params=params)
        try:
            angles = 2 * np.pi * np.random.default_rng(4).random(dense.num_angles)
            sim_d = dense.simulate(angles)
            sim_s = sharded.simulate(angles)
            assert abs(sim_s.expectation() - sim_d.expectation()) < 1e-10
            assert (
                abs(
                    sim_s.ground_state_probability()
                    - sim_d.ground_state_probability()
                )
                < 1e-10
            )
            assert abs(sim_s.norm() - 1.0) < 1e-10
            np.testing.assert_allclose(
                sim_s.probabilities(), sim_d.probabilities(), rtol=0, atol=1e-10
            )
        finally:
            sharded.close()

    def test_gradient_matches_finite_differences(self):
        sharded = _sharded("maxcut", 6, "x", 2, 4)
        try:
            angles = np.array([0.3, 1.1, 0.7, 2.0])
            _, grad = sharded.value_and_gradient(angles)
            eps = 1e-6
            for i in range(angles.size):
                left, right = angles.copy(), angles.copy()
                left[i] -= eps
                right[i] += eps
                fd = (sharded.expectation(right) - sharded.expectation(left)) / (2 * eps)
                assert abs(fd - grad[i]) < 1e-5
        finally:
            sharded.close()


class TestShardedWorkerKernels:
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("params", [None, {"orders": [1, 2], "coefficients": [0.7, -0.3]}])
    def test_chunk_diagonal_matches_dense_slice(self, shards, params):
        n = 7
        problem = make_problem("maxcut", n, seed=3)
        diagonal = make_mixer("x", problem.space, **(params or {})).diagonal
        sharded = _sharded("maxcut", n, "x", 1, shards, mixer_params=params)
        try:
            executor = sharded.executor
            parts = executor._command("_chunk_diagonal")
            assert len(parts) == shards
            for chunk, part in zip(executor.chunks, parts):
                np.testing.assert_allclose(
                    part, diagonal[chunk.start:chunk.stop], rtol=0, atol=1e-12
                )
        finally:
            sharded.close()

    @pytest.mark.parametrize("mixer", ["x", "multiangle_x"])
    def test_three_block_local_transform_matches_dense(self, mixer):
        # n=15 over 2 shards: each worker transforms 14 local bits in 3 blocks
        _, dense = _dense("maxcut", 15, mixer, 2)
        sharded = _sharded("maxcut", 15, mixer, 2, 2)
        try:
            angles = 2 * np.pi * np.random.default_rng(5).random((2, dense.num_angles))
            values_d, grads_d = dense.value_and_gradient_batch(angles)
            values_s, grads_s = sharded.value_and_gradient_batch(angles)
            np.testing.assert_allclose(values_s, values_d, rtol=0, atol=1e-10)
            np.testing.assert_allclose(grads_s, grads_d, rtol=0, atol=1e-10)
        finally:
            sharded.close()

    @pytest.mark.parametrize("key", ["cost", "x"])
    def test_table_phase_equals_full_exp(self, key):
        n, batch = 10, 3
        structure = make_problem("maxcut", n, seed=3)
        chunk = split_full_space(n, 2)[1]
        state = _WorkerState(_WorkerConfig(
            index=chunk.index, chunk=chunk, n=n, k=None, shards=2,
            problem=structure, mixer=make_mixer("x", structure.space),
        ))
        state.setup([], batch)  # fills the chunk's cost values; maps no segment
        state._row_chunk = lambda: 100  # several row blocks, the last one short
        values = state.values if key == "cost" else state._chunk_diagonal()
        levels = state._level_table(key, values)
        assert levels is not None and levels[0].size * 4 <= chunk.size
        rng = np.random.default_rng(2)
        psi = rng.random((chunk.size, batch)) + 1j * rng.random((chunk.size, batch))
        angles = rng.random(batch)
        for sign in (-1.0, 1.0):
            for scale in (1.0, 1.0 / (1 << n)):
                expected = psi * scale * np.exp(sign * 1j * np.multiply.outer(values, angles))
                for table in (levels, None):
                    phases = DiagonalPhase(values, angles, sign, scale=scale, levels=table)
                    assert (phases.table is None) == (table is None)
                    view = psi.copy()
                    state._phase(view, phases)
                    np.testing.assert_allclose(view, expected, rtol=0, atol=1e-12)

    def test_worker_pins_blas_at_first_transform(self):
        coordinator = [int(get_threads()) for get_threads in _openblas_calls("get")]
        if not coordinator:
            pytest.skip("no OpenBLAS thread-count symbol is mapped in this process")
        sharded = _sharded("maxcut", 7, "x", 1, 2)
        try:
            executor = sharded.executor
            # setup() leaves the inherited thread count alone
            assert executor._command("blas_threads") == [coordinator] * 2
            sharded.expectation_batch(np.zeros((1, sharded.num_angles)))
            assert executor._command("blas_threads") == [[1] * len(coordinator)] * 2
        finally:
            sharded.close()


def _weighted_maxcut_structure(n, seed):
    graph = random_weighted_graph(n, 0.5, seed=seed)
    return ProblemInstance(
        name="weighted_maxcut", n=n, k=None,
        cost=lambda x: float(weighted_maxcut_values(graph, np.atleast_2d(x))[0]),
        cost_vectorized=partial(weighted_maxcut_values, graph),
    )


class TestShardedPhaseTables:
    @pytest.mark.parametrize("weighted", [False, True], ids=["table", "exp"])
    def test_both_branches_match_dense(self, weighted):
        n, p = 8, 2
        if weighted:  # distinct float weights: too many levels for a table
            structure = _weighted_maxcut_structure(n, seed=5)
        else:
            structure = make_problem("maxcut", n, seed=5)
        obj = structure.cost_vectorized(state_matrix(n))
        dense = QAOAAnsatz(obj, make_mixer("x", structure.space), p)
        sharded = ShardedAnsatz(structure, make_mixer("x", structure.space), p, 2)
        try:
            rng = np.random.default_rng(8)
            angles = 2 * np.pi * rng.random((4, dense.num_angles))
            angles = np.concatenate([angles, angles[1:2]])  # a repeated row
            np.testing.assert_allclose(
                sharded.expectation_batch(angles), dense.expectation_batch(angles),
                rtol=0, atol=1e-10,
            )
            values_d, grads_d = dense.value_and_gradient_batch(angles)
            values_s, grads_s = sharded.value_and_gradient_batch(angles)
            np.testing.assert_allclose(values_s, values_d, rtol=0, atol=1e-10)
            np.testing.assert_allclose(grads_s, grads_d, rtol=0, atol=1e-10)
            cost_tables = sharded.executor._command("_level_table", "cost", None)
            assert all((table is None) == weighted for table in cost_tables)
        finally:
            sharded.close()


_PREFIX_ENGINES = {
    # (mixer, space) -> (problem, n, k, shards)
    ("x", "full"): ("maxcut", 6, None, 2),
    ("multiangle_x", "full"): ("maxcut", 6, None, 4),
    ("grover", "full"): ("maxcut", 6, None, 3),
    ("grover", "dicke"): ("densest_subgraph", 7, 3, 2),
}


@pytest.fixture(
    params=[(mixer, space, p) for (mixer, space) in _PREFIX_ENGINES for p in (1, 2, 3)],
    ids=lambda param: "-".join(map(str, param)),
)
def prefix_engines(request):
    mixer, space, p = request.param
    problem, n, k, shards = _PREFIX_ENGINES[mixer, space]
    _, dense = _dense(problem, n, mixer, p, k=k)
    sharded = _sharded(problem, n, mixer, p, shards, k=k)
    yield dense, sharded
    sharded.close()


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # one engine pair per case
)
@given(data=st.data())
def test_property_shared_prefixes_match_dense(prefix_engines, data):
    dense, sharded = prefix_engines
    order = _evolution_columns(sharded.beta_counts)
    # row j copies the first keeps[j - 1] evolution-order angles of row j - 1;
    # one full copy makes the final width smaller than M
    keeps = data.draw(st.lists(st.integers(0, len(order)), min_size=1, max_size=6))
    keeps.insert(data.draw(st.integers(0, len(keeps))), len(order))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    angles = 2 * np.pi * rng.random((len(keeps) + 1, sharded.num_angles))
    for j, keep in enumerate(keeps, start=1):
        angles[j, order[:keep]] = angles[j - 1, order[:keep]]

    values = sharded.expectation_batch(angles)
    for j, row in enumerate(angles):
        reference = dense.simulate(row)
        assert abs(values[j] - reference.expectation()) <= 1e-10
        np.testing.assert_allclose(
            sharded.executor.gather_state(col=j), reference.statevector, rtol=0, atol=1e-10
        )
    values, grads = sharded.value_and_gradient_batch(angles)
    for j, row in enumerate(angles):
        value, grad = dense.value_and_gradient(row)
        assert abs(values[j] - value) <= 1e-10
        np.testing.assert_allclose(grads[j], grad, rtol=0, atol=1e-10)


class TestShardedOpTimes:
    def test_one_expectation_batch(self):
        sharded = _sharded("maxcut", 6, "x", 1, 2)
        try:
            angles = 2 * np.pi * np.random.default_rng(1).random((3, sharded.num_angles))
            sharded.expectation_batch(angles)
            times = sharded.executor.op_times()
            assert {op: row["calls"] for op, row in times.items()} == {
                "setup": 1, "remap": 1, "load_uniform": 1, "cost_phase": 1,
                "wht_local": 2, "butterfly": 2, "diag_phase": 1, "expectation_part": 1,
            }
            for row in times.values():
                assert 0.0 < row["compute_s"] <= row["wall_s"]
                assert row["wait_s"] == pytest.approx(row["wall_s"] - row["compute_s"])
            # a grid chunk that shares its gamma splits once, at the mixer
            angles[:, 1] = angles[0, 1]
            sharded.expectation_batch(angles)
            times = sharded.executor.op_times()
            assert times["gather_columns"]["calls"] == 1
            assert times["wht_local"]["calls"] == 4
        finally:
            sharded.close()


    @pytest.mark.parametrize("p", [1, 2])
    def test_gradient_costs_two_transforms_per_layer(self, p):
        """Forward layers and backward rounds take 2 local transforms each, in
        the forward pass's 2 state slots."""
        sharded = _sharded("maxcut", 6, "x", p, 2)
        try:
            angles = 2 * np.pi * np.random.default_rng(p).random((3, sharded.num_angles))
            sharded.value_and_gradient_batch(angles)
            assert sharded.executor.op_times()["wht_local"]["calls"] == 4 * p
            assert sharded.executor.workspace.num_slots == 2
        finally:
            sharded.close()


class TestShardedFaults:
    def test_killed_worker_fails_the_solve_and_releases_everything(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        sharded = _sharded("maxcut", 8, "x", 1, 2)
        executor = sharded.executor
        names = []

        def kill_a_worker(value, angles):
            if not names:
                names.extend(n for slot in executor.workspace.segment_names() for n in slot)
                victim = executor._procs[1]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join()

        try:
            with pytest.raises(ShardedExecutionError, match="worker died"):
                grid_search(sharded, resolution=4, batch_size=4, on_incumbent=kill_a_worker)
        finally:
            sharded.close()
        assert names
        assert not any(proc.is_alive() for proc in executor._procs)
        assert not set(names) & set(os.listdir("/dev/shm"))


    def test_worker_killed_before_sampling_raises_sharded_error(self):
        sharded = _sharded("maxcut", 8, "x", 1, 2)
        executor = sharded.executor
        command = executor._command

        def kill_after_norms(op, *payload):
            result = command(op, *payload)
            if op == "norm_part":
                victim = executor._procs[1]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join()
            return result

        try:
            sim = sharded.simulate(np.array([0.4, 0.9]))
            executor._command = kill_after_norms
            with pytest.raises(ShardedExecutionError, match="(?s)'sample_local'.*worker died"):
                sim.sample(100, rng=0)
        finally:
            sharded.close()
        assert not any(proc.is_alive() for proc in executor._procs)


class TestShardedLifecycle:
    def test_batch_reshape_roundtrip(self):
        sharded = _sharded("maxcut", 6, "x", 1, 2)
        try:
            rng = np.random.default_rng(0)
            one = 2 * np.pi * rng.random((1, sharded.num_angles))
            many = 2 * np.pi * rng.random((5, sharded.num_angles))
            e1 = sharded.expectation_batch(one)
            e5 = sharded.expectation_batch(many)
            e1_again = sharded.expectation_batch(one)
            np.testing.assert_allclose(e1, e1_again, rtol=0, atol=1e-12)
            assert e5.shape == (5,)
        finally:
            sharded.close()

    def test_sampling_matches_distribution(self):
        sharded = _sharded("maxcut", 6, "grover", 1, 4)
        try:
            angles = np.array([0.4, 0.9])
            sim = sharded.simulate(angles)
            probs = sim.probabilities()
            labels = sim.sample(4000, rng=7)
            assert labels.shape == (4000,)
            counts = np.bincount(labels, minlength=probs.size) / 4000.0
            assert np.abs(counts - probs).max() < 0.05
            # one sampling broadcast, counted like every other op
            assert sharded.executor.op_times()["sample_local"]["calls"] == 1
            np.testing.assert_array_equal(sim.sample(4000, rng=7), labels)
        finally:
            sharded.close()

    def test_dicke_sampling_stays_in_subspace(self):
        sharded = _sharded("densest_subgraph", 7, "grover", 1, 3, k=3)
        try:
            sim = sharded.simulate(np.array([0.5, 1.2]))
            labels = sim.sample(200, rng=0)
            weights = np.array([bin(int(x)).count("1") for x in labels])
            assert np.all(weights == 3)
        finally:
            sharded.close()

    def test_checkpoint_restore_roundtrip(self, tmp_path):
        sharded = _sharded("maxcut", 6, "x", 1, 2)
        try:
            sharded.simulate(np.array([0.8, 1.5]))
            state = sharded.executor.gather_state()
            sharded.executor.checkpoint(tmp_path / "ckpt")
            assert (tmp_path / "ckpt" / "manifest.json").exists()
            # Overwrite the resident state, then restore.
            sharded.simulate(np.array([2.2, 0.1]))
            sharded.executor.restore(tmp_path / "ckpt")
            np.testing.assert_array_equal(sharded.executor.gather_state(), state)
        finally:
            sharded.close()

    def test_checkpoint_shape_mismatch_raises(self, tmp_path):
        a = _sharded("maxcut", 6, "x", 1, 2)
        b = _sharded("maxcut", 6, "x", 1, 4)
        try:
            a.simulate(np.array([0.8, 1.5]))
            a.executor.checkpoint(tmp_path / "ckpt")
            with pytest.raises(ValueError, match="does not match"):
                b.executor.restore(tmp_path / "ckpt")
        finally:
            a.close()
            b.close()

    def test_simulation_outlives_close_for_scalars_only(self):
        sharded = _sharded("maxcut", 6, "x", 1, 2)
        sim = sharded.simulate(np.array([0.8, 1.5]))
        expectation = sim.expectation()
        sharded.close()
        assert sim.expectation() == expectation  # scalars were reduced eagerly
        with pytest.raises(RuntimeError, match="closed"):
            sim.probabilities()
        # close is idempotent.
        sharded.close()

    def test_rss_reports_all_processes(self):
        sharded = _sharded("maxcut", 6, "x", 1, 2)
        try:
            sharded.expectation_batch(np.zeros((1, sharded.num_angles)))
            rss = sharded.executor.rss()
            assert len(rss["workers"]) == 2
            assert rss["max_peak"] > 0
            assert rss["total_peak"] >= rss["max_peak"]
        finally:
            sharded.close()


class TestShardedValidation:
    def test_unsupported_mixer_family(self):
        problem = make_problem("densest_subgraph", 6, seed=3, k=3)
        with pytest.raises(ValueError, match="no sharded execution path.*'multiangle_x'"):
            ShardedExecutor(problem, make_mixer("clique", problem.space), 1, 2)

    def test_wht_mixers_need_power_of_two_shards(self):
        structure = make_problem("maxcut", 6, seed=3)
        with pytest.raises(ValueError, match="power-of-two"):
            ShardedExecutor(structure, make_mixer("x", structure.space), 1, 3)

    def test_wht_mixers_reject_dicke_subspaces(self):
        structure = make_problem("densest_subgraph", 7, seed=3, k=3)
        with pytest.raises(ValueError, match="Grover"):
            ShardedExecutor(structure, make_mixer("x", FullSpace(7)), 1, 2)

    def test_too_many_shards(self):
        structure = make_problem("densest_subgraph", 5, seed=3, k=1)
        with pytest.raises(ValueError, match="shards"):
            ShardedExecutor(structure, make_mixer("grover", structure.space), 1, 9)

    @pytest.mark.parametrize("fold", [False, True], ids=["dicke", "unfolded-half"])
    def test_the_mixer_must_act_on_the_problem_space(self, fold):
        if fold:  # the n-qubit mixer on the (n - 1)-qubit flip half
            full = make_problem("maxcut", 6, seed=3)
            problem, mixer = flip_half(full), make_mixer("x", full.space)
        else:  # full-space Grover on a Dicke problem
            problem = make_problem("densest_subgraph", 6, seed=3, k=3)
            mixer = make_mixer("grover", FullSpace(6))
        with pytest.raises(ValueError, match="the mixer acts on dim"):
            ShardedExecutor(problem, mixer, 1, 2)

    def test_grover_with_a_custom_start_state_is_rejected(self):
        # the workers run the uniform Grover update; a custom start state
        # would be dropped silently
        problem = make_problem("maxcut", 5, seed=3)
        start = np.random.default_rng(0).random(problem.dim)
        with pytest.raises(ValueError, match="custom start state"):
            ShardedExecutor(problem, GroverMixer(problem.space, start), 1, 2)

    def test_mixer_config_matches_registry_enumeration(self):
        # the workers enumerate the registry mixer's own terms and angles
        problem = make_problem("maxcut", 4, seed=3)
        chunk = split_full_space(4, 2)[0]

        def worker(mixer):
            return _WorkerState(_WorkerConfig(
                index=chunk.index, chunk=chunk, n=4, k=None, shards=2,
                problem=problem, mixer=mixer,
            ))

        masks, coeffs = worker(make_mixer("x", problem.space, orders=[1, 2]))._terms()
        assert len(masks) == 4 + 6 and list(coeffs) == [1.0] * 10
        multi = make_mixer("multiangle_x", problem.space)
        masks, coeffs = worker(multi)._terms()
        assert list(masks) == [1, 2, 4, 8] and list(coeffs) == [1.0] * 4
        sharded = ShardedAnsatz(problem, multi, 1, 2)
        try:
            assert sharded.num_angles == 4 + 1
        finally:
            sharded.close()

    def test_bad_angle_shape(self):
        sharded = _sharded("maxcut", 6, "x", 1, 2)
        try:
            with pytest.raises(ValueError, match="angle matrix"):
                sharded.expectation_batch(np.zeros((2, 7)))
        finally:
            sharded.close()


@st.composite
def _registry_mixers(draw):
    """A registry mixer spec: random ``x`` orders and coefficients, random
    ``multiangle_x`` term lists (multi-qubit terms included), or full-space
    ``grover``; on 2 or 4 shards, with or without the flip fold."""
    n = draw(st.integers(4, 8))
    family = draw(st.sampled_from(["x", "multiangle_x", "grover"]))
    params = {}
    if family == "x":
        orders = draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True))
        params["orders"] = orders
        params["coefficients"] = draw(st.none() | st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=len(orders), max_size=len(orders)
        ))
    elif family == "multiangle_x":
        params["terms"] = draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
            min_size=1, max_size=5,
        ))
    shards = draw(st.sampled_from([2, 4]))
    return n, family, params, shards, draw(st.booleans()), draw(st.integers(0, 2**16))


@settings(max_examples=20, deadline=None)
@given(case=_registry_mixers())
def test_property_registry_mixers_run_sharded_as_dense(case):
    """Shard workers run the registry's mixer objects: values and adjoint
    gradients equal the unreduced dense engine's, folded or not."""
    n, family, params, shards, fold, seed = case
    problem = make_problem("maxcut", n, seed=seed % 7)
    mixer = make_mixer(family, problem.space, **params)
    dense = QAOAAnsatz(problem.objective_values(), mixer, 2)
    if fold:
        sharded = ShardedAnsatz(flip_half(problem), mixer.flip_folded(), 2, shards)
    else:
        sharded = ShardedAnsatz(problem, mixer, 2, shards)
    try:
        assert sharded.num_angles == dense.num_angles
        angles = 2 * np.pi * np.random.default_rng(seed).random((3, dense.num_angles))
        values_d, grads_d = dense.value_and_gradient_batch(angles)
        values_s, grads_s = sharded.value_and_gradient_batch(angles)
        np.testing.assert_allclose(values_s, values_d, rtol=0, atol=1e-10)
        np.testing.assert_allclose(grads_s, grads_d, rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            sharded.expectation_batch(angles), values_d, rtol=0, atol=1e-10
        )
    finally:
        sharded.close()
