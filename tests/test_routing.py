"""Tests for execution-path routing: `solve()` picking dense/sharded/compressed."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.api import SolveSpec, select_execution_path
from repro.api.routing import (
    ExecutionPlan,
    clear_routing_memo,
    env_shards,
    memoized_problem,
    spectrum_for,
)
from repro.api.solver import QAOASolver, clear_problem_memo
from repro.cli import main as cli_main


@pytest.fixture(autouse=True)
def _fresh_memos(monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    clear_routing_memo()
    yield
    clear_routing_memo()


def _spec(**overrides):
    base = dict(problem="hamming", n=16, mixer="grover", strategy="random", p=1)
    base.update(overrides)
    return SolveSpec.build(**base)


class TestEnvShards:
    def test_unset_and_disabled(self, monkeypatch):
        assert env_shards() is None
        monkeypatch.setenv("REPRO_SHARDS", "1")
        assert env_shards() is None
        monkeypatch.setenv("REPRO_SHARDS", "0")
        assert env_shards() is None

    def test_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert env_shards() == 4

    def test_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "many")
        with pytest.raises(ValueError, match="REPRO_SHARDS"):
            env_shards()


class TestSelectExecutionPath:
    # (spec overrides, forced shards, expected path)
    MATRIX = [
        # Small dims always stay dense, whatever the mixer.
        (dict(problem="maxcut", n=8, mixer="x"), None, "dense"),
        (dict(problem="maxcut", n=8, mixer="grover"), None, "dense"),
        # Grover + degenerate spectrum above the dense comfort zone compresses;
        # the analytic Hamming-weight spectrum works at any n.
        (dict(problem="hamming", n=16, mixer="grover"), None, "compressed"),
        (dict(problem="hamming", n=100, mixer="grover"), None, "compressed"),
        # maxcut values collapse onto few distinct cuts, so it compresses too
        # once the dimension is large enough (streamed spectrum discovery).
        (dict(problem="maxcut", n=14, mixer="grover"), None, "compressed"),
        # Degenerate spectrum but a non-grover mixer: no fair sampling, dense.
        (dict(problem="hamming", n=16, mixer="x"), None, "dense"),
        # Per-round-rebuilding strategies pin the dense path.
        (dict(problem="hamming", n=16, mixer="grover", strategy="iterative"), None, "dense"),
        (dict(problem="hamming", n=16, mixer="grover", strategy="fourier"), None, "dense"),
        # Explicit shard requests engage sharding for supported mixers...
        (dict(problem="maxcut", n=8, mixer="x"), 2, "sharded"),
        (dict(problem="maxcut", n=8, mixer="multiangle_x"), 4, "sharded"),
        (dict(problem="maxcut", n=9, mixer="grover"), 3, "sharded"),
        # ...but fall back (with a reason) when the mixer can't shard.
        (dict(problem="maxcut", n=8, mixer="xy"), 2, "dense"),
        # WHT mixers need power-of-two shard counts.
        (dict(problem="maxcut", n=8, mixer="x"), 3, "dense"),
        # Dicke subspaces shard with the Grover mixer only.
        (
            dict(problem="densest_subgraph", n=8, mixer="x", problem_params={"k": 4}),
            2,
            "dense",
        ),
        (
            dict(problem="densest_subgraph", n=8, mixer="grover", problem_params={"k": 4}),
            2,
            "sharded",
        ),
    ]

    @pytest.mark.parametrize("overrides,shards,expected", MATRIX)
    def test_matrix(self, overrides, shards, expected):
        plan = select_execution_path(_spec(**overrides), shards=shards)
        assert plan.path == expected, plan.describe()
        if expected == "sharded":
            assert plan.shards >= 2
        if expected == "compressed":
            assert plan.distinct is not None
            assert plan.distinct * 8 <= plan.dim

    def test_env_knob_routes_sharded(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        plan = select_execution_path(_spec(problem="maxcut", n=8, mixer="x"))
        assert plan.path == "sharded" and plan.shards == 2

    def test_explicit_shards_override_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        plan = select_execution_path(_spec(problem="maxcut", n=8, mixer="x"), shards=4)
        assert plan.shards == 4

    def test_compressed_needs_enough_degeneracy(self):
        # maxcut with random weights: essentially all values distinct, so
        # the 8x advantage test fails and the solve stays dense.
        plan = select_execution_path(
            _spec(problem="qubo", n=13, mixer="grover")
        )
        assert plan.path == "dense", plan.describe()

    def test_auto_sharding_above_the_ceiling(self):
        # n=25 crosses SHARDED_AUTO_DIM; check the decision only (never built).
        plan = select_execution_path(
            _spec(problem="qubo", n=25, mixer="x")
        )
        assert plan.path == "sharded"
        assert plan.shards & (plan.shards - 1) == 0

    def test_describe_mentions_the_numbers(self):
        plan = select_execution_path(_spec())
        text = plan.describe()
        assert "compressed" in text and "dim=" in text and "distinct=" in text

    def test_structure_dim_never_materialized(self):
        problem = memoized_problem(_spec(n=100).problem)
        assert problem.dim == 1 << 100
        assert "space" not in problem._cache

    def test_spectrum_memoized_including_negative(self):
        spec = _spec(problem="qubo", n=8)
        first = spectrum_for(spec.problem)
        assert first is spectrum_for(spec.problem)


class TestOneProblemMemo:
    """Routing and every engine read one memoized problem per spec."""

    @pytest.mark.parametrize(
        "problem, n, mixer", [("maxcut", 18, "x"), ("densest_subgraph", 11, "clique")]
    )
    def test_cold_solver_builds_the_problem_once(self, monkeypatch, problem, n, mixer):
        import repro.api.routing as routing

        calls = []
        build = routing.make_problem

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(routing, "make_problem", counted)
        clear_problem_memo()
        clear_routing_memo()
        solver = QAOASolver(_spec(problem=problem, n=n, mixer=mixer))
        assert solver.plan.path == "dense"
        assert len(calls) == 1
        assert solver.problem is memoized_problem(solver.spec.problem)

    @pytest.mark.parametrize(
        "overrides, plan",
        [
            (dict(problem="maxcut", n=8, mixer="x"),
             ExecutionPlan("sharded", "forced", 1 << 8, shards=2)),
            (dict(problem="densest_subgraph", n=9, mixer="grover"),
             ExecutionPlan("sharded", "forced", 126, shards=2)),
            (dict(problem="ksat", n=13, mixer="grover"),
             ExecutionPlan("compressed", "forced", 1 << 13)),
            (dict(problem="hamming", n=16), None),
        ],
        ids=["sharded-x", "sharded-dicke", "compressed-enumerated", "compressed-analytic"],
    )
    def test_nondense_solvers_leave_the_space_unbuilt(self, overrides, plan):
        spec = _spec(p=1, **overrides)
        solver = QAOASolver(spec, plan=plan)
        try:
            assert solver.plan.path != "dense" and solver.problem is None
            result = solver.run()
            mixers = ([] if solver.mixer is None
                      else [solver.mixer, solver.ansatz.executor.mixer])
        finally:
            solver.close()
        assert result.execution == solver.plan.path
        cache = memoized_problem(spec.problem)._cache
        if solver.plan.path == "compressed":
            assert "space" not in cache and solver.mixer is None
        else:
            # the sharded engine runs the registry's mixer over the lazily
            # labelled space: no label array, and no dim-sized mixer array
            assert "labels" not in cache["space"]._cache and mixers
            for mixer in mixers:
                assert not {"diagonal", "term_diagonals", "psi0"} & set(vars(mixer))
                assert "labels" not in mixer.space._cache

    @pytest.mark.parametrize(
        "overrides, plan, built",
        [
            # the flip half's labels, for its objective; nothing else
            (dict(problem="maxcut", n=18, mixer="x"), None, [(17, None)]),
            (dict(problem="maxcut", n=8, mixer="x"),
             ExecutionPlan("sharded", "forced", 1 << 8, shards=2), []),
            (dict(problem="densest_subgraph", n=9, mixer="grover"),
             ExecutionPlan("sharded", "forced", 126, shards=2), []),
        ],
        ids=["dense-x", "sharded-x", "sharded-dicke-grover"],
    )
    def test_cold_solver_builds_only_the_objective_labels(
        self, monkeypatch, overrides, plan, built
    ):
        import repro.api.routing as routing
        import repro.hilbert.subspace as subspace

        calls = []
        for module in (subspace, routing):
            for name, weight in (("state_labels", False), ("dicke_labels", True)):
                make = getattr(module, name)

                def counted(n, *k, _make=make, _weight=weight):
                    calls.append((n, k[0] if _weight else None))
                    return _make(n, *k)

                monkeypatch.setattr(module, name, counted)
        solver = QAOASolver(_spec(p=1, **overrides), plan=plan)
        solver.close()
        assert calls == built

    def test_clearing_both_memos_leaves_nothing_memoized(self):
        spec = _spec(problem="ksat", n=13)
        first = memoized_problem(spec.problem)
        spectrum = spectrum_for(spec.problem)
        clear_problem_memo()
        clear_routing_memo()
        assert memoized_problem(spec.problem) is not first
        assert spectrum_for(spec.problem) is not spectrum


class TestSolveAcrossEngines:
    """solve() results agree with the dense path wherever dense is feasible."""

    def test_engine_agreement_at_identical_angles(self):
        spec = _spec(n=10, p=2)
        dim = 1 << 10
        dense = QAOASolver(spec, plan=ExecutionPlan("dense", "forced", dim))
        compressed = QAOASolver(spec, plan=ExecutionPlan("compressed", "forced", dim))
        sharded = QAOASolver(
            spec, plan=ExecutionPlan("sharded", "forced", dim, shards=4)
        )
        try:
            angles = 2 * np.pi * np.random.default_rng(9).random((4, 4))
            reference = dense.ansatz.expectation_batch(angles)
            np.testing.assert_allclose(
                compressed.ansatz.expectation_batch(angles), reference, rtol=0, atol=1e-10
            )
            np.testing.assert_allclose(
                sharded.ansatz.expectation_batch(angles), reference, rtol=0, atol=1e-10
            )
            _, grad_ref = dense.ansatz.value_and_gradient_batch(angles)
            _, grad_c = compressed.ansatz.value_and_gradient_batch(angles)
            _, grad_s = sharded.ansatz.value_and_gradient_batch(angles)
            np.testing.assert_allclose(grad_c, grad_ref, rtol=0, atol=1e-10)
            np.testing.assert_allclose(grad_s, grad_ref, rtol=0, atol=1e-10)
        finally:
            sharded.close()

    def test_full_solve_values_agree(self):
        spec = _spec(n=10, p=1, strategy="grid")
        dim = 1 << 10
        results = {}
        for path, plan in [
            ("dense", ExecutionPlan("dense", "forced", dim)),
            ("compressed", ExecutionPlan("compressed", "forced", dim)),
            ("sharded", ExecutionPlan("sharded", "forced", dim, shards=2)),
        ]:
            solver = QAOASolver(spec, plan=plan)
            try:
                results[path] = solver.run()
            finally:
                solver.close()
        dense = results["dense"]
        for path in ("compressed", "sharded"):
            other = results[path]
            assert other.execution == path
            assert abs(other.value - dense.value) < 1e-10
            assert other.optimum == dense.optimum
            np.testing.assert_allclose(other.angles, dense.angles, rtol=0, atol=1e-12)

    def test_auto_routed_compressed_solve(self):
        from repro.api.solver import solve

        result = solve(_spec(n=60, strategy="random", p=1))
        assert result.execution == "compressed"
        assert result.optimum == 900.0  # w (n - w) at w = 30
        assert 0.0 < result.value <= result.optimum
        assert "execution" in result.to_row()

    def test_result_row_roundtrip_keeps_execution(self):
        from repro.api.solver import SolveResult, solve

        spec = _spec(n=16, strategy="random", p=1)
        result = solve(spec)
        row = result.to_row()
        rebuilt = SolveResult.from_row(spec, row)
        assert rebuilt.execution == result.execution == "compressed"

    def test_sharded_solver_close_is_safe_to_repeat(self):
        spec = _spec(problem="maxcut", n=8, mixer="x", strategy="random", p=1)
        solver = QAOASolver(
            spec, plan=ExecutionPlan("sharded", "forced", 1 << 8, shards=2)
        )
        solver.run()
        solver.close()
        solver.close()


class TestWarmPoolRouting:
    def test_fingerprint_depends_on_execution_plan(self, monkeypatch):
        from repro.service.pools import pool_fingerprint

        spec = _spec(problem="maxcut", n=8, mixer="x")
        dense_fp = pool_fingerprint(spec)
        monkeypatch.setenv("REPRO_SHARDS", "2")
        assert pool_fingerprint(spec) != dense_fp

    def test_pool_holds_and_closes_nondense_entries(self, monkeypatch):
        from repro.service.pools import WarmPool

        pool = WarmPool(max_entries=2)
        compressed_entry = pool.entry_for(_spec(n=16))
        assert compressed_entry.plan.path == "compressed"
        assert compressed_entry.problem is None
        assert compressed_entry.estimated_bytes > 0

        monkeypatch.setenv("REPRO_SHARDS", "2")
        sharded_spec = _spec(problem="maxcut", n=8, mixer="x")
        sharded_entry = pool.entry_for(sharded_spec)
        assert sharded_entry.plan.path == "sharded"
        result = sharded_entry.solver_for(sharded_spec).run()
        assert result.execution == "sharded"
        pool.clear()
        assert sharded_entry.ansatz.executor._closed

    def test_eviction_closes_sharded_workers(self, monkeypatch):
        from repro.service.pools import WarmPool

        monkeypatch.setenv("REPRO_SHARDS", "2")
        pool = WarmPool(max_entries=1)
        first = pool.entry_for(_spec(problem="maxcut", n=8, mixer="x"))
        pool.entry_for(_spec(problem="maxcut", n=9, mixer="x"))
        assert first.ansatz.executor._closed
        pool.clear()


class TestExplainCli:
    def test_explain_prints_the_path(self, capsys):
        code = cli_main(
            [
                "solve",
                "--problem",
                "hamming",
                "--n",
                "16",
                "--mixer",
                "grover",
                "--strategy",
                "random",
                "--explain",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "execution path: compressed" in out
        assert "distinct=" in out
        assert "engine=compressed" in out

    def test_explain_dense_small(self, capsys):
        code = cli_main(
            ["solve", "--problem", "maxcut", "--n", "6", "--explain"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "execution path: dense" in out

    def test_forced_shards_flag(self, capsys):
        code = cli_main(
            [
                "solve",
                "--problem",
                "maxcut",
                "--n",
                "8",
                "--shards",
                "2",
                "--explain",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "execution path: sharded (dim=256, shards=2)" in out
        assert "engine=sharded" in out

    def test_routing_counts_as_construction(self, monkeypatch, tmp_path, capsys):
        import repro.api.routing as routing

        route = routing.select_execution_path

        def slow_route(*args, **kwargs):
            time.sleep(0.05)
            return route(*args, **kwargs)

        monkeypatch.setattr(routing, "select_execution_path", slow_route)
        path = tmp_path / "row.json"
        code = cli_main(["solve", "--problem", "maxcut", "--n", "6", "--strategy", "random",
                         "--param", "iters=2", "--json", str(path)])
        assert code == 0
        row = json.loads(path.read_text())["result"]
        assert row["setup_s"] >= 0.05
        assert f"construction             : {row['setup_s']:.3f}s" in capsys.readouterr().out
