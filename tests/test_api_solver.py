"""The solve() facade: combination coverage, legacy equivalence, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import PROBLEM_NAMES, QAOASolver, SolveResult, SolveSpec, solve
from repro.angles import basinhop, find_angles_random, grid_search, multistart_minimize
from repro.api import MixerSpec, ProblemSpec, StrategySpec
from repro.cli import main as cli_main
from repro.core.ansatz import QAOAAnsatz
from repro.mixers import mixer_x
from repro.problems import make_problem

CHEAP_RANDOM = StrategySpec("random", params={"iters": 2, "maxiter": 20})

#: Mixers compatible with each kind of feasible space (xy carries its pairs).
FULL_SPACE_MIXERS = (MixerSpec("x"), MixerSpec("multiangle_x"), MixerSpec("grover"))
DICKE_SPACE_MIXERS = (
    MixerSpec("ring"),
    MixerSpec("clique"),
    MixerSpec("xy", params={"pairs": [[0, 1], [1, 2], [2, 3], [3, 4]]}),
    MixerSpec("grover"),
)


def _compatible_mixers(problem_name: str):
    space = make_problem(problem_name, 5, seed=0).space
    return FULL_SPACE_MIXERS if space.is_full else DICKE_SPACE_MIXERS


ALL_COMBINATIONS = [
    (problem, mixer)
    for problem in PROBLEM_NAMES
    for mixer in _compatible_mixers(problem)
]


class TestEveryCombinationRuns:
    @pytest.mark.parametrize(
        "problem,mixer",
        ALL_COMBINATIONS,
        ids=[f"{p}-{m.name}" for p, m in ALL_COMBINATIONS],
    )
    def test_solve_runs(self, problem, mixer):
        """One call runs every registered problem x mixer (x strategy) combination."""
        spec = SolveSpec(
            problem=ProblemSpec(problem, 5, seed=1),
            mixer=mixer,
            strategy=CHEAP_RANDOM,
            p=1,
            seed=0,
        )
        result = solve(spec)
        assert np.isfinite(result.value)
        assert result.evaluations > 0
        assert result.strategy == "random"
        assert 0.0 <= result.ground_state_probability <= 1.0 + 1e-12
        assert result.probabilities().shape == (result.simulation.statevector.size,)
        assert result.spec == spec
        row = result.to_row()
        json.dumps(row)  # rows must be JSON-serializable
        assert row["problem"] == problem and row["mixer"] == mixer.name


class TestLegacyEquivalence:
    """solve() matches the corresponding legacy call seed-for-seed."""

    def _ansatz(self, p: int) -> QAOAAnsatz:
        problem = make_problem("maxcut", 6, seed=2)
        return QAOAAnsatz.from_problem(problem, mixer_x([1], 6), p)

    def _spec(self, strategy: StrategySpec, p: int, seed: int) -> SolveSpec:
        return SolveSpec(
            problem=ProblemSpec("maxcut", 6, seed=2),
            mixer=MixerSpec("x"),
            strategy=strategy,
            p=p,
            seed=seed,
        )

    def test_matches_grid_search(self):
        legacy = grid_search(self._ansatz(1), resolution=6)
        facade = solve(self._spec(StrategySpec("grid", params={"resolution": 6}), 1, 0))
        assert np.array_equal(facade.angles, legacy.angles)
        assert facade.value == legacy.value
        assert facade.evaluations == legacy.evaluations

    def test_matches_find_angles_random(self):
        legacy = find_angles_random(self._ansatz(2), iters=5, rng=np.random.default_rng(3))
        facade = solve(self._spec(StrategySpec("random", params={"iters": 5}), 2, 3))
        assert np.array_equal(facade.angles, legacy.angles)
        assert facade.value == legacy.value
        assert facade.evaluations == legacy.evaluations

    def test_matches_basinhop(self):
        ansatz = self._ansatz(2)
        rng = np.random.default_rng(5)
        x0 = ansatz.random_angles(rng)
        legacy = basinhop(ansatz, x0, n_hops=3, rng=rng)
        facade = solve(self._spec(StrategySpec("basinhop", params={"n_hops": 3}), 2, 5))
        assert np.array_equal(facade.angles, legacy.angles)
        assert facade.value == legacy.value
        assert facade.evaluations == legacy.evaluations

    def test_matches_multistart_minimize(self):
        ansatz = self._ansatz(2)
        rng = np.random.default_rng(7)
        seeds = 2.0 * np.pi * rng.random((4, ansatz.num_angles))
        report = multistart_minimize(ansatz, seeds)
        best = int(np.argmax(report.values))
        facade = solve(self._spec(StrategySpec("multistart", params={"iters": 4}), 2, 7))
        assert np.array_equal(facade.angles, report.angles[best])
        assert facade.value == float(report.values[best])
        assert facade.evaluations == report.evaluations


class TestSolverObject:
    def test_kwargs_form_equals_spec_form(self):
        by_kwargs = solve(
            problem="maxcut", n=5, problem_seed=1, strategy="grid",
            strategy_params={"resolution": 5}, p=1,
        )
        by_spec = solve(
            SolveSpec(
                problem=ProblemSpec("maxcut", 5, seed=1),
                strategy=StrategySpec("grid", params={"resolution": 5}),
                p=1,
            )
        )
        assert np.array_equal(by_kwargs.angles, by_spec.angles)
        assert by_kwargs.value == by_spec.value

    def test_spec_and_kwargs_together_rejected(self):
        spec = SolveSpec(problem=ProblemSpec("maxcut", 4))
        with pytest.raises(TypeError):
            solve(spec, problem="maxcut", n=4)

    def test_solver_reuse_with_seed_override(self):
        solver = QAOASolver(
            SolveSpec(problem=ProblemSpec("maxcut", 5, seed=1), strategy=CHEAP_RANDOM, p=1)
        )
        a = solver.run(seed=1)
        b = solver.run(seed=1)
        c = solver.run(seed=2)
        assert np.array_equal(a.angles, b.angles)
        assert a.spec.seed == 1 and c.spec.seed == 2
        assert not np.array_equal(a.angles, c.angles)

    def test_setup_seconds_are_reported_once(self):
        spec = SolveSpec(problem=ProblemSpec("maxcut", 6, seed=2), strategy=CHEAP_RANDOM, p=1)
        result = solve(spec)
        assert result.setup_s > 0
        row = result.to_row()
        assert row["setup_s"] == result.setup_s
        rebuilt = SolveResult.from_row(spec, json.loads(json.dumps(row)), cached=False)
        assert rebuilt.setup_s == result.setup_s
        # a cache hit built nothing
        assert SolveResult.from_row(spec, row).setup_s == 0.0
        # a live solver built once reports its construction with its first result only
        solver = QAOASolver(spec)
        assert solver.run().setup_s > 0
        assert solver.run().setup_s == 0.0

    def test_solver_accepts_dict_spec(self):
        spec = SolveSpec(problem=ProblemSpec("maxcut", 4, seed=0), strategy=CHEAP_RANDOM)
        result = QAOASolver(spec.to_dict()).run()
        assert result.spec == spec

    def test_minimization_problem_has_no_ratio(self):
        result = solve(
            problem="ising", n=4, strategy="grid", strategy_params={"resolution": 4}, p=1
        )
        # random Ising optima are negative, so the ratio is undefined
        assert result.approximation_ratio is None
        assert result.value <= result.simulation.cost.values.max()

    def test_approximation_ratio_matches_simulation(self):
        result = solve(
            problem="maxcut", n=5, strategy="grid", strategy_params={"resolution": 5}, p=1
        )
        assert result.approximation_ratio == pytest.approx(
            result.value / result.optimum, rel=1e-12
        )

    def test_rows_use_canonical_names_and_carry_params(self):
        row = solve(
            problem="MaxCut", n=4, mixer="X", strategy="Grid",
            strategy_params={"resolution": 3}, p=1,
        ).to_row()
        assert row["problem"] == "maxcut"
        assert row["mixer"] == "x"
        assert row["strategy"] == "grid"
        assert row["strategy_params"] == {"resolution": 3}
        assert row["problem_params"] == {} and row["mixer_params"] == {}


class TestSolveCli:
    def test_flat_flags(self, tmp_path, capsys):
        out = tmp_path / "row.json"
        code = cli_main(
            [
                "solve", "--problem", "maxcut", "--n", "5", "--mixer", "x",
                "--strategy", "random", "--param", "iters=2", "--p", "2",
                "--seed", "4", "--json", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "approximation ratio" in printed
        payload = json.loads(out.read_text())
        assert payload["result"]["strategy"] == "random"
        assert payload["spec"]["strategy"]["params"] == {"iters": 2}
        assert payload["result"]["setup_s"] > 0
        # the CLI run is the same solve the API performs
        api = solve(SolveSpec.from_dict(payload["spec"]))
        assert api.value == payload["result"]["value"]

    def test_spec_file(self, tmp_path, capsys):
        spec = SolveSpec(
            problem=ProblemSpec("ksat", 4, seed=1), strategy=CHEAP_RANDOM, p=1, seed=2
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert cli_main(["solve", "--spec", str(path)]) == 0
        assert "ksat" in capsys.readouterr().out

    def test_unknown_strategy_is_clean_error(self, capsys):
        code = cli_main(["solve", "--problem", "maxcut", "--n", "4", "--strategy", "sorcery"])
        assert code == 2
        assert "choose from" in capsys.readouterr().err

    def test_bad_spec_file_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli_main(["solve", "--spec", str(path)]) == 2
        assert "bad spec document" in capsys.readouterr().err
