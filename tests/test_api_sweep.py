"""Spec-driven `solve` sweeps through the experiment runner / run store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SolveSpec, solve
from repro.experiments.runner import run_experiment
from repro.experiments.store import RunStore
from repro.experiments.tasks import (
    EXPERIMENT_NAMES,
    enumerate_tasks,
    execute_task,
    get_experiment,
)
from repro.service import reset_default_service

TINY_GRID = {
    "problems": ["maxcut"],
    "mixers": ["x"],
    "strategies": [{"name": "random", "params": {"iters": 2, "maxiter": 20}}],
    "n": 4,
    "p": 1,
    "seeds": [0, 1],
}


class TestSolveTasks:
    def test_registered_experiment(self):
        assert "solve" in EXPERIMENT_NAMES
        spec = get_experiment("solve")
        assert "problem x mixer x strategy" in spec.title

    def test_default_quick_grid_enumerates(self):
        tasks = enumerate_tasks("solve")
        assert len(tasks) >= 2
        assert len({t.task_id for t in tasks}) == len(tasks)
        for task in tasks:
            assert set(task.params) == {"spec"}
            SolveSpec.from_dict(task.params["spec"])  # every task carries a valid spec

    def test_grid_overrides(self):
        tasks = enumerate_tasks("solve", TINY_GRID)
        assert len(tasks) == 2  # 1 problem x 1 mixer x 1 strategy x 2 seeds
        assert tasks[0].task_id == "problem=maxcut/mixer=x/strategy=random/n=4/p=1/seed=0"

    def test_execute_task_matches_direct_solve(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        reset_default_service()  # a cold service builds this row's warm entry
        task = enumerate_tasks("solve", TINY_GRID)[0]
        rows = execute_task(task)
        reset_default_service()
        assert len(rows) == 1
        direct = solve(SolveSpec.from_dict(task.params["spec"])).to_row()
        row = dict(rows[0])
        # the timings are the only nondeterministic columns
        assert row.pop("wall_time_s") > 0
        direct.pop("wall_time_s")
        assert row.pop("setup_s") > 0
        assert direct.pop("setup_s") > 0
        assert row == direct

    def test_explicit_spec_list(self):
        spec = SolveSpec.from_dict(
            {
                "problem": {"name": "ksat", "n": 4, "seed": 1},
                "strategy": {"name": "grid", "params": {"resolution": 3}},
                "p": 1,
            }
        )
        tasks = enumerate_tasks("solve", {"specs": [spec.to_dict(), spec.to_dict()]})
        assert len(tasks) == 2
        # duplicate summaries get disambiguated, enumeration-order-stable ids
        assert tasks[1].task_id == tasks[0].task_id + "#1"

    def test_specs_cannot_mix_with_grid_keys(self):
        with pytest.raises(ValueError, match="specs cannot be combined"):
            enumerate_tasks("solve", {"specs": [], "n": 4})

    def test_bare_string_grid_entries_are_singletons(self):
        """`--set problems=maxcut` must not iterate the string's characters."""
        tasks = enumerate_tasks(
            "solve",
            {"problems": "maxcut", "mixers": "x", "strategies": "random", "n": 4, "seeds": 0},
        )
        assert len(tasks) == 1
        spec = SolveSpec.from_dict(tasks[0].params["spec"])
        assert spec.problem.name == "maxcut"
        assert spec.mixer.name == "x" and spec.strategy.name == "random"

    def test_single_mapping_strategy_entry(self):
        tasks = enumerate_tasks(
            "solve",
            {"strategies": {"name": "grid", "params": {"resolution": 3}}, "n": 4},
        )
        for task in tasks:
            spec = SolveSpec.from_dict(task.params["spec"])
            assert spec.strategy.params == {"resolution": 3}

    @pytest.mark.parametrize("key,value", [("n", [6, 8]), ("p", [1, 2]), ("n", "6")])
    def test_list_valued_scalar_keys_are_clean_errors(self, key, value):
        with pytest.raises(ValueError, match="must be a single integer"):
            enumerate_tasks("solve", {key: value})

    def test_rows_carry_params_for_params_only_grids(self):
        """Two specs differing only in strategy params stay distinguishable."""
        tasks = enumerate_tasks(
            "solve",
            {
                "strategies": [
                    {"name": "random", "params": {"iters": 2, "maxiter": 10}},
                    {"name": "random", "params": {"iters": 3, "maxiter": 10}},
                ],
                "problems": ["maxcut"],
                "mixers": ["x"],
                "n": 4,
                "p": 1,
                "seeds": [0],
            },
        )
        assert len(tasks) == 2
        assert tasks[1].task_id == tasks[0].task_id + "#1"
        rows = [execute_task(task)[0] for task in tasks]
        assert rows[0]["strategy_params"] == {"iters": 2, "maxiter": 10}
        assert rows[1]["strategy_params"] == {"iters": 3, "maxiter": 10}

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown override"):
            enumerate_tasks("solve", {"warp": 1})


class TestSolveSweepThroughStore:
    def test_run_resume_and_rows(self, tmp_path):
        report = run_experiment(
            "solve", out_dir=tmp_path, workers=1, overrides=TINY_GRID, log=None
        )
        assert report.executed == 2 and report.complete

        store = RunStore.open(report.directory)
        rows = store.rows()
        assert len(rows) == 2
        by_seed = {row["seed"]: row for row in rows}
        assert set(by_seed) == {0, 1}
        for seed, row in by_seed.items():
            direct = solve(
                SolveSpec.from_dict(
                    {
                        "problem": {"name": "maxcut", "n": 4, "seed": seed},
                        "mixer": {"name": "x"},
                        "strategy": {"name": "random", "params": {"iters": 2, "maxiter": 20}},
                        "p": 1,
                        "seed": seed,
                    }
                )
            )
            assert row["value"] == direct.value
            assert np.array_equal(np.asarray(row["angles"]), direct.angles)

        # a second run resumes: everything already recorded, nothing re-executed
        again = run_experiment(
            "solve", out_dir=tmp_path, workers=1, overrides=TINY_GRID, log=None
        )
        assert again.executed == 0 and again.skipped == 2 and again.complete
