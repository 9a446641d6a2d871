"""Tests for random-restart, median-angles and grid-search strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.angles import (
    evaluate_median_angles,
    find_angles_random,
    grid_axis,
    grid_search,
    median_angle_study,
    median_angles,
    local_minimize,
)
from repro.angles.result import AngleResult
from repro.core import QAOAAnsatz
from repro.hilbert import state_matrix
from repro.mixers import transverse_field_mixer
from repro.problems import erdos_renyi, maxcut_values


def _ansatz(n=6, p=1, seed=1):
    graph = erdos_renyi(n, 0.5, seed=seed)
    obj = maxcut_values(graph, state_matrix(n))
    return QAOAAnsatz(obj, transverse_field_mixer(n), p)


class TestRandomRestart:
    def test_best_of_restarts(self):
        ansatz = _ansatz()
        summary, all_results = find_angles_random(ansatz, iters=5, rng=0, return_all=True)
        assert len(all_results) == 5
        # near-exact ties (symmetry-equivalent optima) resolve to the earliest
        # restart, so the summary may sit a few ulps below the literal max
        assert summary.value == pytest.approx(max(r.value for r in all_results), abs=1e-9)
        assert summary.strategy == "random-restart"
        assert summary.evaluations >= sum(r.evaluations for r in all_results)

    def test_more_restarts_never_worse(self):
        ansatz = _ansatz(p=2)
        few = find_angles_random(ansatz, iters=2, rng=3)
        many = find_angles_random(ansatz, iters=8, rng=3)
        assert many.value >= few.value - 1e-9

    def test_deterministic_by_seed(self):
        ansatz = _ansatz()
        a = find_angles_random(ansatz, iters=3, rng=5)
        b = find_angles_random(ansatz, iters=3, rng=5)
        assert np.allclose(a.angles, b.angles)

    def test_requires_positive_iters(self):
        with pytest.raises(ValueError):
            find_angles_random(_ansatz(), iters=0)

    def test_history_per_restart(self):
        result = find_angles_random(_ansatz(), iters=4, rng=7)
        assert len(result.history) == 4
        # the batched seed scores are recorded alongside the refined values
        assert all("seed_value" in entry and entry["refined"] for entry in result.history)

    def test_refine_top_limits_bfgs_calls(self):
        ansatz = _ansatz()
        summary, results = find_angles_random(ansatz, iters=6, rng=2, refine_top=2, return_all=True)
        assert sum(entry["refined"] for entry in summary.history) == 2
        assert len(results) == 6
        assert summary.value == pytest.approx(max(r.value for r in results), abs=1e-9)
        # refinement only improves on a raw seed score
        full = find_angles_random(ansatz, iters=6, rng=2)
        assert summary.value <= full.value + 1e-9

    def test_refine_top_out_of_range(self):
        with pytest.raises(ValueError):
            find_angles_random(_ansatz(), iters=3, refine_top=0)
        with pytest.raises(ValueError):
            find_angles_random(_ansatz(), iters=3, refine_top=4)


class TestMedianAngles:
    def test_median_of_identical_results(self):
        angles = np.array([0.3, 0.7])
        results = [AngleResult(angles=angles, value=1.0, p=1) for _ in range(5)]
        assert np.allclose(median_angles(results), angles)

    def test_median_elementwise(self):
        results = [
            AngleResult(angles=np.array([0.0, 1.0]), value=1.0, p=1),
            AngleResult(angles=np.array([1.0, 3.0]), value=1.0, p=1),
            AngleResult(angles=np.array([2.0, 2.0]), value=1.0, p=1),
        ]
        assert np.allclose(median_angles(results), [1.0, 2.0])

    def test_requires_consistent_sizes(self):
        results = [
            AngleResult(angles=np.zeros(2), value=0.0, p=1),
            AngleResult(angles=np.zeros(4), value=0.0, p=2),
        ]
        with pytest.raises(ValueError):
            median_angles(results)

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            median_angles([])

    def test_evaluate_median_angles(self):
        ansatz = _ansatz()
        fixed = np.array([0.4, 0.6])
        plain = evaluate_median_angles(ansatz, fixed)
        assert np.isclose(plain.value, ansatz.expectation(fixed))
        assert np.allclose(plain.angles, fixed)
        polished = evaluate_median_angles(ansatz, fixed, polish=True)
        assert polished.value >= plain.value - 1e-9

    def test_median_angle_study_pipeline(self):
        ansatze = [_ansatz(seed=s) for s in range(3)]
        # A too-small restart pool makes the raw medians fragile: winners can
        # land in different symmetry copies of the same optimum depending on
        # optimizer trajectory details, scattering the element-wise median.
        # Five restarts per instance concentrates the winners for either
        # refinement backend.
        medians, evaluated = median_angle_study(ansatze, iters_per_instance=5, rng=0)
        assert medians.shape == (2,)
        assert len(evaluated) == 3
        # Median angles transfer reasonably well across instances: better than
        # the uniform-state baseline (expectation at zero angles).
        for ansatz, result in zip(ansatze, evaluated):
            baseline = ansatz.cost.values.mean()
            assert result.value >= baseline - 1e-9

    def test_median_angle_study_requires_instances(self):
        with pytest.raises(ValueError):
            median_angle_study([])


class TestGridSearch:
    def test_axis(self):
        axis = grid_axis(4, low=0.0, high=2.0)
        assert np.allclose(axis, [0.0, 0.5, 1.0, 1.5])
        with pytest.raises(ValueError):
            grid_axis(0)

    def test_p1_grid_close_to_local_optimum(self):
        ansatz = _ansatz(p=1)
        grid = grid_search(ansatz, resolution=16)
        refined = local_minimize(ansatz, grid.angles)
        best = find_angles_random(ansatz, iters=10, rng=0)
        assert grid.evaluations == 16 * 16
        # The refined grid point should reach (approximately) the same optimum.
        assert refined.value >= best.value - 0.05

    def test_max_points_guard(self):
        ansatz = _ansatz(p=3)
        with pytest.raises(ValueError):
            grid_search(ansatz, resolution=30, max_points=1000)

    def test_grid_value_never_exceeds_optimum(self):
        ansatz = _ansatz(p=1, seed=4)
        result = grid_search(ansatz, resolution=8)
        assert result.value <= ansatz.cost.optimum + 1e-9
        assert result.strategy == "grid"

    def test_grid_batch_size_invariant(self):
        ansatz = _ansatz(p=1, seed=2)
        full = grid_search(ansatz, resolution=12, batch_size=1)
        for batch_size in (7, 64, 1024):
            chunked = grid_search(ansatz, resolution=12, batch_size=batch_size)
            # near-ties resolve to the earliest point within the tie tolerance,
            # so chunking changes neither the point nor (beyond round-off) its value
            assert abs(chunked.value - full.value) <= 1e-10
            assert np.array_equal(chunked.angles, full.angles)
            assert chunked.evaluations == full.evaluations == 144
        with pytest.raises(ValueError):
            grid_search(ansatz, resolution=8, batch_size=0)
