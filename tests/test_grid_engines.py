"""Grid search on every engine against a row-by-row reference.

``grid_search`` enumerates its grid in evolution order so that the dense
engine can evolve shared angle prefixes once.  Whatever the order and the
engine, the sweep must find the best value of the plain grid — computed here
one row at a time in ``itertools.product`` order over the flat (betas,
gammas) layout — and score every point exactly once.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.angles import grid_axis, grid_search
from repro.api.routing import ExecutionPlan
from repro.api.solver import QAOASolver
from repro.api.spec import SolveSpec
from repro.core import QAOAAnsatz
from repro.hilbert import state_matrix
from repro.mixers import MultiAngleXMixer, mixer_clique, transverse_field_mixer
from repro.portfolio.budget import Budget
from repro.problems import erdos_renyi, maxcut_values

#: grid resolution per round count (keeps every grid at most a few thousand points)
RESOLUTION = {1: 6, 2: 4, 3: 2}
KINDS = ["dense-x", "multiangle-x", "clique", "compressed-grover", "sharded-x"]


def _maxcut(n: int) -> np.ndarray:
    return maxcut_values(erdos_renyi(n, 0.5, seed=3), state_matrix(n))


def _engine(kind: str, p: int):
    if kind == "dense-x":
        return QAOAAnsatz(_maxcut(6), transverse_field_mixer(6), p)
    if kind == "multiangle-x":
        return QAOAAnsatz(_maxcut(4), MultiAngleXMixer(4, [(0, 1), (2, 3)]), p)
    if kind == "clique":
        mixer = mixer_clique(6, 3)
        values = np.random.default_rng(5).integers(0, 6, mixer.dim).astype(np.float64)
        return QAOAAnsatz(values, mixer, p, maximize=False)
    if kind == "compressed-grover":
        spec = SolveSpec.build("maxcut", 8, mixer="grover", p=p)
        return QAOASolver(spec, plan=ExecutionPlan("compressed", "test", 1 << 8)).ansatz
    spec = SolveSpec.build("maxcut", 6, mixer="x", p=p)
    return QAOASolver(spec, plan=ExecutionPlan("sharded", "test", 1 << 6, shards=2)).ansatz


@pytest.fixture(
    scope="module",
    params=[(kind, p) for kind in KINDS for p in RESOLUTION],
    ids=lambda param: f"{param[0]}-p{param[1]}",
)
def engine(request):
    kind, p = request.param
    built = _engine(kind, p)
    yield built
    built.close()


def test_grid_matches_row_by_row_product_reference(engine):
    resolution = RESOLUTION[engine.p]
    num_betas = engine.num_angles - engine.p
    beta_axis = grid_axis(resolution, low=0.0, high=np.pi)
    gamma_axis = grid_axis(resolution, low=0.0, high=2.0 * np.pi)
    rows = itertools.product(*([beta_axis] * num_betas + [gamma_axis] * engine.p))
    values = np.array([engine.expectation(np.array(row)) for row in rows])
    best = values.max() if engine.maximize else values.min()

    result = grid_search(engine, resolution=resolution, batch_size=37)
    assert result.evaluations == len(values) == resolution**engine.num_angles
    assert abs(result.value - best) <= 1e-12
    assert abs(engine.expectation(result.angles) - result.value) <= 1e-12
    assert not result.timed_out


def test_exhausted_budget_still_scores_one_chunk(engine):
    result = grid_search(
        engine, resolution=RESOLUTION[engine.p], batch_size=5, budget=Budget(0.0)
    )
    assert result.timed_out
    assert result.evaluations == 5
    assert abs(engine.expectation(result.angles) - result.value) <= 1e-12
