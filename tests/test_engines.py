"""Conformance suite for the :class:`~repro.core.engine.Engine` subclasses.

One small spec per engine — dense (X mixer), sharded (multi-angle X mixer on
2 shard workers) and compressed (Grover mixer) — under both optimization
senses (MaxCut maximizes, the Ising energy minimizes).  Each engine is
checked against its own batched kernels and against a dense engine built
for the same spec.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.angles import local_minimize
from repro.api.routing import ExecutionPlan
from repro.api.solver import QAOASolver, memoized_problem
from repro.api.spec import SolveSpec
from repro.core.engine import Engine

N, P = 6, 2
MIXERS = {"dense": "x", "sharded": "multiangle_x", "compressed": "grover"}
PROBLEMS = {True: "maxcut", False: "ising"}
PLANS = {
    "dense": ExecutionPlan("dense", "conformance", 1 << N),
    "sharded": ExecutionPlan("sharded", "conformance", 1 << N, shards=2),
    "compressed": ExecutionPlan("compressed", "conformance", 1 << N),
}
TOL = 1e-10


def _spec(kind: str, maximize: bool) -> SolveSpec:
    return SolveSpec.build(PROBLEMS[maximize], N, mixer=MIXERS[kind], p=P)


def _build(kind: str, maximize: bool, *, plan: str | None = None) -> Engine:
    """The engine ``plan`` (default: ``kind``) runs for ``kind``'s spec."""
    return QAOASolver(_spec(kind, maximize), plan=PLANS[plan or kind]).ansatz


@pytest.fixture(
    scope="module",
    params=[(kind, sense) for kind in PLANS for sense in (True, False)],
    ids=lambda param: f"{param[0]}-{'max' if param[1] else 'min'}",
)
def engines(request):
    """``(engine, dense reference for the same spec, spec)``."""
    kind, maximize = request.param
    engine = _build(kind, maximize)
    reference = _build(kind, maximize, plan="dense")
    yield engine, reference, _spec(kind, maximize)
    engine.close()


def _angles(data, engine: Engine) -> np.ndarray:
    return data.draw(
        hnp.arrays(
            np.float64,
            engine.num_angles,
            elements=st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False),
        )
    )


def test_shape_attributes_match_dense(engines):
    engine, reference, spec = engines
    assert isinstance(engine, Engine)
    assert (engine.p, engine.num_angles, engine.n) == (
        reference.p,
        reference.num_angles,
        reference.n,
    )
    assert engine.maximize is reference.maximize
    if spec.mixer.name == "grover":
        assert engine.dim == engine.spectrum.num_distinct
    else:
        # MaxCut is flip-symmetric: the dense and sharded engines hold its
        # flip-symmetric half; the Ising instance has fields and runs in full
        held = 1 << (N - 1) if spec.problem.name == "maxcut" else 1 << N
        assert engine.dim == reference.dim == held


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_expectation_equals_batch_row_and_dense(engines, data):
    engine, reference, _ = engines
    angles = _angles(data, engine)
    batch = engine.expectation_batch(np.vstack([angles, angles[::-1]]))
    value = engine.expectation(angles)
    assert isinstance(value, float)
    assert abs(value - batch[0]) <= TOL
    assert abs(value - reference.expectation(angles)) <= TOL


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_value_and_gradient_equal_batch_row_and_dense(engines, data):
    engine, reference, _ = engines
    angles = _angles(data, engine)
    values, grads = engine.value_and_gradient_batch(np.vstack([angles, angles[::-1]]))
    value, grad = engine.value_and_gradient(angles)
    assert grad.shape == (engine.num_angles,)
    assert abs(value - values[0]) <= TOL
    assert np.max(np.abs(grad - grads[0])) <= TOL
    ref_value, ref_grad = reference.value_and_gradient(angles)
    assert abs(value - ref_value) <= TOL
    assert np.max(np.abs(grad - ref_grad)) <= TOL


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_loss_signs_follow_the_sense(engines, data):
    engine, _, _ = engines
    angles = _angles(data, engine)
    sign = -1.0 if engine.maximize else 1.0
    value, grad = engine.value_and_gradient(angles)
    assert engine.loss(angles) == pytest.approx(sign * value, abs=TOL)
    loss, loss_grad = engine.loss_and_gradient(angles)
    assert loss == pytest.approx(sign * value, abs=TOL)
    np.testing.assert_allclose(loss_grad, sign * grad, atol=TOL)
    batch = np.vstack([angles, angles[::-1]])
    values, grads = engine.value_and_gradient_batch(batch)
    losses, loss_grads = engine.loss_and_gradient_batch(batch)
    np.testing.assert_allclose(losses, sign * values, atol=TOL)
    np.testing.assert_allclose(loss_grads, sign * grads, atol=TOL)


def test_finite_difference_gradient_matches_adjoint(engines):
    engine, _, _ = engines
    angles = engine.random_angles(11)
    _, grad = engine.value_and_gradient(angles)
    engine.counter.reset()
    fd = engine.finite_difference_gradient(angles)
    assert fd.shape == (engine.num_angles,)
    assert np.max(np.abs(fd - grad)) <= 1e-6
    # central differences: two expectation evaluations per angle
    assert engine.counter.forward_passes == 2 * engine.num_angles


def test_local_minimize_with_finite_differences(engines):
    engine, _, _ = engines
    seed = engine.random_angles(12)
    start = engine.expectation(seed)
    result = local_minimize(engine, seed, gradient="finite", maxiter=3)
    assert result.angles.shape == (engine.num_angles,)
    assert result.evaluations > 2 * engine.num_angles
    assert result.value >= start - TOL if engine.maximize else result.value <= start + TOL


def test_random_angles_length_and_range(engines):
    engine, _, _ = engines
    angles = engine.random_angles(7)
    assert angles.shape == (engine.num_angles,)
    assert np.all((angles >= 0.0) & (angles < 2 * np.pi))
    np.testing.assert_array_equal(angles, engine.random_angles(np.random.default_rng(7)))


def test_optimum_matches_dense_problem(engines):
    engine, _, spec = engines
    assert engine.optimum == pytest.approx(memoized_problem(spec.problem).optimum(), abs=1e-9)


def test_counter_matches_dense(engines):
    engine, reference, _ = engines
    angles = engine.random_angles(3)
    batch = np.vstack([angles, engine.random_angles(4), engine.random_angles(5)])
    for eng in (engine, reference):
        eng.counter.reset()
        eng.expectation(angles)
        eng.expectation_batch(batch)
        eng.value_and_gradient(angles)
        eng.value_and_gradient_batch(batch)
        eng.loss(angles)
        eng.loss_and_gradient(angles)
        eng.loss_and_gradient_batch(batch)
    counts = [
        (eng.counter.forward_passes, eng.counter.hamiltonian_applications)
        for eng in (engine, reference)
    ]
    assert counts[0] == counts[1]
    # 1 + 3 + 1 + 3 + 1 + 1 + 3 forward passes; every gradient row applies
    # each of the (num_angles - p) mixer Hamiltonians once.
    assert counts[0] == (13, 8 * (engine.num_angles - engine.p))


@pytest.mark.parametrize("kind", list(PLANS))
def test_close_is_idempotent(kind):
    engine = _build(kind, True)
    angles = engine.random_angles(0)
    with engine as entered:
        assert entered is engine
        value = engine.expectation(angles)
    engine.close()
    engine.close()
    if kind != "sharded":  # in-process engines stay usable after close()
        assert engine.expectation(angles) == value
