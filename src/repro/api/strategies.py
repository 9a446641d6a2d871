"""Name-based angle-strategy registry behind one ``AngleStrategy`` protocol.

Every angle-finding entry point in :mod:`repro.angles` — grid search, random
restarts, basinhopping, the iterative/Fourier extrapolation scheme, the
median-angles heuristic and the vectorized multi-start refiner — historically
had its own signature and its own result shape (``AngleResult``, plain
tuples, ``MultiStartResult``).  This module adapts all of them behind a
single protocol::

    strategy(ansatz, rng=rng, **params) -> AngleResult

where the returned :class:`~repro.angles.result.AngleResult` always carries
the canonical registry ``strategy`` name, a positive ``evaluations`` count
and the ansatz's ``p``.  ``rng`` is the only source of randomness, so a
(strategy, params, seed) triple reproduces its angles bit-for-bit.

Each registered adapter exposes the underlying function(s) it wraps via an
``implements`` attribute, which the registry-completeness test uses to prove
no exported strategy is missing from the registry.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..angles.basinhopping import basinhop
from ..angles.grid import grid_search
from ..angles.iterative import find_angles
from ..angles.median import evaluate_median_angles, median_angles
from ..angles.multistart import multistart_minimize
from ..angles.random_restart import find_angles_random, random_restart_seeds
from ..angles.result import AngleResult
from ..core.ansatz import QAOAAnsatz
from ..portfolio.racing import race_portfolio
from .registry import Registry, is_binding_error

__all__ = ["AngleStrategy", "STRATEGIES", "STRATEGY_NAMES", "find_strategy", "run_strategy"]


@runtime_checkable
class AngleStrategy(Protocol):
    """The uniform calling convention every registered strategy satisfies."""

    def __call__(
        self, ansatz: QAOAAnsatz, *, rng: np.random.Generator | int | None = None, **params
    ) -> AngleResult: ...


STRATEGIES: Registry[AngleStrategy] = Registry("angle strategy")


def _register(name: str, *aliases: str, implements=()):
    """Register an adapter and record which :mod:`repro.angles` callables it wraps."""

    def decorator(fn):
        fn.strategy_name = name
        fn.implements = tuple(implements)
        STRATEGIES.add(name, fn, *aliases)
        return fn

    return decorator


def _normalized(result: AngleResult, name: str, ansatz: QAOAAnsatz) -> AngleResult:
    """Re-label a result with its canonical registry name (history preserved)."""
    return AngleResult(
        angles=result.angles,
        value=result.value,
        p=ansatz.p,
        evaluations=result.evaluations,
        strategy=name,
        history=result.history,
        timed_out=result.timed_out,
    )


def _as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


# ---------------------------------------------------------------------------
# Adapters
# ---------------------------------------------------------------------------


@_register("grid", "grid_search", implements=(grid_search,))
def _grid(ansatz, *, rng=None, **params):
    """Exhaustive chunked-batch grid search (deterministic; ``rng`` unused)."""
    for key in ("beta_range", "gamma_range"):
        if key in params:
            params[key] = tuple(params[key])
    return _normalized(grid_search(ansatz, **params), "grid", ansatz)


@_register("random", "random_restart", implements=(find_angles_random,))
def _random(ansatz, *, rng=None, **params):
    """Best of ``iters`` random-start BFGS searches (Lotshaw-style baseline)."""
    result = find_angles_random(ansatz, rng=_as_rng(rng), **params)
    return _normalized(result, "random", ansatz)


@_register("basinhop", "basinhopping", implements=(basinhop,))
def _basinhop(ansatz, *, rng=None, x0=None, **params):
    """Basinhopping from a random (or supplied ``x0``) starting point."""
    rng = _as_rng(rng)
    if x0 is None:
        x0 = ansatz.random_angles(rng)
    result = basinhop(ansatz, np.asarray(x0, dtype=np.float64), rng=rng, **params)
    return _normalized(result, "basinhop", ansatz)


def _iterative_impl(ansatz, rng, extrapolation: str, name: str, params) -> AngleResult:
    """Shared body of the iterative/Fourier schemes: per-round build-up to ``p``."""
    cost = ansatz.cost  # raises on the engines without a dense cost table
    mixers = set(id(m) for m in ansatz.schedule.layers)
    if len(mixers) != 1:
        raise ValueError(
            f"the {name!r} strategy builds rounds 1..p iteratively and requires "
            "a schedule with a single repeated mixer"
        )
    per_round = find_angles(
        ansatz.p,
        ansatz.schedule.layers[0],
        cost,
        initial_state=ansatz.initial_state,
        maximize=ansatz.maximize,
        extrapolation=extrapolation,
        rng=_as_rng(rng),
        **params,
    )
    final = per_round[ansatz.p]
    return AngleResult(
        angles=final.angles,
        value=final.value,
        p=ansatz.p,
        evaluations=sum(r.evaluations for r in per_round.values()),
        strategy=name,
        history=[
            {"round": p, "value": r.value, "evaluations": r.evaluations}
            for p, r in sorted(per_round.items())
        ],
        timed_out=final.timed_out,
    )


@_register("iterative", "interp", implements=(find_angles,))
def _iterative(ansatz, *, rng=None, **params):
    """The paper's default scheme: extrapolate round ``p-1`` angles, basinhop."""
    extrapolation = params.pop("extrapolation", "interp")
    return _iterative_impl(ansatz, rng, extrapolation, "iterative", params)


@_register("fourier", implements=(find_angles,))
def _fourier(ansatz, *, rng=None, **params):
    """Iterative scheme with FOURIER (sine-coefficient) extrapolation."""
    params.pop("extrapolation", None)
    return _iterative_impl(ansatz, rng, "fourier", "fourier", params)


@_register("median", "median_angles", implements=(median_angles, evaluate_median_angles))
def _median(ansatz, *, rng=None, iters: int = 20, polish: bool = False, **params):
    """Median of the refined restart angles, re-evaluated (optionally polished).

    The paper's median strategy takes medians across an instance *ensemble*
    (see :func:`repro.angles.median.median_angle_study`, which stays the
    multi-instance entry point); this single-instance adaptation exploits the
    same angle concentration across the restarts of one instance.
    """
    on_incumbent = params.get("on_incumbent")
    summary, all_results = find_angles_random(
        ansatz, iters=iters, rng=_as_rng(rng), return_all=True, **params
    )
    medians = median_angles(all_results)
    evaluated = evaluate_median_angles(ansatz, medians, polish=polish)
    better_median = (
        (evaluated.value > summary.value) if ansatz.maximize else (evaluated.value < summary.value)
    )
    if on_incumbent is not None and better_median:
        on_incumbent(evaluated.value, np.array(evaluated.angles, dtype=np.float64))
    return AngleResult(
        angles=evaluated.angles,
        value=evaluated.value,
        p=ansatz.p,
        evaluations=summary.evaluations + evaluated.evaluations,
        strategy="median",
        history=[{"restarts": iters, "restart_best": summary.value, "polished": bool(polish)}],
        timed_out=summary.timed_out,
    )


@_register("multistart", "multistart_minimize", implements=(multistart_minimize,))
def _multistart(ansatz, *, rng=None, iters: int = 32, budget=None, on_incumbent=None, **params):
    """Lock-step vectorized BFGS refinement of ``iters`` random seeds."""
    seeds = random_restart_seeds(ansatz, int(iters), rng)
    report = multistart_minimize(
        ansatz, seeds, budget=budget, checkpoint=on_incumbent, **params
    )
    best = int(np.argmax(report.values)) if ansatz.maximize else int(np.argmin(report.values))
    return AngleResult(
        angles=report.angles[best],
        value=float(report.values[best]),
        p=ansatz.p,
        evaluations=report.evaluations,
        strategy="multistart",
        history=[
            {
                "seeds": int(seeds.shape[0]),
                "converged": int(report.converged.sum()),
                "best_seed": best,
            }
        ],
        timed_out=report.timed_out,
    )


@_register("portfolio", "race", implements=(race_portfolio,))
def _portfolio(ansatz, *, rng=None, **params):
    """Race several strategies against a deadline, sharing one incumbent.

    Accepts ``racers`` (list of ``{"name", "params"}`` specs), ``deadline_s``
    and the other :func:`~repro.portfolio.racing.race_portfolio` knobs; the
    result's history carries the per-racer reports and the board trail.
    """
    on_incumbent = params.pop("on_incumbent", None)
    outcome = race_portfolio(ansatz, rng=rng, **params)
    if on_incumbent is not None:
        on_incumbent(outcome.result.value, np.array(outcome.result.angles, dtype=np.float64))
    result = _normalized(outcome.result, "portfolio", ansatz)
    result.history.append({"trail": outcome.trail})
    return result


#: Canonical strategy names, in registration order.
STRATEGY_NAMES = STRATEGIES.names()


def find_strategy(name: str) -> AngleStrategy:
    """Look up a registered strategy (case-insensitive, alias-aware)."""
    return STRATEGIES.get(name)


def run_strategy(
    name: str,
    ansatz: QAOAAnsatz,
    *,
    rng: np.random.Generator | int | None = None,
    **params,
) -> AngleResult:
    """Run a registered strategy by name and return its normalized result."""
    strategy = STRATEGIES.get(name)
    try:
        return strategy(ansatz, rng=rng, **params)
    except TypeError as exc:
        if not is_binding_error(exc):
            raise  # a genuine TypeError from inside the strategy, not bad params
        raise ValueError(
            f"bad parameters for strategy {STRATEGIES.canonical(name)!r}: {exc}"
        ) from exc
