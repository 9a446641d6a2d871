"""Random local-minima exploration (the Lotshaw et al. baseline).

The comparison strategy of the paper's Figure 3: draw a random starting point
uniformly in ``[0, 2 pi)^{2p}``, run BFGS to the nearest local optimum, repeat
``iters`` times (100 in the reference study) and keep the best result.  This
is also what the paper's Listing 3 implements as ``find_angles_rand`` to show
how user-defined strategies plug in.

Two batched fast paths keep the sweep on BLAS-3 kernels:

* with the default ``gradient="adjoint"`` every refinement runs through the
  vectorized multi-start engine (:mod:`repro.angles.multistart`), advancing
  all restarts in lock-step on the batched value-and-gradient kernel instead
  of looping scipy BFGS per seed (pass ``vectorized=False`` to opt out);
* when ``refine_top`` prunes the restart pool, the seeds are batch-scored
  first — in bounded chunks, like ``grid_search`` — and only the most
  promising ones are refined.  With the default ``refine_top=None`` every
  seed is refined anyway, so the scoring pass is skipped entirely.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.ansatz import QAOAAnsatz
from ..core.workspace import default_eval_batch
from ..portfolio.budget import Budget
from .bfgs import GradientMode, local_minimize
from .multistart import multistart_minimize
from .result import AngleResult

__all__ = [
    "find_angles_random",
    "random_restart_seeds",
    "restart_results_from_report",
    "select_best_restart",
    "summarize_restarts",
]


def random_restart_seeds(
    ansatz: QAOAAnsatz, iters: int, rng: np.random.Generator | int | None
) -> np.ndarray:
    """The ``(iters, num_angles)`` seed matrix one random-restart run draws.

    Extracted so batching layers (the solver service's request coalescer) can
    generate each request's seeds exactly as :func:`find_angles_random` would
    and refine many requests' seeds as the columns of one multi-start batch.
    """
    if iters < 1:
        raise ValueError("at least one restart is required")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return 2.0 * np.pi * rng.random((iters, ansatz.num_angles))


def restart_results_from_report(
    ansatz: QAOAAnsatz, report, *, start: int = 0, count: int | None = None
) -> list[AngleResult]:
    """Per-restart :class:`AngleResult`\\ s for a slice of a multi-start report.

    ``report`` is a :class:`~repro.angles.multistart.MultiStartResult`; columns
    ``start .. start+count`` are converted exactly the way
    :func:`find_angles_random`'s vectorized path labels its refined restarts.
    """
    if count is None:
        count = report.values.shape[0] - start
    results = []
    for pos in range(start, start + count):
        results.append(
            AngleResult(
                angles=report.angles[pos],
                value=float(report.values[pos]),
                p=ansatz.p,
                evaluations=int(report.column_evaluations[pos]),
                strategy="bfgs-adjoint-batched",
                history=[
                    {
                        "converged": bool(report.converged[pos]),
                        "iterations": int(report.iterations[pos]),
                    }
                ],
            )
        )
    return results


def select_best_restart(ansatz: QAOAAnsatz, results: list[AngleResult]) -> AngleResult:
    """First-best-wins selection with the fp-noise tie guard.

    Symmetry-equivalent optima agree only to round-off, and which copy
    computes a few ulps higher depends on the refinement backend — near-ties
    resolve to the earliest restart so the winner (and anything downstream,
    like median-angle studies) is backend-stable.
    """
    if not results:
        raise ValueError("at least one restart result is required")
    best = results[0]
    for result in results[1:]:
        tol = 1e-10 * (1.0 + abs(best.value))
        if ansatz.maximize:
            better = result.value > best.value + tol
        else:
            better = result.value < best.value - tol
        if better:
            best = result
    return best


def summarize_restarts(
    ansatz: QAOAAnsatz,
    all_results: list[AngleResult],
    evaluations: int,
    *,
    seed_values: np.ndarray | None = None,
    refine: set[int] | None = None,
) -> AngleResult:
    """The ``"random-restart"`` summary result over a full set of restarts."""
    if refine is None:
        refine = set(range(len(all_results)))
    best = select_best_restart(ansatz, all_results)
    return AngleResult(
        angles=best.angles,
        value=best.value,
        p=ansatz.p,
        evaluations=evaluations,
        strategy="random-restart",
        history=[
            {
                "restart": i,
                "value": r.value,
                "seed_value": None if seed_values is None else float(seed_values[i]),
                "refined": i in refine,
            }
            for i, r in enumerate(all_results)
        ],
    )


def _score_seeds(
    ansatz: QAOAAnsatz, seeds: np.ndarray, batch_size: int | None
) -> np.ndarray:
    """Batch-score all seeds in bounded chunks (peak scratch ~3*dim*chunk)."""
    if batch_size is None:
        batch_size = default_eval_batch(ansatz.dim)
    if batch_size < 1:
        raise ValueError("score_batch_size must be positive")
    total = seeds.shape[0]
    values = np.empty(total, dtype=np.float64)
    for start in range(0, total, batch_size):
        stop = min(start + batch_size, total)
        values[start:stop] = ansatz.expectation_batch(seeds[start:stop])
    return values


def find_angles_random(
    ansatz: QAOAAnsatz,
    *,
    iters: int = 100,
    gradient: GradientMode = "adjoint",
    maxiter: int = 200,
    rng: np.random.Generator | int | None = None,
    return_all: bool = False,
    refine_top: int | None = None,
    vectorized: bool | None = None,
    score_batch_size: int | None = None,
    budget: Budget | None = None,
    on_incumbent: Callable[[float, np.ndarray], None] | None = None,
) -> AngleResult | tuple[AngleResult, list[AngleResult]]:
    """Best of ``iters`` independent random-start BFGS local searches.

    ``refine_top`` (default: all of them) bounds how many of the best-scoring
    seeds get a BFGS refinement; only then are the seeds batch-scored (in
    chunks of ``score_batch_size``, default bounded at 256 columns, capping
    each of the workspace's three scratch buffers at ~64 MB).
    ``vectorized`` selects the lock-step multi-start refiner
    (default: on for the ``"adjoint"`` gradient mode, unavailable for
    ``"finite"``/``"numeric"``, which keep the per-seed scipy loop).  With
    ``return_all=True`` the per-restart results are also returned, which the
    median-angles strategy and Figure 3 consume; unrefined seeds appear as
    their batch-scored values, and each history entry's ``seed_value`` is
    ``None`` when the scoring pass was skipped.

    ``budget``/``on_incumbent`` make the sweep anytime: the budget is threaded
    into the refiner (vectorized multi-start polls per lock-step iteration,
    the scipy loop per restart and per objective call) and an exhausted budget
    returns the best-so-far summary with ``timed_out=True``; seeds are always
    scored/evaluated at least once before the first poll.
    ``on_incumbent(value, angles)`` fires on every improvement of the
    across-restarts best.
    """
    if iters < 1:
        raise ValueError("at least one restart is required")
    if refine_top is not None and not 1 <= refine_top <= iters:
        raise ValueError(f"refine_top must be in [1, {iters}], got {refine_top}")
    if vectorized is None:
        vectorized = gradient == "adjoint"
    elif vectorized and gradient != "adjoint":
        raise ValueError(
            f"vectorized refinement requires gradient='adjoint', got {gradient!r}"
        )

    seeds = random_restart_seeds(ansatz, iters, rng)
    evaluations = 0
    prune = refine_top is not None and refine_top < iters
    if prune:
        seed_values = _score_seeds(ansatz, seeds, score_batch_size)
        evaluations += iters
        order = np.argsort(seed_values)
        if ansatz.maximize:
            order = order[::-1]
        refine = set(int(i) for i in order[:refine_top])
    else:
        # Every seed gets refined, so scoring would be pure overhead.
        seed_values = None
        refine = set(range(iters))

    timed_out = False
    refined: dict[int, AngleResult] = {}
    if vectorized:
        refine_order = sorted(refine)
        report = multistart_minimize(
            ansatz, seeds[refine_order], maxiter=maxiter, budget=budget, checkpoint=on_incumbent
        )
        evaluations += report.evaluations
        timed_out = report.timed_out
        per_column = restart_results_from_report(ansatz, report)
        for pos, i in enumerate(refine_order):
            refined[i] = per_column[pos]
    else:
        best_so_far = [None]  # across-restarts best value, for incumbent gating

        def publish_if_best(value: float, angles: np.ndarray) -> None:
            if on_incumbent is None:
                return
            prev = best_so_far[0]
            if prev is None or ((value > prev) if ansatz.maximize else (value < prev)):
                best_so_far[0] = value
                on_incumbent(value, angles)

        for i in sorted(refine):
            refined[i] = local_minimize(
                ansatz,
                seeds[i],
                gradient=gradient,
                maxiter=maxiter,
                budget=budget,
                on_incumbent=publish_if_best if on_incumbent is not None else None,
            )
            evaluations += refined[i].evaluations
            value = refined[i].value
            prev = best_so_far[0]
            if prev is None or ((value > prev) if ansatz.maximize else (value < prev)):
                best_so_far[0] = value
            if refined[i].timed_out or (budget is not None and budget.exhausted()):
                timed_out = True
                break
        skipped = [i for i in sorted(refine) if i not in refined]
        if skipped:
            # Restarts the deadline cut off fall back to their seed scores so
            # every history row still carries a valid evaluated value.
            skipped_scores = _score_seeds(ansatz, seeds[skipped], score_batch_size)
            evaluations += len(skipped)
            for pos, i in enumerate(skipped):
                refined[i] = AngleResult(
                    angles=seeds[i].copy(),
                    value=float(skipped_scores[pos]),
                    p=ansatz.p,
                    evaluations=1,
                    strategy="random-seed",
                )
            refine = refine - set(skipped)

    all_results: list[AngleResult] = []
    for i in range(iters):
        if i in refined:
            result = refined[i]
        else:
            # Unrefined seeds only exist on the pruned path, where every seed
            # was batch-scored — that one expectation evaluation is the cost
            # this result carries.
            result = AngleResult(
                angles=seeds[i].copy(),
                value=float(seed_values[i]),
                p=ansatz.p,
                evaluations=1,
                strategy="random-seed",
            )
        all_results.append(result)

    summary = summarize_restarts(
        ansatz, all_results, evaluations, seed_values=seed_values, refine=refine
    )
    summary.timed_out = timed_out
    if return_all:
        return summary, all_results
    return summary
