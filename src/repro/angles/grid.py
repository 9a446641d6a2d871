"""Exhaustive grid search over QAOA angles.

The simplest of the "other common angle-finding methods" mentioned in
Sec. 2.3.  Useful as a ground truth at ``p = 1`` (where a fine 2-D grid is
cheap) and as a coarse seeding stage at ``p = 2``; the cost grows as
``resolution^(2p)`` so it is not a practical strategy beyond that — which is
exactly why the iterative/extrapolation scheme exists.

The grid is evaluated in chunked batches through the engine's
``expectation_batch``: each chunk of angle sets evolves as the columns of one
``(dim, M)`` matrix, so the sweep pays BLAS-3 batched kernels plus one
Python-level iteration per chunk instead of per grid point.  Points are
enumerated in evolution order — ``gamma_1``, the round-1 betas, ``gamma_2``,
... with the angle applied last varying fastest — so consecutive points share
their leading layers and the dense engine evolves each shared prefix once
(see :func:`~repro.core.simulator.evolve_state_batch`).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.engine import Engine
from ..core.workspace import default_eval_batch
from ..portfolio.budget import Budget
from .result import AngleResult

__all__ = ["grid_search", "grid_axis"]

#: relative tolerance of a tie with the best value (as in ``select_best_restart``)
_TIE_RTOL = 1e-10


def grid_axis(resolution: int, *, low: float = 0.0, high: float = 2.0 * np.pi) -> np.ndarray:
    """``resolution`` evenly spaced angle values in ``[low, high)``."""
    if resolution < 1:
        raise ValueError("resolution must be positive")
    return np.linspace(low, high, resolution, endpoint=False)


def _evolution_columns(beta_counts: Sequence[int]) -> np.ndarray:
    """Flat (betas, gammas) column of each angle in evolution order
    (``gamma_1``, the round-1 betas, ``gamma_2``, ...)."""
    num_betas = sum(beta_counts)
    columns: list[int] = []
    cursor = 0
    for k, count in enumerate(beta_counts):
        columns.append(num_betas + k)
        columns.extend(range(cursor, cursor + count))
        cursor += count
    return np.array(columns, dtype=np.intp)


def grid_search(
    ansatz: Engine,
    resolution: int = 12,
    *,
    beta_range: tuple[float, float] = (0.0, np.pi),
    gamma_range: tuple[float, float] = (0.0, 2.0 * np.pi),
    max_points: int = 2_000_000,
    batch_size: int | None = None,
    budget: Budget | None = None,
    on_incumbent: Callable[[float, np.ndarray], None] | None = None,
) -> AngleResult:
    """Evaluate ``<C>`` on a regular grid and return the best grid point.

    Betas and gammas get separate ranges because the transverse-field mixer is
    ``pi``-periodic in beta while typical integer-valued cost functions are
    ``2 pi``-periodic in gamma.  ``max_points`` guards against accidentally
    launching an astronomically large sweep at high ``p``; ``batch_size``
    controls how many grid points are simulated simultaneously (it trades
    scratch memory — ``3 * dim * batch_size`` complex values — against
    per-chunk overhead).  The default scales the batch down with the space
    dimension, capping each workspace buffer at ~64 MB so large-``n`` sweeps
    stay within a few such buffers.

    Points are enumerated in evolution order (``gamma_1``, the round-1
    betas, ``gamma_2``, ..., the last-applied angle varying fastest; the
    per-round beta counts come from ``ansatz.beta_counts``) and mapped back
    to the flat (betas, gammas) layout.  The result is the earliest point in
    that order whose value is within ``1e-10 * (1 + |best|)`` of the best
    value found, so near-ties that differ only by round-off resolve to the
    same point whatever the ``batch_size``.

    ``budget`` (optional) is polled between chunks: an exhausted budget stops
    the sweep after the current chunk (the first chunk always evaluates, so a
    zero-slack budget still scores grid points) and the partial-sweep result
    is returned with ``timed_out=True``.  ``on_incumbent`` (optional) is
    called as ``on_incumbent(value, angles)`` whenever the selected point
    changes.
    """
    if batch_size is None:
        batch_size = default_eval_batch(ansatz.dim)
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    num_angles = ansatz.num_angles
    total_points = resolution**num_angles
    if total_points > max_points:
        raise ValueError(
            f"grid of {total_points} points exceeds max_points={max_points}; "
            "lower the resolution or use a different strategy"
        )
    num_betas = num_angles - ansatz.p
    beta_axis = grid_axis(resolution, low=beta_range[0], high=beta_range[1])
    gamma_axis = grid_axis(resolution, low=gamma_range[0], high=gamma_range[1])
    layout = _evolution_columns(ansatz.beta_counts)
    shape = (resolution,) * num_angles

    def points(indices: np.ndarray) -> np.ndarray:
        digits = np.unravel_index(indices, shape)
        angles = np.empty((len(indices), num_angles), dtype=np.float64)
        for column, digit in zip(layout, digits):
            angles[:, column] = (gamma_axis if column >= num_betas else beta_axis)[digit]
        return angles

    # Scores are values signed so that higher is better.  ``ties`` holds the
    # points that can still become the selection, in enumeration order, each
    # scoring above every earlier one (a later point never wins while an
    # earlier one scores at least as high); its first entry is the selection.
    sign = 1.0 if ansatz.maximize else -1.0
    best = -np.inf
    ties = np.empty(0, dtype=np.intp)
    tie_scores = np.empty(0, dtype=np.float64)
    selected = -1
    evaluations = 0
    timed_out = False
    for start in range(0, total_points, batch_size):
        indices = np.arange(start, min(start + batch_size, total_points))
        scores = sign * np.asarray(ansatz.expectation_batch(points(indices)), dtype=np.float64)
        evaluations += len(indices)
        best = max(best, float(scores.max()))
        floor = best - _TIE_RTOL * (1.0 + abs(best))
        near = scores >= floor
        ties = np.concatenate([ties, indices[near]])
        tie_scores = np.concatenate([tie_scores, scores[near]])
        keep = tie_scores >= floor
        keep[1:] &= tie_scores[1:] > np.maximum.accumulate(tie_scores)[:-1]
        ties, tie_scores = ties[keep], tie_scores[keep]
        if ties[0] != selected:
            selected = int(ties[0])
            if on_incumbent is not None:
                on_incumbent(sign * float(tie_scores[0]), points(ties[:1])[0])
        if budget is not None and budget.exhausted():
            timed_out = True
            break

    return AngleResult(
        angles=points(ties[:1])[0],
        value=sign * float(tie_scores[0]),
        p=ansatz.p,
        evaluations=evaluations,
        strategy="grid",
        timed_out=timed_out,
    )
