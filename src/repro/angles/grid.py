"""Exhaustive grid search over QAOA angles.

The simplest of the "other common angle-finding methods" mentioned in
Sec. 2.3.  Useful as a ground truth at ``p = 1`` (where a fine 2-D grid is
cheap) and as a coarse seeding stage at ``p = 2``; the cost grows as
``resolution^(2p)`` so it is not a practical strategy beyond that — which is
exactly why the iterative/extrapolation scheme exists.

The grid is evaluated in chunked batches through
:meth:`~repro.core.ansatz.QAOAAnsatz.expectation_batch`: each chunk of angle
sets evolves as the columns of one ``(dim, M)`` matrix, so the sweep pays
BLAS-3 batched kernels plus one Python-level iteration per chunk instead of
per grid point.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Callable

import numpy as np

from ..core.ansatz import QAOAAnsatz
from ..core.workspace import default_eval_batch
from ..portfolio.budget import Budget
from .result import AngleResult

__all__ = ["grid_search", "grid_axis"]


def grid_axis(resolution: int, *, low: float = 0.0, high: float = 2.0 * np.pi) -> np.ndarray:
    """``resolution`` evenly spaced angle values in ``[low, high)``."""
    if resolution < 1:
        raise ValueError("resolution must be positive")
    return np.linspace(low, high, resolution, endpoint=False)


def grid_search(
    ansatz: QAOAAnsatz,
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
    never exceed the scalar loop's memory footprint by much.

    Ties resolve to the first grid point in ``itertools.product`` order, the
    same point the scalar one-at-a-time loop returned.

    ``budget`` (optional) is polled between chunks: an exhausted budget stops
    the sweep after the current chunk (the first chunk always evaluates, so a
    zero-slack budget still scores grid points) and the partial-sweep best is
    returned with ``timed_out=True``.  ``on_incumbent`` (optional) is called
    as ``on_incumbent(value, angles)`` whenever a chunk improves the best.
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

    best_value = -np.inf if ansatz.maximize else np.inf
    best_angles: np.ndarray | None = None
    evaluations = 0
    timed_out = False
    axes = [beta_axis] * num_betas + [gamma_axis] * ansatz.p
    points = product(*axes)
    while True:
        chunk = list(islice(points, batch_size))
        if not chunk:
            break
        angle_matrix = np.array(chunk, dtype=np.float64)
        values = ansatz.expectation_batch(angle_matrix)
        evaluations += len(chunk)
        # argmax/argmin return the first occurrence, preserving the scalar
        # loop's first-best-wins tie-breaking within and across chunks.
        idx = int(np.argmax(values)) if ansatz.maximize else int(np.argmin(values))
        value = float(values[idx])
        better = value > best_value if ansatz.maximize else value < best_value
        if better:
            best_value = value
            best_angles = angle_matrix[idx]
            if on_incumbent is not None:
                on_incumbent(best_value, best_angles.copy())
        if budget is not None and budget.exhausted():
            timed_out = True
            break

    assert best_angles is not None
    return AngleResult(
        angles=best_angles,
        value=float(best_value),
        p=ansatz.p,
        evaluations=evaluations,
        strategy="grid",
        timed_out=timed_out,
    )
