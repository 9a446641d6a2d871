"""Vectorized multi-start local refinement on the batched adjoint kernel.

The dominant cost of the Lotshaw-style random-restart baseline (Fig. 3) and
of every ``repro run`` sweep that refines seeds is M independent BFGS local
searches, each hammering the single-row value-and-gradient call.  This module
advances all M restarts *in lock-step* instead: every iteration evaluates the
batched adjoint kernel (:meth:`~repro.core.ansatz.QAOAAnsatz.loss_and_gradient_batch`)
once for the whole active batch, applies per-column quasi-Newton steps, and
freezes converged columns — compacting them out of the batch so late stragglers
never pay for finished restarts.

The step rule is classical BFGS with a backtracking Armijo line search, kept
entirely per-column: each restart owns its inverse-Hessian approximation,
step length and convergence state, so the trajectories are independent — only
the expensive value-and-gradient evaluations are shared.  Columns whose line
search stalls are frozen at their current iterate (the batched analogue of
scipy's "precision loss" stop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.ansatz import QAOAAnsatz
from ..portfolio.budget import Budget

__all__ = ["MultiStartResult", "multistart_minimize", "default_refine_batch"]

_ARMIJO_C1 = 1e-4
_WOLFE_C2 = 0.9
_MAX_LINESEARCH_EVALS = 30
_MAX_EXPANSIONS = 6
_CURVATURE_FLOOR = 1e-12
#: Freeze a column after this many consecutive iterations whose accepted step
#: improved the loss by less than fp round-off (scipy's "precision loss" stop:
#: the iterate is as converged as the arithmetic allows even if the gradient
#: tolerance was never met, and further line searches just burn evaluations).
_MAX_NO_PROGRESS = 3
_PROGRESS_RTOL = 1e-13


def default_refine_batch(dim: int, p: int, *, budget_elems: int = 1 << 21) -> int:
    """Largest refinement batch whose layer store stays under ``budget_elems``.

    The batched adjoint pass stores ``p * 2 * dim * M`` complex128 forward
    intermediates, so the default chunk bounds that at ``budget_elems``
    (32 MiB at the default budget) and never exceeds 256 columns — the same
    philosophy as :func:`~repro.angles.grid.grid_search`'s chunking.
    """
    return max(1, min(256, budget_elems // max(1, 2 * dim * p)))


@dataclass
class MultiStartResult:
    """Outcome of one vectorized multi-start refinement.

    All arrays are indexed by the seed row: ``angles[j]`` is the refined
    angle vector of seed ``j``, ``values[j]`` the expectation value there (in
    the problem's natural sense), ``converged[j]`` whether the gradient
    tolerance was met, ``iterations[j]`` the quasi-Newton iterations spent and
    ``column_evaluations[j]`` how many batched value-and-gradient evaluations
    involved that column.  ``evaluations`` is the column total.  ``timed_out``
    reports whether an exhausted :class:`~repro.portfolio.budget.Budget`
    froze columns early (their values are the best iterates reached).
    """

    angles: np.ndarray
    values: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    column_evaluations: np.ndarray
    timed_out: bool = False

    @property
    def evaluations(self) -> int:
        """Total value-and-gradient evaluations across all columns."""
        return int(self.column_evaluations.sum())


def multistart_minimize(
    ansatz: QAOAAnsatz,
    seeds: np.ndarray,
    *,
    maxiter: int = 200,
    gtol: float = 1e-6,
    batch_size: int | None = None,
    budget: Budget | None = None,
    checkpoint: Callable[[float, np.ndarray], None] | None = None,
) -> MultiStartResult:
    """Refine M seed angle vectors to their nearest local optima in lock-step.

    ``seeds`` is an ``(M, num_angles)`` matrix (one flat angle vector per
    row).  Seeds are processed in chunks of ``batch_size`` columns (default:
    :func:`default_refine_batch`, bounding the adjoint layer store to ~32 MiB)
    and each chunk runs the vectorized BFGS loop to completion.  The
    ``maxiter`` / ``gtol`` knobs match :func:`~repro.angles.bfgs.local_minimize`.

    ``budget`` (optional) is polled once per lock-step iteration: when it is
    exhausted, the still-active columns freeze at their current iterates and
    the result reports ``timed_out=True``.  Every chunk evaluates its seeds
    before the first poll, so even a zero-slack budget returns seed-scored
    values.  ``checkpoint`` (optional) is called as ``checkpoint(value,
    angles)`` — value in the problem's natural sense — every time the best
    iterate across the whole call improves; accepted BFGS steps only ever
    decrease the loss, so the reported sequence is monotone.

    Results are equivalent to running scipy BFGS per seed (same local optima
    up to line-search details) at the batched engine's per-evaluation cost.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.ndim == 1:
        seeds = seeds[None, :]
    if seeds.ndim != 2 or seeds.shape[1] != ansatz.num_angles:
        raise ValueError(
            f"seeds have shape {seeds.shape}, expected (M, {ansatz.num_angles})"
        )
    if maxiter < 1:
        raise ValueError("maxiter must be positive")
    total = seeds.shape[0]
    if batch_size is None:
        batch_size = default_refine_batch(ansatz.dim, ansatz.p)
    if batch_size < 1:
        raise ValueError("batch_size must be positive")

    angles = np.empty_like(seeds)
    losses = np.empty(total, dtype=np.float64)
    converged = np.zeros(total, dtype=bool)
    iterations = np.zeros(total, dtype=np.int64)
    column_evaluations = np.zeros(total, dtype=np.int64)

    progress = None
    if checkpoint is not None:
        best_loss = [np.inf]  # cross-chunk incumbent, in loss (minimization) sense

        def progress(chunk_loss: np.ndarray, chunk_x: np.ndarray) -> None:
            j = int(np.argmin(chunk_loss))
            cur = float(chunk_loss[j])
            if cur < best_loss[0]:
                best_loss[0] = cur
                value = -cur if ansatz.maximize else cur
                checkpoint(value, np.array(chunk_x[j], dtype=np.float64))

    timed_out = False
    for start in range(0, total, batch_size):
        stop = min(start + batch_size, total)
        # After exhaustion, later chunks still evaluate their seeds (one
        # batched call each) so every output row is a scored iterate.
        timed_out |= _minimize_chunk(
            ansatz,
            seeds[start:stop],
            maxiter,
            gtol,
            angles[start:stop],
            losses[start:stop],
            converged[start:stop],
            iterations[start:stop],
            column_evaluations[start:stop],
            budget=budget,
            progress=progress,
        )

    values = -losses if ansatz.maximize else losses
    return MultiStartResult(
        angles=angles,
        values=values,
        converged=converged,
        iterations=iterations,
        column_evaluations=column_evaluations,
        timed_out=timed_out,
    )


def _identity_stack(m: int, na: int) -> np.ndarray:
    out = np.zeros((m, na, na), dtype=np.float64)
    out[:, np.arange(na), np.arange(na)] = 1.0
    return out


def _minimize_chunk(
    ansatz: QAOAAnsatz,
    seeds: np.ndarray,
    maxiter: int,
    gtol: float,
    out_x: np.ndarray,
    out_loss: np.ndarray,
    out_conv: np.ndarray,
    out_iter: np.ndarray,
    out_evals: np.ndarray,
    budget: Budget | None = None,
    progress: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> bool:
    """Run the lock-step BFGS loop for one chunk, writing results in place.

    Returns whether the ``budget`` expired mid-chunk (the seeds are always
    evaluated before the first poll, so results stay valid either way).
    """
    m, na = seeds.shape
    # Small (active, na)-shaped reductions run on the ansatz's array backend
    # alongside the batched kernels it dispatches.
    ein = ansatz.backend.einsum
    x = seeds.copy()
    loss, grad = ansatz.loss_and_gradient_batch(x)
    loss = loss.copy()
    grad = grad.copy()
    out_evals += 1

    # Results default to the (evaluated) seeds; frozen columns overwrite them.
    out_x[:] = x
    out_loss[:] = loss
    out_conv[:] = False
    out_iter[:] = 0
    if progress is not None:
        progress(loss, x)

    hess_inv = _identity_stack(m, na)
    cols = np.arange(m)  # original chunk column of each active slot
    fresh = np.ones(m, dtype=bool)  # pending first-update Hessian scaling
    no_progress = np.zeros(m, dtype=np.int64)  # consecutive round-off-only steps
    # Previous-iterate loss, seeded the way scipy does (old_fval + |grad|/2) so
    # the first trial step matches scipy BFGS's ~1/|grad| scaling instead of
    # jumping a full raw-gradient length into a different basin.
    prev_loss = loss + np.linalg.norm(grad, axis=1) / 2.0

    def freeze(finished: np.ndarray, conv_flags: np.ndarray) -> None:
        """Record finished slots and compact them out of the active arrays."""
        nonlocal x, loss, grad, hess_inv, cols, fresh, prev_loss, no_progress
        idx = cols[finished]
        out_x[idx] = x[finished]
        out_loss[idx] = loss[finished]
        out_conv[idx] = conv_flags[finished]
        keep = ~finished
        x, loss, grad = x[keep], loss[keep], grad[keep]
        hess_inv, cols, fresh = hess_inv[keep], cols[keep], fresh[keep]
        prev_loss = prev_loss[keep]
        no_progress = no_progress[keep]

    already = np.abs(grad).max(axis=1) <= gtol
    if already.any():
        freeze(already, already)

    for _ in range(maxiter):
        if x.shape[0] == 0:
            return False
        if budget is not None and budget.exhausted():
            # Deadline/cancellation: freeze the survivors at their current
            # (already evaluated) iterates and report the early stop.
            freeze(np.ones(x.shape[0], dtype=bool), np.zeros(x.shape[0], dtype=bool))
            return True
        active = x.shape[0]
        out_iter[cols] += 1

        direction = -ein("mij,mj->mi", hess_inv, grad)
        slope = ein("mi,mi->m", direction, grad)
        ascent = slope >= 0.0
        if ascent.any():
            # Curvature information went bad; restart those columns steepest-descent.
            hess_inv[ascent] = np.eye(na)
            fresh[ascent] = True
            direction[ascent] = -grad[ascent]
            slope[ascent] = -ein("mi,mi->m", grad[ascent], grad[ascent])

        # Per-column weak-Wolfe line search, lock-step: every round evaluates
        # the batched kernel once on the compacted sub-batch of still-searching
        # columns.  A trial failing the Armijo decrease backtracks (halves
        # alpha); an Armijo point whose slope is still steeper than the Wolfe
        # curvature bound is kept as a fallback candidate and the step is
        # doubled (bounded), which is how scipy escapes shallow basins and
        # keeps the BFGS curvature ``s.y`` positive.  The initial trial step
        # extrapolates the previous iteration's decrease along the new slope
        # (scipy's heuristic, capped at 1).
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = 1.01 * 2.0 * (loss - prev_loss) / slope
        alpha = np.where(np.isfinite(alpha) & (alpha > 0.0), np.minimum(alpha, 1.0), 1.0)
        x_new, loss_new, grad_new = x.copy(), loss.copy(), grad.copy()
        pending = np.arange(active)
        have_cand = np.zeros(active, dtype=bool)
        cand_x = np.empty_like(x)
        cand_f = np.empty(active)
        cand_g = np.empty_like(grad)
        expansions = np.zeros(active, dtype=np.int64)
        for _ls in range(_MAX_LINESEARCH_EVALS):
            trial = x[pending] + alpha[pending, None] * direction[pending]
            f_t, g_t = ansatz.loss_and_gradient_batch(trial)
            out_evals[cols[pending]] += 1
            armijo = np.isfinite(f_t) & (
                f_t <= loss[pending] + _ARMIJO_C1 * alpha[pending] * slope[pending]
            )
            dphi = ein("mi,mi->m", g_t, direction[pending])
            curv_ok = dphi >= _WOLFE_C2 * slope[pending]
            can_expand = expansions[pending] < _MAX_EXPANSIONS

            take = armijo & (curv_ok | ~can_expand)
            expand = armijo & ~curv_ok & can_expand
            # Armijo failed after a good point was bracketed: we overshot, so
            # fall back to that candidate instead of zooming.
            fall_back = ~armijo & have_cand[pending]

            t_sel = np.flatnonzero(take)
            if t_sel.size:
                idx_t = pending[t_sel]
                use_cand = have_cand[idx_t] & (cand_f[idx_t] <= f_t[t_sel])
                direct = idx_t[~use_cand]
                d_sel = t_sel[~use_cand]
                x_new[direct] = trial[d_sel]
                loss_new[direct] = f_t[d_sel]
                grad_new[direct] = g_t[d_sel]
                from_cand = idx_t[use_cand]
                x_new[from_cand] = cand_x[from_cand]
                loss_new[from_cand] = cand_f[from_cand]
                grad_new[from_cand] = cand_g[from_cand]
            f_sel = np.flatnonzero(fall_back)
            if f_sel.size:
                idx_f = pending[f_sel]
                x_new[idx_f] = cand_x[idx_f]
                loss_new[idx_f] = cand_f[idx_f]
                grad_new[idx_f] = cand_g[idx_f]
            e_sel = np.flatnonzero(expand)
            if e_sel.size:
                idx_e = pending[e_sel]
                better = ~have_cand[idx_e] | (f_t[e_sel] < cand_f[idx_e])
                upd = idx_e[better]
                cand_x[upd] = trial[e_sel[better]]
                cand_f[upd] = f_t[e_sel[better]]
                cand_g[upd] = g_t[e_sel[better]]
                have_cand[idx_e] = True
                alpha[idx_e] *= 2.0
                expansions[idx_e] += 1
            shrink = ~(take | expand | fall_back)
            alpha[pending[shrink]] *= 0.5
            pending = pending[expand | shrink]
            if pending.size == 0:
                break
        stalled = np.zeros(active, dtype=bool)
        if pending.size:
            # Evaluation budget exhausted: settle for any bracketed candidate,
            # freeze the rest at their current iterate.
            leftover_cand = have_cand[pending]
            idx_c = pending[leftover_cand]
            x_new[idx_c] = cand_x[idx_c]
            loss_new[idx_c] = cand_f[idx_c]
            grad_new[idx_c] = cand_g[idx_c]
            stalled[pending[~leftover_cand]] = True

        # BFGS inverse-Hessian update for the columns that moved.
        step = x_new - x
        gdiff = grad_new - grad
        curvature = ein("mi,mi->m", step, gdiff)
        upd = np.flatnonzero(~stalled & (curvature > _CURVATURE_FLOOR))
        if upd.size:
            scale_idx = upd[fresh[upd]]
            if scale_idx.size:
                # First productive step: scale H0 toward the local curvature
                # (Nocedal & Wright eq. 6.20) before the rank-two update.
                ydoty = ein("mi,mi->m", gdiff[scale_idx], gdiff[scale_idx])
                hess_inv[scale_idx] *= (curvature[scale_idx] / ydoty)[:, None, None]
                fresh[scale_idx] = False
            s_u, y_u = step[upd], gdiff[upd]
            rho = 1.0 / curvature[upd]
            hy = ein("mij,mj->mi", hess_inv[upd], y_u)
            yhy = ein("mi,mi->m", y_u, hy)
            cross = s_u[:, :, None] * hy[:, None, :]
            updated = hess_inv[upd] - rho[:, None, None] * (
                cross + cross.transpose(0, 2, 1)
            )
            updated += (rho * rho * yhy + rho)[:, None, None] * (
                s_u[:, :, None] * s_u[:, None, :]
            )
            hess_inv[upd] = updated

        # Track columns whose accepted step no longer moves the loss beyond
        # round-off; a few such iterations in a row mean the column is done
        # to machine precision even though the gradient tolerance never hit.
        tiny = ~stalled & (loss - loss_new <= _PROGRESS_RTOL * (1.0 + np.abs(loss_new)))
        no_progress = np.where(tiny, no_progress + 1, 0)

        prev_loss = loss
        x, loss, grad = x_new, loss_new, grad_new
        if progress is not None:
            progress(loss, x)
        small_grad = np.abs(grad).max(axis=1) <= gtol
        finished = stalled | small_grad | (no_progress >= _MAX_NO_PROGRESS)
        if finished.any():
            freeze(finished, small_grad)

    # maxiter exhausted: record the remaining columns as unconverged.
    if x.shape[0]:
        remaining = np.ones(x.shape[0], dtype=bool)
        freeze(remaining, np.zeros(x.shape[0], dtype=bool))
    return False
