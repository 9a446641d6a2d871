"""Pre-computed cost data.

The first pillar of the paper's design (Sec. 2.1) is that the cost function is
evaluated exactly once over the feasible space and then treated as a plain
vector for the rest of the run.  :class:`PrecomputedCost` is that vector plus
the bookkeeping the rest of the package wants alongside it: which feasible
space it refers to, whether the problem is a maximization, and an optional
offset (the paper notes that objective values of mixed sign should be shifted
to a single sign before angle finding).

:func:`precompute_cost` evaluates a user's callable over the space's bit
matrix.  Registry problems do not come through here: their values come from
:func:`repro.problems.registry.objective_on_labels`, which evaluates the
quadratic families straight from integer labels with a split-half kernel
(:mod:`repro.problems.quadratic`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..backend.base import distinct_levels
from ..hilbert.subspace import FeasibleSpace, FullSpace

__all__ = ["PrecomputedCost", "precompute_cost", "OPTIMAL_RTOL", "OPTIMAL_ATOL"]

#: Tolerances of "equals the optimum", for the dense results and the shard workers.
OPTIMAL_RTOL, OPTIMAL_ATOL = 1e-12, 1e-9


@dataclass
class PrecomputedCost:
    """Objective values evaluated across a feasible space.

    Attributes
    ----------
    values:
        Length-``dim`` float array of objective values, in the feasible
        space's canonical state order.
    space:
        The feasible space the values refer to (optional; when absent only
        operations that need no state labels are available).
    maximize:
        Whether larger objective values are better.
    offset:
        Constant added to the raw objective (used to make all values share a
        sign, as recommended in Sec. 3 of the paper).
    flip_pairs:
        ``True`` for the flip-symmetric half of an objective with
        ``C(x) = C(x̄)`` on one more qubit (see :mod:`repro.core.symmetry`):
        entry ``x`` is the value at label ``x``, whose top bit is clear, and
        at its complement, and a state's amplitude there stands for the pair
        ``(|x> + |x̄>) / sqrt(2)``.  Results expand it to the full space.
    """

    values: np.ndarray
    space: FeasibleSpace | None = None
    maximize: bool = True
    offset: float = 0.0
    flip_pairs: bool = False

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("objective values must be a non-empty 1-D array")
        if self.space is not None and self.space.dim != values.size:
            raise ValueError(
                f"objective values have length {values.size} but the space has "
                f"dimension {self.space.dim}"
            )
        self.values = values + float(self.offset)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of feasible states."""
        return int(self.values.size)

    @property
    def optimum(self) -> float:
        """Best objective value over the feasible space (includes the offset)."""
        return float(self.values.max() if self.maximize else self.values.min())

    @property
    def worst(self) -> float:
        """Worst objective value over the feasible space."""
        return float(self.values.min() if self.maximize else self.values.max())

    def optimal_indices(
        self, rtol: float = OPTIMAL_RTOL, atol: float = OPTIMAL_ATOL
    ) -> np.ndarray:
        """Subspace indices of the optimal states."""
        return np.flatnonzero(np.isclose(self.values, self.optimum, rtol=rtol, atol=atol))

    def optimal_labels(self) -> np.ndarray:
        """Full-space labels of the optimal states (requires a space)."""
        if self.space is None:
            raise ValueError("optimal_labels requires the feasible space to be attached")
        return self.space.labels[self.optimal_indices()]

    def degeneracies(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct objective values and their multiplicities.

        This is the compressed representation the Grover-mixer fast path uses
        (Sec. 2.4): the full value vector is replaced by ``(distinct values,
        counts)``.
        """
        distinct, counts = np.unique(self.values, return_counts=True)
        return distinct, counts

    def phase_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct objective values and per-state inverse indices (cached).

        The batched evolution uses this to exponentiate separator phases over
        the (usually tiny) set of distinct cost levels and gather, instead of
        over the full ``(dim, M)`` matrix, on every round of every sweep
        chunk.  Computed once per cost object.
        """
        if not hasattr(self, "_phase_levels"):
            self._phase_levels = distinct_levels(self.values)
        return self._phase_levels

    def signed_for_minimization(self) -> np.ndarray:
        """Objective values with the sign flipped so that *minimizing* them solves the problem."""
        return -self.values if self.maximize else self.values

    def with_offset(self, offset: float) -> "PrecomputedCost":
        """A copy with an additional constant offset applied."""
        return PrecomputedCost(
            values=self.values.copy(),
            space=self.space,
            maximize=self.maximize,
            offset=offset,
            flip_pairs=self.flip_pairs,
        )


def precompute_cost(
    cost: Callable[[np.ndarray], float] | np.ndarray,
    space: FeasibleSpace | None = None,
    *,
    n: int | None = None,
    maximize: bool = True,
    vectorized: Callable[[np.ndarray], np.ndarray] | None = None,
    offset: float = 0.0,
) -> PrecomputedCost:
    """Evaluate (or wrap) objective values over a feasible space.

    Parameters
    ----------
    cost:
        Either a scalar callable ``cost(x) -> float`` over 0/1 arrays, or an
        already-evaluated array of objective values.
    space:
        Feasible space to evaluate over.  If omitted and ``n`` is given, the
        full ``2^n`` hypercube is used; if both are omitted, ``cost`` must be
        an array (and no state labels will be available downstream).
    vectorized:
        Optional vectorized evaluator over a bit matrix; preferred over the
        scalar path when supplied.
    """
    if isinstance(cost, np.ndarray) or (
        not callable(cost) and hasattr(cost, "__len__")
    ):
        values = np.asarray(cost, dtype=np.float64)
        return PrecomputedCost(values=values, space=space, maximize=maximize, offset=offset)

    if space is None:
        if n is None:
            raise ValueError("either a feasible space or n must be provided for a callable cost")
        space = FullSpace(n)

    if vectorized is not None:
        values = space.evaluate_vectorized(vectorized)
    else:
        values = space.evaluate(cost)
    return PrecomputedCost(values=values, space=space, maximize=maximize, offset=offset)
