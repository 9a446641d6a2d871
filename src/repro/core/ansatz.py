"""High-level QAOA ansatz object: the dense :class:`~repro.core.engine.Engine`.

:class:`QAOAAnsatz` bundles everything that defines one QAOA — the
pre-computed objective values, the mixer schedule, the initial state and the
optimization sense — behind the small callable surface the angle-finding
optimizers need: ``expectation(angles)``, ``gradient(angles)`` and
``simulate(angles)``.  A single pre-allocated
:class:`~repro.core.workspace.BatchedWorkspace` is reused across every call,
which is where the "functionally zero overhead" repeated evaluation of the
paper comes from.  The ansatz implements the batched kernels; the single-row
calls (M=1 rows of them), the loss wrappers, ``random_angles`` and ``close``
come from :class:`~repro.core.engine.Engine`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..mixers.base import Mixer
from ..mixers.schedules import MixerSchedule, as_schedule
from .engine import Engine
from .gradients import EvaluationCounter, qaoa_value_and_gradient_batch
from .precompute import PrecomputedCost
from .simulator import QAOAResult, expectation_value_batch, simulate
from .workspace import BatchedWorkspace

__all__ = ["QAOAAnsatz"]


class QAOAAnsatz(Engine):
    """A fixed-(cost, mixer, p) QAOA exposing value / gradient / simulate calls.

    Parameters
    ----------
    obj_vals:
        Objective values over the feasible space (array or
        :class:`~repro.core.precompute.PrecomputedCost`).
    mixer:
        A mixer, list of per-round mixers, or :class:`MixerSchedule`.
    p:
        Number of rounds (required unless a schedule / mixer list fixes it).
    initial_state:
        Optional custom initial state (warm starts).
    maximize:
        Whether the underlying problem is a maximization (default True).

    Every kernel call runs on numpy through :data:`repro.backend.kernels`.
    """

    def __init__(
        self,
        obj_vals: np.ndarray | PrecomputedCost,
        mixer: Mixer | Sequence[Mixer] | MixerSchedule,
        p: int | None = None,
        *,
        initial_state: np.ndarray | None = None,
        maximize: bool = True,
    ):
        if isinstance(mixer, Mixer) and p is None:
            raise ValueError("p must be given when a single mixer is supplied")
        self.schedule = schedule = as_schedule(mixer, p)

        if isinstance(obj_vals, PrecomputedCost):
            self._cost = obj_vals
        else:
            self._cost = PrecomputedCost(
                values=np.asarray(obj_vals, dtype=np.float64),
                space=schedule.space,
                maximize=maximize,
            )
        if self.cost.dim != schedule.dim:
            raise ValueError(
                f"objective values (dim {self.cost.dim}) do not match the mixer space "
                f"(dim {schedule.dim})"
            )

        if initial_state is not None:
            initial_state = np.asarray(initial_state, dtype=np.complex128)
            if initial_state.shape != (schedule.dim,):
                raise ValueError(
                    f"initial state has shape {initial_state.shape}, expected ({schedule.dim},)"
                )
            norm = np.linalg.norm(initial_state)
            if not np.isclose(norm, 1.0):
                if norm == 0:
                    raise ValueError("initial state must be non-zero")
                initial_state = initial_state / norm
        self.initial_state = initial_state
        self.maximize = bool(maximize)
        self.dim = schedule.dim
        self.p = schedule.p
        self.beta_counts = schedule.beta_counts()
        self.num_angles = sum(self.beta_counts) + schedule.p
        self.n = schedule.space.n
        # Lazily created on the first kernel call; grown (never shrunk) to
        # the largest batch seen, then reused across every call.
        self._batched_workspace: BatchedWorkspace | None = None
        #: evaluation bookkeeping shared by value and gradient calls
        self.counter = EvaluationCounter()

    # ------------------------------------------------------------------
    @classmethod
    def from_problem(
        cls,
        problem,
        mixer: Mixer | Sequence[Mixer] | MixerSchedule,
        p: int | None = None,
        *,
        initial_state: np.ndarray | None = None,
    ) -> "QAOAAnsatz":
        """Build an ansatz from a :class:`~repro.problems.registry.ProblemInstance`.

        The problem's objective values are pre-computed over its feasible
        space and its optimization sense is honoured — the bridge the
        spec-driven :func:`repro.api.solve` facade uses.  ``problem`` is any
        object with ``objective_values()``, ``space`` and ``maximize``.
        """
        cost = PrecomputedCost(
            values=np.asarray(problem.objective_values(), dtype=np.float64),
            space=problem.space,
            maximize=problem.maximize,
        )
        return cls(cost, mixer, p, initial_state=initial_state, maximize=problem.maximize)

    # ------------------------------------------------------------------
    @property
    def cost(self) -> PrecomputedCost:
        """The pre-computed objective values."""
        return self._cost

    @property
    def optimum(self) -> float:
        """Best objective value over the feasible space (by sense)."""
        return self._cost.optimum

    # ------------------------------------------------------------------
    def _ensure_batched_workspace(self, batch: int) -> BatchedWorkspace:
        if self._batched_workspace is None:
            self._batched_workspace = BatchedWorkspace(self.schedule.dim, batch)
        else:
            self._batched_workspace.ensure(batch)
        return self._batched_workspace

    def expectation_batch(self, angles: np.ndarray) -> np.ndarray:
        """``<C>`` for every row of an ``(M, num_angles)`` angle matrix.

        The batched inner loop of sweep-style angle finding: all M angle sets
        evolve simultaneously as a ``(dim, M)`` state matrix through the
        shared, pre-allocated :class:`BatchedWorkspace`.  Returns a ``(M,)``
        float array; a single flat angle vector yields a length-1 array.
        """
        angles = np.asarray(angles, dtype=np.float64)
        if angles.ndim == 1:
            angles = angles[None, :]
        workspace = self._ensure_batched_workspace(angles.shape[0])
        self.counter.forward_passes += angles.shape[0]
        return expectation_value_batch(
            angles,
            self.schedule,
            self.cost,
            initial_state=self.initial_state,
            workspace=workspace,
        )

    def value_and_gradient_batch(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Expectation values and exact adjoint gradients for M angle sets at once.

        ``angles`` is an ``(M, num_angles)`` matrix of flat angle vectors (a
        single flat vector is treated as one row).  One batched forward pass
        plus one batched adjoint backward pass produce ``(M,)`` values and
        ``(M, num_angles)`` gradients through the shared
        :class:`BatchedWorkspace` — the kernel the vectorized multi-start
        refiner advances all its restarts with.
        """
        angles = np.asarray(angles, dtype=np.float64)
        if angles.ndim == 1:
            angles = angles[None, :]
        workspace = self._ensure_batched_workspace(angles.shape[0])
        return qaoa_value_and_gradient_batch(
            angles,
            self.schedule,
            self.cost,
            initial_state=self.initial_state,
            workspace=workspace,
            counter=self.counter,
        )

    def simulate(self, angles: np.ndarray) -> QAOAResult:
        """Full simulation returning a :class:`~repro.core.simulator.QAOAResult`."""
        return simulate(
            angles,
            self.schedule,
            self.cost,
            initial_state=self.initial_state,
            workspace=self._ensure_batched_workspace(1),
            maximize=self.maximize,
        )

    def with_rounds(self, p: int) -> "QAOAAnsatz":
        """A new ansatz identical to this one but with ``p`` rounds.

        Only valid when every round uses the same mixer (the common case for
        the iterative angle-finding scheme).
        """
        mixers = set(id(m) for m in self.schedule.layers)
        if len(mixers) != 1:
            raise ValueError("with_rounds requires a schedule with a single repeated mixer")
        return QAOAAnsatz(
            self.cost,
            self.schedule.layers[0],
            p,
            initial_state=self.initial_state,
            maximize=self.maximize,
        )

    def sibling(self) -> "QAOAAnsatz":
        """An equivalent ansatz with its *own* scratch workspaces.

        The cost table, mixer schedule and initial state are shared (they are
        immutable at evaluation time); the workspaces — the only mutable
        per-evaluation scratch — are fresh.  This is what makes concurrent
        evaluation safe: one ansatz instance is **not** thread-safe, but each
        thread evaluating its own sibling is (the portfolio racer setup).
        """
        return QAOAAnsatz(
            self.cost,
            self.schedule,
            initial_state=self.initial_state,
            maximize=self.maximize,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QAOAAnsatz(n={self.n}, dim={self.dim}, p={self.p}, "
            f"maximize={self.maximize})"
        )
