"""The sharded :class:`~repro.core.engine.Engine`: shard workers behind the ansatz surface.

:class:`ShardedAnsatz` implements the batched kernels, ``simulate`` and
``optimum`` on the shard workers and inherits the single-row calls, the
``loss`` family, ``random_angles`` and the context-manager protocol from
:class:`~repro.core.engine.Engine`, so the registered angle strategies (grid,
random-restart BFGS, vectorized multi-start, basinhopping, median) drive a
statevector they could never allocate locally.

``dim`` reports the *global* dimension: batched strategies use it only for
accounting, and the per-worker residency is what actually bounds batch
width.
"""

from __future__ import annotations

import numpy as np

from ...core.engine import Engine
from ...core.gradients import EvaluationCounter
from ...mixers.base import Mixer
from .executor import ShardedExecutor

__all__ = ["ShardedAnsatz", "ShardedSimulation"]


class ShardedSimulation:
    """Final state of one sharded evolution.

    Scalars (expectation, optimal-state probability, norm) are reduced
    eagerly at construction; per-label quantities (``probabilities``,
    ``sample``) stream through the live executor and therefore require it to
    still be open *and* to still hold this evolution's state (a later
    evolution on the same executor overwrites the buffers).
    """

    def __init__(self, executor: ShardedExecutor, angles: np.ndarray, scalars: dict):
        self._executor = executor
        self.angles = np.asarray(angles, dtype=np.float64).copy()
        self._expectation = float(scalars["expectation"])
        self._gsp = float(scalars["ground_state_probability"])
        self._norm = float(scalars["norm"])

    def expectation(self) -> float:
        """``<C>`` over the feasible space."""
        return self._expectation

    def ground_state_probability(self) -> float:
        """Total probability of measuring an optimal state."""
        return self._gsp

    def norm(self) -> float:
        """Statevector norm (should be 1 up to round-off)."""
        return self._norm

    def _live_executor(self) -> ShardedExecutor:
        if self._executor is None or self._executor._closed:
            raise RuntimeError(
                "the sharded executor backing this simulation is closed; "
                "per-label quantities (probabilities/sample) are only "
                "available while the shard workers are alive"
            )
        return self._executor

    def probabilities(self) -> np.ndarray:
        """Per-label sampling probabilities (small dims only — gathers)."""
        state = self._live_executor().gather_state()
        return np.abs(state) ** 2

    def statevector(self) -> np.ndarray:
        """The gathered final state (small dims only)."""
        return self._live_executor().gather_state()

    def sample(self, shots: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Draw measurement outcomes (labels) without gathering the state."""
        return self._live_executor().sample(shots, rng)


class ShardedAnsatz(Engine):
    """Sharded QAOA engine.

    Parameters
    ----------
    problem:
        A :class:`~repro.problems.registry.ProblemInstance` (the
        flip-symmetric half of one, from
        :func:`~repro.core.symmetry.flip_half`, runs on ``n - 1``
        qubits and reports full-space results).
    mixer:
        The mixer over the problem's space, as
        :func:`repro.api.mixers.make_mixer` builds it: an ``x``,
        ``multiangle_x`` or uniform ``grover`` mixer, folded
        (:meth:`~repro.mixers.base.Mixer.flip_folded`) for a flip-symmetric
        half.  The workers read its terms, never its ``2^n`` arrays.
    p:
        Number of QAOA rounds.
    shards:
        Worker count (see :class:`ShardedExecutor` constraints).
    """

    def __init__(self, problem, mixer: Mixer, p: int, shards: int):
        self.executor = ShardedExecutor(problem, mixer, p, shards)
        self.maximize = bool(problem.maximize)
        self.dim = int(problem.dim)
        self.p = int(p)
        self.n = int(problem.n) + problem.flip_pairs  # the problem's qubits
        self.beta_counts = self.executor.beta_counts
        self._total_betas = sum(self.beta_counts)
        self.num_angles = self.executor.num_angles
        self.counter = EvaluationCounter()

    # ------------------------------------------------------------------
    @property
    def optimum(self) -> float:
        """Best objective value over the feasible space (by sense)."""
        return self.executor.optimum

    # ------------------------------------------------------------------
    def expectation_batch(self, angles: np.ndarray) -> np.ndarray:
        """``<C>`` for every row of an ``(M, num_angles)`` angle matrix."""
        angles = np.atleast_2d(np.asarray(angles, dtype=np.float64))
        self.counter.forward_passes += angles.shape[0]
        return self.executor.expectation_batch(angles)

    def value_and_gradient_batch(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched expectations and exact sharded adjoint gradients."""
        angles = np.atleast_2d(np.asarray(angles, dtype=np.float64))
        self.counter.forward_passes += angles.shape[0]
        self.counter.hamiltonian_applications += angles.shape[0] * self._total_betas
        return self.executor.value_and_gradient_batch(angles)

    def simulate(self, angles: np.ndarray) -> ShardedSimulation:
        """Full evolution returning a :class:`ShardedSimulation`."""
        angles = np.asarray(angles, dtype=np.float64).ravel()
        scalars = self.executor.simulate(angles)
        return ShardedSimulation(self.executor, angles, scalars)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the shard workers and release all shared memory."""
        self.executor.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedAnsatz(n={self.n}, dim={self.executor.dim}, "
            f"shards={self.executor.shards}, mixer={type(self.executor.mixer).__name__}, "
            f"p={self.p})"
        )
