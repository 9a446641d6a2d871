"""The unified solver facade: ``solve(spec)`` / :class:`QAOASolver`.

One call runs the paper's whole toolchain — regenerate the problem instance,
pre-compute its objective values, build the mixer over the feasible space,
hand the ansatz to a registered angle strategy, and simulate the best angles
— returning a rich :class:`SolveResult`.  The spec is routed to one of three
:class:`~repro.core.engine.Engine` subclasses (dense
:class:`~repro.core.ansatz.QAOAAnsatz`, sharded or compressed Grover); the
solver only talks to that common surface — batched values and gradients,
``simulate``, ``optimum`` and ``close`` — so the strategies ride the batched
evaluation and adjoint-gradient kernels of whichever engine was chosen.

The existing free functions (``simulate``, ``grid_search``,
``find_angles_random``, ...) remain the low-level layer; ``solve`` is a thin,
declarative composition of them, which is what makes spec-for-spec
equivalence with the legacy calls testable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from ..angles.result import AngleResult
from ..core.ansatz import QAOAAnsatz
from ..core.engine import Engine
from ..core.simulator import QAOAResult
from ..core.symmetry import flip_half, flip_reducible
from ..mixers.base import Mixer
from ..portfolio.budget import Budget
from ..problems.registry import ProblemInstance
from .mixers import MIXERS, make_mixer
from .routing import (
    ExecutionPlan,
    clear_routing_memo,
    memoized_problem,
    select_execution_path,
    spectrum_for,
)
from .spec import SolveSpec
from .strategies import run_strategy

__all__ = [
    "SolveResult",
    "QAOASolver",
    "solve",
    "memoized_problem",
    "clear_problem_memo",
]

#: The problem memo lives in :mod:`repro.api.routing`; clearing it clears
#: the memoized spectra too, so nothing memoized survives a cold start.
clear_problem_memo = clear_routing_memo


@dataclass
class SolveResult:
    """Everything one spec-driven solve produced.

    Attributes
    ----------
    spec:
        The exact :class:`~repro.api.spec.SolveSpec` that was run.
    angles:
        Best flat angle vector found (betas then gammas).
    value:
        Expectation value ``<C>`` at those angles.
    optimum:
        Brute-force optimum over the feasible space.
    approximation_ratio:
        ``value / optimum``, or ``None`` when the optimum is not positive
        (where the ratio is meaningless).
    ground_state_probability:
        Total probability of sampling an optimal state at the best angles.
    evaluations:
        Expectation/gradient evaluations the strategy spent.
    strategy:
        Canonical name of the strategy that produced the angles.
    wall_time_s:
        Wall-clock seconds for the angle search plus the final simulation.
    setup_s:
        Seconds the solver spent on construction (problem, objective values,
        mixer, engine) before this result's search.  ``solve()`` reports
        it, as does the first result of a warm-pool entry; a re-run of a
        live :class:`QAOASolver`, a reused warm-pool entry and a cache hit
        report 0.0, since they built nothing.
    angle_result:
        The strategy's full normalized :class:`AngleResult` (history included),
        or ``None`` on a result reconstructed from a cached row.
    simulation:
        The :class:`~repro.core.simulator.QAOAResult` at the best angles
        (sampling probabilities, amplitudes, ...), or ``None`` on a result
        reconstructed from a cached row.
    cached:
        ``True`` when this result was answered from the spec-keyed result
        cache without running the simulator.
    execution:
        Which engine produced the result: ``"dense"``, ``"sharded"`` or
        ``"compressed"`` (see :mod:`repro.api.routing`).
    timed_out:
        ``True`` when the angle search was stopped early by a deadline or
        cancellation — ``angles``/``value`` are then the best found in time.
    """

    spec: SolveSpec
    angles: np.ndarray
    value: float
    optimum: float
    approximation_ratio: float | None
    ground_state_probability: float
    evaluations: int
    strategy: str
    wall_time_s: float
    angle_result: AngleResult | None = field(repr=False, default=None)
    simulation: QAOAResult | None = field(repr=False, default=None)
    cached: bool = False
    execution: str = "dense"
    timed_out: bool = False
    setup_s: float = 0.0

    def probabilities(self) -> np.ndarray:
        """Sampling probabilities over the feasible space at the best angles."""
        if self.simulation is None:
            raise ValueError(
                "no simulation attached (cache-reconstructed result); "
                "re-run solve() with the result cache disabled for the full state"
            )
        return self.simulation.probabilities()

    def sample(self, shots: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Draw measurement outcomes from the final state."""
        if self.simulation is None:
            raise ValueError(
                "no simulation attached (cache-reconstructed result); "
                "re-run solve() with the result cache disabled for the full state"
            )
        return self.simulation.sample(shots, rng=rng)

    @classmethod
    def from_row(
        cls,
        spec: SolveSpec,
        row: Mapping[str, Any],
        *,
        cached: bool = True,
        wall_time_s: float | None = None,
    ):
        """Rebuild the scalar portion of a result from its stored row.

        The inverse of :meth:`to_row` up to the fields a flat row cannot carry
        (``angle_result`` history and the final statevector stay ``None``) —
        this is how a result-cache hit materializes without any simulation.
        ``wall_time_s`` overrides the stored timing — a cache hit passes the
        (tiny) time it took to *answer*, so every result row carries the wall
        time this response actually cost, never a stale copy.  A ``cached``
        result built nothing, so its ``setup_s`` is 0.0; otherwise the stored
        construction time is kept.
        """
        ratio = row.get("approximation_ratio")
        return cls(
            spec=spec,
            angles=np.asarray(row["angles"], dtype=np.float64),
            value=float(row["value"]),
            optimum=float(row["optimum"]),
            approximation_ratio=None if ratio is None else float(ratio),
            ground_state_probability=float(row["ground_state_probability"]),
            evaluations=int(row.get("evaluations", 0)),
            strategy=str(row["strategy"]),
            wall_time_s=float(
                row.get("wall_time_s", 0.0) if wall_time_s is None else wall_time_s
            ),
            cached=cached,
            execution=str(row.get("execution", "dense")),
            timed_out=bool(row.get("timed_out", False)),
            setup_s=0.0 if cached else float(row.get("setup_s", 0.0)),
        )

    def to_row(self) -> dict:
        """Flat JSON-serializable summary row (what sweeps store per solve).

        Component names are canonicalized (case variants of one family must
        group together downstream) and params are carried along, so rows from
        specs differing only in params stay distinguishable in a run store.
        """
        mixer_name = self.spec.mixer.name
        if mixer_name in MIXERS:
            mixer_name = MIXERS.canonical(mixer_name)
        return {
            "problem": self.spec.problem.name.lower(),
            "n": self.spec.problem.n,
            "problem_seed": self.spec.problem.seed,
            "problem_params": dict(self.spec.problem.params),
            "mixer": mixer_name,
            "mixer_params": dict(self.spec.mixer.params),
            "strategy": self.strategy,
            "strategy_params": dict(self.spec.strategy.params),
            "p": self.spec.p,
            "seed": self.spec.seed,
            "value": float(self.value),
            "optimum": float(self.optimum),
            "approximation_ratio": (
                None if self.approximation_ratio is None else float(self.approximation_ratio)
            ),
            "ground_state_probability": float(self.ground_state_probability),
            "evaluations": int(self.evaluations),
            "angles": [float(a) for a in self.angles],
            "wall_time_s": float(self.wall_time_s),
            "execution": self.execution,
            "timed_out": bool(self.timed_out),
            "setup_s": float(self.setup_s),
        }


class QAOASolver:
    """A :class:`SolveSpec` resolved into live objects, ready to run.

    Construction regenerates the problem instance, pre-computes its objective
    values and builds the mixer; :meth:`run` executes the angle strategy and
    final simulation.  Keep the solver around to re-run the same spec with
    different seeds (the expensive pre-computation is reused)::

        solver = QAOASolver(spec)
        results = [solver.run(seed=s) for s in range(10)]

    ``plan`` optionally pins the execution path (an
    :class:`~repro.api.routing.ExecutionPlan`); by default
    :func:`~repro.api.routing.select_execution_path` routes the spec to the
    dense, sharded or compressed engine.  On the dense and sharded engines a
    flip-symmetric problem under a flip-invariant mixer runs on ``n - 1``
    qubits (:func:`~repro.core.symmetry.flip_reducible`, decided here from
    the problem, the mixer and the plan's shard count, as routing decides
    it; ``plan.flip_reduced`` reports it, for a pinned plan too).  Every
    engine reads the one memoized problem
    (:func:`~repro.api.routing.memoized_problem`).  The dense and sharded
    engines take the one mixer the registry builds
    (:func:`~repro.api.mixers.make_mixer`, kept as ``mixer``) and fold it
    with :meth:`~repro.mixers.base.Mixer.flip_folded`; neither builds a
    label array beyond the objective's (the sharded engine: none, its
    workers evaluate their own chunks).  ``problem`` is set for dense
    solvers only; compressed solvers leave ``problem`` and ``mixer``
    ``None``, and every engine carries its own optimum.  Sharded solvers own
    worker processes; call :meth:`close` (or use ``solve()``, which does)
    when finished.

    The construction seconds are reported once, as ``setup_s`` of the first
    result this solver produces.
    """

    def __init__(
        self,
        spec: SolveSpec | Mapping[str, Any],
        *,
        plan: ExecutionPlan | None = None,
    ):
        started = time.perf_counter()
        if not isinstance(spec, SolveSpec):
            spec = SolveSpec.from_dict(spec)
        self.spec = spec
        if plan is None:
            plan = select_execution_path(spec)
        problem = memoized_problem(spec.problem)
        self.problem: ProblemInstance | None = None
        self.mixer: Mixer | None = None
        flip = False
        if plan.path == "compressed":
            from ..grover.ansatz import CompressedGroverAnsatz

            spectrum = spectrum_for(spec.problem)
            if spectrum is None:  # pragma: no cover - the router checked this
                raise RuntimeError("compressed plan without an obtainable spectrum")
            self.ansatz = CompressedGroverAnsatz(
                spectrum,
                spec.p,
                n=problem.n,
                maximize=problem.maximize,
            )
        else:
            # a flip-symmetric problem runs on n - 1 qubits with the folded
            # mixer; the full-space mixer built here only describes the spec
            # (its spectrum is built on first use, which folding avoids)
            self.mixer = make_mixer(spec.mixer.name, problem.space, **spec.mixer.params)
            if plan.path == "sharded":
                from ..hpc.sharded import ShardedAnsatz

                mixer = self.mixer
                flip = flip_reducible(problem, mixer, shards=plan.shards)
                if flip:
                    mixer, problem = mixer.flip_folded(), flip_half(problem)
                self.ansatz = ShardedAnsatz(problem, mixer, spec.p, plan.shards)
            else:
                self.problem = problem
                self.ansatz = QAOAAnsatz.from_problem(problem, self.mixer, spec.p)
                flip = self.ansatz.cost.flip_pairs
        # a pinned plan reports the reduction the engine was built with
        self.plan = replace(plan, flip_reduced=flip)
        #: construction seconds not yet reported by a result
        self._unreported_setup_s = time.perf_counter() - started

    @classmethod
    def from_components(
        cls,
        spec: SolveSpec,
        problem: ProblemInstance | None,
        mixer: Mixer | None,
        ansatz: Engine,
        *,
        plan: ExecutionPlan,
        setup_s: float = 0.0,
    ) -> "QAOASolver":
        """Wrap already-built components (the warm pool's entry) as a solver.

        Skips all construction work — this is how the solver service runs a
        spec on a pooled problem/mixer/ansatz without re-deriving anything.
        ``problem``/``mixer`` are ``None`` for pooled non-dense engines, and
        ``plan`` is the one the components were built for.  ``setup_s`` is
        the components' construction time not yet reported by any result;
        the solver's first result reports it.
        """
        solver = cls.__new__(cls)
        solver.spec = spec
        solver.problem = problem
        solver.mixer = mixer
        solver.ansatz = ansatz
        solver.plan = plan
        solver._unreported_setup_s = setup_s
        return solver

    def close(self) -> None:
        """Release engine resources (shard workers); dense/compressed: no-op."""
        self.ansatz.close()

    def find_angles(
        self,
        *,
        seed: int | None = None,
        budget=None,
        on_incumbent=None,
    ) -> AngleResult:
        """Run just the angle strategy (``seed`` overrides the spec's).

        ``budget`` (a :class:`~repro.portfolio.budget.Budget`) and
        ``on_incumbent`` thread the anytime plumbing into the strategy; they
        are only forwarded when set, so spec params stay the strategy's own.
        """
        rng_seed = self.spec.seed if seed is None else seed
        extra = {}
        if budget is not None:
            extra["budget"] = budget
        if on_incumbent is not None:
            extra["on_incumbent"] = on_incumbent
        return run_strategy(
            self.spec.strategy.name,
            self.ansatz,
            rng=np.random.default_rng(rng_seed),
            **self.spec.strategy.params,
            **extra,
        )

    def result_from_angles(
        self,
        angle_result: AngleResult,
        *,
        seed: int | None = None,
        started: float | None = None,
    ) -> SolveResult:
        """Final simulation + metrics for an already-found angle result.

        ``started`` is a ``time.perf_counter()`` origin for ``wall_time_s``
        (0.0 when omitted); the coalescer times each request externally and
        passes its own origin here.
        """
        simulation = self.ansatz.simulate(angle_result.angles)
        wall_time = 0.0 if started is None else time.perf_counter() - started
        setup_s, self._unreported_setup_s = self._unreported_setup_s, 0.0

        optimum = float(self.ansatz.optimum)
        ratio = float(angle_result.value) / optimum if optimum > 0 else None
        spec = self.spec
        if seed is not None and seed != spec.seed:
            spec = SolveSpec(
                problem=spec.problem,
                mixer=spec.mixer,
                strategy=spec.strategy,
                p=spec.p,
                seed=seed,
            )
        return SolveResult(
            spec=spec,
            angles=angle_result.angles,
            value=float(angle_result.value),
            optimum=optimum,
            approximation_ratio=ratio,
            ground_state_probability=simulation.ground_state_probability(),
            evaluations=int(angle_result.evaluations),
            strategy=angle_result.strategy,
            wall_time_s=wall_time,
            angle_result=angle_result,
            simulation=simulation,
            execution=self.plan.path,
            timed_out=bool(angle_result.timed_out),
            setup_s=setup_s,
        )

    def run(
        self,
        *,
        seed: int | None = None,
        timeout_s: float | None = None,
        budget=None,
        on_incumbent=None,
    ) -> SolveResult:
        """Full solve: angle search, final simulation, metrics.

        ``timeout_s`` bounds the angle search with a fresh
        :class:`~repro.portfolio.budget.Budget` (nested inside ``budget`` when
        both are given): on expiry the strategy returns its best-so-far angles
        and the result reports ``timed_out=True`` instead of raising.
        """
        started = time.perf_counter()
        if timeout_s is not None:
            budget = Budget(timeout_s, parent=budget)
        angle_result = self.find_angles(seed=seed, budget=budget, on_incumbent=on_incumbent)
        return self.result_from_angles(angle_result, seed=seed, started=started)


def solve(
    spec: SolveSpec | Mapping[str, Any] | None = None,
    *,
    timeout_s: float | None = None,
    **kwargs,
) -> SolveResult:
    """Run one declarative QAOA solve.

    Either pass a ready :class:`SolveSpec` (or its dict form)::

        result = solve(SolveSpec(problem=ProblemSpec("maxcut", 8), mixer="x",
                                 strategy="random", p=3, seed=0))

    or use the flat keyword form, which builds the spec via
    :meth:`SolveSpec.build`::

        result = solve(problem="maxcut", n=8, mixer="x", strategy="random", p=3)

    ``timeout_s`` deadline-bounds the angle search for *any* strategy; the
    result then reports ``timed_out=True`` with the best-so-far angles
    (deadlines are runtime conditions, deliberately not part of the spec —
    cache keys stay timing-free).
    """
    if spec is None:
        spec = SolveSpec.build(**kwargs)
    elif kwargs:
        raise TypeError("pass either a spec or keyword arguments, not both")
    solver = QAOASolver(spec)
    try:
        return solver.run(timeout_s=timeout_s)
    finally:
        solver.close()
