"""Deadline-aware strategy racing with a shared incumbent.

:func:`race_portfolio` runs several registered angle strategies concurrently
inside one process (one thread per racer, each evaluating its own
:meth:`~repro.core.ansatz.QAOAAnsatz.sibling` so the cost table and mixer
schedule are shared but the mutable scratch is not) against one wall-clock
deadline.  Racers publish every improvement to a shared
:class:`~repro.portfolio.budget.IncumbentBoard`; a monitor cancels racers
that provably — incumbent already at the known optimum — or, optionally, by a
generous linear extrapolation of their own improvement rate, cannot beat the
incumbent with their remaining budget.  The race ends when every racer
converges, the incumbent hits the optimum, or the deadline passes; the result
is the best incumbent plus the full anytime curve.

Determinism: each racer draws from a seed derived only from ``(base seed,
racer index)`` (:func:`racer_rng`), so a racer inside the portfolio is
bit-identical to the same strategy run standalone with that derived seed, and
the winner is picked by value (with the repo's standard fp-noise tolerance,
ties to the lowest racer index) — never by publish timing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..angles.result import AngleResult
from ..core.ansatz import QAOAAnsatz
from .budget import Budget, IncumbentBoard

__all__ = [
    "DEFAULT_RACERS",
    "PortfolioResult",
    "race_portfolio",
    "racer_rng",
    "racer_seed_key",
]

#: The default racer lineup: the vectorized lock-step refiner (usually the
#: fastest to a good incumbent), the scipy random-restart baseline, and
#: basinhopping (the paper's default inner loop, slower but a strong closer).
DEFAULT_RACERS: tuple[dict, ...] = (
    {"name": "multistart", "params": {"iters": 8}},
    {"name": "random", "params": {"iters": 6, "vectorized": False}},
    {"name": "basinhop", "params": {"n_hops": 4}},
)

#: First-best-wins tolerance for the winner pick (matches
#: :func:`repro.angles.random_restart.select_best_restart`).
_WINNER_RTOL = 1e-10


def racer_seed_key(seed: int | None, index: int) -> np.random.SeedSequence:
    """The seed material racer ``index`` derives its RNG from."""
    return np.random.SeedSequence((0 if seed is None else int(seed), int(index)))


def racer_rng(seed: int | None, index: int) -> np.random.Generator:
    """The exact RNG racer ``index`` of a race seeded with ``seed`` uses.

    Exposed so benchmarks and tests can run a contender *standalone* with the
    same stream and compare its result bit-for-bit against the racer's.
    """
    return np.random.default_rng(racer_seed_key(seed, index))


@dataclass
class PortfolioResult:
    """Everything one race produced.

    ``result`` is the winning :class:`~repro.angles.result.AngleResult`
    (strategy name ``"portfolio"``); ``trail`` the board's monotone anytime
    curve; ``racers`` one report dict per racer (name, final value,
    evaluations, wall time, timed_out/cancelled flags); ``winner`` the index
    of the racer whose result won.
    """

    result: AngleResult
    trail: list[dict] = field(default_factory=list)
    racers: list[dict] = field(default_factory=list)
    winner: int = -1


def _better(value: float, incumbent: float, maximize: bool) -> bool:
    tol = _WINNER_RTOL * (1.0 + abs(incumbent))
    return (value > incumbent + tol) if maximize else (value < incumbent - tol)


def race_portfolio(
    ansatz: QAOAAnsatz,
    *,
    racers: Sequence[dict] | None = None,
    deadline_s: float | None = None,
    rng: np.random.Generator | int | None = None,
    budget: Budget | None = None,
    cancel_laggards: bool = True,
    min_observation_s: float = 0.05,
    poll_interval_s: float | None = None,
) -> PortfolioResult:
    """Race ``racers`` against ``deadline_s`` seconds, sharing one incumbent.

    Parameters
    ----------
    racers:
        Racer specs, each ``{"name": <registry name>, "params": {...}}``
        (default :data:`DEFAULT_RACERS`).  A racer may not itself be the
        portfolio.
    deadline_s:
        Wall-clock deadline for the whole race (``None``: run every racer to
        natural convergence — the race is then just a parallel sweep).
    rng:
        Base seed.  Only the integer seed matters (a ``Generator`` is not
        consumed — racer streams must be derivable standalone); each racer
        ``i`` uses :func:`racer_rng` ``(seed, i)``.
    budget:
        Optional enclosing budget (e.g. ``repro solve --timeout``); the race
        deadline nests inside it.
    cancel_laggards:
        Also cancel racers whose *extrapolated* improvement (their average
        rate so far, projected over their remaining budget — a generous
        linear bound) cannot reach the incumbent.  The provable cancellation
        (incumbent already at the known optimum) is always on.
    min_observation_s:
        Never rate-cancel a racer before it has run this long.
    poll_interval_s:
        Monitor polling period (default: ``deadline_s / 50`` clamped to
        [1 ms, 50 ms]).
    """
    # Lazy: the registry imports the angles package, which imports
    # repro.portfolio.budget — importing it here keeps module import acyclic.
    from ..api.strategies import STRATEGIES, run_strategy

    racer_specs = [dict(r) for r in (DEFAULT_RACERS if racers is None else racers)]
    if not racer_specs:
        raise ValueError("at least one racer is required")
    for spec in racer_specs:
        if "name" not in spec:
            raise ValueError(f"racer spec {spec!r} has no 'name'")
        if STRATEGIES.canonical(spec["name"]) == "portfolio":
            raise ValueError("the portfolio cannot race itself")
    if not hasattr(ansatz, "sibling"):
        raise ValueError(
            "portfolio racing needs per-thread ansatz siblings (dense engine); "
            f"{type(ansatz).__name__} does not support sibling()"
        )

    if isinstance(rng, np.random.Generator):
        # A generator cannot be re-derived standalone; draw one base seed
        # from it so the race stays reproducible given the same generator
        # state.
        base_seed = int(rng.integers(2**31 - 1))
    else:
        base_seed = None if rng is None else int(rng)

    maximize = ansatz.maximize
    board = IncumbentBoard(maximize=maximize, optimum=float(ansatz.optimum))
    race_budget = Budget(deadline_s, parent=budget)

    n = len(racer_specs)
    children = [race_budget.child() for _ in range(n)]
    finals: list[AngleResult | None] = [None] * n
    errors: list[BaseException | None] = [None] * n
    progress: list[dict] = [
        {"first": None, "best": None, "started": None, "done": False} for _ in range(n)
    ]

    def run_racer(i: int) -> None:
        spec = racer_specs[i]
        name = spec["name"]
        params = dict(spec.get("params", {}))
        state = progress[i]
        state["started"] = race_budget.elapsed()

        def publish(value: float, angles: np.ndarray) -> None:
            if state["first"] is None:
                state["first"] = float(value)
                state["best"] = float(value)
            elif _better(value, state["best"], maximize):
                state["best"] = float(value)
            board.publish(value, angles, source=f"{i}:{name}")

        try:
            result = run_strategy(
                name,
                ansatz.sibling(),
                rng=racer_rng(base_seed, i),
                budget=children[i],
                on_incumbent=publish,
                **params,
            )
            finals[i] = result
            publish(result.value, result.angles)
        except BaseException as exc:  # noqa: BLE001 - reported per racer
            errors[i] = exc
        finally:
            state["done"] = True

    threads = [
        threading.Thread(target=run_racer, args=(i,), name=f"racer-{i}", daemon=True)
        for i in range(n)
    ]
    for t in threads:
        t.start()

    if poll_interval_s is None:
        poll_interval_s = 0.05 if deadline_s is None else min(0.05, max(1e-3, deadline_s / 50.0))

    cancelled = [False] * n
    while any(t.is_alive() for t in threads):
        if race_budget.exhausted():
            break
        if board.done():
            # Provable: the incumbent already matches the known optimum, no
            # remaining budget can beat it.
            for child in children:
                child.cancel()
            break
        if cancel_laggards:
            incumbent = board.value()
            now = race_budget.elapsed()
            for i in range(n):
                state = progress[i]
                if cancelled[i] or state["done"] or state["best"] is None or incumbent is None:
                    continue
                elapsed_i = now - (state["started"] or 0.0)
                if elapsed_i < min_observation_s:
                    continue
                if not _better(incumbent, state["best"], maximize):
                    continue  # the racer holds (a tie of) the incumbent
                # Generous linear bound: project the racer's average
                # improvement rate over its remaining time.
                rate = abs(state["best"] - state["first"]) / max(elapsed_i, 1e-9)
                reachable = rate * children[i].remaining()
                if reachable < abs(incumbent - state["best"]):
                    children[i].cancel()
                    cancelled[i] = True
        next_alive = [t for t in threads if t.is_alive()]
        if next_alive:
            next_alive[0].join(timeout=poll_interval_s)

    # Grace period: the kernels poll per iteration/evaluation, so racers exit
    # promptly once the deadline passes; a stuck thread is abandoned (daemon)
    # rather than blowing the caller's T + 10% return envelope.
    grace = 0.5 if deadline_s is None else max(0.02, 0.08 * deadline_s)
    join_deadline = race_budget.elapsed() + grace
    for t in threads:
        left = join_deadline - race_budget.elapsed()
        if left <= 0:
            break
        t.join(timeout=left)

    for exc in errors:
        if exc is not None:
            raise exc

    # Deterministic winner: first-best-wins over racer finals in index order
    # (publish timing never decides), with the board as a safety net for a
    # racer thread that was abandoned mid-publish.
    winner = -1
    best_value: float | None = None
    for i, result in enumerate(finals):
        if result is None:
            continue
        if best_value is None or _better(result.value, best_value, maximize):
            winner = i
            best_value = result.value
    snapshot = board.best() if any(f is None for f in finals) else None
    if snapshot is not None and (best_value is None or _better(snapshot[0], best_value, maximize)):
        board_value, board_angles, board_source = snapshot
        winner = int(board_source.split(":", 1)[0]) if ":" in board_source else -1
        winning_angles = np.asarray(board_angles, dtype=np.float64)
        best_value = float(board_value)
    elif winner >= 0:
        winning_angles = np.asarray(finals[winner].angles, dtype=np.float64)
    else:
        raise RuntimeError("no racer produced a result (zero evaluations before deadline?)")

    # The race timed out only if its wall-clock budget truncated the search
    # (racer child budgets chain to it, so a racer cut off by the deadline
    # implies this).  Laggard cancellation and the found-the-known-optimum
    # early exit are successes — the per-racer reports keep the detail.
    timed_out = race_budget.exhausted()
    reports = []
    for i, spec in enumerate(racer_specs):
        result = finals[i]
        reports.append(
            {
                "racer": i,
                "name": spec["name"],
                "params": dict(spec.get("params", {})),
                "value": None if result is None else float(result.value),
                "evaluations": 0 if result is None else int(result.evaluations),
                "timed_out": bool(result.timed_out) if result is not None else True,
                "cancelled": bool(cancelled[i]),
                "finished": result is not None,
            }
        )

    summary = AngleResult(
        angles=winning_angles,
        value=float(best_value),
        p=ansatz.p,
        evaluations=sum(r["evaluations"] for r in reports),
        strategy="portfolio",
        history=[{"winner": winner, "racers": reports, "deadline_s": deadline_s}],
        timed_out=timed_out,
    )
    return PortfolioResult(result=summary, trail=board.trail(), racers=reports, winner=winner)
