"""Anytime portfolio benchmark: time-to-quality racing on the clique workload.

The portfolio's claim is an *anytime* one: racing several strategies against a
shared incumbent should (a) never do worse than the best single racer at any
deadline, and (b) reach a fixed quality bar much sooner than the worst racer
would alone.  This harness measures both on the service benchmark's
densest-subgraph workload — the C(11,5)=462-state Dicke subspace with the
diagonalized clique mixer, p=2 — plus a smaller C(8,4)=70-state instance for
the CI smoke profile:

* each contender first runs *standalone* with the exact RNG stream racer ``i``
  would get (:func:`~repro.portfolio.racing.racer_rng`), recording its anytime
  trail — the measurement the race results are compared against;
* the portfolio then races the same lineup at each swept deadline, recording
  the shared incumbent trail, per-racer finals, and the wall-clock return
  envelope.

Gates (recorded per instance in ``BENCH_portfolio.json``):

* **quality** — at every deadline the portfolio's value is at least every
  racer's value at that deadline (within ``1e-10`` relative tolerance);
* **determinism** — at deadlines where the race converges, every racer final
  matches its standalone run and the portfolio returns the best of them;
* **speedup** — the portfolio reaches ``QUALITY_FRACTION`` (95%) of the best
  final value at least ``SPEEDUP_GATE`` (2x) faster than the slowest
  contender does standalone;
* **envelope** — a timed-out race returns within ``deadline * 1.1`` plus a
  small absolute slack for scheduler jitter;
* **monotone** — every recorded trail improves strictly.

The contender lineup deliberately includes a slow closer (scipy-loop random
restarts with finite-difference gradients): it anchors the worst-case
time-to-quality the portfolio must beat, while still finding a strong final
value — exactly the racer a fixed single-strategy choice would regret.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Mapping, Sequence

import numpy as np

from ..api.solver import QAOASolver
from ..api.spec import SolveSpec
from ..api.strategies import run_strategy
from ..portfolio.racing import DEFAULT_RACERS, race_portfolio, racer_rng

__all__ = [
    "CONTENDERS",
    "QUALITY_FRACTION",
    "QUALITY_GATE_TOL",
    "SPEEDUP_GATE",
    "contender_point",
    "race_point",
    "sweep_instance",
    "sweep_points",
    "run_sweep",
    "portfolio_rows",
]

#: The benchmark lineup: the vectorized lock-step refiner (fast first
#: incumbent), the scipy random-restart baseline, and a deliberately slow
#: finite-difference closer that anchors the worst-case time-to-quality.
CONTENDERS: tuple[dict, ...] = (
    {"name": "multistart", "params": {"iters": 8}},
    {"name": "random", "params": {"iters": 6, "vectorized": False}},
    {"name": "random", "params": {"iters": 30, "vectorized": False, "gradient": "finite"}},
)

#: The quality bar of the time-to-quality measurement (95% of the best final).
QUALITY_FRACTION = 0.95

#: Relative tolerance of the per-deadline quality gate (fp noise only).
QUALITY_GATE_TOL = 1e-10

#: The portfolio must reach the quality bar this many times faster than the
#: slowest standalone contender.
SPEEDUP_GATE = 2.0

#: Return envelope of a timed-out race: ``deadline * (1 + fraction) + slack``.
#: The fraction is the contract (T + 10%); the absolute slack absorbs
#: scheduler jitter on loaded CI runners at sub-second deadlines.
ENVELOPE_FRACTION = 0.10
ENVELOPE_SLACK_S = 0.15


def _workload_spec(n: int, k: int, p: int = 2) -> SolveSpec:
    return SolveSpec.build(
        problem="densest_subgraph",
        n=n,
        problem_params={"k": k},
        mixer="clique",
        strategy="portfolio",
        p=p,
    )


def _build_ansatz(n: int, k: int, p: int = 2):
    return QAOASolver(_workload_spec(n, k, p)).ansatz


def quality_threshold(best: float, *, maximize: bool, fraction: float = QUALITY_FRACTION) -> float:
    """The value that counts as ``fraction`` of the way to ``best``."""
    slack = (1.0 - fraction) * abs(best)
    return best - slack if maximize else best + slack


def time_to_quality(
    trail: Sequence[Sequence[float]], threshold: float, *, maximize: bool
) -> float | None:
    """First trail timestamp at or past ``threshold`` (``None``: never reached)."""
    for t, value in trail:
        if value >= threshold if maximize else value <= threshold:
            return float(t)
    return None


def _monotone(values: Sequence[float], maximize: bool) -> bool:
    pairs = zip(values, values[1:])
    return all(b > a for a, b in pairs) if maximize else all(b < a for a, b in pairs)


def contender_point(ansatz, index: int, contender: Mapping, seed: int) -> dict:
    """Run one contender standalone with racer ``index``'s exact RNG stream."""
    trail: list[list[float]] = []
    start = time.perf_counter()

    def record(value: float, _angles: np.ndarray) -> None:
        trail.append([time.perf_counter() - start, float(value)])

    result = run_strategy(
        contender["name"],
        ansatz,
        rng=racer_rng(seed, index),
        on_incumbent=record,
        **dict(contender.get("params", {})),
    )
    return {
        "kind": "contender",
        "racer": index,
        "name": contender["name"],
        "params": dict(contender.get("params", {})),
        "value": float(result.value),
        "evaluations": int(result.evaluations),
        "seconds": time.perf_counter() - start,
        "trail": trail,
    }


def race_point(
    ansatz,
    racers: Sequence[Mapping],
    deadline_s: float,
    seed: int,
    *,
    cancel_laggards: bool = False,
) -> dict:
    """One portfolio race; laggard cancellation is off so racer finals stay
    bit-comparable to the standalone contender runs."""
    start = time.perf_counter()
    outcome = race_portfolio(
        ansatz,
        racers=[dict(r) for r in racers],
        deadline_s=deadline_s,
        rng=seed,
        cancel_laggards=cancel_laggards,
    )
    elapsed = time.perf_counter() - start
    return {
        "kind": "race",
        "deadline_s": float(deadline_s),
        "value": float(outcome.result.value),
        "timed_out": bool(outcome.result.timed_out),
        "winner": outcome.winner,
        "evaluations": int(outcome.result.evaluations),
        "seconds": elapsed,
        "racer_values": [r["value"] for r in outcome.racers],
        "trail": [[e["t"], e["value"]] for e in outcome.trail],
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= QUALITY_GATE_TOL * (1.0 + abs(b))


def sweep_instance(point: Mapping, *, contenders: Sequence[Mapping] = CONTENDERS) -> dict:
    """Measure one instance: standalone contenders, then races at each deadline."""
    n, k = int(point["n"]), int(point["k"])
    seed = int(point.get("seed", 0))
    ansatz = _build_ansatz(n, k)
    maximize = ansatz.maximize
    pick = max if maximize else min

    contender_rows = [
        contender_point(ansatz, index, contender, seed)
        for index, contender in enumerate(contenders)
    ]
    best_final = pick(row["value"] for row in contender_rows)
    threshold = quality_threshold(best_final, maximize=maximize)
    for row in contender_rows:
        t = time_to_quality(row["trail"], threshold, maximize=maximize)
        row["time_to_quality_s"] = t
        # A contender that never crossed is at least as slow as its full run,
        # so its runtime is a valid lower bound for the worst-case comparison.
        row["time_to_quality_bound_s"] = t if t is not None else row["seconds"]
    worst_time = max(row["time_to_quality_bound_s"] for row in contender_rows)

    race_rows = [
        race_point(ansatz, contenders, deadline, seed) for deadline in point["deadlines"]
    ]
    for row in race_rows:
        finished = [v for v in row["racer_values"] if v is not None]
        bar = pick(finished) if finished else None
        row["quality_gate_passed"] = bar is None or (
            row["value"] >= bar - QUALITY_GATE_TOL * (1.0 + abs(bar))
            if maximize
            else row["value"] <= bar + QUALITY_GATE_TOL * (1.0 + abs(bar))
        )
        envelope = row["deadline_s"] * (1.0 + ENVELOPE_FRACTION) + ENVELOPE_SLACK_S
        row["within_envelope"] = row["seconds"] <= envelope
        row["within_10pct"] = row["seconds"] <= row["deadline_s"] * (1.0 + ENVELOPE_FRACTION)
        row["monotone_trail"] = _monotone([v for _, v in row["trail"]], maximize)
        if not row["timed_out"]:
            row["matches_standalone"] = all(
                value is not None and _close(value, contender_rows[i]["value"])
                for i, value in enumerate(row["racer_values"])
            ) and _close(row["value"], best_final)

    converged = [row for row in race_rows if not row["timed_out"]]
    portfolio_time = None
    if converged:
        portfolio_time = time_to_quality(converged[-1]["trail"], threshold, maximize=maximize)
    speedup = None if not portfolio_time else worst_time / portfolio_time

    gates = {
        "quality": all(row["quality_gate_passed"] for row in race_rows),
        "determinism": bool(converged)
        and all(row["matches_standalone"] for row in converged),
        "speedup": speedup is not None and speedup >= SPEEDUP_GATE,
        "envelope": all(row["within_envelope"] for row in race_rows),
        "monotone": all(row["monotone_trail"] for row in race_rows)
        and all(_monotone([v for _, v in row["trail"]], maximize) for row in contender_rows),
    }
    return {
        "n": n,
        "k": k,
        "dim": ansatz.dim,
        "seed": seed,
        "best_final": best_final,
        "quality_threshold": threshold,
        "worst_time_to_quality_s": worst_time,
        "portfolio_time_to_quality_s": portfolio_time,
        "speedup": speedup,
        "gates": gates,
        "all_gates_passed": all(gates.values()),
        "contenders": contender_rows,
        "races": race_rows,
    }


def sweep_points(scale: str) -> list[dict]:
    """The instance schedule of one sweep profile.

    Both profiles stay at dimensions where solve time dominates the ~0.1 s
    thread-startup overhead of a race — on toy instances every contender
    converges before the race can possibly pay for itself, and the speedup
    gate would measure nothing but scheduler noise.
    """
    if scale == "quick":
        return [{"n": 11, "k": 5, "deadlines": (2.0, 20.0)}]
    if scale == "full":
        return [
            {"n": 10, "k": 5, "deadlines": (2.0, 15.0)},
            {"n": 11, "k": 5, "deadlines": (2.0, 5.0, 20.0)},
        ]
    raise ValueError(f"unknown sweep scale {scale!r} (choose 'quick' or 'full')")


def run_sweep(scale: str, out_path: str) -> dict:
    """Run a sweep profile and write the benchmark document to ``out_path``."""
    records = []
    for point in sweep_points(scale):
        record = sweep_instance(point)
        records.append(record)
        print(
            json.dumps(
                {
                    key: record[key]
                    for key in (
                        "n", "k", "dim", "best_final", "worst_time_to_quality_s",
                        "portfolio_time_to_quality_s", "speedup", "gates",
                    )
                }
            ),
            flush=True,
        )
    document = {
        "benchmark": "portfolio_anytime",
        "scale": scale,
        "unit": "seconds (wall), expectation value (quality)",
        "numpy": np.__version__,
        "quality_fraction": QUALITY_FRACTION,
        "quality_gate_tol": QUALITY_GATE_TOL,
        "speedup_gate": SPEEDUP_GATE,
        "envelope": {"fraction": ENVELOPE_FRACTION, "slack_s": ENVELOPE_SLACK_S},
        "all_gates_passed": all(record["all_gates_passed"] for record in records),
        "records": records,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return document


# ---------------------------------------------------------------------------
# `repro run portfolio` executor (anytime curves through the run store)
# ---------------------------------------------------------------------------


def portfolio_rows(
    instance: Mapping,
    deadline_s: float,
    racers: Sequence[Mapping] | None = None,
    p: int = 2,
    seed: int = 0,
) -> list[dict]:
    """One race of the ``portfolio`` experiment: a summary row plus the trail.

    ``instance`` is ``{"problem": name, "n": ..., "mixer": ...}`` with optional
    ``"problem_params"``.  Event rows carry the anytime curve so a report can
    assert monotone improvement without re-running anything.
    """
    instance = dict(instance)
    spec = SolveSpec.build(
        problem=str(instance["problem"]),
        n=int(instance["n"]),
        problem_params=dict(instance.get("problem_params", {})),
        mixer=str(instance.get("mixer", "x")),
        strategy="portfolio",
        p=int(p),
        seed=int(seed),
    )
    ansatz = QAOASolver(spec).ansatz
    lineup = [dict(r) for r in (DEFAULT_RACERS if racers is None else racers)]
    start = time.perf_counter()
    outcome = race_portfolio(ansatz, racers=lineup, deadline_s=float(deadline_s), rng=int(seed))
    elapsed = time.perf_counter() - start

    base = {
        "problem": spec.problem.name,
        "n": spec.problem.n,
        "mixer": spec.mixer.name,
        "p": spec.p,
        "deadline_s": float(deadline_s),
    }
    values = [event["value"] for event in outcome.trail]
    rows = [
        {
            **base,
            "kind": "summary",
            "value": float(outcome.result.value),
            "winner": outcome.winner,
            "winner_name": lineup[outcome.winner]["name"] if outcome.winner >= 0 else None,
            "timed_out": bool(outcome.result.timed_out),
            "evaluations": int(outcome.result.evaluations),
            "wall_time_s": elapsed,
            "events": len(outcome.trail),
            "monotone": _monotone(values, ansatz.maximize),
        }
    ]
    rows.extend(
        {
            **base,
            "kind": "event",
            "t": event["t"],
            "value": event["value"],
            "source": event["source"],
        }
        for event in outcome.trail
    )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.portfolio",
        description="Anytime portfolio racing benchmark (time-to-quality gates).",
    )
    parser.add_argument("--scale", choices=["quick", "full"], default="quick")
    parser.add_argument("--out", default="BENCH_portfolio.json")
    args = parser.parse_args(argv)
    document = run_sweep(args.scale, args.out)
    print(f"wrote {args.out}: all_gates_passed={document['all_gates_passed']}")
    return 0 if document["all_gates_passed"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
