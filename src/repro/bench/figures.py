"""Benchmark harness: one entry point per figure of the paper.

Every ``run_figure*`` function regenerates the data behind the corresponding
figure of the paper as a list of plain-dict rows (one per plotted point), so
the results can be printed as a table, serialized with
:func:`repro.io.results.save_rows`, or asserted against in the benchmark
suite.  Absolute numbers depend on the host; the *shapes* (who wins, how
quantities scale) are what the reproduction checks.

Sizes follow the active profile of :mod:`repro.bench.workloads`
(``REPRO_BENCH_SCALE=quick`` by default, ``=paper`` for the full-size runs).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..analysis.convergence import average_series, series_from_results
from ..analysis.metrics import normalized_approximation_ratio
from ..angles.bfgs import local_minimize
from ..angles.iterative import find_angles
from ..angles.median import evaluate_median_angles, median_angles
from ..angles.random_restart import find_angles_random
from ..baselines.circuit_qaoa import DecomposedCircuitQAOA, DenseUnitaryQAOA, GateCircuitQAOA
from ..baselines.direct import DirectQAOA
from ..core.ansatz import QAOAAnsatz
from ..grover.ansatz import CompressedGroverAnsatz
from ..grover.compress import compress_objective, hamming_weight_spectrum
from ..hpc.memory import simulator_memory_estimate
from ..mixers.grover import grover_mixer
from ..mixers.xmixer import transverse_field_mixer
from .timing import time_and_memory, time_call
from .workloads import (
    FIGURE2_CASE_LABELS,
    figure2_case,
    figure3_instances,
    figure4_graph,
    figure4a_qubit_range,
    figure4b_round_range,
    figure5_instances,
    is_paper_scale,
)

__all__ = [
    "run_figure2",
    "run_figure3",
    "run_figure4a",
    "run_figure4b",
    "run_figure5",
    "run_grover_compression",
    "figure2_case_rows",
    "figure4a_points",
    "figure4a_point_rows",
    "figure4b_points",
    "figure4b_point_rows",
    "figure5_round_values",
    "figure5_round_rows",
    "grover_dense_rows",
    "grover_large_rows",
    "format_rows",
]

_BASELINE_CLASSES: dict[str, type] = {
    "direct": DirectQAOA,
    "circuit-gate": GateCircuitQAOA,
    "circuit-decomposed": DecomposedCircuitQAOA,
    "circuit-dense": DenseUnitaryQAOA,
}

_MEMORY_KIND = {
    "direct": "direct",
    "circuit-gate": "direct",  # gate-by-gate also holds O(2^n) state only
    "circuit-decomposed": "direct",
    "circuit-dense": "dense",
}


def format_rows(rows: Sequence[dict]) -> str:
    """Render rows as an aligned plain-text table (used by examples and benches)."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    widths = {c: max(len(str(c)), max(len(_fmt(r.get(c))) for r in rows)) for c in columns}
    lines = ["  ".join(str(c).ljust(widths[c]) for c in columns)]
    lines.append("  ".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# ---------------------------------------------------------------------------
# Figure 2 — quality vs p for four problem/mixer pairs
# ---------------------------------------------------------------------------

def figure2_case_rows(
    case_index: int,
    *,
    p_max: int | None = None,
    n: int | None = None,
    seed: int | None = None,
    n_hops: int = 3,
    rng_seed: int = 0,
) -> list[dict]:
    """Rows for one of the four Figure 2 cases (one independent unit of sweep work).

    ``case_index`` indexes :data:`~repro.bench.workloads.FIGURE2_CASE_LABELS`;
    the full figure is the concatenation of the four case row lists, which is
    exactly what :func:`run_figure2` (and the sharded experiment runner)
    produce.
    """
    if p_max is None:
        p_max = 10 if is_paper_scale() else 3
    if seed is None:
        case = figure2_case(case_index, n=n)
    else:
        case = figure2_case(case_index, n=n, seed=seed)
    results = find_angles(
        p_max,
        case.mixer,
        case.cost,
        n_hops=n_hops,
        n_starts_p1=2,
        rng=rng_seed,
    )
    rows: list[dict] = []
    for p in sorted(results):
        result = results[p]
        ratio = normalized_approximation_ratio(result.value, case.cost.optimum, case.cost.worst)
        rows.append(
            {
                "figure": "2",
                "case": case.label,
                "n": case.n,
                "p": p,
                "expectation": result.value,
                "optimum": case.cost.optimum,
                "approx_ratio": ratio,
            }
        )
    return rows


def run_figure2(
    p_max: int | None = None,
    n: int | None = None,
    *,
    seed: int | None = None,
    n_hops: int = 3,
    rng_seed: int = 0,
) -> list[dict]:
    """Approximation quality versus rounds for the four Figure 2 problem/mixer pairs.

    Each row is one (case, p) point with the expectation value, the feasible
    optimum and the normalized approximation ratio achieved by the iterative
    (extrapolated basinhopping) angle finder.
    """
    rows: list[dict] = []
    for case_index in range(len(FIGURE2_CASE_LABELS)):
        rows.extend(
            figure2_case_rows(
                case_index, p_max=p_max, n=n, seed=seed, n_hops=n_hops, rng_seed=rng_seed
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 3 — angle-finding strategy comparison on a MaxCut ensemble
# ---------------------------------------------------------------------------

def run_figure3(
    p_max: int | None = None,
    num_instances: int | None = None,
    n: int | None = None,
    *,
    random_iters: int | None = None,
    n_hops: int = 3,
    rng_seed: int = 0,
) -> list[dict]:
    """Mean approximation ratio vs p for three angle-finding strategies.

    Strategies (as in Fig. 3): iterative extrapolated basinhopping, random
    local-minima exploration (best of ``random_iters`` BFGS restarts per
    instance and round), and median angles (medians of the random-restart
    results across instances, evaluated per instance).  The random-restart
    refinement runs through the vectorized multi-start engine (all restarts
    advanced in lock-step on the batched adjoint kernel), which is where the
    bulk of this figure's wall-clock goes.
    """
    if p_max is None:
        p_max = 10 if is_paper_scale() else 3
    if random_iters is None:
        random_iters = 100 if is_paper_scale() else 8
    problems = figure3_instances(num_instances=num_instances, n=n)
    mixer = transverse_field_mixer(problems[0].n)

    iterative_series = []
    random_by_round: dict[int, list[float]] = {p: [] for p in range(1, p_max + 1)}
    median_by_round: dict[int, list[float]] = {p: [] for p in range(1, p_max + 1)}
    per_round_restart_results: dict[int, list] = {p: [] for p in range(1, p_max + 1)}
    ansatze_by_round: dict[int, list[QAOAAnsatz]] = {p: [] for p in range(1, p_max + 1)}

    for idx, problem in enumerate(problems):
        cost = problem.objective_values()
        optimum, worst = float(cost.max()), float(cost.min())

        results = find_angles(p_max, mixer, cost, n_hops=n_hops, n_starts_p1=2, rng=rng_seed + idx)
        iterative_series.append(
            series_from_results(results, optimum=optimum, worst=worst, label="iterative")
        )

        for p in range(1, p_max + 1):
            ansatz = QAOAAnsatz(cost, mixer, p)
            ansatze_by_round[p].append(ansatz)
            best = find_angles_random(
                ansatz, iters=random_iters, rng=rng_seed + 1000 + idx * 100 + p
            )
            per_round_restart_results[p].append(best)
            random_by_round[p].append(normalized_approximation_ratio(best.value, optimum, worst))

    # Median angles: medians of the per-instance random-restart winners.
    for p in range(1, p_max + 1):
        medians = median_angles(per_round_restart_results[p])
        for ansatz, problem in zip(ansatze_by_round[p], problems):
            cost = problem.objective_values()
            evaluated = evaluate_median_angles(ansatz, medians)
            median_by_round[p].append(
                normalized_approximation_ratio(
                    evaluated.value, float(cost.max()), float(cost.min())
                )
            )

    mean_iterative = average_series(iterative_series)
    rows: list[dict] = []
    for p in range(1, p_max + 1):
        rows.append(
            {
                "figure": "3",
                "strategy": "extrapolated_basinhopping",
                "p": p,
                "mean_approx_ratio": mean_iterative.values[p - 1],
                "instances": len(problems),
            }
        )
        rows.append(
            {
                "figure": "3",
                "strategy": "random_restart",
                "p": p,
                "mean_approx_ratio": float(np.mean(random_by_round[p])),
                "instances": len(problems),
            }
        )
        rows.append(
            {
                "figure": "3",
                "strategy": "median_angles",
                "p": p,
                "mean_approx_ratio": float(np.mean(median_by_round[p])),
                "instances": len(problems),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 4a — time & memory vs number of qubits (p = 1 MaxCut)
# ---------------------------------------------------------------------------

def figure4a_points(
    qubit_range: Sequence[int] | None = None,
    *,
    include_dense: bool | None = None,
) -> list[tuple[str, int]]:
    """The ``(simulator, n)`` grid points of Fig. 4a, in sweep order.

    The dense-unitary baseline is capped at ``n <= 10`` (it materializes a
    ``2^n x 2^n`` matrix), mirroring the skip logic of the original loop.
    """
    if include_dense is None:
        include_dense = True
    if qubit_range is None:
        qubit_range = figure4a_qubit_range()
    points: list[tuple[str, int]] = []
    for name in _BASELINE_CLASSES:
        for n in qubit_range:
            if name == "circuit-dense" and (not include_dense or n > 10):
                continue
            points.append((name, int(n)))
    return points


def figure4a_point_rows(
    simulator: str,
    n: int,
    *,
    p: int = 1,
    repeats: int = 3,
    seed: int | None = None,
) -> list[dict]:
    """Time/memory rows for a single Fig. 4a grid point (one simulator at one ``n``)."""
    cls = _BASELINE_CLASSES[simulator]
    angles = np.random.default_rng(4).random(2 * p)
    graph = figure4_graph(n) if seed is None else figure4_graph(n, seed=seed)
    sim = cls(graph, p)
    stats = time_and_memory(lambda: sim.expectation(angles), repeats=repeats)
    return [
        {
            "figure": "4a",
            "simulator": simulator,
            "n": n,
            "p": p,
            "time_s": stats["min"],
            "peak_bytes": stats["peak_bytes"],
            "estimated_bytes": simulator_memory_estimate(n, kind=_MEMORY_KIND[simulator]),
        }
    ]


def run_figure4a(
    qubit_range: Sequence[int] | None = None,
    *,
    p: int = 1,
    repeats: int = 3,
    include_dense: bool | None = None,
    seed: int | None = None,
) -> list[dict]:
    """Per-evaluation time and memory of each simulator as ``n`` grows."""
    rows: list[dict] = []
    for simulator, n in figure4a_points(qubit_range, include_dense=include_dense):
        rows.extend(figure4a_point_rows(simulator, n, p=p, repeats=repeats, seed=seed))
    return rows


# ---------------------------------------------------------------------------
# Figure 4b — time vs number of rounds (fixed n MaxCut)
# ---------------------------------------------------------------------------

def figure4b_points(
    n: int | None = None,
    round_values: Sequence[int] | None = None,
    *,
    include_dense: bool = False,
) -> tuple[int, list[tuple[str, int]]]:
    """Resolved ``n`` and the ``(simulator, p)`` grid points of Fig. 4b, in sweep order."""
    default_n, default_rounds = figure4b_round_range()
    if n is None:
        n = default_n
    if round_values is None:
        round_values = default_rounds
    points: list[tuple[str, int]] = []
    for name in _BASELINE_CLASSES:
        if name == "circuit-dense" and (not include_dense or n > 10):
            continue
        points.extend((name, int(p)) for p in round_values)
    return int(n), points


def figure4b_point_rows(
    simulator: str,
    p: int,
    *,
    n: int | None = None,
    repeats: int = 3,
    seed: int | None = None,
) -> list[dict]:
    """Timing row for a single Fig. 4b grid point (one simulator at one ``p``).

    Angles are drawn from a per-round seeded stream so every grid point is
    self-contained (no generator state threads through the sweep), which is
    what lets the experiment runner execute points in any order or shard.
    """
    if n is None:
        n, _ = figure4b_round_range()
    cls = _BASELINE_CLASSES[simulator]
    graph = figure4_graph(n) if seed is None else figure4_graph(n, seed=seed)
    angles = np.random.default_rng((5, p)).random(2 * p)
    sim = cls(graph, p)
    stats = time_call(lambda: sim.expectation(angles), repeats=repeats)
    return [
        {
            "figure": "4b",
            "simulator": simulator,
            "n": n,
            "p": p,
            "time_s": stats["min"],
        }
    ]


def run_figure4b(
    n: int | None = None,
    round_values: Sequence[int] | None = None,
    *,
    repeats: int = 3,
    include_dense: bool = False,
    seed: int | None = None,
) -> list[dict]:
    """Per-evaluation time of each simulator as the round count ``p`` grows."""
    n, points = figure4b_points(n, round_values, include_dense=include_dense)
    rows: list[dict] = []
    for simulator, p in points:
        rows.extend(figure4b_point_rows(simulator, p, n=n, repeats=repeats, seed=seed))
    return rows


# ---------------------------------------------------------------------------
# Figure 5 — BFGS local search with adjoint vs finite-difference gradients
# ---------------------------------------------------------------------------

def run_figure5(
    round_values: Sequence[int] | None = None,
    *,
    num_instances: int | None = None,
    n: int | None = None,
    maxiter: int = 30,
    rng_seed: int = 0,
) -> list[dict]:
    """Time to find the nearest local optimum with BFGS, per gradient method.

    For each ``p`` and each instance, one BFGS run is started from the same
    random point with (a) the adjoint/autodiff-equivalent gradient and (b)
    central finite differences.  Rows report mean wall-clock time and the mean
    number of full state evolutions ("forward passes"), whose ratio exhibits
    the O(p) separation discussed in Sec. 4.
    """
    if round_values is None:
        round_values = figure5_round_values()
    rows: list[dict] = []
    for p in round_values:
        rows.extend(
            figure5_round_rows(
                p, num_instances=num_instances, n=n, maxiter=maxiter, rng_seed=rng_seed
            )
        )
    return rows


def figure5_round_values() -> list[int]:
    """The round counts swept in Fig. 5 at the active scale."""
    return list(range(1, 11)) if is_paper_scale() else [1, 2, 4, 6]


def figure5_round_rows(
    p: int,
    *,
    num_instances: int | None = None,
    n: int | None = None,
    maxiter: int = 30,
    rng_seed: int = 0,
) -> list[dict]:
    """Both gradient-method rows for a single Fig. 5 round count ``p``.

    Start points are drawn from a per-round seeded stream (one draw per
    instance, shared by both gradient methods) so rounds are independent
    units of work.
    """
    problems = figure5_instances(num_instances=num_instances, n=n)
    mixer = transverse_field_mixer(problems[0].n)
    rng = np.random.default_rng((rng_seed, p))
    times: dict[str, list[float]] = {"adjoint": [], "finite": []}
    passes: dict[str, list[float]] = {"adjoint": [], "finite": []}
    for problem in problems:
        cost = problem.objective_values()
        x0 = 2.0 * np.pi * rng.random(2 * p)
        for method in ("adjoint", "finite"):
            ansatz = QAOAAnsatz(cost, mixer, p)
            ansatz.counter.reset()
            stats = time_call(
                lambda m=method, a=ansatz: local_minimize(a, x0, gradient=m, maxiter=maxiter),
                repeats=1,
                warmup=0,
            )
            times[method].append(stats["min"])
            passes[method].append(ansatz.counter.forward_passes)
    rows: list[dict] = []
    for method in ("adjoint", "finite"):
        rows.append(
            {
                "figure": "5",
                "method": "autodiff" if method == "adjoint" else "finite_difference",
                "n": problems[0].n,
                "p": p,
                "mean_time_s": float(np.mean(times[method])),
                "mean_forward_passes": float(np.mean(passes[method])),
                "instances": len(problems),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Sec. 2.4 — Grover-mixer compression
# ---------------------------------------------------------------------------

def run_grover_compression(
    dense_qubits: Sequence[int] = (8, 10, 12),
    large_qubits: Sequence[int] = (40, 100),
    *,
    p: int = 4,
    repeats: int = 3,
) -> list[dict]:
    """Dense vs compressed Grover-QAOA simulation, plus compressed-only large-n runs.

    For moderate ``n`` both representations are timed on the same MaxCut
    instance (and agree numerically); for large ``n`` only the compressed path
    is feasible, demonstrated on a Hamming-weight objective whose degeneracies
    are known analytically.
    """
    rows: list[dict] = []
    for n in dense_qubits:
        rows.extend(grover_dense_rows(n, p=p, repeats=repeats))
    for n in large_qubits:
        rows.extend(grover_large_rows(n, p=p, repeats=repeats))
    return rows


def grover_dense_rows(n: int, *, p: int = 4, repeats: int = 3) -> list[dict]:
    """Dense-vs-compressed timing rows for one moderate-``n`` Grover-QAOA instance."""
    from ..hilbert.states import state_matrix
    from ..problems.maxcut import maxcut_values

    angles = np.random.default_rng(6).random(2 * p)
    graph = figure4_graph(n)
    obj = maxcut_values(graph, state_matrix(n))
    spectrum = compress_objective(obj)
    mixer = grover_mixer(n)

    ansatz = QAOAAnsatz(obj, mixer, p)
    compressed = CompressedGroverAnsatz(spectrum, p, n=n)
    dense_stats = time_call(lambda: ansatz.expectation(angles), repeats=repeats)
    comp_stats = time_call(lambda: compressed.expectation(angles), repeats=repeats)
    return [
        {
            "figure": "grover",
            "representation": "dense",
            "n": n,
            "p": p,
            "distinct_values": spectrum.num_distinct,
            "time_s": dense_stats["min"],
        },
        {
            "figure": "grover",
            "representation": "compressed",
            "n": n,
            "p": p,
            "distinct_values": spectrum.num_distinct,
            "time_s": comp_stats["min"],
        },
    ]


def grover_large_rows(n: int, *, p: int = 4, repeats: int = 3) -> list[dict]:
    """Compressed-only timing row for one large-``n`` Hamming-weight objective."""
    angles = np.random.default_rng(6).random(2 * p)
    spectrum = hamming_weight_spectrum(n, lambda w: float(min(w, n - w)))
    compressed = CompressedGroverAnsatz(spectrum, p, n=n)
    stats = time_call(lambda: compressed.expectation(angles), repeats=repeats)
    return [
        {
            "figure": "grover",
            "representation": "compressed",
            "n": n,
            "p": p,
            "distinct_values": spectrum.num_distinct,
            "time_s": stats["min"],
        }
    ]
