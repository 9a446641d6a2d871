"""The benchmark's workloads, their output checks and their metrics.

``run.py`` isolates the environment and then calls :func:`run` once per
process.  Every workload builds its inputs from the seed, measures for about
``seconds`` seconds and then checks every output it produced (outside the
timed region).  ``README.md`` beside this file says why each workload exists
and which per-layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg  # noqa: F401  (imported lazily by the X mixer; keep it warm)

import repro.hpc.sharded  # noqa: F401  (imported lazily by QAOASolver; keep it warm)
import spans
from repro.api.routing import ExecutionPlan, clear_routing_memo
from repro.api.solver import QAOASolver, clear_problem_memo
from repro.api.spec import SolveSpec
from repro.io.cache import ResultCache
from repro.service.core import SolverService

#: a returned value, re-evaluated at its angles on a freshly built engine
VALUE_TOL = 1e-9
#: sharded vs dense engine, and service responses vs one-shot ``solve()``
ENGINE_TOL = 1e-10

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("evals_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("burst_rps", "1/s"),
]

#: (name, unit) of every per-layer metric, in report order.  Times and call
#: counts are per operation (one cold solve, or one service request).
PER_LAYER = [
    ("problems.build_s", "s"),
    ("problems.objective_s", "s"),
    ("core.precompute.levels_s", "s"),
    ("mixers.build_s", "s"),
    ("api.route_s", "s"),
    ("api.setup_s", "s"),
    ("hpc.sharded.start_s", "s"),
    ("angles.search_s", "s"),
    ("angles.evaluations", "count"),
    ("angles.kernel_calls", "count"),
    ("angles.mean_batch", "columns"),
    ("core.simulator.forward_s", "s"),
    ("core.simulator.forward_calls", "count"),
    ("core.simulator.self_s", "s"),
    ("core.gradients.grad_s", "s"),
    ("core.gradients.self_s", "s"),
    ("mixers.apply_s", "s"),
    ("mixers.apply_calls", "count"),
    ("mixers.hamiltonian_s", "s"),
    ("backend.wht_s", "s"),
    ("backend.wht_calls", "count"),
    ("backend.wht_gflop", "GFLOP"),
    ("backend.wht_gflop_per_s", "GFLOP/s"),
    ("backend.gemm_s", "s"),
    ("api.final_sim_s", "s"),
    ("hpc.sharded.forward_s", "s"),
    ("hpc.sharded.grad_s", "s"),
    ("hpc.sharded.round_trips", "count"),
    ("service.queue_wait_s", "s"),
    ("service.batch_size", "count"),
    ("service.coalesced_ratio", "ratio"),
    ("service.group_solve_s", "s"),
    ("service.pool.build_s", "s"),
    ("service.pool.misses", "count"),
    ("service.pool.hits", "count"),
    ("io.cache.get_s", "s"),
    ("io.cache.put_s", "s"),
    ("io.cache.hit_ratio", "ratio"),
    ("service.generator_lag_s", "s"),
    ("service.latency_samples", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
]


@dataclass(frozen=True)
class BatchWorkload:
    """Cold ``solve()`` calls of one spec family, back to back (one client)."""

    problem: str
    n: int
    mixer: str
    p: int
    strategy: str
    strategy_params: dict
    #: every solve's approximation ratio must reach this
    ar_floor: float
    #: distinct problem instances per run (each solve still starts cold)
    instances: int = 4
    #: re-evaluate one result per run on the dense engine (sharded workload)
    dense_check: bool = False

    def spec(self, instance: int, seed: int = 0) -> SolveSpec:
        return SolveSpec.build(
            self.problem, self.n, problem_seed=instance, mixer=self.mixer,
            strategy=self.strategy, strategy_params=self.strategy_params, p=self.p, seed=seed,
        )


@dataclass(frozen=True)
class ServiceWorkload:
    """An open-loop Poisson request stream into one in-process SolverService."""

    n: int = 11
    k: int = 5
    p: int = 2
    iters: int = 4
    maxiter: int = 5
    instances: int = 4
    rate: float = 6.0  # offered requests per second
    min_requests: int = 100  # so that ten samples lie beyond p90
    stream_share: float = 0.7  # of --seconds; bursts, references and setups share the rest
    repeat_share: float = 1.0 / 3.0  # requests that repeat an earlier spec exactly
    burst: int = 64
    # The stream runs in this many segments, each followed by one burst, then
    # by its share of the one-shot references and setup-only constructions.
    # The host's speed drifts over seconds, so a metric sampled in one short
    # window of the run follows the drift; interleaved, each spans the run.
    rounds: int = 6
    # responses re-solved one-shot and timed cold, over all rounds; a solve
    # takes about 70 ms, so these sample about 6 s of the run
    references: int = 96
    ar_floor: float = 0.4

    def spec(self, instance: int, seed: int) -> SolveSpec:
        return SolveSpec.build(
            "densest_subgraph", self.n, problem_seed=instance, problem_params={"k": self.k},
            mixer="clique", strategy="random",
            strategy_params={"iters": self.iters, "maxiter": self.maxiter}, p=self.p, seed=seed,
        )


WORKLOADS = {
    "dense_x_n18": BatchWorkload(
        "maxcut", 18, "x", 2, "multistart", {"iters": 1, "maxiter": 1, "gtol": 1e9},
        ar_floor=0.3,
    ),
    "sweep_x_n12": BatchWorkload(
        "maxcut", 12, "x", 2, "grid", {"resolution": 12}, ar_floor=0.7,
    ),
    "sharded_x_n20": BatchWorkload(
        "maxcut", 20, "x", 1, "grid", {"resolution": 4}, ar_floor=0.6, dense_check=True,
    ),
    "service_clique_n11": ServiceWorkload(),
}

#: setup-only repetitions: at least this many ...
MIN_SETUPS = 5
#: ... and more while they stay under this share of the time measured
SETUP_SHARE = 0.1
#: ... but at most this many in one go
MAX_SETUPS = 50
#: fewest solves per run, whatever ``--seconds`` says
MIN_OPS = 2
#: request seeds of the bursts start here, above every stream seed
BURST_SEED_BASE = 10**6
#: a stream request with no same-instance request this close was served alone
ALONE_MARGIN_S = 0.25


@dataclass
class Outcome:
    """What one workload run produced."""

    metrics: dict  # name -> float, end-to-end or per-layer depending on trace
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _cold() -> None:
    """Empty the in-process memos so the next construction starts cold."""
    clear_problem_memo()
    clear_routing_memo()
    gc.collect()


def _agrees(value: float, reference: float, tol: float) -> bool:
    return abs(value - reference) <= tol * max(1.0, abs(reference))


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _own_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class _Solve:
    spec: SolveSpec
    traced: bool
    setup_s: float = 0.0
    solve_s: float = 0.0
    search_s: float = 0.0
    evaluations: int = 0
    worker_peak_mb: float = 0.0
    #: the returned angles, value and approximation ratio (the final state is
    #: dropped, so memory does not grow with the number of solves in a run)
    angles: np.ndarray | None = None
    value: float = 0.0
    ratio: float | None = None
    error: str | None = None


def _timed_solve(spec: SolveSpec, rec: spans.Recorder, traced: bool, root: str) -> _Solve:
    """One cold ``solve()``: ``QAOASolver(spec)``, ``run()``, ``close()``."""
    _cold()
    out = _Solve(spec, traced)
    rec.enabled = traced
    span = rec.open(root) if traced else None
    solver = None
    try:
        t0 = time.perf_counter()
        solver = QAOASolver(spec)
        t1 = time.perf_counter()
        result = solver.run()
        t2 = time.perf_counter()
        out.angles, out.value = result.angles, result.value
        out.ratio = result.approximation_ratio
        del result
        executor = getattr(solver.ansatz, "executor", None)
        if executor is not None:  # sharded: the workers hold the state
            rec.enabled = False
            out.worker_peak_mb = executor.rss()["max_peak"] / 2**20
            rec.enabled = traced
        t3 = time.perf_counter()
        solver.close()
        t4 = time.perf_counter()
        out.setup_s, out.search_s = t1 - t0, t2 - t1
        out.solve_s = (t2 - t0) + (t4 - t3)
        out.evaluations = int(solver.ansatz.counter.forward_passes)
    except Exception:  # noqa: BLE001 - a failed solve is counted, not fatal
        out.error = traceback.format_exc()
        if solver is not None:
            solver.close()
    finally:
        if span is not None:
            rec.close(span)
        rec.enabled = False
    return out


def _setup_reps(make_spec, budget_s: float, min_reps: int, expected_s: float,
                start: int = 0) -> list[float]:
    """Cold constructions only (``QAOASolver(spec)`` then ``close()``): at least
    ``min_reps``, then more while the next (expected to take ``expected_s``)
    still fits in ``budget_s``, up to ``MAX_SETUPS``."""
    times: list[float] = []
    begin = time.perf_counter()
    while len(times) < min_reps or (
        len(times) < MAX_SETUPS and time.perf_counter() - begin + expected_s <= budget_s
    ):
        spec = make_spec(start + len(times))
        _cold()
        t0 = time.perf_counter()
        solver = QAOASolver(spec)
        times.append(time.perf_counter() - t0)
        solver.close()
        expected_s = times[-1]
    return times


def _fresh_values(spec: SolveSpec, angles: list[np.ndarray], plan=None) -> np.ndarray:
    """``<C>`` at each angle vector on a freshly built engine for ``spec``."""
    _cold()
    solver = QAOASolver(spec, plan=plan)
    try:
        return np.asarray(solver.ansatz.expectation_batch(np.vstack(angles)), dtype=float)
    finally:
        solver.close()


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

def _layer_metrics(rec: spans.Recorder, roots: set[str], ops: int, busy, counters: dict,
                   extra: dict) -> dict:
    """Per-operation layer totals over the spans under the ``roots`` spans.

    ``busy`` lists the intervals the benchmark timed (solves, or requests from
    due time to completion); ``trace.coverage`` is the share of that time
    during which some layer span was open — on one thread, the summed self
    times of the layer spans over the traced wall time.
    """
    selfs = rec.self_times()
    root_of = rec.roots()
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    queue_waits = []
    covered = []
    for index, span in enumerate(rec.spans):
        if span[2] is None or rec.spans[root_of[index]][0] not in roots:
            continue
        name, length = span[0], span[2] - span[1]
        total[name] = total.get(name, 0.0) + length
        own[name] = own.get(name, 0.0) + selfs[index]
        calls[name] = calls.get(name, 0) + 1
        if name == "service.queue":
            queue_waits.append(length)
        if not name.startswith("bench."):
            covered.append((span[1], span[2]))
    busy = spans.merged(busy)
    busy_s = sum(end - start for start, end in busy)
    ops = max(ops, 1)

    def per(value: float) -> float:
        return value / ops

    kernel_calls = counters.get("angles.kernel_calls", 0.0)
    wht_gflop = counters.get("backend.wht_flop", 0.0) / 1e9
    batches = counters.get("service.batches", 0.0)
    metrics = {
        "problems.build_s": per(total.get("problems.build", 0.0)),
        "problems.objective_s": per(total.get("problems.objective", 0.0)),
        "core.precompute.levels_s": per(total.get("core.precompute.levels", 0.0)),
        "mixers.build_s": per(total.get("mixers.build", 0.0)),
        "api.route_s": per(total.get("api.route", 0.0)),
        "api.setup_s": per(total.get("api.setup", 0.0)),
        "hpc.sharded.start_s": per(total.get("hpc.sharded.start", 0.0)),
        "angles.search_s": per(total.get("angles.search", 0.0)),
        "angles.evaluations": per(counters.get("angles.evaluations", 0.0)),
        "angles.kernel_calls": per(kernel_calls),
        "angles.mean_batch": (
            counters.get("angles.evaluations", 0.0) / kernel_calls if kernel_calls else 0.0
        ),
        "core.simulator.forward_s": per(total.get("core.simulator.forward", 0.0)),
        "core.simulator.forward_calls": per(calls.get("core.simulator.forward", 0)),
        "core.simulator.self_s": per(own.get("core.simulator.forward", 0.0)),
        "core.gradients.grad_s": per(total.get("core.gradients.grad", 0.0)),
        "core.gradients.self_s": per(own.get("core.gradients.grad", 0.0)),
        "mixers.apply_s": per(total.get("mixers.apply", 0.0)),
        "mixers.apply_calls": per(calls.get("mixers.apply", 0)),
        "mixers.hamiltonian_s": per(total.get("mixers.hamiltonian", 0.0)),
        "backend.wht_s": per(total.get("backend.wht", 0.0)),
        "backend.wht_calls": per(calls.get("backend.wht", 0)),
        "backend.wht_gflop": per(wht_gflop),
        "backend.wht_gflop_per_s": (
            wht_gflop / total["backend.wht"] if total.get("backend.wht") else 0.0
        ),
        "backend.gemm_s": per(total.get("backend.gemm", 0.0)),
        "api.final_sim_s": per(total.get("api.final_sim", 0.0)),
        "hpc.sharded.forward_s": per(total.get("hpc.sharded.forward", 0.0)),
        "hpc.sharded.grad_s": per(total.get("hpc.sharded.grad", 0.0)),
        "hpc.sharded.round_trips": per(calls.get("hpc.sharded.round_trip", 0)),
        "service.queue_wait_s": _median(queue_waits),
        "service.batch_size": (
            counters.get("service.batched_requests", 0.0) / batches if batches else 0.0
        ),
        "service.group_solve_s": per(total.get("service.group_solve", 0.0)),
        "service.pool.build_s": per(total.get("service.pool.build", 0.0)),
        "io.cache.get_s": per(total.get("io.cache.get", 0.0)),
        "io.cache.put_s": per(total.get("io.cache.put", 0.0)),
        "io.cache.hit_ratio": (
            counters.get("io.cache.hits", 0.0) / counters["io.cache.gets"]
            if counters.get("io.cache.gets") else 0.0
        ),
        "trace.coverage": (
            spans.overlap_length(spans.merged(covered), busy) / busy_s if busy_s else 0.0
        ),
    }
    for name, _ in PER_LAYER:
        metrics.setdefault(name, 0.0)
    metrics.update(extra)
    return metrics


def _overhead(solves: list[_Solve]) -> float:
    """Traced over untraced median solve time, minus one."""
    traced = [s.solve_s for s in solves if s.traced and s.error is None]
    plain = [s.solve_s for s in solves if not s.traced and s.error is None]
    if not traced or not plain:
        return 0.0
    return _median(traced) / _median(plain) - 1.0


# ---------------------------------------------------------------------------
# batch workloads: cold solves back to back
# ---------------------------------------------------------------------------

def _warm_up(spec: SolveSpec) -> None:
    """One small solve of the workload's family: imports, BLAS threads, workers."""
    solver = QAOASolver(spec)
    try:
        solver.run()
    finally:
        solver.close()


def run_batch(w: BatchWorkload, seed: int, seconds: float,
              rec: spans.Recorder, trace: bool) -> Outcome:
    rng = np.random.default_rng([seed, w.n])
    instances = [int(x) for x in rng.integers(0, 2**31 - 1, size=w.instances)]
    small = dict(w.strategy_params)
    if w.strategy == "grid":
        small["resolution"] = 2
    _warm_up(SolveSpec.build(w.problem, 8, mixer=w.mixer, strategy=w.strategy,
                             strategy_params=small, p=w.p))

    def setup_spec(i: int) -> SolveSpec:
        return w.spec(instances[i % len(instances)])

    begin = time.perf_counter()
    setups = _setup_reps(setup_spec, SETUP_SHARE * seconds / 2, MIN_SETUPS, 0.0)
    solves: list[_Solve] = []
    # stop before a solve that would end past the budget (at least MIN_OPS)
    while len(solves) < MIN_OPS or (
        time.perf_counter() - begin + _median(s.solve_s for s in solves) <= seconds
    ):
        i = len(solves)
        spec = w.spec(instances[i % len(instances)], seed=seed * 1000 + i)
        solves.append(_timed_solve(spec, rec, trace and i % 2 == 1, "bench.op"))
        # setup-only repetitions spread over the run, not bunched at its start
        setups += _setup_reps(setup_spec, SETUP_SHARE * solves[-1].solve_s, 0,
                              _median(setups), start=len(setups))
    elapsed = time.perf_counter() - begin
    peak_mb = max([_own_peak_mb()] + [s.worker_peak_mb for s in solves])

    # -- output checks (untimed) -------------------------------------------
    failed = {i for i, s in enumerate(solves) if s.error is not None}
    failures = [f"solve {i} raised:\n{solves[i].error}" for i in sorted(failed)]
    by_instance: dict[int, list[int]] = {}
    for i, s in enumerate(solves):
        if i not in failed:
            by_instance.setdefault(s.spec.problem.seed, []).append(i)
    for members in by_instance.values():
        spec = solves[members[0]].spec
        fresh = _fresh_values(spec, [solves[i].angles for i in members])
        for i, value in zip(members, fresh):
            s = solves[i]
            if not _agrees(float(value), s.value, VALUE_TOL):
                failed.add(i)
                failures.append(f"solve {i}: fresh engine gives {value!r}, "
                                f"solve returned {s.value!r}")
            if s.ratio is None or s.ratio < w.ar_floor:
                failed.add(i)
                failures.append(f"solve {i}: approximation ratio {s.ratio} < {w.ar_floor}")
    if w.dense_check and by_instance:
        i = next(iter(by_instance.values()))[0]
        plan = ExecutionPlan("dense", "benchmark reference", 2**w.n)
        value = float(_fresh_values(solves[i].spec, [solves[i].angles], plan=plan)[0])
        if not _agrees(value, solves[i].value, ENGINE_TOL):
            failed.add(i)
            failures.append(f"solve {i}: dense engine gives {value!r}, "
                            f"sharded returned {solves[i].value!r}")

    good = [s for i, s in enumerate(solves) if i not in failed]
    plain = [s for s in good if not s.traced]
    times = [s.solve_s for s in plain]
    details = {
        "solves": len(solves),
        "setup_reps": len(setups),
        "elapsed_s": elapsed,
        "solve_s": times,
        "setup_s": setups + [s.setup_s for s in plain],
        "evaluations": [s.evaluations for s in good],
        "approximation_ratios": [s.ratio for s in good],
        "latency_samples": len(times),
    }
    if trace:
        traced = [s for s in good if s.traced]
        busy = []
        for span in rec.spans:
            if span[0] == "bench.op" and span[2] is not None:
                busy.append((span[1], span[2]))
        metrics = _layer_metrics(
            rec, {"bench.op"}, len(traced), busy, dict(rec.counters),
            {"trace.overhead": _overhead(solves), "service.latency_samples": 0.0},
        )
    else:
        metrics = {
            "setup_s": _median(details["setup_s"]),
            "solve_s": _median(times),
            "evals_per_s": _median(s.evaluations / s.search_s for s in plain),
            "peak_rss_mb": peak_mb,
            "latency_p50_s": _median(times),
            "latency_p90_s": _p90(times),
            "burst_rps": len(times) / sum(times) if times else 0.0,
        }
    return Outcome(metrics, len(solves), len(failed), failures, details)


# ---------------------------------------------------------------------------
# service workload: open-loop stream, then bursts, then one-shot references
# ---------------------------------------------------------------------------

@dataclass
class _Request:
    spec: SolveSpec
    instance: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    result: object = None
    error: str | None = None


def _stream_plan(w: ServiceWorkload, rng: np.random.Generator, seconds: float):
    """``(offset_s, instance, seed)`` per request: Poisson arrivals at ``w.rate``;
    about ``w.repeat_share`` of the requests repeat an earlier one exactly."""
    count = max(w.min_requests, round(w.rate * seconds * w.stream_share))
    plan, issued, offset = [], [], 0.0
    for _ in range(count):
        offset += float(rng.exponential(1.0 / w.rate))
        if issued and rng.random() < w.repeat_share:
            key = issued[int(rng.integers(len(issued)))]
        else:
            key = (int(rng.integers(w.instances)), int(rng.integers(BURST_SEED_BASE)))
            issued.append(key)
        plan.append((offset,) + key)
    return plan


async def _send(service: SolverService, request: _Request) -> _Request:
    request.sent = time.perf_counter()
    try:
        request.result = await service.submit(request.spec)
    except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
        request.error = traceback.format_exc()
    request.done = time.perf_counter()
    return request


async def _drive(service, w: ServiceWorkload, plan, instances, rec, trace, between):
    """The open-loop stream from one event loop in ``w.rounds`` segments; each
    segment is followed by one burst and then by ``between(segment)``."""
    stream, bursts = [], []
    previous = 0.0  # plan offset of the last request of the previous segment
    for b, chunk in enumerate(np.array_split(np.arange(len(plan)), w.rounds)):
        rec.enabled = trace
        root = rec.open("bench.stream") if trace else None
        base = time.perf_counter() + 0.05
        tasks = []
        for offset, instance, seed in (plan[i] for i in chunk):
            # Poisson arrivals are memoryless: the stream resumes where it paused
            due = base + offset - previous
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            request = _Request(w.spec(instances[instance], seed), instance, due)
            rec.due[id(request.spec)] = due
            tasks.append(asyncio.ensure_future(_send(service, request)))
        previous = plan[chunk[-1]][0]
        segment = list(await asyncio.gather(*tasks))
        stream += segment
        if root is not None:
            rec.close(root)

        root = rec.open("bench.burst") if trace else None
        instance = b % len(instances)
        due = time.perf_counter()
        requests = []
        for j in range(w.burst):
            spec = w.spec(instances[instance], BURST_SEED_BASE + b * w.burst + j)
            rec.due[id(spec)] = due
            requests.append(_Request(spec, instance, due))
        done = await asyncio.gather(*(_send(service, r) for r in requests))
        bursts.append((time.perf_counter() - due, list(done)))
        if root is not None:
            rec.close(root)
        rec.enabled = False
        between(segment)
    return stream, bursts


def run_service(w: ServiceWorkload, seed: int, seconds: float, rec: spans.Recorder,
                trace: bool, work) -> Outcome:
    rng = np.random.default_rng([seed, w.n])
    instances = [int(x) for x in rng.integers(0, 2**31 - 1, size=w.instances)]
    plan = _stream_plan(w, rng, seconds)
    _warm_up(SolveSpec.build("densest_subgraph", 6, problem_params={"k": 3}, mixer="clique",
                             strategy="random", strategy_params={"iters": 2, "maxiter": 2}))
    _cold()

    service = SolverService(result_cache=ResultCache(work / "results"))
    picks: list[_Request] = []
    references: list[_Solve] = []
    setups: list[float] = []
    per_round = -(-w.references // w.rounds)

    def between(segment: list[_Request]) -> None:
        # One-shot cold solves of answered stream specs: solve_s, setup_s and
        # the service-vs-solve() agreement check.  Only requests no other
        # request for the same instance came near are sampled: those were
        # served alone, the path that must match solve() to round-off even for
        # a truncated search.
        alone = [
            r for r in segment
            if r.error is None and not r.result.cached and all(
                o is r or o.instance != r.instance or abs(o.due - r.due) > ALONE_MARGIN_S
                for o in segment
            )
        ]
        for j in range(per_round if alone else 0):
            picks.append(alone[j % len(alone)])
            service_counters = dict(rec.counters)
            references.append(_timed_solve(picks[-1].spec, rec, trace and len(picks) % 2 == 0,
                                           "bench.reference"))
            rec.counters.clear()  # the per-layer counters are the service's alone
            rec.counters.update(service_counters)
        setups.extend(_setup_reps(lambda i: w.spec(instances[i % len(instances)], 0),
                                  SETUP_SHARE * seconds / w.rounds,
                                  0 if setups else MIN_SETUPS, _median(setups),
                                  start=len(setups)))

    try:
        stream, bursts = asyncio.run(
            _drive(service, w, plan, instances, rec, trace, between))
    finally:
        rec.enabled = False
    counters = dict(rec.counters)
    stats = service.stats()
    peak_mb = _own_peak_mb()

    # -- output checks (untimed) -------------------------------------------
    requests = stream + [r for _, done in bursts for r in done]
    bad: set[int] = set()
    failures = []
    for i, r in enumerate(requests):
        if r.error is not None:
            bad.add(i)
            failures.append(f"request {i} raised:\n{r.error}")
    for instance in range(len(instances)):
        members = [i for i, r in enumerate(requests)
                   if i not in bad and r.instance == instance]
        if not members:
            continue
        spec = requests[members[0]].spec
        fresh = _fresh_values(spec, [requests[i].result.angles for i in members])
        for i, value in zip(members, fresh):
            result = requests[i].result
            if not _agrees(float(value), result.value, VALUE_TOL):
                bad.add(i)
                failures.append(f"request {i}: fresh engine gives {value!r}, "
                                f"service returned {result.value!r}")
            ratio = result.approximation_ratio
            if ratio is None or ratio < w.ar_floor:
                bad.add(i)
                failures.append(f"request {i}: approximation ratio {ratio} < {w.ar_floor}")
    bad_refs = 0
    for request, ref in zip(picks, references):
        if ref.error is not None:
            bad_refs += 1
            failures.append(f"one-shot solve raised:\n{ref.error}")
        elif not _agrees(ref.value, request.result.value, ENGINE_TOL):
            bad_refs += 1
            failures.append(f"one-shot solve gives {ref.value!r}, "
                            f"service returned {request.result.value!r}")

    latencies = [r.done - r.due for i, r in enumerate(stream) if i not in bad]
    lags = [r.sent - r.due for r in stream]
    plain = [s for s in references if not s.traced and s.error is None]
    details = {
        "requests": len(requests),
        "stream_requests": len(stream),
        "offered_rps": w.rate,
        "latency_samples": len(latencies),
        "latency_s": latencies,
        "generator_lag_max_s": max(lags) if lags else 0.0,
        "burst_s": [elapsed for elapsed, _ in bursts],
        "references": len(references),
        "setup_s": setups + [s.setup_s for s in plain],
        "solve_s": [s.solve_s for s in plain],
        "service_stats": stats,
    }
    if trace:
        busy = [(r.due, r.done) for r in requests]
        extra = {
            "service.coalesced_ratio": (
                stats["coalesced_requests"] / stats["requests"] if stats["requests"] else 0.0
            ),
            "service.pool.misses": float(stats["pool"]["misses"]),
            "service.pool.hits": float(stats["pool"]["hits"]),
            "service.generator_lag_s": _p90(lags),
            "service.latency_samples": float(len(latencies)),
            "trace.overhead": _overhead(references),
        }
        metrics = _layer_metrics(rec, {"bench.stream", "bench.burst", "service.queue"},
                                 len(requests), busy, counters, extra)
    else:
        metrics = {
            "setup_s": _median(details["setup_s"]),
            "solve_s": _median(details["solve_s"]),
            "evals_per_s": _median(s.evaluations / s.search_s for s in plain),
            "peak_rss_mb": peak_mb,
            "latency_p50_s": _median(latencies),
            "latency_p90_s": _p90(latencies),
            "burst_rps": w.burst * len(bursts) / sum(elapsed for elapsed, _ in bursts),
        }
    return Outcome(metrics, len(requests) + len(references), len(bad) + bad_refs,
                   failures, details)


def run(name: str, seed: int, seconds: float, trace: bool, work) -> tuple[Outcome, spans.Recorder]:
    """Run workload ``name`` once; tracing installs the layer wrappers first."""
    rec = spans.Recorder()
    if trace:
        spans.install(rec)
    w = WORKLOADS[name]
    if isinstance(w, ServiceWorkload):
        return run_service(w, seed, seconds, rec, trace, work), rec
    return run_batch(w, seed, seconds, rec, trace), rec
