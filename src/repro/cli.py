"""``python -m repro`` — the experiment-runner command line.

Commands
--------
``repro list``
    Show every registered experiment with its work-list size at the
    requested ``--scale``.

``repro run fig2 fig4a ... | all``
    Run (or resume) figure sweeps into per-experiment run stores under
    ``--out``.  Work is sharded across ``--workers`` processes; completed
    tasks recorded in a store's manifest are skipped, so re-running after an
    interruption picks up where the sweep stopped.  ``--shard I/M`` takes a
    static 1-of-M slice of the work-list for multi-machine fan-out; shards
    launched simultaneously against one ``--out`` store are safe (each writer
    appends to its own ``--writer-id`` row segment and manifest updates are
    serialized by a cross-process lock).

``repro solve``
    Run one declarative solve — problem x mixer x strategy from the name
    registries — and print (or ``--json``-dump) the result row.  Accepts
    either flat flags (``--problem maxcut --mixer x --strategy random --p 3``)
    or a full spec document via ``--spec spec.json``.  For *grids* of specs,
    use ``repro run solve`` instead, which shards and resumes through a run
    store like any other experiment.

``repro serve``
    Run the long-lived HTTP solver service: ``POST /solve`` accepts a spec
    (or a ``{"specs": [...]}`` batch), concurrent same-``(problem, mixer, p,
    strategy)`` requests coalesce into one batched multi-start GEMM on a warm
    workspace pool, and finished solves are answered from the spec-keyed
    result cache.  ``GET /healthz`` / ``GET /stats`` report liveness and the
    hit/miss/coalescing counters.

``repro bench portfolio``
    Run the gated anytime-portfolio benchmark (standalone contenders, races
    at each deadline, time-to-quality gates) and write ``BENCH_portfolio.json``.
    Exit code 1 if any gate fails.

``repro status``
    Summarize every run store under ``--out`` (tasks completed, rows, state).

``repro report``
    Print the result rows of each store as aligned tables, and optionally
    dump everything to a single JSON file with ``--json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .bench.figures import format_rows
from .experiments.runner import run_experiment, scale_env, store_directory
from .experiments.store import LOCK_NAME, MANIFEST_NAME, RunStore, RunStoreError
from .experiments.tasks import EXPERIMENT_NAMES, enumerate_tasks, get_experiment
from .hpc.parallel import default_workers
from .io.locking import LockTimeout

__all__ = ["main", "build_parser"]


class _CliError(Exception):
    """A user-facing CLI error (printed to stderr, exit code 2)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sharded, resumable runner for the paper's figure sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common_out = {
        "default": "runs",
        "help": "root directory holding the per-experiment run stores (default: runs)",
    }

    p_list = sub.add_parser("list", help="list experiments and their work-list sizes")
    p_list.add_argument("--scale", choices=("quick", "paper"), default="quick")

    p_run = sub.add_parser("run", help="run or resume figure sweeps")
    p_run.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help=f"one or more of {', '.join(EXPERIMENT_NAMES)}, or 'all'",
    )
    p_run.add_argument("--scale", choices=("quick", "paper"), default="quick")
    p_run.add_argument("--out", **common_out)
    p_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes per experiment (default: REPRO_WORKERS or CPU count)",
    )
    p_run.add_argument(
        "--shard",
        default="1/1",
        metavar="I/M",
        help="run only the I-th of M static work-list shards (1-based, default 1/1); "
        "simultaneous shards may safely share one --out store",
    )
    p_run.add_argument(
        "--writer-id",
        dest="writer_id",
        default=None,
        metavar="ID",
        help="name of this writer's row segment in the store "
        "(default shard-I-of-M; [A-Za-z0-9._-] only)",
    )
    p_run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override an executor parameter (JSON-decoded; single experiment only)",
    )
    p_run.add_argument(
        "--fresh",
        action="store_true",
        help="discard any existing run store for the target experiments first",
    )

    p_solve = sub.add_parser("solve", help="run one declarative problem x mixer x strategy solve")
    p_solve.add_argument(
        "--spec",
        dest="spec_path",
        default=None,
        metavar="PATH",
        help="JSON SolveSpec document ('-' for stdin); overrides the flat flags",
    )
    p_solve.add_argument("--problem", default="maxcut", help="problem family name")
    p_solve.add_argument("--n", type=int, default=8, help="number of qubits (default 8)")
    p_solve.add_argument(
        "--problem-seed", type=int, default=0, help="seed of the random problem instance"
    )
    p_solve.add_argument("--mixer", default="x", help="mixer family name")
    p_solve.add_argument("--strategy", default="random", help="angle-strategy name")
    p_solve.add_argument("--p", type=int, default=1, help="number of QAOA rounds")
    p_solve.add_argument("--seed", type=int, default=0, help="RNG seed for the angle strategy")
    for flag, dest, target in (
        ("--problem-param", "problem_params", "problem"),
        ("--mixer-param", "mixer_params", "mixer"),
        ("--param", "strategy_params", "strategy"),
    ):
        p_solve.add_argument(
            flag,
            dest=dest,
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help=f"extra {target} parameter (JSON-decoded; repeatable)",
        )
    p_solve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline for the angle search (any strategy): on "
        "expiry the best-so-far angles are reported with timed_out=true",
    )
    p_solve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="portfolio race deadline — shorthand for --param deadline_s=T "
        "(requires --strategy portfolio)",
    )
    p_solve.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the result row (plus the spec) to PATH as JSON",
    )
    p_solve.add_argument(
        "--explain",
        action="store_true",
        help="print which execution path (dense/sharded/compressed) was "
        "selected and why (dim, shard count, distinct-value count)",
    )
    p_solve.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="force sharded execution with N worker processes "
        "(overrides the REPRO_SHARDS environment knob)",
    )

    p_serve = sub.add_parser(
        "serve", help="run the HTTP solver service (POST /solve, GET /healthz, GET /stats)"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8642, help="bind port (default 8642)")
    p_serve.add_argument(
        "--window-ms",
        type=float,
        default=10.0,
        help="coalescing window in milliseconds: how long the first request of a "
        "(problem, mixer, p, strategy) key waits for batch company (default 10)",
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="batch size that flushes a coalescing window immediately (default 64)",
    )
    p_serve.add_argument(
        "--pool-entries",
        type=int,
        default=8,
        help="max warm (problem, mixer, p) pool entries kept alive (default 8)",
    )
    p_serve.add_argument(
        "--pool-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="byte budget for the warm pool (default: unlimited; LRU entries are "
        "evicted once the analytic residency estimate exceeds it)",
    )
    p_serve.add_argument(
        "--result-cache",
        default=None,
        metavar="DIR|0|1",
        help="spec-keyed result cache: a directory, 1 for the default cache dir, "
        "0 to disable (default: the REPRO_RESULT_CACHE environment variable)",
    )

    p_bench = sub.add_parser(
        "bench",
        help="run a standalone gated benchmark harness and write its BENCH_*.json",
    )
    p_bench.add_argument(
        "suite",
        choices=("portfolio",),
        help="benchmark suite to run (portfolio: anytime racing time-to-quality gates)",
    )
    p_bench.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="sweep profile (quick: one instance, two deadlines; full: the "
        "committed instance x deadline grid)",
    )
    p_bench.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output document path (default: BENCH_<suite>.json)",
    )

    p_status = sub.add_parser("status", help="summarize run stores under --out")
    p_status.add_argument("--out", **common_out)

    p_report = sub.add_parser("report", help="print result rows from run stores")
    p_report.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiments to report (default: every store found under --out)",
    )
    p_report.add_argument("--out", **common_out)
    p_report.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write all reported rows to PATH as one JSON document",
    )
    return parser


def _resolve_targets(names: list[str]) -> list[str]:
    if "all" in names:
        return list(EXPERIMENT_NAMES)
    seen: list[str] = []
    for name in names:
        try:
            get_experiment(name)
        except KeyError as exc:
            raise _CliError(exc.args[0]) from None
        if name not in seen:
            seen.append(name)
    return seen


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise SystemExit(f"--shard expects I/M (e.g. 2/4), got {text!r}") from None
    if count < 1 or not 1 <= index <= count:
        raise SystemExit(f"--shard expects 1 <= I <= M, got {text!r}")
    return index - 1, count


def _parse_overrides(pairs: list[str]) -> dict:
    overrides: dict = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects KEY=VALUE, got {pair!r}")
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value
    return overrides


def _open_store(directory: Path) -> RunStore:
    """Open a store for reading, normalizing every failure mode to RunStoreError."""
    try:
        store = RunStore.open(directory)
        store.manifest  # force the manifest load so corruption surfaces here
        return store
    except RunStoreError:
        raise
    except (json.JSONDecodeError, OSError, KeyError, ValueError) as exc:
        raise RunStoreError(f"unreadable run store at {directory}: {exc}") from exc


def _find_stores(out_dir: Path) -> list[RunStore]:
    """Readable stores under ``out_dir``; unreadable ones are reported, not fatal."""
    if not out_dir.is_dir():
        return []
    stores = []
    for manifest in sorted(out_dir.glob(f"*/{MANIFEST_NAME}")):
        try:
            stores.append(_open_store(manifest.parent))
        except RunStoreError as exc:
            print(f"warning: skipping {manifest.parent}: {exc}", file=sys.stderr)
    return stores


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    with scale_env(args.scale):
        for name in EXPERIMENT_NAMES:
            spec = get_experiment(name)
            rows.append(
                {
                    "experiment": name,
                    "tasks": len(enumerate_tasks(name)),
                    "scale": args.scale,
                    "title": spec.title,
                }
            )
    print(format_rows(rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    targets = _resolve_targets(args.experiments)
    shard = _parse_shard(args.shard)
    overrides = _parse_overrides(args.overrides)
    if overrides and len(targets) > 1:
        raise SystemExit("--set overrides apply to a single experiment; run targets separately")
    workers = default_workers() if args.workers is None else max(1, args.workers)
    failures = 0
    for name in targets:
        directory = store_directory(args.out, name, args.scale)
        if args.fresh:
            # --fresh assumes no other writer is active on the store: the
            # manifest, the lock, every row segment (rows.jsonl and
            # rows-<writer>.jsonl) and any leftover compaction temp files go.
            stale = [directory / MANIFEST_NAME, directory / LOCK_NAME]
            if directory.is_dir():
                stale.extend(directory.glob("rows*.jsonl*"))
            for path in stale:
                path.unlink(missing_ok=True)
        try:
            run_experiment(
                name,
                scale=args.scale,
                out_dir=args.out,
                workers=workers,
                overrides=overrides,
                shard=shard,
                writer_id=args.writer_id,
                log=print,
            )
        except (RunStoreError, LockTimeout, ValueError) as exc:
            # ValueError covers user input rejected downstream (unknown
            # --set override key, bad scale); LockTimeout a store whose lock
            # another writer held too long — a clean message, not a traceback.
            print(f"error: {exc}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from .api import SolveSpec

    if args.spec_path is not None:
        if args.deadline is not None:
            raise _CliError("--deadline applies to the flat flags; put deadline_s in the spec")
        if args.spec_path == "-":
            text = sys.stdin.read()
        else:
            try:
                text = Path(args.spec_path).read_text(encoding="utf-8")
            except OSError as exc:
                raise _CliError(f"cannot read spec file: {exc}") from exc
        try:
            spec = SolveSpec.from_json(text)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise _CliError(f"bad spec document: {exc}") from exc
    else:
        strategy_params = _parse_overrides(args.strategy_params)
        if args.deadline is not None:
            if args.deadline <= 0:
                raise _CliError("--deadline must be positive")
            strategy_params.setdefault("deadline_s", args.deadline)
        spec = SolveSpec.build(
            problem=args.problem,
            n=args.n,
            problem_seed=args.problem_seed,
            problem_params=_parse_overrides(args.problem_params),
            mixer=args.mixer,
            mixer_params=_parse_overrides(args.mixer_params),
            strategy=args.strategy,
            strategy_params=strategy_params,
            p=args.p,
            seed=args.seed,
        )
    if args.timeout is not None and args.timeout < 0:
        raise _CliError("--timeout must be non-negative")
    from .api.routing import select_execution_path
    from .api.solver import QAOASolver

    try:
        started = time.perf_counter()
        plan = select_execution_path(spec, shards=args.shards)
        # routing builds the problem (and a Grover spectrum) before the solver
        # starts its clock, so its seconds count as construction here
        route_s = time.perf_counter() - started
        if args.explain:
            print(f"execution path: {plan.describe()}")
        solver = QAOASolver(spec, plan=plan)
        try:
            result = solver.run(timeout_s=args.timeout)
        finally:
            solver.close()
    except (TypeError, ValueError) as exc:
        raise _CliError(str(exc)) from exc

    result.setup_s += route_s
    row = result.to_row()
    print(
        f"{row['problem']} n={row['n']} (instance seed {row['problem_seed']}) | "
        f"mixer={row['mixer']} strategy={row['strategy']} p={row['p']} seed={row['seed']} | "
        f"engine={row['execution']}"
    )
    print(f"  <C> at best angles       : {row['value']:.6f}")
    print(f"  optimum                  : {row['optimum']:.6f}")
    ratio = row["approximation_ratio"]
    print(f"  approximation ratio      : {'n/a' if ratio is None else f'{ratio:.6f}'}")
    print(f"  P(optimal state)         : {row['ground_state_probability']:.6f}")
    print(f"  strategy evaluations     : {row['evaluations']}")
    print(f"  wall time                : {row['wall_time_s']:.3f}s")
    print(f"  construction             : {row['setup_s']:.3f}s")
    if row.get("timed_out"):
        print("  timed out                : yes (best-so-far angles reported)")
    print(f"  angles (betas, gammas)   : {np.array2string(result.angles, precision=6)}")
    if args.json_path:
        path = Path(args.json_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spec": result.spec.to_dict(), "result": row}
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        print(f"(result written to {path})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .io.cache import ResultCache, default_cache_dir, result_cache_from_env
    from .service import SolverService
    from .service.server import serve

    if args.window_ms < 0:
        raise _CliError("--window-ms must be non-negative")
    if args.max_batch < 1:
        raise _CliError("--max-batch must be positive")
    if args.result_cache is None:
        result_cache = result_cache_from_env()
    elif args.result_cache == "0":
        result_cache = None
    elif args.result_cache == "1":
        result_cache = ResultCache(default_cache_dir() / "results")
    else:
        result_cache = ResultCache(args.result_cache)
    try:
        service = SolverService(
            max_entries=args.pool_entries,
            max_bytes=args.pool_bytes,
            result_cache=result_cache,
            window_s=args.window_ms / 1000.0,
            max_batch=args.max_batch,
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    try:
        serve(service, host=args.host, port=args.port)
    except OSError as exc:
        raise _CliError(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    stores = _find_stores(Path(args.out))
    if not stores:
        print(f"no run stores under {args.out}")
        return 0
    print(format_rows([store.status() for store in stores]))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    if args.experiments:
        stores = []
        for name in _resolve_targets(args.experiments):
            matches = sorted(out_dir.glob(f"{name}-*/{MANIFEST_NAME}"))
            if not matches:
                print(f"error: no run store for {name!r} under {out_dir}", file=sys.stderr)
                return 1
            try:
                stores.extend(_open_store(m.parent) for m in matches)
            except RunStoreError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
    else:
        stores = _find_stores(out_dir)
        if not stores:
            print(f"no run stores under {args.out}")
            return 0
    combined: dict[str, list[dict]] = {}
    failures = 0
    for store in stores:
        spec = get_experiment(store.experiment)
        status = store.status()
        try:
            rows = store.rows()
        except ValueError as exc:
            print(f"warning: skipping {store.directory}: {exc}", file=sys.stderr)
            failures += 1
            continue
        combined[f"{store.experiment}-{store.scale}"] = rows
        print(f"\n=== {spec.title} [{status['state']}, scale={store.scale}] ===")
        print(format_rows(rows))
    if args.json_path:
        path = Path(args.json_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(combined, indent=2, default=float), encoding="utf-8")
        print(f"\n(rows written to {path})")
    # Explicitly requested stores that could not be read are an error; in
    # discovery mode unreadable stores are only warned about.
    return 1 if failures and args.experiments else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench.portfolio import run_sweep

    out = args.out or f"BENCH_{args.suite}.json"
    document = run_sweep(args.scale, out)
    print(f"wrote {out}: all_gates_passed={document['all_gates_passed']}")
    return 0 if document["all_gates_passed"] else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "solve": _cmd_solve,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
        "status": _cmd_status,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except _CliError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted — completed tasks are recorded; re-run to resume", file=sys.stderr)
        return 130
