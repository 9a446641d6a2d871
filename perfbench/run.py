"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload dense_x_n18 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload runs in a fresh process with an isolated environment: the
NumPy backend, empty ``REPRO_CACHE_DIR`` and result-cache directories under
``.perfbench/`` in the checkout, and ``REPRO_SHARDS`` set only for the
sharded workload.  The program is imported from ``src/`` of the checkout.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer metrics).  Lines before it print every metric
with its unit and the host record; the full record (host, samples, checks)
is written to ``.perfbench/results/`` and a traced run's spans to
``.perfbench/traces/``.  The exit code is non-zero when any output check
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("dense_x_n18", "sweep_x_n12", "sharded_x_n20", "service_clique_n11")
SHARDS = {"sharded_x_n20": "2"}
#: the service runs requests concurrently in executor threads; its dim-462
#: GEMMs gain nothing from BLAS threads, which would oversubscribe the cores
BLAS_THREADS = {"service_clique_n11": "1"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _isolate(workload: str, work: Path) -> None:
    """Environment of one workload process; must run before ``import repro``."""
    os.environ["REPRO_BACKEND"] = "numpy"
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["REPRO_RESULT_CACHE"] = "0"
    os.environ.pop("REPRO_SHARDS", None)
    if workload in SHARDS:
        os.environ["REPRO_SHARDS"] = SHARDS[workload]
    if workload in BLAS_THREADS:
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[key] = BLAS_THREADS[workload]


def _stop_children() -> None:
    """Stop every process the workload started and wait for each to end.

    Shard workers are joined by ``close()``; any a failed solve left behind
    are terminated here.  The shared-memory segments also start
    multiprocessing's resource tracker, which would otherwise exit only after
    this process and stay behind unreaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(timeout=10.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        from threadpoolctl import threadpool_info

        pools = [p for p in threadpool_info() if p.get("user_api") == "blas"]
        if pools:
            return {"vendor": f"{pools[0].get('internal_api')} {pools[0].get('version')}",
                    "threads": pools[0].get("num_threads")}
    except ImportError:
        pass
    vendor = "unknown"
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        vendor = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, AttributeError):
        pass
    threads = None
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(key):
            threads = int(os.environ[key])
            break
    return {"vendor": vendor, "threads": threads if threads else _nproc()}


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def host_record(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "cpu": _cpu_model(),
        "nproc": _nproc(),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "workload": workload,
        "seed": seed,
    }


def run_one(args) -> int:
    work = OUT / f"tmp-{args.workload}-{os.getpid()}"
    _isolate(args.workload, work)
    sys.path.insert(0, str(SRC))
    try:
        import workloads

        outcome, rec = workloads.run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), work)
    finally:
        _stop_children()
        shutil.rmtree(work, ignore_errors=True)

    names = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics = {name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
               for name, unit in names}
    host = host_record(args.workload, args.seed)
    correct = outcome.failed == 0
    error_ratio = outcome.failed / max(outcome.attempted, 1)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "correct": correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "error_ratio": error_ratio, "metrics": metrics, "failures": outcome.failures,
        "details": outcome.details,
    }
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        rec.dump(OUT / "traces" / f"{tag}.json", {"workload": args.workload, "host": host})

    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={outcome.attempted} failed={outcome.failed} "
          f"error_ratio={error_ratio:g} "
          f"latency_samples={outcome.details.get('latency_samples')}")
    for name, entry in metrics.items():
        print(f"#   {name:30s} {entry['value']:.6g} {entry['unit']}")
    print("# host " + json.dumps(host))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process; a summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        status = status or done.returncode or (0 if result["correct"] else 1)
        summary["correct"] = summary["correct"] and bool(result["correct"])
        summary["attempted"] += int(result["attempted"])
        summary["failed"] += int(result["failed"])
        summary["workloads"][name] = result["metrics"]
    print(json.dumps(summary), flush=True)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # SIGTERM (a harness timeout, say) exits through the finally blocks, so
    # the shard workers and the resource tracker are still stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
