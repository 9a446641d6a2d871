"""In-memory span recorder and the wrappers that attach it to the library.

The benchmark traces the program from the outside: :func:`install` replaces
the public entry points of every layer (problem build, mixer build, routing,
angle search, the ansatz kernels, the mixer and backend kernels, the sharded
executor, the service, the result cache) with thin wrappers that record one
span per call.  Nothing in ``src/`` changes; the wrappers live here and are
installed only for a traced run (``--trace 1``).

A span is ``[name, start, end, parent, thread]``.  Spans nest per thread; a
span opened on a worker thread with nothing open on that thread is parented
to the outermost span open on the main thread (the benchmark's own root), so
service work running in executor threads hangs off the stream span.  Self
time is a span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

__all__ = ["Recorder", "install", "merged", "overlap_length", "LAYER_SPANS"]

#: span name -> what it wraps (documentation and the trace file header)
LAYER_SPANS = {
    "api.setup": "QAOASolver.__init__ (problem, objective, mixer, routing, engine)",
    "api.route": "select_execution_path",
    "problems.build": "make_problem / make_problem_structure",
    "problems.objective": "ProblemInstance.objective_values",
    "core.precompute.levels": "PrecomputedCost.phase_levels",
    "mixers.build": "make_mixer",
    "hpc.sharded.start": "ShardedAnsatz.__init__ (worker spawn + shard setup)",
    "angles.search": "grid_search / find_angles_random / multistart_minimize",
    "core.simulator.forward": "QAOAAnsatz.expectation_batch",
    "core.gradients.grad": "QAOAAnsatz.value_and_gradient_batch",
    "mixers.apply": "<Mixer>.apply_batch",
    "mixers.hamiltonian": "<Mixer>.apply_hamiltonian_batch",
    "backend.wht": "ArrayBackend.wht_gemm",
    "backend.gemm": "ArrayBackend.real_gemm / NumpyBackend.matmul outside wht_gemm",
    "api.final_sim": "<engine>.simulate",
    "hpc.sharded.forward": "ShardedExecutor.expectation_batch",
    "hpc.sharded.grad": "ShardedExecutor.value_and_gradient_batch",
    "hpc.sharded.round_trip": "ShardedExecutor._command (one blocking round trip)",
    "service.batch": "SolverService.solve_many",
    "service.group_solve": "solve_group",
    "service.pool.entry": "WarmPool.entry_for",
    "service.pool.build": "WarmEntry.__init__",
    "io.cache.get": "ResultCache.get",
    "io.cache.put": "ResultCache.put",
    "service.queue": "request due time -> start of the solve_many call serving it",
}


class Recorder:
    """Collects spans and counters; a disabled recorder costs one flag check."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent, thread]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        #: id(spec) -> due time of the request carrying it (service workload)
        self.due: dict[int, float] = {}

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[0]
        else:
            parent = -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, threading.get_ident()])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record an already-finished root span (a synthetic interval)."""
        with self._lock:
            self.spans.append([name, start, end, -1, 0])

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += amount

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the union of child intervals."""
        children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[2] is not None and span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out = []
        for index, span in enumerate(self.spans):
            if span[2] is None:
                out.append(0.0)
                continue
            inner = overlap_length(merged(children.get(index, ())), [(span[1], span[2])])
            out.append(max(0.0, (span[2] - span[1]) - inner))
        return out

    def roots(self) -> list[int]:
        """Index of each span's root ancestor (parents precede children)."""
        out: list[int] = []
        for index, span in enumerate(self.spans):
            out.append(index if span[3] < 0 else out[span[3]])
        return out

    def dump(self, path, extra: dict) -> None:
        """Write every finished span (times relative to the first) as JSON."""
        origin = min((s[1] for s in self.spans), default=0.0)
        threads: dict[int, int] = {}
        rows = []
        for span in self.spans:
            if span[2] is None:
                continue
            tid = threads.setdefault(span[4], len(threads))
            rows.append([span[0], round(span[1] - origin, 7), round(span[2] - origin, 7),
                         span[3], tid])
        payload = {
            "columns": ["name", "start_s", "end_s", "parent", "thread"],
            "layers": LAYER_SPANS,
            "spans": rows,
            "counters": dict(self.counters),
            **extra,
        }
        path.write_text(json.dumps(payload))


def merged(intervals) -> list[tuple[float, float]]:
    """Sorted, disjoint union of ``(start, end)`` intervals."""
    out: list[list[float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return [(a, b) for a, b in out]


def overlap_length(a, b) -> float:
    """Measure of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _span_wrapper(rec: Recorder, name: str, fn, *, skip_inside=(), before=None, after=None):
    """Wrap ``fn`` in a span; a call nested in a ``skip_inside`` span (or in a
    span of the same name, e.g. a subclass kernel calling ``super()``) passes
    straight through."""
    skip = frozenset(skip_inside) | {name}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled or rec.current_name() in skip:
            return fn(*args, **kwargs)
        if before is not None:
            before(args, kwargs)
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(result)
        return result

    return wrapper


def _count_wrapper(rec: Recorder, fn, counted):
    """Wrap ``fn`` without a span, calling ``counted(args, kwargs)`` per call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.enabled:
            counted(args, kwargs)
        return fn(*args, **kwargs)

    return wrapper


def _patch_method(cls, attr: str, make) -> None:
    setattr(cls, attr, make(cls.__dict__[attr]))


def _patch_function(original, wrapper) -> None:
    """Replace ``original`` wherever a loaded ``repro`` module binds it by name."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", None) or ""
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _columns(angles) -> int:
    shape = getattr(angles, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def install(rec: Recorder) -> None:
    """Install every layer wrapper on the imported library (once per process)."""
    from repro.angles import grid as grid_mod
    from repro.angles import multistart as multistart_mod
    from repro.angles import random_restart as random_mod
    from repro.api import mixers as api_mixers
    from repro.api import routing
    from repro.api.solver import QAOASolver
    from repro.backend.base import ArrayBackend
    from repro.backend.numpy_backend import NumpyBackend
    from repro.core.ansatz import QAOAAnsatz
    from repro.core.precompute import PrecomputedCost
    from repro.hpc.sharded import ShardedAnsatz
    from repro.hpc.sharded.executor import ShardedExecutor
    from repro.io.cache import ResultCache
    from repro.mixers.base import Mixer
    from repro.problems import registry as problems
    from repro.service import coalesce
    from repro.service.core import SolverService
    from repro.service.pools import WarmEntry, WarmPool

    def span(name, **kw):
        return lambda fn: _span_wrapper(rec, name, fn, **kw)

    # construction
    for fn in (problems.make_problem, problems.make_problem_structure):
        _patch_function(fn, span("problems.build")(fn))
    _patch_function(api_mixers.make_mixer, span("mixers.build")(api_mixers.make_mixer))
    _patch_function(
        routing.select_execution_path, span("api.route")(routing.select_execution_path)
    )
    _patch_method(problems.ProblemInstance, "objective_values", span("problems.objective"))
    _patch_method(PrecomputedCost, "phase_levels", span("core.precompute.levels"))
    _patch_method(QAOASolver, "__init__", span("api.setup"))
    _patch_method(ShardedAnsatz, "__init__", span("hpc.sharded.start"))

    # angle search and the ansatz kernels it drives
    for fn in (grid_mod.grid_search, random_mod.find_angles_random,
               multistart_mod.multistart_minimize):
        _patch_function(fn, span("angles.search")(fn))

    def kernel_call(args, kwargs):
        angles = args[1] if len(args) > 1 else kwargs["angles"]
        rec.count("angles.kernel_calls")
        rec.count("angles.evaluations", _columns(angles))

    _patch_method(QAOAAnsatz, "expectation_batch",
                  span("core.simulator.forward", before=kernel_call))
    _patch_method(QAOAAnsatz, "value_and_gradient_batch",
                  span("core.gradients.grad", before=kernel_call))
    for attr in ("expectation_batch", "value_and_gradient_batch"):
        _patch_method(ShardedAnsatz, attr, lambda fn: _count_wrapper(rec, fn, kernel_call))
    _patch_method(QAOAAnsatz, "simulate", span("api.final_sim"))
    _patch_method(ShardedAnsatz, "simulate", span("api.final_sim"))

    # mixer kernels: every class that defines its own batched kernels
    todo = [Mixer]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "apply_batch" in cls.__dict__:
            _patch_method(cls, "apply_batch", span("mixers.apply"))
        if "apply_hamiltonian_batch" in cls.__dict__:
            _patch_method(cls, "apply_hamiltonian_batch", span("mixers.hamiltonian"))

    # backend kernels; the flop count follows from the operand shapes
    def wht_flops(args, kwargs):
        src, h_hi, h_lo = args[1], args[4], args[5]
        dim_hi, dim_lo = h_hi.shape[0], h_lo.shape[0]
        width = 2 * src.shape[1]  # float columns of the interleaved re/im view
        rec.count("backend.wht_flop", 2.0 * width * dim_hi * dim_lo * (dim_hi + dim_lo))

    _patch_method(ArrayBackend, "wht_gemm", span("backend.wht", before=wht_flops))
    _patch_method(ArrayBackend, "real_gemm", span("backend.gemm", skip_inside={"backend.wht"}))
    _patch_method(NumpyBackend, "matmul",
                  span("backend.gemm", skip_inside={"backend.wht", "backend.gemm"}))

    # sharded executor
    _patch_method(ShardedExecutor, "expectation_batch", span("hpc.sharded.forward"))
    _patch_method(ShardedExecutor, "value_and_gradient_batch", span("hpc.sharded.grad"))
    _patch_method(ShardedExecutor, "_command", span("hpc.sharded.round_trip"))

    # service
    def batch_started(args, kwargs):
        specs = args[1] if len(args) > 1 else kwargs["specs"]
        now = time.perf_counter()
        rec.count("service.batches")
        rec.count("service.batched_requests", len(specs))
        for spec in specs:
            due = rec.due.get(id(spec))
            if due is not None:
                rec.add_span("service.queue", due, now)

    _patch_method(SolverService, "solve_many", span("service.batch", before=batch_started))
    _patch_function(coalesce.solve_group, span("service.group_solve")(coalesce.solve_group))
    _patch_method(WarmPool, "entry_for", span("service.pool.entry"))
    _patch_method(WarmEntry, "__init__", span("service.pool.build"))

    def cache_read(row):
        rec.count("io.cache.gets")
        if row is not None:
            rec.count("io.cache.hits")

    _patch_method(ResultCache, "get", span("io.cache.get", after=cache_read))
    _patch_method(ResultCache, "put", span("io.cache.put"))
