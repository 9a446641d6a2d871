"""Warm solver pools: built problem/mixer/ansatz kept alive per fingerprint.

Setting up one solve — regenerating the problem instance, pre-computing its
objective values over the feasible space, diagonalizing the mixer — dwarfs the
per-request work once the batched kernels are in play.  The pool keys that
setup by a ``(problem, mixer, p)`` fingerprint (the angle strategy and its
seed don't change any of it) and hands every request for the same fingerprint
the same live :class:`WarmEntry`.

Residency is bounded two ways: an entry-count LRU and a byte budget accounted
with the analytic estimates of :func:`repro.hpc.memory.warm_entry_bytes`
(objective values + workspaces + the dense eigendecomposition for
diagonalized mixer families).  Estimates are recomputed at eviction time
because an entry's :class:`~repro.core.workspace.BatchedWorkspace` grows with
the largest batch it has served.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict

from ..api.routing import select_execution_path
from ..api.solver import QAOASolver
from ..api.spec import SolveSpec
from ..hpc.memory import warm_entry_bytes
from ..mixers.base import DiagonalizedMixer

__all__ = ["pool_fingerprint", "WarmEntry", "WarmPool"]


def pool_fingerprint(spec: SolveSpec) -> str:
    """Hash of the setup-determining part of a spec: problem, mixer, rounds.

    Two specs with equal fingerprints share problem instance, feasible space,
    mixer spectra and workspaces — everything the warm pool keeps alive.  The
    strategy and its seed only steer the angle search, so they are excluded.
    The routed execution path (and its shard count) is included: a
    ``REPRO_SHARDS`` change must not hit a dense entry.
    """
    plan = select_execution_path(spec)
    payload = {
        "problem": spec.problem.to_dict(),
        "mixer": spec.mixer.to_dict(),
        "p": spec.p,
        "execution": plan.path,
        "shards": plan.shards,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class WarmEntry:
    """One fingerprint's live components plus its execution lock.

    The entry's ansatz owns mutable workspaces (for sharded plans: live
    worker processes and shared-memory segments), so at most one request
    group may execute on it at a time — callers hold :attr:`lock` around
    strategy runs and simulations.  ``hits`` counts how many requests the
    entry served.  The entry's construction seconds are reported once, by
    the first solver :meth:`solver_for` hands out.
    """

    def __init__(self, fingerprint: str, spec: SolveSpec):
        self.fingerprint = fingerprint
        solver = QAOASolver(spec)
        self.plan = solver.plan
        self.problem = solver.problem  # None for non-dense plans
        self.mixer = solver.mixer  # None for non-dense plans
        self.ansatz = solver.ansatz
        self._unreported_setup_s = solver._unreported_setup_s
        self.lock = threading.Lock()
        self.hits = 0

    def solver_for(self, spec: SolveSpec) -> QAOASolver:
        """A :class:`QAOASolver` for ``spec`` running on this entry's components."""
        setup_s, self._unreported_setup_s = self._unreported_setup_s, 0.0
        return QAOASolver.from_components(
            spec, self.problem, self.mixer, self.ansatz, plan=self.plan, setup_s=setup_s
        )

    @property
    def estimated_bytes(self) -> int:
        """Current analytic residency estimate (grows with the batched workspace)."""
        if self.plan.path == "sharded":
            executor = self.ansatz.executor
            return warm_entry_bytes(
                executor.dim,
                p=self.ansatz.p,
                batch_capacity=executor.workspace.batch,
                kind="sharded",
                shards=executor.shards,
            )
        if self.plan.path == "compressed":
            distinct = self.ansatz.spectrum.num_distinct
            return warm_entry_bytes(
                distinct,
                p=self.ansatz.p,
                kind="compressed",
                distinct=distinct,
            )
        workspace = self.ansatz._batched_workspace
        dense = isinstance(self.mixer, DiagonalizedMixer)
        return warm_entry_bytes(
            self.ansatz.dim,
            p=self.ansatz.p,
            batch_capacity=0 if workspace is None else workspace.capacity,
            dense_eigenvectors=dense,
            complex_vectors=dense and not self.mixer._real_basis,
        )

    def close(self) -> None:
        """Release engine resources (sharded workers); dense/compressed: no-op."""
        self.ansatz.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WarmEntry({self.fingerprint[:12]}..., "
            f"dim={self.ansatz.dim}, path={self.plan.path})"
        )


class WarmPool:
    """Fingerprint-keyed LRU of :class:`WarmEntry` with a byte budget.

    ``max_entries`` bounds the entry count; ``max_bytes`` (optional) bounds
    the summed :attr:`WarmEntry.estimated_bytes`.  The most recently used
    entry is never evicted — a single fingerprint over budget still solves,
    it just can't keep neighbours warm.  Thread-safe; entry construction
    happens outside the pool lock so a slow eigendecomposition doesn't block
    hits on other fingerprints (two racing builders of one fingerprint keep
    the first insert).
    """

    def __init__(self, *, max_entries: int = 8, max_bytes: int | None = None):
        if max_entries < 1:
            raise ValueError("the pool must be allowed at least one entry")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive when given")
        self.max_entries = int(max_entries)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._entries: OrderedDict[str, WarmEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def entry_for(self, spec: SolveSpec) -> WarmEntry:
        """The live entry for ``spec``'s fingerprint, building it on first use."""
        fingerprint = pool_fingerprint(spec)
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                self.hits += 1
                entry.hits += 1
                return entry
        built = WarmEntry(fingerprint, spec)
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                # Lost the build race; the established entry wins so every
                # request keeps sharing one set of workspaces.
                self._entries.move_to_end(fingerprint)
                self.hits += 1
                entry.hits += 1
                return entry
            self.misses += 1
            built.hits += 1
            self._entries[fingerprint] = built
            self._evict_locked()
        return built

    def _evict_locked(self) -> None:
        while len(self._entries) > self.max_entries:
            _, evicted = self._entries.popitem(last=False)
            evicted.close()
            self.evictions += 1
        if self.max_bytes is None:
            return
        while len(self._entries) > 1 and self._total_bytes_locked() > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            evicted.close()
            self.evictions += 1

    def _total_bytes_locked(self) -> int:
        return sum(entry.estimated_bytes for entry in self._entries.values())

    def total_bytes(self) -> int:
        """Summed analytic residency estimate of every pooled entry."""
        with self._lock:
            return self._total_bytes_locked()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def clear(self) -> None:
        """Drop every entry, releasing engine resources (counters are kept)."""
        with self._lock:
            for entry in self._entries.values():
                entry.close()
            self._entries.clear()

    def stats(self) -> dict:
        """JSON-serializable pool counters (what ``/stats`` reports)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "total_bytes": self._total_bytes_locked(),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
