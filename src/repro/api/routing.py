"""Execution-path selection for ``solve()``: dense, sharded, or compressed.

Every spec-driven solve runs through exactly one of three engines:

* **dense** — the in-process :class:`~repro.core.ansatz.QAOAAnsatz`
  (batched kernels; a single row is M=1).  Default whenever the statevector comfortably
  fits one process.
* **sharded** — :class:`~repro.hpc.sharded.ShardedAnsatz`: the statevector
  distributed across shard worker processes in shared memory.  Selected when
  ``REPRO_SHARDS`` requests it or the dimension crosses
  :data:`SHARDED_AUTO_DIM`; supports the ``x``, ``multiangle_x`` and
  ``grover`` mixer families (Dicke subspaces: ``grover`` only).
* **compressed** — :class:`~repro.grover.ansatz.CompressedGroverAnsatz`:
  Grover-mixer evolution over the distinct-value spectrum (paper Sec. 2.4).
  Selected for Grover-mixer specs whose spectrum is both *obtainable*
  (analytic for Hamming-weight objectives at any ``n``, otherwise enumerated
  with :func:`~repro.problems.registry.objective_on_labels` up to
  :data:`STREAMING_SPECTRUM_LIMIT` states) and *degenerate enough*
  (``distinct * COMPRESSED_ADVANTAGE <= dim``) above
  :data:`COMPRESSED_MIN_DIM`.

Priority: compressed beats sharded beats dense (the compressed state is
``O(distinct)`` — smaller than any shard).  Strategies that rebuild per-round
ansatze (``iterative``, ``fourier``) always run dense: they consume the dense
cost object and per-layer schedules.

Flip symmetry: on the dense and sharded engines a flip-symmetric problem
under the ``x``, ``multiangle_x`` or full-space ``grover`` mixer runs on
``n - 1`` qubits (:func:`~repro.core.symmetry.flip_reducible`, the function
the solver and ``QAOAAnsatz.from_problem`` call too).  The plan's ``dim``
stays the problem's; the auto-shard threshold and the shard-count checks
compare the dimension the engine holds, and a shard count the halved state
cannot hold runs unreduced.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache

from ..core.symmetry import flip_reducible
from ..grover.compress import CompressedObjective, compress_objective, hamming_weight_spectrum
from ..hilbert.dicke import dicke_labels
from ..hilbert.states import state_labels
from ..problems.registry import ProblemInstance, make_problem, objective_on_labels
from .mixers import MIXERS
from .spec import ProblemSpec, SolveSpec
from .strategies import STRATEGIES

__all__ = [
    "ExecutionPlan",
    "select_execution_path",
    "routing_inputs",
    "memoized_problem",
    "clear_routing_memo",
    "spectrum_for",
    "env_shards",
    "COMPRESSED_MIN_DIM",
    "COMPRESSED_ADVANTAGE",
    "SHARDED_AUTO_DIM",
    "STREAMING_SPECTRUM_LIMIT",
]

#: Below this dimension the dense path is always fine — keeps every
#: small-instance solve byte-identical with the pre-routing behaviour.
COMPRESSED_MIN_DIM = 1 << 12

#: The compressed path must shrink the state by at least this factor.
COMPRESSED_ADVANTAGE = 8

#: Full-space dimension at which sharding engages without ``REPRO_SHARDS``.
SHARDED_AUTO_DIM = 1 << 24

#: Largest dimension the router enumerates to discover a spectrum: its label
#: and value arrays take at most 8 MB each.  Above it only analytic
#: (Hamming-weight) spectra are available.
STREAMING_SPECTRUM_LIMIT = 1 << 20

#: Mixer families with a sharded decomposition.
SHARDED_MIXERS = frozenset({"x", "multiangle_x", "grover"})

#: Strategies that rebuild per-round dense ansatze and cannot be re-routed.
DENSE_ONLY_STRATEGIES = frozenset({"iterative", "fourier"})


@dataclass(frozen=True)
class ExecutionPlan:
    """Which engine a solve runs on, and the numbers that decided it."""

    path: str  # "dense" | "sharded" | "compressed"
    reason: str
    dim: int
    shards: int | None = None
    distinct: int | None = None
    #: the engine runs on the flip-symmetric half, of dimension ``dim // 2``
    flip_reduced: bool = False

    def describe(self) -> str:
        """One human-readable line (what ``repro solve --explain`` prints)."""
        extras = [f"dim={self.dim}"]
        if self.shards is not None:
            extras.append(f"shards={self.shards}")
        if self.distinct is not None:
            extras.append(f"distinct={self.distinct}")
        flip = ""
        if self.flip_reduced:
            flip = (f", flip-reduced to n-1 = {self.dim.bit_length() - 2} qubits "
                    f"(dim {self.dim // 2})")
        return f"{self.path} ({', '.join(extras)}){flip}: {self.reason}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "reason": self.reason,
            "dim": self.dim,
            "shards": self.shards,
            "distinct": self.distinct,
            "flip_reduced": self.flip_reduced,
        }


# ---------------------------------------------------------------------------
# the problem memo + spectrum discovery
# ---------------------------------------------------------------------------

def _problem_key(problem: ProblemSpec) -> str:
    return json.dumps(problem.to_dict(), sort_keys=True)


@lru_cache(maxsize=16)
def _problem_from_key(key: str) -> ProblemInstance:
    spec = json.loads(key)
    return make_problem(spec["name"], spec["n"], seed=spec["seed"], **spec["params"])


def memoized_problem(problem: ProblemSpec) -> ProblemInstance:
    """The :class:`ProblemInstance` for ``problem``, memoized per spec.

    Problem regeneration is deterministic in the spec, so routing and every
    engine's construction share one instance, as do repeated solver
    constructions for the same problem (a sweep's params-only grid, repeated
    ``run(seed=...)`` calls, the solver service): its objective values are
    computed once.  The instance builds its feasible space only when the
    dense path reads it.  A small LRU bounds residency.
    """
    return _problem_from_key(_problem_key(problem))


@lru_cache(maxsize=32)
def _spectrum_from_key(key: str) -> CompressedObjective | None:
    problem = _problem_from_key(key)
    if problem.k is None and problem.value_of_weight is not None:
        return hamming_weight_spectrum(problem.n, problem.value_of_weight)
    if problem.dim <= STREAMING_SPECTRUM_LIMIT:
        labels = (state_labels(problem.n) if problem.k is None
                  else dicke_labels(problem.n, problem.k))
        return compress_objective(objective_on_labels(problem, labels))
    return None


def spectrum_for(problem: ProblemSpec) -> CompressedObjective | None:
    """The compressed value spectrum of ``problem``, or ``None`` if unobtainable.

    Analytic Hamming-weight spectra work at any ``n``.  Otherwise, up to
    :data:`STREAMING_SPECTRUM_LIMIT` states, the spectrum is
    :func:`~repro.grover.compress.compress_objective` of
    :func:`~repro.problems.registry.objective_on_labels` over the feasible
    labels: the values dense construction computes, bit for bit.  Results —
    including the negative ``None`` — are memoized per problem spec.
    """
    return _spectrum_from_key(_problem_key(problem))


def clear_routing_memo() -> None:
    """Drop memoized problems and spectra (a cold start; tests)."""
    _problem_from_key.cache_clear()
    _spectrum_from_key.cache_clear()


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def env_shards(environ: os._Environ | dict | None = None) -> int | None:
    """The ``REPRO_SHARDS`` request: ``None`` when unset or explicitly <= 1."""
    environ = os.environ if environ is None else environ
    raw = environ.get("REPRO_SHARDS", "").strip()
    if not raw:
        return None
    try:
        count = int(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_SHARDS must be an integer, got {raw!r}") from exc
    return count if count >= 2 else None


def _auto_shards(dim: int) -> int:
    """Power-of-two shard count targeting ~2^23 states per shard, in [2, 16]."""
    shards = 2
    while shards < 16 and dim // shards > (1 << 23):
        shards *= 2
    return shards


def _canonical(registry, name: str) -> str:
    try:
        return registry.canonical(name)
    except KeyError:
        return name.lower()


def routing_inputs(spec: SolveSpec) -> dict:
    """Everything :func:`select_execution_path` reads, as a JSON-able dict.

    The problem spec, the canonical mixer family, whether the strategy is
    dense-only, and the ``REPRO_SHARDS`` request: equal inputs route alike.
    Reading them builds nothing, so a key over them (the solver service's
    pool fingerprint) leaves routing, and its construction work, to
    :class:`~repro.api.solver.QAOASolver`.
    """
    return {
        "problem": spec.problem.to_dict(),
        "mixer": _canonical(MIXERS, spec.mixer.name),
        "dense_only": _canonical(STRATEGIES, spec.strategy.name) in DENSE_ONLY_STRATEGIES,
        "shards": env_shards(),
    }


def select_execution_path(
    spec: SolveSpec, *, shards: int | None = None
) -> ExecutionPlan:
    """Pick the engine for ``spec`` from its :func:`routing_inputs` (see the
    module docstring for the rules).

    ``shards`` overrides the ``REPRO_SHARDS`` environment knob.
    """
    inputs = routing_inputs(spec)
    problem = memoized_problem(spec.problem)
    mixer = inputs["mixer"]
    dim = problem.dim
    # the dense engine's reduction, and the dimension it holds
    flip = flip_reducible(problem, mixer)
    held = dim >> flip

    def dense(reason: str) -> ExecutionPlan:
        return ExecutionPlan("dense", reason, dim, flip_reduced=flip)

    if inputs["dense_only"]:
        strategy = _canonical(STRATEGIES, spec.strategy.name)
        return dense(f"strategy {strategy!r} rebuilds per-round dense ansatze")

    if mixer == "grover" and dim > COMPRESSED_MIN_DIM:
        spectrum = spectrum_for(spec.problem)
        if spectrum is not None:
            distinct = spectrum.num_distinct
            if distinct * COMPRESSED_ADVANTAGE <= dim:
                return ExecutionPlan(
                    "compressed",
                    f"grover mixer with degenerate spectrum "
                    f"({distinct} distinct values over {dim} states)",
                    dim,
                    distinct=distinct,
                )

    requested = shards if shards is not None else inputs["shards"]
    source = "shards override" if shards is not None else f"REPRO_SHARDS={requested}"
    shardable = mixer in SHARDED_MIXERS
    if shardable and mixer != "grover":
        # WHT mixers shard the full space over power-of-two worker counts.
        shardable = problem.k is None

    if requested is not None:
        if not shardable:
            return dense(
                f"{source} ignored: mixer {mixer!r} "
                "has no sharded decomposition"
                + ("" if problem.k is None else " on a Dicke subspace")
            )
        count = requested
        # a count the halved state cannot hold runs unreduced
        sharded_flip = flip_reducible(problem, mixer, shards=count)
        sharded_held = dim >> sharded_flip
        if mixer != "grover" and (count & (count - 1) or sharded_held % count):
            return dense(
                f"{source} ignored: WHT mixers need a "
                f"power-of-two shard count dividing dim={sharded_held}"
            )
        return ExecutionPlan(
            "sharded", f"{source} requested {requested} shards", dim,
            shards=min(count, sharded_held), flip_reduced=sharded_flip,
        )

    if held >= SHARDED_AUTO_DIM and shardable:
        return ExecutionPlan(
            "sharded",
            f"dim {held} >= {SHARDED_AUTO_DIM} exceeds the single-process "
            "comfort zone",
            dim,
            shards=_auto_shards(held),
            flip_reduced=flip,
        )

    if held >= SHARDED_AUTO_DIM:
        return dense(
            f"dim {held} is large but mixer {mixer!r} has no sharded or "
            "compressed path — expect heavy memory use"
        )
    return dense("statevector fits one process")
