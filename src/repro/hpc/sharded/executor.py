"""Coordinator/worker engine for sharded statevector evolution.

One :class:`ShardedExecutor` pins each :class:`~repro.hpc.partition.Chunk` of
the feasible space to a long-lived forked worker process.  The statevector
lives entirely in shared-memory segments (see
:class:`~repro.hpc.sharded.workspace.ShardedWorkspace`); the coordinator
holds only angle vectors, partial reductions and segment names — it never
maps a state page, so its resident set stays O(1) in the dimension.

Execution is coordinator-mediated lockstep: every operation is a command
tuple broadcast over per-worker pipes, and the coordinator collects all
acknowledgements before issuing the next command.  That ack barrier is what
makes the cross-shard butterfly exchange race-free — during one butterfly
level every worker reads two source blocks (its own and its partner's) and
writes only its own destination block in the alternate buffer.

Mixer decompositions
--------------------
The executor takes the mixer object the registry builds
(:func:`repro.api.mixers.make_mixer`), so mixer parameters are parsed in one
place.  It reads only what is independent of the dimension: the X-product
``masks``, their coefficients (1.0 per term of a multi-angle mixer) and
``num_angles``; it never reads a mixer's ``diagonal``, ``term_diagonals`` or
``psi0``, nor its space's labels.  The mixer's type picks the pipeline:

* :class:`~repro.mixers.xmixer.XMixer` /
  :class:`~repro.mixers.xmixer.MultiAngleXMixer` (full space, power-of-two
  shards): the n-qubit
  Walsh–Hadamard transform factors into a *local* transform over the low
  ``n - s`` bits (in-shard, contiguous: the blocked kernel
  :func:`~repro.backend.base.blocked_wht`, ping-ponging through the other
  state slot) and ``s`` butterfly levels over the high bits (cross-shard, one
  level per shard-index bit).  The mixer layer is transform → diagonal
  eigenphases → transform back, with the ``1/dim`` of the two unnormalized
  transforms folded into the phases — the exact sharded analogue of the dense
  ``XMixer.apply_batch``.  Each worker builds its chunk of the mixer diagonal
  once, with the same scatter-and-transform code as the dense mixer
  (:func:`~repro.mixers.xmixer.x_mask_diagonal`); multi-angle layers
  transform their per-column scattered angles instead.  A worker pins its
  OpenBLAS to one thread at its first transform: forked workers inherit the
  coordinator's BLAS threads, and two multithreaded workers on the same
  cores slow each other down.
* :class:`~repro.mixers.grover.GroverMixer` over the uniform start state
  (any space, any shard count): the rank-one update needs one overlap (a
  per-shard column sum combined by the coordinator) and one broadcast axpy.

The adjoint gradient runs in the transform domain, as the dense
:func:`~repro.core.gradients.qaoa_value_and_gradient_batch` does: the
forward pass records each WHT mixer layer's state right after
``diag_phase`` (the eigenbasis middle vector), so a backward round
transforms the adjoint state once, reduces the ``d``-weighted imaginary
inner products against that record locally, applies the inverse eigenphases
and transforms back — 2 transforms per round, in the same 2 state slots as
the forward pass.  The Grover round needs no mixer record: the layer
output's overlap with the uniform state is ``e^{-i beta}`` times its
input's.

Each worker evaluates its chunk's objective once, at setup, with
:func:`~repro.problems.registry.objective_on_labels` (the same function as
dense construction): quadratic families run the split-half kernel on the
chunk's labels, the others a bit matrix of them.

Diagonal phases and reductions
------------------------------
The workers run the dense engine's numerics on their chunk; only the
butterflies and the row-block buffers are their own.  The phase separator
and the X eigenphases are :class:`~repro.backend.base.DiagonalPhase`, filled
one row block at a time into one block buffer per call, with the ``1/dim``
of the transforms folded into the X phases.  Each worker builds its chunk's
distinct levels on first use (:func:`~repro.backend.base.distinct_levels`,
kept with compact ``np.min_scalar_type`` indices when
:func:`~repro.backend.base.level_table_pays`), so a call exponentiates one
``(levels, m)`` table.  Many-level costs (float weights) exponentiate each
row block, and multi-angle X its per-column diagonal.  Energies, norms and
optimal-state probabilities are :func:`~repro.mixers.base.weighted_sq_norms`
of the chunk; the last weighs it with the optimal mask, under the
tolerances of ``PrecomputedCost.optimal_indices``.  The γ- and X
β-derivatives are :func:`~repro.mixers.base.weighted_imag_vdot`.  Angles
are split and gradients laid out by
:func:`~repro.core.simulator.split_angles_batch` and
:func:`~repro.core.simulator.join_angles_batch`, as in every engine.

Shared prefixes
---------------
Rows that agree on every angle up to an evolution stage share one state
after it (:func:`~repro.core.simulator._prefix_runs`), so the forward pass
keeps a compact state of one column per run at the start of each segment.
A stage that splits runs widens it with ``gather_columns``: before the phase
separator, between the first transform and the eigenphases of a WHT mixer
(so that transform runs on the distinct columns only), and before the
Grover update.  A grid chunk that shares its gamma transforms one column
where it used to transform ``m``.  Recorded layers and the final state are
written at full width, so reductions, sampling and gathers see one column
per row.

Flip symmetry
-------------
A flip-symmetric problem arrives as the ``n - 1``-qubit problem of its
flip-symmetric half (:func:`~repro.core.symmetry.flip_half`, marked
``flip_pairs``) with the folded mixer (:meth:`~repro.mixers.base.Mixer.flip_folded`,
as on the dense engine), and runs like any other ``n - 1``-qubit problem on
half the shared memory.
Only :meth:`ShardedExecutor.sample` (complement each label with probability
1/2) and :meth:`ShardedExecutor.gather_state` (expand) know about the pairs.

Every op's compute seconds (per worker) and round-trip wall time (at the
coordinator) are summed; :meth:`ShardedExecutor.op_times` reports them.
"""

from __future__ import annotations

import ctypes
import json
import multiprocessing as mp
import os
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from ...backend.base import (
    DiagonalPhase,
    blocked_wht,
    distinct_levels,
    hadamard_blocks,
    level_table_pays,
)
from ...core.precompute import OPTIMAL_ATOL, OPTIMAL_RTOL
from ...core.simulator import _prefix_runs, join_angles_batch, split_angles_batch
from ...core.symmetry import complement_half, expand_flip_pairs
from ...io.locking import FileLock
from ...mixers.base import Mixer, weighted_imag_vdot, weighted_sq_norms
from ...mixers.grover import GroverMixer
from ...mixers.xmixer import MultiAngleXMixer, XMixer, fold_x_terms, x_mask_diagonal
from ...problems.registry import ProblemInstance, objective_on_labels
from ..partition import Chunk, chunk_labels, split_dicke_space, split_full_space
from .workspace import ShardedWorkspace, attach_segment

__all__ = ["ShardedExecutor", "ShardedExecutionError"]

#: Largest global dimension ``gather_state`` will materialize coordinator-side.
GATHER_LIMIT = 1 << 22


class ShardedExecutionError(RuntimeError):
    """A shard worker raised; carries the remote traceback(s)."""


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

@dataclass
class _WorkerConfig:
    index: int
    chunk: Chunk
    n: int
    k: int | None
    shards: int
    problem: ProblemInstance
    mixer: Mixer
    value_chunk: int = 1 << 16


def _openblas_calls(action: str) -> list:
    """``*openblas_<action>_num_threads*`` of every OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps", "r", encoding="ascii", errors="replace") as handle:
            paths = sorted({
                fields[5] for fields in map(str.split, handle)
                if len(fields) >= 6 and "openblas" in os.path.basename(fields[5])
            })
    except OSError:  # pragma: no cover - /proc-less platforms
        return []
    calls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (f"{prefix}openblas_{action}_num_threads{suffix}"
                     for prefix in ("", "scipy_") for suffix in ("", "64_")):
            call = getattr(lib, name, None)
            if call is not None:
                if action == "set":
                    call.argtypes, call.restype = [ctypes.c_int], None
                else:
                    call.argtypes, call.restype = [], ctypes.c_int
                calls.append(call)
                break
    return calls


class _WorkerState:
    """One shard worker's side of the command protocol."""

    def __init__(self, cfg: _WorkerConfig):
        self.cfg = cfg
        self.local_dim = cfg.chunk.size
        self.names: list[list[str]] = []
        self.batch = 0
        self._own: dict[int, tuple] = {}
        self._partners: dict[tuple[int, int], tuple] = {}
        self.values: np.ndarray | None = None
        self.local_labels: np.ndarray | None = None  # Dicke only
        self.layers: np.ndarray | None = None
        self.local_bits = self.local_dim.bit_length() - 1  # WHT kinds only
        self._diagonal: np.ndarray | None = None
        #: (levels, inverse) of the cost and X-diagonal chunks (None: no table)
        self._levels: dict[str, tuple[np.ndarray, np.ndarray] | None] = {}
        self._blas_pinned = False
        #: compute seconds per op, summed by ``_worker_main``
        self.seconds: dict[str, float] = {}

    # -- segment plumbing ------------------------------------------------
    def _close_handles(self) -> None:
        for shm, _ in list(self._own.values()) + list(self._partners.values()):
            try:
                shm.close()
            except Exception:
                pass
        self._own.clear()
        self._partners.clear()

    def remap(self, names: list[list[str]], batch: int) -> None:
        self._close_handles()
        self.names = names
        if batch != self.batch:
            self.layers = None
        self.batch = batch

    def _segment(self, handles: dict, key, name: str, width: int | None) -> np.ndarray:
        entry = handles.get(key)
        if entry is None:
            shm = attach_segment(name)
            flat = np.ndarray(self.local_dim * self.batch, dtype=np.complex128, buffer=shm.buf)
            entry = handles[key] = (shm, flat)
        width = self.batch if width is None else width
        return entry[1][: self.local_dim * width].reshape(self.local_dim, width)

    def view(self, slot: int, width: int | None = None) -> np.ndarray:
        """The contiguous ``(local_dim, width)`` state at the start of ``slot``'s segment.

        ``width`` defaults to the full batch; a narrower view holds a compact
        state with one column per run of shared angle prefixes.
        """
        return self._segment(self._own, slot, self.names[slot][self.cfg.index], width)

    def partner_view(self, slot: int, shard: int, width: int | None = None) -> np.ndarray:
        """:meth:`view` of another shard's segment."""
        return self._segment(self._partners, (slot, shard), self.names[slot][shard], width)

    # -- labels / diagonals ----------------------------------------------
    def _global_labels(self, lo: int, hi: int) -> np.ndarray:
        if self.cfg.k is None:
            return np.arange(self.cfg.chunk.start + lo, self.cfg.chunk.start + hi, dtype=np.int64)
        return self.local_labels[lo:hi]

    def _row_chunk(self) -> int:
        return max(1024, (1 << 20) // max(1, self.batch))

    def _terms(self) -> tuple[list[int], list[float]]:
        """The mixer's X-product masks and coefficients (1.0 per multi-angle term)."""
        mixer = self.cfg.mixer
        if isinstance(mixer, XMixer):
            return mixer.masks, mixer.coefficients
        return mixer.masks, [1.0] * len(mixer.masks)

    def _chunk_diagonal(self) -> np.ndarray:
        """This chunk's slice of the mixer diagonal, built on first use."""
        if self._diagonal is None:
            self._diagonal = x_mask_diagonal(
                *self._terms(), self.local_bits, high=self._chunk_high()
            )
        return self._diagonal

    def _chunk_high(self) -> int:
        """The index bits above the local ones, shared by this whole chunk."""
        return self.cfg.chunk.start >> self.local_bits

    def _level_table(self, key: str, values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """:func:`~repro.backend.base.distinct_levels` if a level table pays, built on first use."""
        if key not in self._levels:
            levels, inverse = distinct_levels(values)
            if level_table_pays(levels.size, values.size):
                # compact indices: one byte per state for up to 256 levels
                self._levels[key] = (levels, inverse.astype(np.min_scalar_type(levels.size - 1)))
            else:
                self._levels[key] = None
        return self._levels[key]

    def _phase(self, view: np.ndarray, phases: DiagonalPhase) -> None:
        """``view *= phases``, one row block at a time through one block buffer."""
        step = self._row_chunk()
        block_buf = np.empty((min(step, self.local_dim), view.shape[1]), dtype=np.complex128)
        for lo in range(0, self.local_dim, step):
            block = phases.fill(block_buf[: min(step, self.local_dim - lo)], lo)
            view[lo:lo + block.shape[0]] *= block

    # -- operations ------------------------------------------------------
    def setup(self, names: list[list[str]], batch: int) -> tuple[float, float]:
        self.remap(names, batch)
        if self.cfg.k is not None:
            self.local_labels = chunk_labels(self.cfg.chunk, self.cfg.n, self.cfg.k)
        values = np.empty(self.local_dim, dtype=np.float64)
        step = self.cfg.value_chunk
        for lo in range(0, self.local_dim, step):
            hi = min(lo + step, self.local_dim)
            values[lo:hi] = objective_on_labels(self.cfg.problem, self._global_labels(lo, hi))
        self.values = values
        return float(values.min()), float(values.max())

    def load_uniform(self, slot: int, amplitude: complex, width: int | None = None) -> None:
        self.view(slot, width)[:] = amplitude

    def cost_phase(self, slot: int, gammas: np.ndarray, sign: float) -> None:
        """Phase separator on the first ``len(gammas)`` columns of ``slot``."""
        levels = self._level_table("cost", self.values)
        self._phase(self.view(slot, gammas.size),
                    DiagonalPhase(self.values, gammas, sign, levels=levels))

    def diag_phase(self, slot: int, betas: np.ndarray, sign: float, scale: float) -> None:
        """Mixer eigenphases (times ``scale``) on the first ``betas.shape[1]`` columns."""
        if isinstance(self.cfg.mixer, XMixer):
            d = self._chunk_diagonal()
            phases = DiagonalPhase(d, betas[0], sign, scale=scale,
                                   levels=self._level_table("x", d))
        else:  # multi-angle: each column's diagonal is its own angle-weighted sum
            d = x_mask_diagonal(
                *self._terms(), self.local_bits, high=self._chunk_high(), angles=betas
            )
            phases = DiagonalPhase(d, 1.0, sign, scale=scale)
        self._phase(self.view(slot, betas.shape[1]), phases)

    def wht_local(self, slot: int, scratch: int, width: int | None = None) -> None:
        """Unnormalized WHT over the local index bits, in place, via ``scratch``."""
        if not self._blas_pinned:
            for set_threads in _openblas_calls("set"):
                set_threads(1)
            self._blas_pinned = True
        state = self.view(slot, width)
        blocks = hadamard_blocks(self.local_bits, state.shape[1])
        blocked_wht(state, self.view(scratch, width), state, blocks)

    def blas_threads(self) -> list[int]:
        """Thread count reported by every OpenBLAS this worker has mapped."""
        return [int(get_threads()) for get_threads in _openblas_calls("get")]

    def butterfly(self, level: int, src_slot: int, dst_slot: int,
                  width: int | None = None) -> None:
        bit = 1 << level
        partner = self.cfg.index ^ bit
        own_src = self.view(src_slot, width)
        partner_src = self.partner_view(src_slot, partner, width)
        own_dst = self.view(dst_slot, width)
        if self.cfg.index & bit:
            np.subtract(partner_src, own_src, out=own_dst)
        else:
            np.add(own_src, partner_src, out=own_dst)

    def colsum(self, slot: int, width: int | None = None) -> np.ndarray:
        return self.view(slot, width).sum(axis=0)

    def grover_update(self, slot: int, factors: np.ndarray) -> None:
        self.view(slot, factors.size)[:] += factors[None, :]

    def gather_columns(self, src: int, dst: int, columns: np.ndarray, src_width: int) -> None:
        """Widen a compact state: ``dst`` column ``j`` is ``src`` column ``columns[j]``."""
        np.take(
            self.view(src, src_width), columns, axis=1,
            out=self.view(dst, columns.size), mode="clip",
        )

    def mul_values(self, slot: int) -> None:
        self.view(slot)[:] *= self.values[:, None]

    def expectation_part(self, slot: int) -> np.ndarray:
        return weighted_sq_norms(self.values, self.view(slot))

    def norm_part(self, slot: int) -> np.ndarray:
        return weighted_sq_norms(np.ones(self.local_dim), self.view(slot))

    def gsp_part(self, slot: int, optimum: float) -> np.ndarray:
        optimal = np.isclose(self.values, optimum, rtol=OPTIMAL_RTOL, atol=OPTIMAL_ATOL)
        return weighted_sq_norms(optimal.astype(np.float64), self.view(slot))

    # -- adjoint-gradient helpers ---------------------------------------
    def _ensure_layers(self, p: int) -> np.ndarray:
        if self.layers is None or self.layers.shape[0] != p:
            self.layers = np.empty((p, 2, self.local_dim, self.batch), dtype=np.complex128)
        return self.layers

    def store_layer(self, k: int, j: int, p: int, runs: np.ndarray | None, slot: int) -> None:
        """Record layer ``(k, j)`` at full width, through the run map of a compact state."""
        layer = self._ensure_layers(p)[k, j]
        if runs is None:
            layer[...] = self.view(slot)
        else:
            np.take(self.view(slot, int(runs[-1]) + 1), runs, axis=1, out=layer, mode="clip")

    def layer_colsum(self, k: int, j: int) -> np.ndarray:
        return self.layers[k, j].sum(axis=0)

    def gamma_grad_part(self, phi_slot: int, k: int) -> np.ndarray:
        return weighted_imag_vdot(self.values, self.view(phi_slot), self.layers[k, 0])

    def xgrad_part(self, phi_slot: int, k: int) -> np.ndarray:
        """``sum_y d_t[y] Im(conj(phi[y]) mid[y])`` per term ``t`` (one row for
        ``x``), against round ``k``'s recorded middle vector ``mid``."""
        phi = self.view(phi_slot)
        psi = self.layers[k, 1]
        if isinstance(self.cfg.mixer, XMixer):
            return weighted_imag_vdot(self._chunk_diagonal(), phi, psi)[None, :]
        # multi-angle: every term diagonal is a signed Hadamard row, so all
        # per-term sums are rows of one transform of the imaginary parts
        rows, weights = fold_x_terms(*self._terms(), self.local_bits, high=self._chunk_high())
        imag = phi.real * psi.imag - phi.imag * psi.real
        blocked_wht(imag, np.empty_like(imag), imag, hadamard_blocks(self.local_bits, self.batch))
        return weights[:, None] * imag[rows]

    # -- sampling / gather / io ------------------------------------------
    def sample_local(self, slot: int, col: int, counts, seeds) -> np.ndarray:
        """This shard's entry of ``counts`` labels, drawn with its entry of ``seeds``."""
        count = int(counts[self.cfg.index])
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        probs = np.abs(self.view(slot)[:, col]) ** 2
        cdf = np.cumsum(probs)
        rng = np.random.default_rng(seeds[self.cfg.index])
        draws = rng.random(count) * cdf[-1]
        indices = np.searchsorted(cdf, draws, side="right")
        np.clip(indices, 0, self.local_dim - 1, out=indices)
        if self.cfg.k is None:
            return (self.cfg.chunk.start + indices).astype(np.int64)
        return self.local_labels[indices]

    def gather(self, slot: int, col: int) -> np.ndarray:
        return self.view(slot)[:, col].copy()

    def checkpoint(self, slot: int, directory: str) -> None:
        np.save(Path(directory) / f"shard-{self.cfg.index}.npy", self.view(slot))

    def restore(self, slot: int, directory: str) -> None:
        block = np.load(Path(directory) / f"shard-{self.cfg.index}.npy")
        if block.shape != (self.local_dim, self.batch):
            raise ValueError(
                f"checkpoint shard {self.cfg.index} has shape {block.shape}, "
                f"expected {(self.local_dim, self.batch)}"
            )
        self.view(slot)[:] = block

    def compute_seconds(self) -> dict[str, float]:
        """Compute seconds per op so far (this query excluded)."""
        return dict(self.seconds)

    def rss(self) -> tuple[int, int]:
        current = peak = 0
        try:
            with open("/proc/self/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        current = int(line.split()[1]) * 1024
                    elif line.startswith("VmHWM:"):
                        peak = int(line.split()[1]) * 1024
        except OSError:  # pragma: no cover - /proc-less platforms
            pass
        return current, peak

    # -- dispatch --------------------------------------------------------
    def dispatch(self, op: str, args: tuple):
        handler = getattr(self, op)
        return handler(*args)


def _worker_main(cfg: _WorkerConfig, conn) -> None:
    state = _WorkerState(cfg)
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            op = message[0]
            if op == "exit":
                conn.send(("ok", None))
                break
            start = time.perf_counter()
            try:
                result = state.dispatch(op, message[1:])
            except BaseException:
                conn.send(("err", traceback.format_exc()))
                continue
            state.seconds[op] = state.seconds.get(op, 0.0) + time.perf_counter() - start
            conn.send(("ok", result))
    finally:
        state._close_handles()
        conn.close()


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------

class ShardedExecutor:
    """Drives one sharded QAOA evolution across pinned worker processes.

    Parameters
    ----------
    problem:
        A :class:`~repro.problems.registry.ProblemInstance`; its feasible
        space is never built (each worker evaluates its chunk's labels).
    mixer:
        The :class:`~repro.mixers.xmixer.XMixer`,
        :class:`~repro.mixers.xmixer.MultiAngleXMixer` or
        :class:`~repro.mixers.grover.GroverMixer` (uniform start state) over
        the problem's space, as :func:`repro.api.mixers.make_mixer` builds it
        (folded, for a flip-symmetric half).  Other mixers raise
        ``ValueError``.
    p:
        Number of QAOA rounds.
    shards:
        Worker count.  WHT mixers require a power of two that divides the
        (full-space) dimension; the Grover mixer accepts any count >= 2.
    batch:
        Initial number of statevector columns.
    """

    def __init__(self, problem: ProblemInstance, mixer: Mixer, p: int,
                 shards: int, *, batch: int = 1):
        if p < 1:
            raise ValueError("a QAOA needs at least one round")
        if shards < 2:
            raise ValueError("sharded execution needs at least 2 shards")
        self._grover = isinstance(mixer, GroverMixer)
        if not self._grover and not isinstance(mixer, (XMixer, MultiAngleXMixer)):
            raise ValueError(
                f"mixer {type(mixer).__name__} has no sharded execution path "
                "(supported: 'x', 'multiangle_x', 'grover')"
            )
        if self._grover and mixer._initial is not None:
            raise ValueError(
                "the sharded Grover mixer runs the uniform start state; a "
                "GroverMixer with a custom start state has no sharded path"
            )
        self.problem = problem
        self.mixer = mixer
        self.p = int(p)
        self.beta_counts = [mixer.num_angles] * self.p
        self.n = int(problem.n)
        self.k = problem.k
        self.dim = int(problem.dim)
        self.maximize = bool(problem.maximize)
        if shards > self.dim:
            raise ValueError(f"cannot split dim {self.dim} into {shards} shards")

        if not self._grover:
            if self.k is not None:
                raise ValueError(
                    f"mixer {type(mixer).__name__} acts on the full space; Dicke "
                    "subspaces shard with the Grover mixer only"
                )
            if shards & (shards - 1):
                raise ValueError(
                    f"WHT mixers need a power-of-two shard count, got {shards}"
                )
            chunks = split_full_space(self.n, shards)
        elif self.k is None:
            chunks = split_full_space(self.n, shards)
        else:
            chunks = split_dicke_space(self.n, self.k, shards)
        if mixer.dim != self.dim:  # e.g. an unfolded mixer on a flip-symmetric half
            raise ValueError(f"the mixer acts on dim {mixer.dim}, the problem on dim {self.dim}")
        self.chunks = chunks
        self.shards = len(chunks)
        self._s = self.shards.bit_length() - 1  # butterfly levels (WHT kinds)
        self._sqrt_dim = float(np.sqrt(float(self.dim)))

        self.workspace = ShardedWorkspace([c.size for c in chunks], batch, slots=2)
        ctx = mp.get_context("fork")
        self._procs = []
        self._conns = []
        for chunk in chunks:
            parent, child = ctx.Pipe()
            cfg = _WorkerConfig(
                index=chunk.index,
                chunk=chunk,
                n=self.n,
                k=self.k,
                shards=self.shards,
                problem=problem,
                mixer=mixer,
            )
            proc = ctx.Process(target=_worker_main, args=(cfg, child), daemon=True)
            proc.start()
            child.close()
            self._procs.append(proc)
            self._conns.append(parent)
        self._closed = False
        #: op -> [calls, coordinator wall seconds], summed by ``_command``
        self._op_wall: dict[str, list] = {}
        try:
            extrema = self._command("setup", self.workspace.segment_names(),
                                    self.workspace.batch)
        except Exception:
            self.close()
            raise
        self.value_min = min(e[0] for e in extrema)
        self.value_max = max(e[1] for e in extrema)
        self._sim_slot: int | None = None

    # ------------------------------------------------------------------
    @property
    def optimum(self) -> float:
        """Best objective value over the feasible space (by sense)."""
        return self.value_max if self.maximize else self.value_min

    @property
    def num_angles(self) -> int:
        """Flat angle vector length (betas then gammas)."""
        return sum(self.beta_counts) + self.p

    # -- command plumbing ------------------------------------------------
    def _command(self, op: str, *payload):
        if self._closed:
            raise RuntimeError("executor is closed")
        message = (op,) + payload
        start = time.perf_counter()
        for conn in self._conns:
            try:
                conn.send(message)
            except OSError:  # a dead worker's pipe: its recv below reports it
                pass
        results = []
        errors = []
        for index, conn in enumerate(self._conns):
            try:
                status, value = conn.recv()
            except (EOFError, OSError):
                errors.append(f"shard {index}: worker died")
                continue
            if status == "ok":
                results.append(value)
            else:
                errors.append(f"shard {index}:\n{value}")
        if errors:
            raise ShardedExecutionError(
                f"sharded op {op!r} failed on {len(errors)} shard(s):\n"
                + "\n".join(errors)
            )
        totals = self._op_wall.setdefault(op, [0, 0.0])
        totals[0] += 1
        totals[1] += time.perf_counter() - start
        return results

    def op_times(self) -> dict[str, dict[str, float]]:
        """Where the worker time went, per op since the executor started.

        For every op: ``calls``, the coordinator's ``wall_s`` (broadcast to
        last acknowledgement), the largest per-worker ``compute_s`` and the
        barrier ``wait_s`` (wall minus that compute: pipes, pickling and
        waiting for the slowest shard).  Failed calls are not counted.
        """
        walls = {op: tuple(totals) for op, totals in self._op_wall.items()}
        computes = self._command("compute_seconds")
        report = {}
        for op, (calls, wall) in walls.items():
            compute = max(seconds.get(op, 0.0) for seconds in computes)
            report[op] = {
                "calls": calls, "wall_s": wall, "compute_s": compute, "wait_s": wall - compute,
            }
        return report

    def _sync(self) -> None:
        self._command("remap", self.workspace.segment_names(), self.workspace.batch)

    def ensure_batch(self, batch: int) -> None:
        """Re-shape the shared buffers to ``batch`` columns (no-op if equal)."""
        if self.workspace.ensure(batch):
            self._sim_slot = None
            self._sync()

    # -- evolution -------------------------------------------------------
    def _other(self, slot: int) -> int:
        """The first allocated slot that is not ``slot``."""
        return next(s for s in range(self.workspace.num_slots) if s != slot)

    def _transform(self, slot: int, scratch: int, width: int | None = None) -> int:
        """Unnormalized full WHT of ``width`` columns: local transform + s exchange levels.

        The local transform (low bits, in place in ``slot`` via ``scratch``)
        and the cross-shard levels (high bits) act on disjoint index bits, so
        their order is immaterial; the state ends in whichever of
        ``slot``/``scratch`` the level parity lands on.
        """
        self._command("wht_local", slot, scratch, width)
        cur, other = slot, scratch
        for level in range(self._s):
            self._command("butterfly", level, cur, other, width)
            cur, other = other, cur
        return cur

    def _gather(self, slot: int, columns: np.ndarray, width: int) -> int:
        """Widen ``slot``'s ``width``-column state through ``columns``; returns its new slot."""
        dst = self._other(slot)
        self._command("gather_columns", slot, dst, columns, width)
        return dst

    def _apply_mixer(self, slot: int, betas_k: np.ndarray, sign: float, width: int,
                     columns: np.ndarray | None, record=None) -> int:
        """One mixer layer with per-column angles; returns the new state slot.

        ``slot`` holds ``width`` columns.  A ``columns`` map widens them to
        the ``betas_k`` columns after the first transform (before the update
        for Grover), so that transform runs on the distinct inputs only.
        ``record(slot)``, if given, stores a WHT layer's middle vector (the
        state right after ``diag_phase``); the Grover update records nothing.
        """
        if self._grover:
            if columns is not None:
                slot = self._gather(slot, columns, width)
            S = np.sum(self._command("colsum", slot, betas_k.shape[1]), axis=0)
            factors = (np.exp(sign * 1j * betas_k[0]) - 1.0) * S / float(self.dim)
            self._command("grover_update", slot, factors)
            return slot
        t = self._transform(slot, self._other(slot), width)
        if columns is not None:
            t = self._gather(t, columns, width)
        self._command("diag_phase", t, betas_k, sign, 1.0 / self.dim)
        if record is not None:
            record(t)
        return self._transform(t, self._other(t), betas_k.shape[1])

    def _forward(self, beta_rounds, gammas, *, store_layers: bool = False) -> int:
        """Evolve the batch; returns the slot that holds its full-width final state.

        Shared angle prefixes are evolved once, as in
        :func:`~repro.core.simulator.evolve_state_batch`: the state keeps one
        column per run of :func:`~repro.core.simulator._prefix_runs`, a stage
        that splits runs widens it with ``gather_columns``, and a final
        gather restores one column per row.  Recorded layers (each phase
        separator's output, each WHT mixer's middle vector) are written at
        full width through the run map.  When every row is its own run (M =
        1, random rows) no gather happens.
        """
        M = gammas.shape[1]
        self.ensure_batch(M)
        fresh, runs = _prefix_runs(beta_rounds, gammas, False)
        widths = (runs[:, -1] + 1).tolist()
        cur = 0
        self._command("load_uniform", cur, complex(1.0 / self._sqrt_dim), widths[0])
        for stage in range(2 * self.p):
            k, is_mixer = divmod(stage, 2)
            width = widths[stage]
            # the first row of each run carries its angles
            rows = slice(None) if width == M else fresh[stage]
            columns = None
            if stage and width > widths[stage - 1]:
                # this stage splits runs: each continues its first row's previous run
                columns = runs[stage - 1][fresh[stage]]
            record = None
            if store_layers:
                layer_runs = None if width == M else runs[stage]
                record = partial(self._command, "store_layer", k, is_mixer, self.p, layer_runs)
            if is_mixer:
                cur = self._apply_mixer(
                    cur, beta_rounds[k][:, rows], -1.0, widths[stage - 1], columns, record
                )
            else:
                if columns is not None:
                    cur = self._gather(cur, columns, widths[stage - 1])
                self._command("cost_phase", cur, gammas[k][rows], -1.0)
                if record is not None:
                    record(cur)
        if widths[-1] < M:
            cur = self._gather(cur, runs[-1], widths[-1])
        return cur

    def expectation_batch(self, angles: np.ndarray) -> np.ndarray:
        """``<C>`` for every row of an ``(M, num_angles)`` angle matrix."""
        beta_rounds, gammas = split_angles_batch(angles, self.beta_counts)
        cur = self._forward(beta_rounds, gammas)
        self._sim_slot = cur
        return np.sum(self._command("expectation_part", cur), axis=0)

    def value_and_gradient_batch(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched expectation values and exact adjoint gradients.

        One sharded forward pass with per-round layer recording, then the
        transform-domain adjoint recursion described in the module
        docstring.  Shapes ``(M,)`` and ``(M, num_angles)``.
        """
        beta_rounds, gammas = split_angles_batch(angles, self.beta_counts)
        M = gammas.shape[1]
        cur = self._forward(beta_rounds, gammas, store_layers=True)
        energies = np.sum(self._command("expectation_part", cur), axis=0)

        self._command("mul_values", cur)  # phi = C psi
        grad_beta_blocks: list[np.ndarray] = [None] * self.p  # type: ignore[list-item]
        grad_gammas = np.empty((self.p, M), dtype=np.float64)
        for k in range(self.p - 1, -1, -1):
            betas_k = beta_rounds[k]
            if self._grover:
                S_phi = np.sum(self._command("colsum", cur), axis=0)
                # <psi0|psi_k> = e^{-i beta} <psi0|chi_k>
                S_psi = np.exp(-1j * betas_k[0]) * np.sum(
                    self._command("layer_colsum", k, 0), axis=0
                )
                grad_beta_blocks[k] = (
                    2.0 * np.imag(np.conj(S_phi) * S_psi) / float(self.dim)
                )[None, :]
                factors = (np.exp(1j * betas_k[0]) - 1.0) * S_phi / float(self.dim)
                self._command("grover_update", cur, factors)
            else:
                # the recorded middle vector carries the 1/dim of the two
                # unnormalized transforms, so the inner products need no scale
                phi_t = self._transform(cur, self._other(cur))
                grad_beta_blocks[k] = 2.0 * np.sum(
                    self._command("xgrad_part", phi_t, k), axis=0
                )
                self._command("diag_phase", phi_t, betas_k, +1.0, 1.0 / self.dim)
                cur = self._transform(phi_t, self._other(phi_t))
            grad_gammas[k] = 2.0 * np.sum(self._command("gamma_grad_part", cur, k), axis=0)
            if k:
                self._command("cost_phase", cur, gammas[k], +1.0)

        self._sim_slot = None  # the state buffers hold phi, not psi
        return energies, join_angles_batch(grad_beta_blocks, grad_gammas)

    # -- result extraction ----------------------------------------------
    def simulate(self, angles: np.ndarray) -> dict:
        """Evolve one angle set and reduce the result scalars.

        Returns ``{"expectation", "ground_state_probability", "norm"}``; the
        final state stays resident in the shard buffers for
        :meth:`sample` / :meth:`gather_state` / :meth:`checkpoint` until the
        next evolution overwrites it.
        """
        angles = np.asarray(angles, dtype=np.float64).ravel()
        cur = self._forward(*split_angles_batch(angles, self.beta_counts))
        self._sim_slot = cur
        expectation = float(np.sum(self._command("expectation_part", cur), axis=0)[0])
        gsp = float(np.sum(self._command("gsp_part", cur, self.optimum), axis=0)[0])
        norm = float(np.sqrt(np.sum(self._command("norm_part", cur), axis=0)[0]))
        return {
            "expectation": expectation,
            "ground_state_probability": gsp,
            "norm": norm,
        }

    def _require_state(self) -> int:
        if self._sim_slot is None:
            raise RuntimeError(
                "no resident final state (run simulate()/expectation_batch() "
                "first; gradient passes consume the state buffers)"
            )
        return self._sim_slot

    def sample(self, shots: int, rng: np.random.Generator | int | None = None,
               *, col: int = 0) -> np.ndarray:
        """Draw measurement outcomes (full-space labels) from the resident state.

        Two-stage exact sampling: shard totals give a multinomial split of
        the shots, then one broadcast has each worker sample its local
        distribution, with a seed drawn for every shard that got shots.  On
        the flip-symmetric half (``problem.flip_pairs``) each label is then
        complemented with probability 1/2.
        """
        if shots < 1:
            raise ValueError("shots must be positive")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        slot = self._require_state()
        totals = np.array([part[col] for part in self._command("norm_part", slot)])
        counts = rng.multinomial(shots, totals / totals.sum())
        seeds = [int(rng.integers(0, 2 ** 63 - 1)) if count else None for count in counts]
        out = np.concatenate(self._command("sample_local", slot, col, counts, seeds))
        out = out[rng.permutation(out.size)]
        if self.problem.flip_pairs:
            return complement_half(out, self.dim, rng)
        return out

    def gather_state(self, *, col: int = 0) -> np.ndarray:
        """Concatenate the resident final state (small dims only; tests),
        expanded to the full space on the flip-symmetric half."""
        flip = self.problem.flip_pairs
        if self.dim << flip > GATHER_LIMIT:
            raise ValueError(
                f"refusing to gather a dim-{self.dim << flip} statevector into the "
                f"coordinator (limit {GATHER_LIMIT})"
            )
        slot = self._require_state()
        state = np.concatenate(self._command("gather", slot, col))
        return expand_flip_pairs(state) if flip else state

    # -- checkpointing ----------------------------------------------------
    def checkpoint(self, directory: str | os.PathLike) -> None:
        """Persist the resident state: one ``.npy`` per shard plus a manifest.

        The manifest write and the shard dumps run under the run-store
        :class:`~repro.io.locking.FileLock`, so concurrent executors sharing
        a checkpoint directory serialize cleanly.
        """
        slot = self._require_state()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with FileLock(directory / ".lock"):
            self._command("checkpoint", slot, str(directory))
            manifest = {
                "n": self.n,
                "k": self.k,
                "dim": self.dim,
                "shards": self.shards,
                "batch": self.workspace.batch,
                "chunks": [[c.start, c.stop] for c in self.chunks],
            }
            (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))

    def restore(self, directory: str | os.PathLike) -> None:
        """Load a checkpoint written by a same-shaped executor."""
        directory = Path(directory)
        with FileLock(directory / ".lock"):
            manifest = json.loads((directory / "manifest.json").read_text())
            if (manifest["n"], manifest["k"], manifest["shards"]) != (self.n, self.k, self.shards):
                raise ValueError(
                    f"checkpoint shape (n={manifest['n']}, k={manifest['k']}, "
                    f"shards={manifest['shards']}) does not match executor "
                    f"(n={self.n}, k={self.k}, shards={self.shards})"
                )
            self.ensure_batch(int(manifest["batch"]))
            self._command("restore", 0, str(directory))
        self._sim_slot = 0

    # -- introspection / lifecycle ----------------------------------------
    def rss(self) -> dict:
        """Current and peak RSS of the coordinator and every worker."""
        worker = self._command("rss")
        own = _WorkerState.rss(self)  # reads /proc/self, needs no state
        return {
            "coordinator": {"rss": own[0], "peak": own[1]},
            "workers": [{"rss": r, "peak": p} for r, p in worker],
            "max_peak": max([own[1]] + [p for _, p in worker]),
            "total_peak": own[1] + sum(p for _, p in worker),
        }

    def close(self) -> None:
        """Shut workers down and unlink every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - stuck worker safety net
                proc.terminate()
                proc.join(timeout=5.0)
        self.workspace.close()

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedExecutor(n={self.n}, k={self.k}, dim={self.dim}, "
            f"shards={self.shards}, mixer={type(self.mixer).__name__}, p={self.p})"
        )
