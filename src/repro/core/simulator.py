"""Exact statevector simulation of the Quantum Alternating Operator Ansatz.

This module is the package's core: given pre-computed objective values over a
feasible space and a pre-diagonalized mixer (or per-round mixer schedule), it
evolves

    |beta, gamma> =
        e^{-i beta_p H_M} e^{-i gamma_p H_C} ... e^{-i beta_1 H_M} e^{-i gamma_1 H_C} |psi0>

and exposes the expectation value ``<beta,gamma| C |beta,gamma>``, per-state
amplitudes and the probability of measuring an optimal state, mirroring the
``simulate`` / ``get_exp_value`` API of the paper's Listing 1.

Each round is a diagonal phase multiply (the phase separator never needs a
matrix) followed by one mixer application.  There is one evolution kernel,
:func:`evolve_state_batch`, which evolves M angle sets as the columns of a
``(dim, M)`` matrix; a single simulation is its M=1 call.  All buffers can be
supplied through a :class:`~repro.core.workspace.BatchedWorkspace` so that
repeated calls inside the angle-finding loop allocate nothing.

The pieces around the mixers are shared with the sharded and compressed
engines: :func:`split_angles_batch` and :func:`join_angles_batch` are the
one angle layout, the separator phases are
:class:`~repro.backend.base.DiagonalPhase`, and the energies are
:func:`~repro.mixers.base.weighted_sq_norms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..backend.base import DiagonalPhase, distinct_levels
from ..mixers.base import Mixer, weighted_sq_norms
from ..mixers.schedules import MixerSchedule, as_schedule
from .precompute import PrecomputedCost
from .symmetry import complement_half, expand_flip_pairs
from .workspace import BatchedWorkspace

__all__ = [
    "QAOAResult",
    "split_angles_batch",
    "join_angles_batch",
    "evolve_state_batch",
    "simulate",
    "simulate_batch",
    "get_exp_value",
    "expectation_value_batch",
    "random_angles",
]


# ---------------------------------------------------------------------------
# angles layout
# ---------------------------------------------------------------------------

def split_angles_batch(
    angles: np.ndarray, beta_counts: Sequence[int]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Split an ``(M, num_angles)`` matrix of flat angle vectors column-wise.

    Each row of ``angles`` is one flat angle set: the mixer angles (betas)
    first, ``beta_counts[k]`` of them for round ``k`` (one per term of a
    multi-angle layer), then the ``p`` phase-separator angles (gammas), as
    in the paper's Listing 1.  Returns a per-round list of ``(count_k, M)``
    beta matrices and the ``(p, M)`` gamma matrix — one column per angle
    set, which is the layout every engine's evolution consumes.
    :func:`join_angles_batch` is the inverse.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim == 1:
        angles = angles[None, :]
    num_betas = sum(beta_counts)
    total = num_betas + len(beta_counts)
    if angles.ndim != 2 or angles.shape[1] != total:
        raise ValueError(
            f"expected an (M, {total}) angle matrix "
            f"({num_betas} betas + {len(beta_counts)} gammas per row), "
            f"got shape {angles.shape}"
        )
    transposed = np.ascontiguousarray(angles.T)
    bounds = np.cumsum([0, *beta_counts])
    betas = [transposed[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    return betas, transposed[num_betas:]


def join_angles_batch(betas: Sequence[np.ndarray], gammas: np.ndarray) -> np.ndarray:
    """The ``(M, num_angles)`` rows of per-round ``(count_k, M)`` beta blocks and
    ``(p, M)`` gammas: the inverse of :func:`split_angles_batch`, which every
    engine uses to lay out its gradients."""
    return np.ascontiguousarray(np.concatenate([*betas, gammas]).T)


def random_angles(
    p: int, rng: np.random.Generator | int | None = None, *, num_betas: int | None = None
) -> np.ndarray:
    """Uniformly random angles in ``[0, 2 pi)`` in the flat (betas, gammas) layout."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if num_betas is None:
        num_betas = p
    return 2.0 * np.pi * rng.random(num_betas + p)


# ---------------------------------------------------------------------------
# result object
# ---------------------------------------------------------------------------

@dataclass
class QAOAResult:
    """Output of one QAOA statevector simulation.

    Stores the final state together with the objective values it was evolved
    under, so that expectation values, per-state amplitudes and ground-state
    (optimal-state) probabilities can all be extracted without re-simulating
    — the behaviour of the special object returned by the paper's
    ``simulate()``.  ``state`` holds the evolved amplitudes over the cost's
    space; for a flip-reduced cost (``cost.flip_pairs``, see
    :mod:`repro.core.symmetry`) that is the flip-symmetric half, which the
    scalars reduce directly and the per-label quantities expand to all
    ``2^n`` labels when asked for.
    """

    state: np.ndarray
    cost: PrecomputedCost
    angles: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    # -- core quantities -------------------------------------------------
    @property
    def statevector(self) -> np.ndarray:
        """The final state over the feasible space (expanded to the full space,
        and cached, for a flip-reduced run)."""
        if not self.cost.flip_pairs:
            return self.state
        if "statevector" not in self._cache:
            self._cache["statevector"] = expand_flip_pairs(self.state)
        return self._cache["statevector"]

    def _sq_norm(self, weights: np.ndarray) -> float:
        return float(weighted_sq_norms(weights, self.state[:, None])[0])

    def expectation(self) -> float:
        """``<psi| C |psi>`` — the quantity the angle-finding loop optimizes."""
        if "expectation" not in self._cache:
            self._cache["expectation"] = self._sq_norm(self.cost.values)
        return self._cache["expectation"]

    def probabilities(self) -> np.ndarray:
        """Measurement probabilities ``|psi_x|^2`` over the feasible space."""
        if "probabilities" not in self._cache:
            self._cache["probabilities"] = np.abs(self.statevector) ** 2
        return self._cache["probabilities"]

    def amplitudes(self) -> np.ndarray:
        """The complex amplitudes (a copy, so callers cannot corrupt the result)."""
        return self.statevector.copy()

    def amplitude_of(self, label: int) -> complex:
        """Amplitude of the feasible state with full-space label ``label``."""
        if self.cost.space is None:
            raise ValueError("amplitude_of requires the feasible space to be attached")
        if self.cost.flip_pairs:
            dim = self.state.size
            if not 0 <= label < 2 * dim:
                raise KeyError(f"state {label} is not in the feasible space")
            index = label if label < dim else 2 * dim - 1 - label
            return complex(self.state[index] / np.sqrt(2.0))
        return complex(self.state[self.cost.space.index_of(label)])

    def ground_state_probability(self) -> float:
        """Total probability of measuring an optimal (best objective) state."""
        if "gs_prob" not in self._cache:
            optimal = np.zeros(self.cost.dim)
            optimal[self.cost.optimal_indices()] = 1.0
            self._cache["gs_prob"] = self._sq_norm(optimal)
        return self._cache["gs_prob"]

    def approximation_ratio(self) -> float:
        """Expectation divided by the optimum (meaningful for positive maximization objectives)."""
        opt = self.cost.optimum
        if opt == 0:
            raise ZeroDivisionError("optimum objective value is zero")
        return self.expectation() / opt

    def norm(self) -> float:
        """Norm of the statevector (should be 1 up to round-off)."""
        return float(np.linalg.norm(self.state))

    # -- sampling ----------------------------------------------------------
    def sample(self, shots: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Draw measurement outcomes; returns full-space labels when available,
        otherwise subspace indices.  A flip-reduced run draws a half label and
        complements it with probability 1/2."""
        if shots < 1:
            raise ValueError("shots must be positive")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        if "probs_normalized" not in self._cache:
            probs = np.abs(self.state) ** 2
            self._cache["probs_normalized"] = probs / probs.sum()
        probs = self._cache["probs_normalized"]
        indices = rng.choice(len(probs), size=shots, p=probs)
        if self.cost.space is not None:
            indices = self.cost.space.labels[indices]
        if self.cost.flip_pairs:
            return complement_half(indices, self.state.size, rng)
        return indices

    @property
    def p(self) -> int:
        """Number of QAOA rounds the angles describe (best effort for multi-angle)."""
        return int(self._cache.get("p", len(self.angles) // 2))


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def _prefix_runs(
    beta_rounds: Sequence[np.ndarray], gammas: np.ndarray, per_column_start: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Runs of shared angle prefixes at every evolution stage.

    The stages in evolution order are ``gamma_1``, the round-1 beta block,
    ``gamma_2``, ...; after stage ``s`` a row's state depends only on the
    angles of stages ``0..s``, so consecutive rows that agree on them form a
    run that shares one state.  Returns ``(fresh, runs)``, both ``(2p, M)``:
    ``fresh[s, j]`` marks the rows that start a run at stage ``s`` and
    ``runs[s, j]`` numbers row ``j``'s run from 0.  The runs come from one
    compare of each row against the row before it; with per-column initial
    states every row is its own run from the start.
    """
    p, batch = gammas.shape
    if batch == 1:  # a lone row has no predecessor to share with
        return np.ones((2 * p, 1), dtype=bool), np.zeros((2 * p, 1), dtype=np.intp)
    blocks, stage_rows, row = [], [], 0
    for gamma_k, beta_k in zip(gammas, beta_rounds):
        blocks += [gamma_k[None], beta_k]
        stage_rows += [row, row + len(beta_k)]
        row += 1 + len(beta_k)
    ordered = np.concatenate(blocks)
    fresh = np.empty(ordered.shape, dtype=bool)
    fresh[:, 0] = True
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=fresh[:, 1:])
    if per_column_start:
        fresh[0] = True
    np.logical_or.accumulate(fresh, axis=0, out=fresh)
    if row != len(stage_rows):  # multi-angle rounds: keep each block's last row
        fresh = fresh[stage_rows]
    runs = fresh.cumsum(axis=1)
    runs -= 1
    return fresh, runs


def evolve_state_batch(
    betas: Sequence[np.ndarray] | np.ndarray,
    gammas: np.ndarray,
    schedule: MixerSchedule,
    cost_values: np.ndarray,
    initial_state: np.ndarray,
    *,
    workspace: BatchedWorkspace | None = None,
    cost_levels: tuple[np.ndarray, np.ndarray] | None = None,
    layer_store: np.ndarray | None = None,
) -> np.ndarray:
    """Apply ``p`` QAOA rounds to M statevectors simultaneously.

    The batch is a ``(dim, M)`` complex matrix: column ``j`` evolves under the
    ``j``-th angle set.  Each round is one broadcasted elementwise phase
    multiply (the phase separator, per-column gammas) followed by one batched
    mixer application (BLAS-3 GEMMs / batched transforms, per-column betas).

    Shared prefixes are evolved once.  The stages run in the order
    ``gamma_1``, round-1 betas, ``gamma_2``, ...; consecutive rows that agree
    on every angle up to a stage form a run with one state after it (see
    :func:`_prefix_runs`), so the evolution keeps a compact state with one
    column per run.  A phase separator multiplies only those columns; where
    a stage splits runs, its inputs are gathered (phase separator) or the
    mixer is called with a ``columns`` map (see
    :meth:`~repro.mixers.base.Mixer.apply_batch`), which transforms only the
    distinct inputs.  A grid enumerated with the last-applied angle varying
    fastest (:func:`~repro.angles.grid.grid_search`) shares most prefixes.
    Once every row is its own run (always for M = 1, per-column initial
    states or rows that differ from their predecessor in the first angle)
    each stage runs in place on the full ``(dim, M)`` workspace batch.

    ``betas`` is a per-round list of ``(count_k, M)`` matrices (or a ``(p, M)``
    array for plain single-beta schedules) and ``gammas`` a ``(p, M)`` matrix.
    ``initial_state`` is a single ``(dim,)`` vector broadcast to every column
    or a ``(dim, M)`` matrix of per-column starts.  ``cost_levels`` optionally
    supplies the pre-computed ``(distinct values, inverse indices)`` pair of
    ``cost_values`` (see :meth:`PrecomputedCost.phase_levels`) so repeated
    sweep chunks skip the per-call ``np.unique``.  If ``layer_store`` (shape
    ``(p, 2, dim, M)``, see :meth:`BatchedWorkspace.ensure_layers`) is given,
    slot ``[k, 0]`` receives the full-width batch after each phase separator
    and slot ``[k, 1]`` each mixer's ``record`` (see
    :meth:`~repro.mixers.base.Mixer.apply_batch`) — what the batched adjoint
    gradient consumes.  The
    returned ``(dim, M)`` array is a view into the workspace's state buffer —
    copy it to keep it across calls.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    if gammas.ndim != 2 or gammas.shape[0] != schedule.p:
        raise ValueError(f"gammas have shape {gammas.shape}, expected ({schedule.p}, M)")
    batch = gammas.shape[1]
    if isinstance(betas, np.ndarray) and betas.ndim == 2 and len(betas) == schedule.p:
        beta_rounds = [betas[k][None, :] for k in range(schedule.p)]
    else:
        beta_rounds = [np.atleast_2d(np.asarray(b, dtype=np.float64)) for b in betas]
    if len(beta_rounds) != schedule.p:
        raise ValueError(f"expected {schedule.p} beta entries, got {len(beta_rounds)}")
    for count, beta_k in zip(schedule.beta_counts(), beta_rounds):
        if beta_k.shape != (count, batch):
            raise ValueError(f"round betas have shape {beta_k.shape}, expected ({count}, {batch})")

    dim = schedule.dim
    cost_values = np.asarray(cost_values, dtype=np.float64)
    if cost_values.shape != (dim,):
        raise ValueError(f"objective values have shape {cost_values.shape}, expected ({dim},)")

    if workspace is None:
        workspace = BatchedWorkspace(dim, batch)
    elif not workspace.compatible_with(dim):
        raise ValueError(
            f"workspace dimension {workspace.dim} does not match simulation dimension {dim}"
        )
    workspace.ensure(batch)

    initial_state = np.asarray(initial_state, dtype=np.complex128)
    if initial_state.shape not in ((dim,), (dim, batch)):
        raise ValueError(
            f"initial states have shape {initial_state.shape}, "
            f"expected ({dim},) or ({dim}, {batch})"
        )
    fresh, runs = _prefix_runs(beta_rounds, gammas, initial_state.ndim == 2)
    widths = (runs[:, -1] + 1).tolist()
    if widths[0] == batch:
        psi = workspace.load_states(initial_state, batch)
    else:
        # one shared start: its first-stage runs are copies of it
        psi = np.empty((dim, widths[0]), dtype=np.complex128)
        psi[:] = initial_state[:, None]
        workspace.calls_served += 1
    if cost_levels is None:
        cost_levels = distinct_levels(cost_values)
    for stage in range(2 * schedule.p):
        round_index, is_mixer = divmod(stage, 2)
        width = widths[stage]
        # the first row of each run carries its angles
        rows = slice(None) if width == batch else fresh[stage]
        columns = None
        target = psi
        if stage and width > widths[stage - 1]:
            # this stage splits runs: each continues its first row's previous run
            columns = runs[stage - 1][fresh[stage]]
            target = (
                workspace.state(batch)
                if width == batch
                else np.empty((dim, width), dtype=np.complex128)
            )
        # the layer store's slot of this stage: the separator output, or the
        # mixer's record (written compact, then widened, under shared prefixes)
        slot = None if layer_store is None else layer_store[round_index, is_mixer]
        if is_mixer:
            beta_k = beta_rounds[round_index][:, rows]
            beta_arg = beta_k[0] if beta_k.shape[0] == 1 else beta_k
            record = slot
            if slot is not None and width < batch:
                record = np.empty((dim, width), dtype=np.complex128)
            schedule[round_index].apply_batch(
                psi, beta_arg, out=target, workspace=workspace, columns=columns, record=record
            )
            written = record
        else:
            if columns is not None:
                np.take(psi, columns, axis=1, out=target, mode="clip")
            phases = DiagonalPhase(cost_values, gammas[round_index][rows], -1.0,
                                   levels=cost_levels)
            target *= phases.fill(workspace.phase(width))
            written = target
        psi = target
        if slot is not None and written is not slot:
            if width == batch:
                slot[...] = written
            else:
                np.take(written, runs[stage], axis=1, out=slot, mode="clip")
    if widths[-1] < batch:
        psi = np.take(psi, runs[-1], axis=1, out=workspace.state(batch), mode="clip")
    return psi


def simulate(
    angles: np.ndarray,
    mixer: Mixer | Sequence[Mixer] | MixerSchedule,
    obj_vals: np.ndarray | PrecomputedCost,
    *,
    p: int | None = None,
    initial_state: np.ndarray | None = None,
    workspace: BatchedWorkspace | None = None,
    maximize: bool = True,
) -> QAOAResult:
    """Simulate a ``p``-round QAOA and return a :class:`QAOAResult`.

    Parameters
    ----------
    angles:
        Flat angle vector: mixer angles (betas) first, then phase-separator
        angles (gammas), matching the paper's Listing 1.
    mixer:
        A single mixer (reused every round), a per-round list of mixers, or a
        pre-built :class:`~repro.mixers.schedules.MixerSchedule`.
    obj_vals:
        Objective values over the feasible space (array or
        :class:`~repro.core.precompute.PrecomputedCost`).
    p:
        Number of rounds.  May be omitted when it can be inferred: it is taken
        from a schedule/mixer list, else from ``len(angles) // 2``.
    initial_state:
        Optional initial statevector (defaults to the mixer's uniform
        superposition over the feasible space; pass e.g. a warm start here).
    workspace:
        Optional pre-allocated
        :class:`~repro.core.workspace.BatchedWorkspace`.
    maximize:
        Recorded on the result's cost object (used for optimal-state queries).

    The M=1 row call of :func:`simulate_batch`.
    """
    angles = np.asarray(angles, dtype=np.float64).ravel()
    return simulate_batch(
        angles[None, :],
        mixer,
        obj_vals,
        p=p,
        initial_state=initial_state,
        workspace=workspace,
        maximize=maximize,
    )[0]


def simulate_batch(
    angles: np.ndarray,
    mixer: Mixer | Sequence[Mixer] | MixerSchedule,
    obj_vals: np.ndarray | PrecomputedCost,
    *,
    p: int | None = None,
    initial_state: np.ndarray | None = None,
    workspace: BatchedWorkspace | None = None,
    maximize: bool = True,
) -> list[QAOAResult]:
    """Simulate M angle sets at once; returns one :class:`QAOAResult` per row.

    ``angles`` is an ``(M, num_angles)`` matrix whose rows are flat angle
    vectors in the layout of :func:`simulate`.  All M simulations share one
    evolution over a ``(dim, M)`` state matrix, so the per-angle-set cost is
    that of the batched BLAS-3 kernels rather than M separate evolutions.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim == 1:
        angles = angles[None, :]
    schedule = as_schedule(mixer, p, angles.shape[1])

    if isinstance(obj_vals, PrecomputedCost):
        cost = obj_vals
        if cost.maximize != maximize:
            cost = PrecomputedCost(values=cost.values.copy(), space=cost.space,
                                   maximize=maximize, flip_pairs=cost.flip_pairs)
    else:
        cost = PrecomputedCost(
            values=np.asarray(obj_vals, dtype=np.float64),
            space=schedule.space,
            maximize=maximize,
        )

    betas, gammas = split_angles_batch(angles, schedule.beta_counts())
    if initial_state is None:
        initial_state = schedule.initial_state()
    psi = evolve_state_batch(
        betas,
        gammas,
        schedule,
        cost.values,
        initial_state,
        workspace=workspace,
        cost_levels=cost.phase_levels(),
    )
    results = []
    for j in range(angles.shape[0]):
        result = QAOAResult(state=psi[:, j].copy(), cost=cost, angles=angles[j].copy())
        result._cache["p"] = schedule.p
        results.append(result)
    return results


def get_exp_value(result: QAOAResult) -> float:
    """Expectation value of a result (mirrors the paper's ``get_exp_value``)."""
    return result.expectation()


def expectation_value_batch(
    angles: np.ndarray,
    mixer: Mixer | Sequence[Mixer] | MixerSchedule,
    obj_vals: np.ndarray | PrecomputedCost,
    *,
    p: int | None = None,
    initial_state: np.ndarray | None = None,
    workspace: BatchedWorkspace | None = None,
) -> np.ndarray:
    """Batched fast path: ``<C>`` for every row of an ``(M, num_angles)`` matrix.

    This is what batched angle-finding loops (grid search, random-restart
    seeding) call: M angle sets are evolved as the columns of one ``(dim, M)``
    matrix and the M expectation values come back as a ``(M,)`` float array.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim == 1:
        angles = angles[None, :]
    schedule = as_schedule(mixer, p, angles.shape[1])
    if isinstance(obj_vals, PrecomputedCost):
        values = obj_vals.values
        cost_levels = obj_vals.phase_levels()
    else:
        values = np.asarray(obj_vals, dtype=np.float64)
        cost_levels = None
    betas, gammas = split_angles_batch(angles, schedule.beta_counts())
    if initial_state is None:
        initial_state = schedule.initial_state()
    psi = evolve_state_batch(
        betas,
        gammas,
        schedule,
        values,
        initial_state,
        workspace=workspace,
        cost_levels=cost_levels,
    )
    return weighted_sq_norms(values, psi)
