"""The batched evaluation engine against an independent reference.

The batched engine evolves M angle sets as the columns of one ``(dim, M)``
matrix; these tests pin it to the one-statevector-at-a-time ``expm``
reference of ``qaoa_reference`` across every mixer family, round count,
feasible space, batch size (including M = 1) and non-uniform initial states,
pin shared-prefix batches to their rows evaluated one at a time — plus the
allocation and caching guarantees the hot path claims.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from qaoa_reference import reference_expectation
from scipy.linalg import expm

from repro.baselines.trotter import TrotterXYMixer
from repro.core import (
    BatchedWorkspace,
    QAOAAnsatz,
    expectation_value_batch,
    qaoa_value_and_gradient_batch,
    simulate,
    simulate_batch,
)
from repro.hilbert import state_matrix
from repro.mixers import (
    MultiAngleXMixer,
    grover_mixer,
    grover_mixer_dicke,
    mixer_clique,
    mixer_ring,
    transverse_field_mixer,
)
from repro.mixers.unitary import FixedUnitaryMixer, HermitianMixer
from repro.problems import erdos_renyi, maxcut_values

_N = 6
_K = 3


def _objective(dim: int, seed: int = 11) -> np.ndarray:
    return np.random.default_rng(seed).random(dim)


def _mixer(kind: str):
    if kind == "x":
        return transverse_field_mixer(_N)
    if kind == "grover-full":
        return grover_mixer(_N)
    if kind == "grover-dicke":
        return grover_mixer_dicke(_N, _K)
    if kind == "clique":
        return mixer_clique(_N, _K)
    if kind == "ring":
        return mixer_ring(_N, _K)
    if kind == "hermitian":
        rng = np.random.default_rng(3)
        mat = rng.random((16, 16)) + 1j * rng.random((16, 16))
        return HermitianMixer(mat + mat.conj().T)
    raise ValueError(kind)


_ALL_KINDS = ["x", "grover-full", "grover-dicke", "clique", "ring", "hermitian"]


def _stage_columns(beta_counts: list[int]) -> list[list[int]]:
    """Flat (betas, gammas) columns of each evolution stage: gamma_k, then
    the round-k betas."""
    num_betas = sum(beta_counts)
    stages, cursor = [], 0
    for k, count in enumerate(beta_counts):
        stages += [[num_betas + k], list(range(cursor, cursor + count))]
        cursor += count
    return stages


def _evolution_grid(axis: np.ndarray, beta_counts: list[int]) -> np.ndarray:
    """Every combination of ``axis`` values, enumerated in evolution order
    (the last angle varies fastest), as rows of the flat layout."""
    layout = [column for stage in _stage_columns(beta_counts) for column in stage]
    rows = np.array(list(itertools.product(axis, repeat=len(layout))))
    angles = np.empty_like(rows)
    angles[:, layout] = rows
    return angles


@pytest.mark.parametrize("kind", _ALL_KINDS)
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("batch", [1, 7, "grid"])
def test_expectation_batch_matches_scalar_loop(kind, p, batch):
    mixer = _mixer(kind)
    obj = _objective(mixer.dim)
    if batch == "grid":
        # consecutive rows share their leading layers
        angles = _evolution_grid(np.array([0.4, 1.9]), [1] * p)
        batch = len(angles)
    else:
        rng = np.random.default_rng(100 * p + batch)
        angles = 2.0 * np.pi * rng.random((batch, 2 * p))
    batched = expectation_value_batch(angles, mixer, obj, p=p)
    looped = np.array([reference_expectation(angles[j], mixer, obj, p=p) for j in range(batch)])
    assert batched.shape == (batch,)
    assert np.abs(batched - looped).max() <= 1e-10


@pytest.mark.parametrize("kind", _ALL_KINDS)
@pytest.mark.parametrize("p", [1, 3])
def test_simulate_batch_statevectors_match(kind, p):
    mixer = _mixer(kind)
    obj = _objective(mixer.dim, seed=7)
    rng = np.random.default_rng(p)
    angles = 2.0 * np.pi * rng.random((5, 2 * p))
    results = simulate_batch(angles, mixer, obj, p=p)
    assert len(results) == 5
    for j, result in enumerate(results):
        scalar = simulate(angles[j], mixer, obj, p=p)
        assert np.abs(result.statevector - scalar.statevector).max() <= 1e-12
        assert result.p == p
        assert np.isclose(result.expectation(), scalar.expectation(), atol=1e-12)


@pytest.mark.parametrize("kind", ["x", "grover-dicke", "clique"])
def test_non_uniform_initial_state(kind):
    mixer = _mixer(kind)
    obj = _objective(mixer.dim, seed=21)
    rng = np.random.default_rng(5)
    init = rng.random(mixer.dim) + 1j * rng.random(mixer.dim)
    init /= np.linalg.norm(init)
    angles = 2.0 * np.pi * rng.random((4, 4))
    batched = expectation_value_batch(angles, mixer, obj, p=2, initial_state=init)
    looped = np.array(
        [
            reference_expectation(angles[j], mixer, obj, p=2, initial_state=init)
            for j in range(4)
        ]
    )
    assert np.abs(batched - looped).max() <= 1e-10


def test_per_column_initial_states():
    mixer = transverse_field_mixer(_N)
    obj = _objective(mixer.dim, seed=9)
    rng = np.random.default_rng(8)
    inits = rng.random((mixer.dim, 3)) + 1j * rng.random((mixer.dim, 3))
    inits /= np.linalg.norm(inits, axis=0, keepdims=True)
    angles = 2.0 * np.pi * rng.random((3, 2))
    batched = expectation_value_batch(angles, mixer, obj, p=1, initial_state=inits)
    looped = np.array(
        [
            reference_expectation(angles[j], mixer, obj, p=1, initial_state=inits[:, j].copy())
            for j in range(3)
        ]
    )
    assert np.abs(batched - looped).max() <= 1e-10


def test_multiangle_batched_equivalence():
    mixer = MultiAngleXMixer(4, [(0,), (1,), (2,), (3,)])
    obj = maxcut_values(erdos_renyi(4, 0.6, seed=2), state_matrix(4))
    p = 2
    num_angles = mixer.num_angles * p + p
    rng = np.random.default_rng(4)
    angles = 2.0 * np.pi * rng.random((6, num_angles))
    batched = expectation_value_batch(angles, mixer, obj, p=p)
    looped = np.array([reference_expectation(angles[j], mixer, obj, p=p) for j in range(6)])
    assert np.abs(batched - looped).max() <= 1e-10


def test_fixed_unitary_beta_one_fast_path():
    rng = np.random.default_rng(12)
    mat = rng.random((8, 8)) + 1j * rng.random((8, 8))
    herm = mat + mat.conj().T
    eigenvalues, eigenvectors = np.linalg.eigh(herm)
    unitary = (eigenvectors * np.exp(-1j * eigenvalues)) @ eigenvectors.conj().T
    mixer = FixedUnitaryMixer(unitary)
    psi = rng.random((8, 5)) + 1j * rng.random((8, 5))
    psi /= np.linalg.norm(psi, axis=0, keepdims=True)
    # beta = 1 must reproduce U @ psi exactly (single-GEMM fast path)
    out = mixer.apply_batch(psi.copy(), np.ones(5))
    assert np.abs(out - unitary @ psi).max() <= 1e-12
    # mixed angles fall back to the eigenbasis path and match U^beta
    betas = rng.random(5)
    out = mixer.apply_batch(psi.copy(), betas)
    for j in range(5):
        expected = expm(-1j * betas[j] * mixer.matrix()) @ psi[:, j]
        assert np.abs(out[:, j] - expected).max() <= 1e-12


def test_apply_batch_out_aliases_input():
    mixer = mixer_clique(_N, _K)
    rng = np.random.default_rng(2)
    psi = rng.random((mixer.dim, 4)) + 1j * rng.random((mixer.dim, 4))
    betas = rng.random(4)
    expected = mixer.apply_batch(psi.copy(), betas)
    inplace = np.ascontiguousarray(psi)
    mixer.apply_batch(inplace, betas, out=inplace)
    assert np.abs(inplace - expected).max() <= 1e-12


def test_uniform_beta_batch_fast_path():
    mixer = mixer_ring(_N, _K)
    rng = np.random.default_rng(6)
    psi = rng.random((mixer.dim, 5)) + 1j * rng.random((mixer.dim, 5))
    uniform = mixer.apply_batch(psi.copy(), np.full(5, 0.37))
    general = mixer.apply_batch(psi.copy(), np.array([0.37, 0.37, 0.37, 0.37, 0.37 + 1e-16]))
    layer = expm(-0.37j * mixer.matrix())
    for j in range(5):
        assert np.abs(uniform[:, j] - layer @ psi[:, j]).max() <= 1e-12
    assert np.abs(uniform - general).max() <= 1e-12


# -- shared angle prefixes ----------------------------------------------------

def _trotter():
    return TrotterXYMixer(_N, _K, [(i, (i + 1) % _N) for i in range(_N)], trotter_steps=2)


def _fixed_unitary():
    rng = np.random.default_rng(12)
    mat = rng.random((16, 16)) + 1j * rng.random((16, 16))
    eigenvalues, eigenvectors = np.linalg.eigh(mat + mat.conj().T)
    return FixedUnitaryMixer((eigenvectors * np.exp(-1j * eigenvalues)) @ eigenvectors.conj().T)


_SHARED_KINDS = _ALL_KINDS + ["multiangle", "unitary-beta1", "trotter"]


def _shared_mixer(kind: str):
    if kind == "multiangle":
        return MultiAngleXMixer(4, [(0,), (1, 2), (3,)])
    if kind == "unitary-beta1":
        return _fixed_unitary()
    if kind == "trotter":
        return _trotter()
    return _mixer(kind)


def _with_shared_prefixes(angles, beta_counts, copies):
    """Row ``j`` takes its first ``copies[j]`` evolution stages from row ``j-1``."""
    angles = angles.copy()
    stages = _stage_columns(beta_counts)
    for j in range(1, len(angles)):
        for stage in stages[: copies[j]]:
            angles[j, stage] = angles[j - 1, stage]
    return angles


@st.composite
def _shared_prefix_case(draw):
    p = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 9))
    copies = draw(st.lists(st.integers(0, 2 * p), min_size=batch, max_size=batch))
    per_column_start = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    return p, copies, per_column_start, seed


@pytest.mark.parametrize("kind", _SHARED_KINDS)
@settings(max_examples=25, deadline=None)
@given(case=_shared_prefix_case())
def test_property_shared_prefixes_match_row_by_row(kind, case):
    p, copies, per_column_start, seed = case
    mixer = _shared_mixer(kind)
    rng = np.random.default_rng(seed)
    beta_counts = [getattr(mixer, "num_angles", 1)] * p
    num_betas = sum(beta_counts)
    angles = 2.0 * np.pi * rng.random((len(copies), num_betas + p))
    if kind == "unitary-beta1":
        angles[:, :num_betas] = 1.0
    angles = _with_shared_prefixes(angles, beta_counts, copies)
    obj = _objective(mixer.dim, seed=seed)
    init = None
    if per_column_start:
        init = rng.random((mixer.dim, len(copies))) + 1j * rng.random((mixer.dim, len(copies)))
        init /= np.linalg.norm(init, axis=0, keepdims=True)
    batched = expectation_value_batch(angles, mixer, obj, p=p, initial_state=init)
    looped = np.concatenate(
        [
            expectation_value_batch(
                angles[j : j + 1], mixer, obj, p=p,
                initial_state=None if init is None else init[:, j].copy(),
            )
            for j in range(len(copies))
        ]
    )
    assert np.abs(batched - looped).max() <= 1e-12
    # the gradient's forward pass records every layer through the same
    # column maps; each row must still see its own chi_k and mixer record
    values, grads = qaoa_value_and_gradient_batch(angles, mixer, obj, p=p, initial_state=init)
    assert np.abs(values - looped).max() <= 1e-12
    for j in range(len(copies)):
        _, grad = qaoa_value_and_gradient_batch(
            angles[j : j + 1], mixer, obj, p=p,
            initial_state=None if init is None else init[:, j].copy(),
        )
        assert np.abs(grads[j] - grad[0]).max() <= 1e-10


@pytest.mark.parametrize("kind", ["x", "clique", "grover-dicke", "multiangle"])
def test_value_and_gradient_batch_on_shared_prefixes(kind):
    mixer = _shared_mixer(kind)
    p = 2
    ansatz = QAOAAnsatz(_objective(mixer.dim, seed=4), mixer, p)
    beta_counts = ansatz.beta_counts
    rng = np.random.default_rng(7)
    angles = 2.0 * np.pi * rng.random((12, ansatz.num_angles))
    angles = _with_shared_prefixes(angles, beta_counts, [0, 1, 2, 3, 4, 0, 2, 2, 1, 3, 4, 4])
    values, grads = ansatz.value_and_gradient_batch(angles)
    for j, row in enumerate(angles):
        value, grad = ansatz.value_and_gradient(row)
        assert abs(values[j] - value) <= 1e-10
        assert np.abs(grads[j] - grad).max() <= 1e-10


@pytest.mark.parametrize("kind", _SHARED_KINDS + ["unitary-mixed"])
@pytest.mark.parametrize("with_workspace", [False, True])
@pytest.mark.parametrize("columns", [[0, 0, 1, 1, 1, 2, 2], [2, 0]], ids=["runs", "narrower"])
def test_apply_batch_column_map_equals_gathered_input(kind, with_workspace, columns):
    mixer = _fixed_unitary() if kind == "unitary-mixed" else _shared_mixer(kind)
    rng = np.random.default_rng(3)
    Psi = rng.random((mixer.dim, 3)) + 1j * rng.random((mixer.dim, 3))
    columns = np.array(columns)
    if kind == "multiangle":
        betas = rng.random((mixer.num_angles, len(columns)))
    elif kind == "unitary-beta1":
        betas = np.ones(len(columns))
    else:
        betas = rng.random(len(columns))
    workspace = BatchedWorkspace(mixer.dim, len(columns)) if with_workspace else None
    original = Psi.copy()
    mapped = mixer.apply_batch(Psi, betas, workspace=workspace, columns=columns)
    gathered = mixer.apply_batch(np.ascontiguousarray(Psi[:, columns]), betas)
    assert mapped.shape == (mixer.dim, len(columns))
    assert np.abs(mapped - gathered).max() <= 1e-12
    assert np.array_equal(Psi, original)
    with pytest.raises(ValueError):
        mixer.apply_batch(Psi, betas, columns=columns + 1)


class TestBatchedWorkspace:
    def test_views_are_contiguous_and_grow_only(self):
        ws = BatchedWorkspace(10, 4)
        assert ws.capacity == 4
        state = ws.state(3)
        assert state.shape == (10, 3)
        assert state.flags.c_contiguous
        ws.ensure(2)
        assert ws.capacity == 4  # never shrinks
        grown = ws.state(9)
        assert ws.capacity == 9
        assert grown.shape == (10, 9)

    def test_load_states_broadcast_and_matrix(self):
        ws = BatchedWorkspace(4, 2)
        single = np.arange(4, dtype=np.complex128)
        states = ws.load_states(single, 2)
        assert np.array_equal(states[:, 0], single)
        assert np.array_equal(states[:, 1], single)
        matrix = np.arange(8, dtype=np.complex128).reshape(4, 2)
        states = ws.load_states(matrix, 2)
        assert np.array_equal(states, matrix)
        with pytest.raises(ValueError):
            ws.load_states(np.zeros(3), 2)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            BatchedWorkspace(0)
        with pytest.raises(ValueError):
            BatchedWorkspace(4).ensure(0)
        assert not BatchedWorkspace(4).compatible_with(5)


class TestDiagonalizedAllocationFree:
    """A DiagonalizedMixer layer must allocate nothing when given an ``out``
    buffer and a workspace (the module's "allocate nothing" claim)."""

    def test_apply_zero_allocation_growth(self):
        mixer = mixer_clique(8, 4)  # dim = 70, real eigenbasis
        psi = mixer.initial_state()[:, None]
        out = np.empty_like(psi)
        ws = BatchedWorkspace(mixer.dim, 1)
        for _ in range(5):
            mixer.apply_batch(psi, 0.3, out=out, workspace=ws)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                mixer.apply_batch(psi, 0.3, out=out, workspace=ws)
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < mixer.dim * 16, f"apply grew the heap by {growth} bytes"

    def test_apply_with_external_scratch(self):
        mixer = mixer_clique(_N, _K)
        ws = BatchedWorkspace(mixer.dim, 1)
        psi = mixer.initial_state()[:, None]
        expected = mixer.apply_batch(psi, 0.8)
        out = ws.state(1)
        got = mixer.apply_batch(psi, 0.8, out=out, workspace=ws)
        assert got is out
        assert np.abs(got - expected).max() <= 1e-12


def test_sample_caches_normalized_probabilities():
    mixer = transverse_field_mixer(4)
    obj = _objective(16, seed=2)
    result = simulate(np.array([0.3, 0.9]), mixer, obj, p=1)
    assert "probs_normalized" not in result._cache
    first = result.sample(50, rng=0)
    assert "probs_normalized" in result._cache
    cached = result._cache["probs_normalized"]
    second = result.sample(50, rng=0)
    assert result._cache["probs_normalized"] is cached
    assert np.array_equal(first, second)
    assert np.isclose(cached.sum(), 1.0)


def test_ansatz_expectation_batch_reuses_workspace():
    obj = _objective(2**_N, seed=13)
    ansatz = QAOAAnsatz(obj, transverse_field_mixer(_N), 2)
    rng = np.random.default_rng(1)
    first = ansatz.expectation_batch(2.0 * np.pi * rng.random((8, 4)))
    ws = ansatz._batched_workspace
    assert ws is not None and ws.capacity == 8
    ansatz.expectation_batch(2.0 * np.pi * rng.random((3, 4)))
    assert ansatz._batched_workspace is ws and ws.capacity == 8
    assert ansatz.counter.forward_passes == 11
    assert first.shape == (8,)
