"""Ablation benchmarks for the design choices called out in DESIGN.md.

* Walsh–Hadamard (tensor-contraction) X-mixer application vs building the
  dense matrix exponential every layer (what a naive implementation would do).
* Exact subspace Clique mixer (pre-computed eigendecomposition, the paper's
  choice) vs the first-order Trotterized product (the QOKit-style choice).
* Reusing the cached eigendecomposition vs recomputing it per call.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla

from repro.bench.timing import time_call
from repro.bench.workloads import is_paper_scale
from repro.baselines.trotter import trotter_clique_mixer
from repro.core import random_angles, simulate
from repro.hilbert import DickeSpace, state_matrix
from repro.mixers import CliqueMixer, transverse_field_mixer
from repro.problems import densest_subgraph_values, erdos_renyi

_N_X = 12 if is_paper_scale() else 10
_NK = (12, 6) if is_paper_scale() else (10, 5)


# ---------------------------------------------------------------------------
# X mixer: Walsh–Hadamard vs dense expm
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def x_mixer_state():
    rng = np.random.default_rng(0)
    psi = rng.normal(size=1 << _N_X) + 1j * rng.normal(size=1 << _N_X)
    return psi / np.linalg.norm(psi)


def test_x_mixer_walsh_hadamard(benchmark, x_mixer_state):
    """The paper's O(n 2^n) X-mixer layer via Walsh–Hadamard transforms."""
    mixer = transverse_field_mixer(_N_X)
    out = benchmark(lambda: mixer.apply_batch(x_mixer_state[:, None], 0.4))
    assert np.isclose(np.linalg.norm(out), 1.0)


def test_x_mixer_dense_expm(benchmark, x_mixer_state):
    """Naive alternative: build exp(-i beta H_M) densely every layer (small n only)."""
    n_small = 8  # dense expm at n=10+ is prohibitively slow for a benchmark
    rng = np.random.default_rng(1)
    psi = rng.normal(size=1 << n_small) + 1j * rng.normal(size=1 << n_small)
    psi /= np.linalg.norm(psi)
    dense_h = transverse_field_mixer(n_small).matrix()
    out = benchmark(lambda: sla.expm(-1j * 0.4 * dense_h) @ psi)
    assert np.isclose(np.linalg.norm(out), 1.0)


def test_x_mixer_speedup_shape(benchmark, x_mixer_state):
    """At equal n the Walsh–Hadamard path beats dense expm by a large factor."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    n = 8
    rng = np.random.default_rng(2)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    mixer = transverse_field_mixer(n)
    dense_h = mixer.matrix()
    fast = time_call(lambda: mixer.apply_batch(psi[:, None], 0.4), repeats=3)
    slow = time_call(lambda: sla.expm(-1j * 0.4 * dense_h) @ psi, repeats=3)
    print(
        f"\n  ablation x-mixer n={n}: "
        f"WHT={fast['min'] * 1e6:.1f} us, dense expm={slow['min'] * 1e6:.1f} us"
    )
    assert fast["min"] * 10 < slow["min"]


# ---------------------------------------------------------------------------
# Clique mixer: exact eigendecomposition vs Trotterization
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def constrained_workload():
    n, k = _NK
    graph = erdos_renyi(n, 0.5, seed=31)
    space = DickeSpace(n, k)
    obj = densest_subgraph_values(graph, space.bits)
    return n, k, obj


def test_clique_exact_layer(benchmark, constrained_workload):
    """Exact subspace Clique-mixer layer (two GEMVs on the cached eigenbasis)."""
    n, k, obj = constrained_workload
    mixer = CliqueMixer(n, k)
    psi = mixer.initial_state()
    out = benchmark(lambda: mixer.apply_batch(psi[:, None], 0.3))
    assert np.isclose(np.linalg.norm(out), 1.0)


def test_clique_trotter_layer(benchmark, constrained_workload):
    """First-order Trotterized Clique-mixer layer (QOKit-style)."""
    n, k, obj = constrained_workload
    mixer = trotter_clique_mixer(n, k, trotter_steps=1)
    psi = mixer.initial_state()
    out = benchmark(lambda: mixer.apply_batch(psi[:, None], 0.3))
    assert np.isclose(np.linalg.norm(out), 1.0)


def test_trotter_accuracy_penalty_shape(benchmark, constrained_workload):
    """The Trotterized mixer changes the optimizer's landscape: expectation values
    at the same angles differ measurably from the exact subspace evolution."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    n, k, obj = constrained_workload
    # Modest mixer angles: the Clique mixer's spectral radius is O(n^2), so
    # Trotterization is only meaningful in the small-beta regime optimizers
    # actually visit for this mixer.
    angles = 0.1 * random_angles(3, rng=5)
    exact = simulate(angles, CliqueMixer(n, k), obj)
    approx1 = simulate(angles, trotter_clique_mixer(n, k, trotter_steps=1), obj)
    approx16 = simulate(angles, trotter_clique_mixer(n, k, trotter_steps=16), obj)
    err1 = np.linalg.norm(approx1.statevector - exact.statevector)
    err16 = np.linalg.norm(approx16.statevector - exact.statevector)
    print(
        f"\n  ablation clique n={n},k={k}: state error trotter1={err1:.4f}, trotter16={err16:.4f}; "
        f"<C> exact={exact.expectation():.4f}, trotter1={approx1.expectation():.4f}"
    )
    assert err1 > 1e-3                 # one Trotter step visibly distorts the state
    assert err16 < err1 / 2            # more steps converge toward the exact mixer
    assert abs(approx1.expectation() - exact.expectation()) > 1e-5


# ---------------------------------------------------------------------------
# Pre-computation reuse
# ---------------------------------------------------------------------------

def test_precompute_reuse_vs_recompute(benchmark, constrained_workload):
    """Reusing the cached eigendecomposition vs recomputing it for every evaluation."""
    n, k, obj = constrained_workload
    angles = random_angles(2, rng=6)
    mixer = CliqueMixer(n, k)  # pre-computed once, reused inside the benchmark loop

    reused = benchmark(lambda: simulate(angles, mixer, obj).expectation())

    recompute_stats = time_call(
        lambda: simulate(angles, CliqueMixer(n, k), obj).expectation(), repeats=3
    )
    reuse_stats = time_call(lambda: simulate(angles, mixer, obj).expectation(), repeats=3)
    print(
        f"\n  ablation precompute n={n},k={k}: reuse={reuse_stats['min']*1e3:.3f} ms, "
        f"recompute={recompute_stats['min']*1e3:.3f} ms"
    )
    # Rebuilding the eigendecomposition every call dominates the evaluation cost.
    assert reuse_stats["min"] * 3 < recompute_stats["min"]
    assert np.isfinite(reused)
