"""Batched vs scalar adjoint-gradient throughput (the gradient tentpole).

Refinement workloads (random-restart BFGS, the dominant cost of Figs. 3 and
5) hammer the value-and-gradient call once per optimizer step per restart.
The batched adjoint engine evaluates M angle sets per call — one recorded
``(dim, M)`` forward pass plus one batched backward pass — and the vectorized
multi-start refiner advances all restarts in lock-step on it.  This benchmark
records both layers' speedups in ``BENCH_batched_grad.json`` at the repo root
so later PRs can track the trajectory.

The acceptance floor: a 64-restart adjoint refinement through the vectorized
multi-start engine must be at least 3x faster than the sequential per-seed
scipy BFGS loop on the gate configuration.  Kernel rows additionally chart
the raw value-and-gradient batching across mixer types.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.angles import local_minimize, multistart_minimize
from repro.bench.timing import time_call
from repro.bench.workloads import figure4_graph, is_paper_scale
from repro.core import QAOAAnsatz
from repro.hilbert import state_matrix
from repro.mixers import grover_mixer, mixer_clique, transverse_field_mixer
from repro.problems.maxcut import maxcut_values

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_batched_grad.json"

# (label, mixer factory over n, n, p, M) for the raw kernel rows.
_KERNEL_CONFIGS = [
    ("x", lambda n: transverse_field_mixer(n), 10, 2, 64),
    ("x", lambda n: transverse_field_mixer(n), 12, 2, 256),
    ("grover", lambda n: grover_mixer(n), 12, 2, 256),
    ("clique", lambda n: mixer_clique(n, n // 2), 10, 2, 128),
]


def _ansatz(label: str, mixer_factory, n: int, p: int) -> QAOAAnsatz:
    mixer = mixer_factory(n)
    if label == "clique":
        # constrained Dicke subspace: a synthetic objective over the C(n, k) states
        obj = np.random.default_rng(17).random(mixer.dim)
    else:
        obj = maxcut_values(figure4_graph(n), state_matrix(n))
    return QAOAAnsatz(obj, mixer, p)


def _measure_kernel(label: str, mixer_factory, n: int, p: int, M: int) -> dict:
    ansatz = _ansatz(label, mixer_factory, n, p)
    rng = np.random.default_rng(20230923 + n + p)
    angles = 2.0 * np.pi * rng.random((M, ansatz.num_angles))

    def scalar_loop():
        values = np.empty(M)
        grads = np.empty((M, ansatz.num_angles))
        for j in range(M):
            values[j], grads[j] = ansatz.value_and_gradient(angles[j])
        return values, grads

    def batched():
        return ansatz.value_and_gradient_batch(angles)

    # correctness first: the two paths must agree well below the 1e-10 gate
    sv, sg = scalar_loop()
    bv, bg = batched()
    mismatch = max(float(np.abs(sv - bv).max()), float(np.abs(sg - bg).max()))
    assert mismatch <= 1e-10, f"batched/scalar gradients disagree by {mismatch}"

    scalar_s = time_call(scalar_loop, repeats=3, warmup=1)["min"]
    batched_s = time_call(batched, repeats=3, warmup=1)["min"]
    return {
        "kind": "value_and_gradient",
        "mixer": label,
        "n": n,
        "p": p,
        "M": M,
        "dim": ansatz.schedule.dim,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": scalar_s / batched_s,
        "max_abs_mismatch": mismatch,
    }


def _measure_refinement(
    n: int, p: int, M: int, *, maxiter: int = 100, value_rtol: float = 0.0
) -> dict:
    ansatz = _ansatz("x", lambda q: transverse_field_mixer(q), n, p)
    rng = np.random.default_rng(20230923)
    seeds = 2.0 * np.pi * rng.random((M, ansatz.num_angles))

    def scipy_loop():
        return np.array(
            [local_minimize(ansatz, seeds[j], maxiter=maxiter).value for j in range(M)]
        )

    def vectorized():
        return multistart_minimize(ansatz, seeds, maxiter=maxiter).values

    scipy_values = scipy_loop()
    vec_values = vectorized()
    # Quality: the multi-start winner must match the scipy loop's winner.  On
    # deep landscapes (large p) both optimizers converge to genuine local
    # optima but the best-of-M can land in a slightly different basin, so
    # callers may allow a small relative slack there; the acceptance row stays
    # exact.
    best_gap = float(scipy_values.max() - vec_values.max())
    tolerance = max(1e-6, value_rtol * abs(float(scipy_values.max())))
    assert best_gap <= tolerance, (
        f"vectorized refinement lost {best_gap} off the best value "
        f"(allowed {tolerance})"
    )

    scipy_s = time_call(scipy_loop, repeats=2, warmup=0)["min"]
    vectorized_s = time_call(vectorized, repeats=2, warmup=0)["min"]
    return {
        "kind": "multistart_refinement",
        "mixer": "x",
        "n": n,
        "p": p,
        "M": M,
        "dim": ansatz.schedule.dim,
        "maxiter": maxiter,
        "scipy_loop_s": scipy_s,
        "vectorized_s": vectorized_s,
        "speedup": scipy_s / vectorized_s,
        "best_value_gap": best_gap,
    }


@pytest.mark.slow
def test_batched_gradient_throughput_and_record():
    records = [_measure_kernel(*config) for config in _KERNEL_CONFIGS]
    # The acceptance row: 64 random restarts refined end to end.  Paper scale
    # additionally charts a deeper circuit.
    records.append(_measure_refinement(10, 2, 64))
    if is_paper_scale():
        records.append(_measure_refinement(12, 4, 64, value_rtol=0.02))
    payload = {
        "benchmark": "batched_grad",
        "unit": "seconds (min over repeats after warmup)",
        "numpy": np.__version__,
        "records": records,
    }
    _RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    gates = [r for r in records if r["kind"] == "multistart_refinement"]
    for gate in gates:
        assert gate["speedup"] >= 3.0, (
            f"vectorized 64-restart refinement only {gate['speedup']:.2f}x over the "
            f"sequential scipy loop at (n={gate['n']}, p={gate['p']}); "
            "acceptance requires >= 3x"
        )
