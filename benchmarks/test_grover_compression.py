"""Sec. 2.4 — Grover-mixer value compression: dense vs compressed, and large n.

The paper's Grover-mixer fast path stores only the distinct objective values
and their degeneracies, enabling simulations up to n ≈ 100.  The benchmarks
check (a) the compressed path agrees with the dense simulator and beats it in
time at moderate n, and (b) a 100-qubit compressed simulation runs in
milliseconds when the spectrum is known analytically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.timing import time_call
from repro.bench.workloads import figure4_graph, is_paper_scale
from repro.core import QAOAAnsatz, random_angles
from repro.grover import CompressedGroverAnsatz, compress_objective, hamming_weight_spectrum
from repro.hilbert import state_matrix
from repro.mixers import grover_mixer
from repro.problems.maxcut import maxcut_values

_P = 4
_N_DENSE = 14 if is_paper_scale() else 10
_ANGLES = random_angles(_P, rng=9)


@pytest.fixture(scope="module")
def grover_workload():
    graph = figure4_graph(_N_DENSE)
    obj = maxcut_values(graph, state_matrix(_N_DENSE))
    return obj, compress_objective(obj)


def test_dense_grover_simulation(benchmark, grover_workload):
    """Dense Grover-mixer simulation (rank-one update on the full 2^n vector)."""
    obj, _ = grover_workload
    ansatz = QAOAAnsatz(obj, grover_mixer(_N_DENSE), _P)
    value = benchmark(lambda: ansatz.expectation(_ANGLES))
    assert 0 <= value <= obj.max()


def test_compressed_grover_simulation(benchmark, grover_workload):
    """Compressed simulation over the distinct-value classes only."""
    obj, spectrum = grover_workload
    engine = CompressedGroverAnsatz(spectrum, _P, n=_N_DENSE)
    value = benchmark(lambda: engine.expectation(_ANGLES))
    # Agreement with the dense simulator.
    dense = QAOAAnsatz(obj, grover_mixer(_N_DENSE), _P).expectation(_ANGLES)
    assert np.isclose(value, dense, atol=1e-9)


def test_compressed_n100_simulation(benchmark):
    """A 100-qubit Grover-QAOA on an analytically-compressed spectrum."""
    spectrum = hamming_weight_spectrum(100, lambda w: float(min(w, 100 - w)))
    engine = CompressedGroverAnsatz(spectrum, _P, n=100)
    result = benchmark(lambda: engine.simulate(_ANGLES))
    assert np.isclose(result.norm(), 1.0, atol=1e-9)
    assert result.spectrum.total == 2**100


def test_compression_speedup_and_agreement(benchmark, grover_workload):
    """Compressed representation is faster than dense at equal answers."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # shape-only entry
    obj, spectrum = grover_workload
    ansatz = QAOAAnsatz(obj, grover_mixer(_N_DENSE), _P)
    engine = CompressedGroverAnsatz(spectrum, _P, n=_N_DENSE)
    dense_stats = time_call(lambda: ansatz.expectation(_ANGLES), repeats=3)
    comp_stats = time_call(lambda: engine.expectation(_ANGLES), repeats=3)
    print()
    print(
        f"  grover n={_N_DENSE}: dense={dense_stats['min'] * 1e3:.3f} ms, "
        f"compressed={comp_stats['min'] * 1e3:.3f} ms, "
        f"distinct values={spectrum.num_distinct} of {spectrum.total}"
    )
    # The compressed state has far fewer amplitudes than the dense one ...
    assert spectrum.num_distinct < spectrum.total / 50
    # ... and is at least a few times faster to evolve.
    assert comp_stats["min"] * 3 < dense_stats["min"]
