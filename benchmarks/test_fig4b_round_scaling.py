"""Figure 4b — time vs number of rounds (fixed-n MaxCut).

The paper's Figure 4b fixes n = 14 and sweeps the round count p, showing CPU
time per evaluation growing (roughly linearly) with p for every simulator,
with JuliQAOA keeping a constant-factor lead over QAOA.jl and QAOAKit.
"""

from __future__ import annotations

import pytest

from repro.baselines import DecomposedCircuitQAOA, DirectQAOA, GateCircuitQAOA
from repro.bench.timing import time_call
from repro.bench.workloads import figure4_graph
from repro.core import random_angles

_SIMULATORS = {
    "direct": DirectQAOA,
    "circuit-gate": GateCircuitQAOA,
    "circuit-decomposed": DecomposedCircuitQAOA,
}


@pytest.mark.parametrize("name", list(_SIMULATORS))
def test_time_at_max_rounds(benchmark, name, fig4b_setup):
    """Benchmark one expectation evaluation at the largest round count."""
    n, rounds = fig4b_setup
    p = max(rounds)
    simulator = _SIMULATORS[name](figure4_graph(n), p)
    angles = random_angles(p, rng=3)
    value = benchmark(lambda: simulator.expectation(angles))
    assert 0.0 <= value <= simulator.obj_vals.max() + 1e-9


def test_fig4b_round_scaling_shape(benchmark, fig4b_setup):
    """Regenerate the Fig. 4b series and check linear-in-p scaling and ordering."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # shape-only entry
    n, rounds = fig4b_setup
    graph = figure4_graph(n)
    rows = []
    for name, cls in _SIMULATORS.items():
        for p in rounds:
            simulator = cls(graph, p)
            angles = random_angles(p, rng=3)
            stats = time_call(lambda: simulator.expectation(angles), repeats=3, warmup=1)
            rows.append({"simulator": name, "p": p, "time_s": stats["min"]})
    print()
    for row in rows:
        print(
            f"  fig4b {row['simulator']:<20s} p={row['p']:<3d} time={row['time_s'] * 1e3:8.3f} ms"
        )

    by_sim = {
        name: {r["p"]: r["time_s"] for r in rows if r["simulator"] == name} for name in _SIMULATORS
    }
    p_lo, p_hi = min(rounds), max(rounds)

    for name, times in by_sim.items():
        # Time grows with p ...
        assert times[p_hi] > times[p_lo]
        # ... and roughly linearly: going from p_lo to p_hi costs at most ~2.5x
        # the proportional increase (generous slack for constant overheads).
        assert times[p_hi] / times[p_lo] < 2.5 * (p_hi / p_lo)

    # The direct simulator stays fastest at every round count.
    for p in rounds:
        assert by_sim["direct"][p] <= by_sim["circuit-gate"][p]
        assert by_sim["direct"][p] <= by_sim["circuit-decomposed"][p]
