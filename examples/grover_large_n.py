"""Grover-mixer QAOA at large n via value compression (Sec. 2.4 of the paper).

With the Grover mixer every basis state with the same objective value keeps
the same amplitude, so only the distinct values and their degeneracies are
needed.  This example:

1. verifies the compressed engine against the dense simulator at n = 10,
2. runs a 3-SAT Grover-QAOA on the spectrum ``solve()``'s routing builds
   (``spectrum_for``: the objective enumerated once, then only its distinct
   values and their degeneracies kept),
3. simulates a 100-qubit Hamming-weight objective whose degeneracies are known
   analytically, and optimizes its angles with the compressed adjoint gradient.

Every step drives ``CompressedGroverAnsatz``, the same engine ``solve()``
routes large Grover-mixer specs to.

Run with:  python examples/grover_large_n.py
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from repro import ProblemSpec, grover_mixer, simulate, state_matrix
from repro.api.routing import spectrum_for
from repro.grover import CompressedGroverAnsatz, compress_objective, hamming_weight_spectrum
from repro.problems import erdos_renyi, maxcut_values
from repro.problems.registry import make_problem


def main() -> None:
    rng = np.random.default_rng(0)

    # --- 1. dense vs compressed agreement at n = 10 ------------------------
    n = 10
    graph = erdos_renyi(n, 0.5, seed=3)
    obj = maxcut_values(graph, state_matrix(n))
    spectrum = compress_objective(obj)
    angles = 2 * np.pi * rng.random(8)
    dense = simulate(angles, grover_mixer(n), obj).expectation()
    compressed = CompressedGroverAnsatz(spectrum, 4, n=n).expectation(angles)
    print(f"[n={n} MaxCut]  dense <C> = {dense:.6f}   compressed <C> = {compressed:.6f}")
    print(f"               distinct objective values: {spectrum.num_distinct} of {spectrum.total}")

    # --- 2. the routed spectrum of a 3-SAT instance -----------------------
    n_sat = 16
    instance = make_problem("ksat", n_sat, seed=1).metadata["instance"]
    spectrum_sat = spectrum_for(ProblemSpec("ksat", n_sat, seed=1))
    engine_sat = CompressedGroverAnsatz(spectrum_sat, 3, n=n_sat)
    result = engine_sat.simulate(engine_sat.random_angles(rng))
    print(
        f"[n={n_sat} 3-SAT] clauses = {instance.num_clauses}, "
        f"distinct values = {spectrum_sat.num_distinct}, "
        f"<C> = {result.expectation():.3f}, "
        f"P(optimal) = {result.ground_state_probability():.2e}"
    )

    # --- 3. n = 100 with an analytic spectrum + compressed gradient --------
    n_big = 100
    spectrum_big = hamming_weight_spectrum(n_big, lambda w: float(min(w, n_big - w)))
    engine_big = CompressedGroverAnsatz(spectrum_big, 3, n=n_big)
    x0 = 0.1 * np.ones(engine_big.num_angles)
    res = minimize(
        engine_big.loss_and_gradient, x0, jac=True, method="BFGS", options={"maxiter": 60}
    )
    final = engine_big.simulate(res.x)
    print(f"[n={n_big}]      feasible states = 2^{n_big} (~{float(spectrum_big.total):.2e})")
    print(
        f"               optimized <C> = {final.expectation():.4f} "
        f"(objective maximum = {spectrum_big.optimum:.0f})"
    )
    print(f"               state classes tracked = {spectrum_big.num_distinct}")


if __name__ == "__main__":
    main()
