"""Constrained optimization: Densest-k-Subgraph with the Clique mixer (Listing 2).

Constrained problems are handled without penalty terms: the objective is only
evaluated over the feasible (Hamming-weight-k) Dicke subspace and the mixer is
a weight-preserving Clique (complete-graph XY) mixer whose eigendecomposition
is pre-computed once and cached to disk for re-use.

The script then runs the iterative angle finder and compares the exact
subspace mixer against the first-order Trotterized mixer a circuit-oriented
package would use.

Run with:  python examples/constrained_densest_subgraph.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import DickeSpace, erdos_renyi, mixer_clique, simulate
from repro.analysis import normalized_approximation_ratio
from repro.angles import find_angles
from repro.baselines import trotter_clique_mixer
from repro.problems import densest_subgraph_values


def main() -> None:
    n, k = 8, 4
    graph = erdos_renyi(n, 0.5, seed=7)

    # Feasible space: all n-qubit states with exactly k ones (the Dicke basis).
    space = DickeSpace(n, k)
    obj_vals = densest_subgraph_values(graph, space.bits)
    print(f"feasible states        : {space.dim} (C({n},{k}))")
    print(f"best k-subgraph edges  : {obj_vals.max():.0f}")

    with tempfile.TemporaryDirectory() as tmp:
        mixer_file = Path(tmp) / f"clique_{n}_{k}.npz"

        # First construction computes and caches the eigendecomposition ...
        mixer = mixer_clique(n, k, file=mixer_file)
        print(f"mixer cache written    : {mixer_file.name} ({mixer_file.stat().st_size} bytes)")
        # ... subsequent constructions just load it.
        mixer = mixer_clique(n, k, file=mixer_file)

        # Iterative (extrapolated basinhopping) angle finding up to p = 4.
        results = find_angles(4, mixer, obj_vals, n_hops=2, n_starts_p1=2, rng=0)
        print("\nround   <C>      approx ratio")
        for p in sorted(results):
            ratio = normalized_approximation_ratio(
                results[p].value, float(obj_vals.max()), float(obj_vals.min())
            )
            print(f"  p={p}   {results[p].value:7.4f}   {ratio:.4f}")

        # The final state never leaves the feasible subspace.
        best = results[max(results)]
        final = simulate(best.angles, mixer, obj_vals)
        print(f"\nP(optimal subset)      : {final.ground_state_probability():.4f}")

        # Ablation: the exact subspace mixer vs a single-step Trotterized XY mixer.
        trotter = trotter_clique_mixer(n, k, trotter_steps=1)
        trotter_value = simulate(best.angles, trotter, obj_vals).expectation()
        print(f"<C> exact Clique mixer : {best.value:.4f}")
        print(f"<C> Trotterized mixer  : {trotter_value:.4f} (same angles)")


if __name__ == "__main__":
    main()
