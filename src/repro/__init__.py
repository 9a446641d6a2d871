"""repro — a pure-Python reproduction of JuliQAOA (SC-W 2023).

A statevector simulator purpose-built for the Quantum Alternating Operator
Ansatz: pre-computed objective values and pre-diagonalized mixers, fast
unconstrained and Dicke-subspace (constrained) simulation, Grover-mixer
compression, analytic gradients and a robust angle-finding outer loop, plus
circuit-simulator baselines used by the paper's performance comparisons.

Quickstart — the declarative facade::

    from repro import solve

    result = solve(problem="maxcut", n=8, mixer="x", strategy="random", p=3)
    print(result.value, result.approximation_ratio)

Under the hood (mirrors the paper's Listing 1)::

    import numpy as np
    from repro import maxcut, maxcut_values, erdos_renyi, state_matrix
    from repro import mixer_x, simulate, get_exp_value

    n = 6
    graph = erdos_renyi(n, 0.5, seed=1)
    obj_vals = maxcut_values(graph, state_matrix(n))
    mixer = mixer_x([1], n)          # transverse-field mixer, sum_i X_i
    p = 3
    angles = np.random.default_rng(0).random(2 * p)
    res = simulate(angles, mixer, obj_vals)
    exp_value = get_exp_value(res)
"""

from .api import (
    MIXER_NAMES,
    MIXERS,
    STRATEGIES,
    STRATEGY_NAMES,
    AngleStrategy,
    MixerSpec,
    ProblemSpec,
    QAOASolver,
    SolveResult,
    SolveSpec,
    StrategySpec,
    make_mixer,
    solve,
)
from .core import (
    BatchedWorkspace,
    EvaluationCounter,
    PrecomputedCost,
    QAOAAnsatz,
    QAOAResult,
    expectation_value_batch,
    get_exp_value,
    precompute_cost,
    qaoa_value_and_gradient_batch,
    random_angles,
    simulate,
    simulate_batch,
)
from .hilbert import (
    DickeSpace,
    FeasibleSpace,
    FullSpace,
    dicke_states,
    state_matrix,
    states,
)
from .mixers import (
    CliqueMixer,
    GroverMixer,
    MixerSchedule,
    MultiAngleXMixer,
    RingMixer,
    XMixer,
    grover_mixer,
    grover_mixer_dicke,
    mixer_clique,
    mixer_ring,
    mixer_x,
    transverse_field_mixer,
)
from .problems import (
    PROBLEM_NAMES,
    ProblemInstance,
    densest_subgraph,
    densest_subgraph_values,
    erdos_renyi,
    ksat,
    ksat_values,
    make_problem,
    maxcut,
    maxcut_values,
    random_ksat,
    vertex_cover,
    vertex_cover_values,
)
from .portfolio import Budget, IncumbentBoard, PortfolioResult, race_portfolio
from .service import SolverService, default_service

__version__ = "1.4.0"

__all__ = [
    "MIXER_NAMES",
    "MIXERS",
    "STRATEGIES",
    "STRATEGY_NAMES",
    "AngleStrategy",
    "MixerSpec",
    "ProblemSpec",
    "QAOASolver",
    "SolveResult",
    "SolveSpec",
    "StrategySpec",
    "make_mixer",
    "solve",
    "BatchedWorkspace",
    "EvaluationCounter",
    "PrecomputedCost",
    "QAOAAnsatz",
    "QAOAResult",
    "expectation_value_batch",
    "get_exp_value",
    "precompute_cost",
    "qaoa_value_and_gradient_batch",
    "random_angles",
    "simulate",
    "simulate_batch",
    "DickeSpace",
    "FeasibleSpace",
    "FullSpace",
    "dicke_states",
    "state_matrix",
    "states",
    "CliqueMixer",
    "GroverMixer",
    "MixerSchedule",
    "MultiAngleXMixer",
    "RingMixer",
    "XMixer",
    "grover_mixer",
    "grover_mixer_dicke",
    "mixer_clique",
    "mixer_ring",
    "mixer_x",
    "transverse_field_mixer",
    "PROBLEM_NAMES",
    "ProblemInstance",
    "densest_subgraph",
    "densest_subgraph_values",
    "erdos_renyi",
    "ksat",
    "ksat_values",
    "make_problem",
    "maxcut",
    "maxcut_values",
    "random_ksat",
    "vertex_cover",
    "vertex_cover_values",
    "Budget",
    "IncumbentBoard",
    "PortfolioResult",
    "race_portfolio",
    "SolverService",
    "default_service",
    "__version__",
]
