"""The QAOA statevector engine: pre-computation, simulation, gradients."""

from .ansatz import QAOAAnsatz
from .engine import Engine
from .gradients import (
    EvaluationCounter,
    finite_difference_gradient,
    qaoa_value_and_gradient_batch,
)
from .multiangle import multi_angle_schedule, num_multi_angles, pack_angles, unpack_angles
from .precompute import PrecomputedCost, precompute_cost
from .simulator import (
    QAOAResult,
    evolve_state_batch,
    expectation_value_batch,
    get_exp_value,
    join_angles_batch,
    random_angles,
    simulate,
    simulate_batch,
    split_angles_batch,
)
from .workspace import BatchedWorkspace

__all__ = [
    "Engine",
    "QAOAAnsatz",
    "EvaluationCounter",
    "finite_difference_gradient",
    "qaoa_value_and_gradient_batch",
    "multi_angle_schedule",
    "num_multi_angles",
    "pack_angles",
    "unpack_angles",
    "PrecomputedCost",
    "precompute_cost",
    "QAOAResult",
    "evolve_state_batch",
    "expectation_value_batch",
    "get_exp_value",
    "random_angles",
    "simulate",
    "simulate_batch",
    "split_angles_batch",
    "join_angles_batch",
    "BatchedWorkspace",
]
