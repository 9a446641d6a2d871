"""Grover-mixer compressed simulation: distinct objective values + degeneracies."""

from .ansatz import CompressedGroverAnsatz, CompressedSimulation
from .compress import (
    CompressedObjective,
    binomial_spectrum,
    compress_objective,
    hamming_weight_spectrum,
)

__all__ = [
    "CompressedGroverAnsatz",
    "CompressedObjective",
    "CompressedSimulation",
    "binomial_spectrum",
    "compress_objective",
    "hamming_weight_spectrum",
]
