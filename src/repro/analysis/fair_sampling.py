"""Fair-sampling checks for Grover-mixer QAOA.

Property 3 of Sec. 2.4: with the Grover mixer, all basis states sharing an
objective value have identical amplitudes at every point of the evolution.
These helpers verify that property on dense simulation output (it is what
justifies the compressed representation) and quantify violations for other
mixers.
"""

from __future__ import annotations

import numpy as np

from ..core.simulator import QAOAResult

__all__ = ["amplitude_spread_by_value", "is_fair_sampling", "value_class_probabilities"]


def amplitude_spread_by_value(statevector: np.ndarray, obj_vals: np.ndarray) -> dict[float, float]:
    """Maximum amplitude deviation within each objective-value class.

    Returns, for every distinct objective value, the largest absolute
    difference between any state amplitude in that class and the class mean.
    Zero everywhere means perfectly fair sampling.
    """
    statevector = np.asarray(statevector)
    obj_vals = np.asarray(obj_vals, dtype=np.float64)
    if statevector.shape != obj_vals.shape:
        raise ValueError("statevector and objective values must have the same shape")
    spread: dict[float, float] = {}
    for value in np.unique(obj_vals):
        mask = obj_vals == value
        amplitudes = statevector[mask]
        mean = amplitudes.mean()
        spread[float(value)] = float(np.abs(amplitudes - mean).max())
    return spread


def is_fair_sampling(result: QAOAResult, atol: float = 1e-10) -> bool:
    """Whether a dense simulation result samples fairly (per value class).

    Reads the evolved ``state``, which lines up with ``cost.values`` (on the
    flip-symmetric half too, whose pairs share their amplitude).
    """
    spread = amplitude_spread_by_value(result.state, result.cost.values)
    return all(v <= atol for v in spread.values())


def value_class_probabilities(result: QAOAResult) -> dict[float, float]:
    """Total measurement probability of each objective-value class."""
    probs = np.abs(result.state) ** 2
    obj_vals = result.cost.values
    out: dict[float, float] = {}
    for value in np.unique(obj_vals):
        out[float(value)] = float(probs[obj_vals == value].sum())
    return out
