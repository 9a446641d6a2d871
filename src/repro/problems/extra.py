"""Additional cost functions beyond the four benchmarked in the paper.

The paper stresses (Sec. 4) that only a list of objective values is needed, so
"researchers can explore arbitrarily complicated or synthetic optimization
functions".  These extra objectives exercise that flexibility and are used in
tests and examples:

* Max Independent Set (penalized, unconstrained formulation),
* number partitioning,
* generic Ising / QUBO objectives,
* arbitrary user-supplied callables wrapped uniformly.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

from .graphs import edge_array

__all__ = [
    "max_independent_set",
    "max_independent_set_values",
    "number_partition",
    "number_partition_values",
    "ising_energy",
    "ising_energy_values",
    "qubo_value",
    "qubo_values",
]


# ---------------------------------------------------------------------------
# Max Independent Set (penalized unconstrained formulation)
# ---------------------------------------------------------------------------

def max_independent_set(graph: nx.Graph, x: np.ndarray, penalty: float = 2.0) -> float:
    """Penalized Max-Independent-Set objective ``|S| - penalty * (#violated edges)``.

    ``S`` is the set of vertices with bit 1; an edge is violated when both its
    endpoints are selected.  With ``penalty > 1`` the optima of this
    unconstrained objective coincide with maximum independent sets.
    """
    x = np.asarray(x)
    if x.shape != (graph.number_of_nodes(),):
        raise ValueError(f"state has {x.shape} entries, expected ({graph.number_of_nodes()},)")
    edges = edge_array(graph)
    size = float(np.count_nonzero(x == 1))
    if edges.size == 0:
        return size
    violations = float(np.count_nonzero((x[edges[:, 0]] == 1) & (x[edges[:, 1]] == 1)))
    return size - penalty * violations


def max_independent_set_values(
    graph: nx.Graph, bits: np.ndarray, penalty: float = 2.0
) -> np.ndarray:
    """Vectorized penalized Max-Independent-Set objective."""
    bits = np.asarray(bits)
    edges = edge_array(graph)
    size = (bits == 1).sum(axis=1).astype(np.float64)
    if edges.size == 0:
        return size
    violations = ((bits[:, edges[:, 0]] == 1) & (bits[:, edges[:, 1]] == 1)).sum(axis=1)
    return size - penalty * violations.astype(np.float64)


# ---------------------------------------------------------------------------
# Number partitioning
# ---------------------------------------------------------------------------

def number_partition(weights: Sequence[float], x: np.ndarray) -> float:
    """Negated squared imbalance of the partition encoded by ``x``.

    Items with bit 1 go to one side, bit 0 to the other; the objective is
    ``-(sum_i s_i w_i)^2`` with ``s_i = 2 x_i - 1``, so perfect partitions have
    objective 0 and everything else is negative (a maximization problem).
    """
    w = np.asarray(weights, dtype=np.float64)
    x = np.asarray(x)
    if x.shape != w.shape:
        raise ValueError(f"state has shape {x.shape}, expected {w.shape}")
    signs = 2.0 * x - 1.0
    imbalance = float(np.dot(signs, w))
    return -(imbalance**2)


def number_partition_values(weights: Sequence[float], bits: np.ndarray) -> np.ndarray:
    """Vectorized number-partitioning objective.

    The imbalance accumulates one item at a time, so each row's value does
    not depend on the other rows (a BLAS ``signs @ w`` splits rows across
    threads and kernels by the matrix's height), and a state and its
    complement score exactly the same.
    """
    w = np.asarray(weights, dtype=np.float64)
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != w.shape[0]:
        raise ValueError(f"bit matrix has shape {bits.shape}, expected (*, {w.shape[0]})")
    imbalance = np.zeros(bits.shape[0])
    for i, weight in enumerate(w):
        imbalance += (2.0 * bits[:, i] - 1.0) * weight
    return -(imbalance**2)


# ---------------------------------------------------------------------------
# Ising / QUBO
# ---------------------------------------------------------------------------

def ising_energy(h: np.ndarray, J: np.ndarray, x: np.ndarray) -> float:
    """Classical Ising energy ``sum_i h_i s_i + sum_{i<j} J_ij s_i s_j`` with ``s = 2x - 1``."""
    h = np.asarray(h, dtype=np.float64)
    J = np.asarray(J, dtype=np.float64)
    x = np.asarray(x)
    n = h.shape[0]
    if J.shape != (n, n):
        raise ValueError(f"J has shape {J.shape}, expected ({n},{n})")
    if x.shape != (n,):
        raise ValueError(f"state has shape {x.shape}, expected ({n},)")
    s = 2.0 * x - 1.0
    upper = np.triu(J, k=1)
    return float(h @ s + s @ upper @ s)


def ising_energy_values(h: np.ndarray, J: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Vectorized Ising energy over a ``(m, n)`` bit matrix."""
    h = np.asarray(h, dtype=np.float64)
    J = np.asarray(J, dtype=np.float64)
    bits = np.asarray(bits)
    n = h.shape[0]
    if bits.ndim != 2 or bits.shape[1] != n:
        raise ValueError(f"bit matrix has shape {bits.shape}, expected (*, {n})")
    s = 2.0 * bits - 1.0
    upper = np.triu(J, k=1)
    return s @ h + np.einsum("si,ij,sj->s", s, upper, s)


def qubo_value(Q: np.ndarray, x: np.ndarray) -> float:
    """QUBO objective ``x^T Q x`` for a 0/1 vector ``x``."""
    Q = np.asarray(Q, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = Q.shape[0]
    if Q.shape != (n, n):
        raise ValueError("Q must be square")
    if x.shape != (n,):
        raise ValueError(f"state has shape {x.shape}, expected ({n},)")
    return float(x @ Q @ x)


def qubo_values(Q: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Vectorized QUBO objective over a ``(m, n)`` bit matrix."""
    Q = np.asarray(Q, dtype=np.float64)
    bits = np.asarray(bits, dtype=np.float64)
    if bits.ndim != 2 or bits.shape[1] != Q.shape[0]:
        raise ValueError(f"bit matrix has shape {bits.shape}, expected (*, {Q.shape[0]})")
    return np.einsum("si,ij,sj->s", bits, Q, bits)
