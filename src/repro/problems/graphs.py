"""Seeded random-graph workload generators.

The paper's experiments use Erdos–Renyi ``G(n, 0.5)`` graphs (Figs. 2–5) and
mention 3-regular graphs as the standard MaxCut benchmark family.  All
generators here take an explicit seed so that every benchmark row is
reproducible, and return plain ``networkx.Graph`` objects with nodes labelled
``0 .. n-1``.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx
import numpy as np

__all__ = [
    "erdos_renyi",
    "random_regular",
    "complete_graph",
    "ring_graph",
    "edge_array",
    "graph_from_edges",
    "adjacency_matrix",
    "validate_graph",
]


def validate_graph(graph: nx.Graph) -> nx.Graph:
    """Check that a graph has integer nodes ``0..n-1`` and no self-loops."""
    n = graph.number_of_nodes()
    nodes = set(graph.nodes())
    if nodes != set(range(n)):
        raise ValueError("graph nodes must be exactly 0..n-1")
    if any(u == v for u, v in graph.edges()):
        raise ValueError("graph must not contain self-loops")
    return graph


def erdos_renyi(n: int, p: float, seed: int | None = None) -> nx.Graph:
    """Erdos–Renyi ``G(n, p)`` graph with nodes ``0..n-1``.

    Matches the ``erdos_renyi(n, 0.5)`` workloads of the paper's Figures 2-5.
    """
    if n < 1:
        raise ValueError("graph must have at least one node")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    g = nx.gnp_random_graph(n, p, seed=seed)
    return validate_graph(g)


def random_regular(n: int, d: int, seed: int | None = None) -> nx.Graph:
    """Random ``d``-regular graph (the MaxCut family used by circuit-simulator studies)."""
    if n * d % 2 != 0:
        raise ValueError("n * d must be even for a d-regular graph to exist")
    g = nx.random_regular_graph(d, n, seed=seed)
    return validate_graph(nx.Graph(g))


def complete_graph(n: int) -> nx.Graph:
    """Complete graph on ``n`` nodes."""
    return validate_graph(nx.complete_graph(n))


def ring_graph(n: int) -> nx.Graph:
    """Cycle graph on ``n`` nodes (used for the Ring mixer's interaction pattern)."""
    return validate_graph(nx.cycle_graph(n))


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> nx.Graph:
    """Build a graph on nodes ``0..n-1`` from an explicit edge list."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError("self-loops are not allowed")
        g.add_edge(u, v)
    return g


def edge_array(graph: nx.Graph) -> np.ndarray:
    """Edges of a graph as an ``(m, 2)`` integer array (sorted, deterministic order)."""
    validate_graph(graph)
    edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    if not edges:
        return np.zeros((0, 2), dtype=np.int64)
    return np.array(edges, dtype=np.int64)


def adjacency_matrix(graph: nx.Graph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix of a graph."""
    validate_graph(graph)
    n = graph.number_of_nodes()
    adj = np.zeros((n, n), dtype=np.float64)
    for u, v in graph.edges():
        adj[u, v] = 1.0
        adj[v, u] = 1.0
    return adj
