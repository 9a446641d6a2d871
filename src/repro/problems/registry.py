"""Uniform problem descriptions and a name-based registry.

The simulator itself only ever consumes a vector of pre-computed objective
values over a feasible space (the paper's central design decision).  A
:class:`ProblemInstance` is one problem: its cost callables, its
optimization sense, its ``(n, k)`` geometry and, built the first time it is
read, its feasible space (:class:`~repro.hilbert.subspace.FullSpace` or
:class:`~repro.hilbert.subspace.DickeSpace`).  :func:`make_problem` builds
the standard instances used in the paper's figures from a name plus a seed.
Large-n execution paths (sharded statevectors, the compressed Grover
simulator) take the same instance and read only ``n``, ``k`` and ``dim``,
so they never materialize the space's ``2^n`` label array.

Evaluating the objective over the feasible space is the one large
construction cost.  ``maxcut``, ``densest_subgraph``, ``vertex_cover``,
``max_independent_set``, ``ising``, ``qubo`` and ``hamming`` are degree-2
polynomials of the bits, so their instances carry a
:class:`~repro.problems.quadratic.QuadraticForm` (for
``max_independent_set``, a :class:`~repro.problems.quadratic.PenalizedForm`
of two; for ``hamming``, the cut form of the complete graph,
``sum_{i<j} (x_i + x_j - 2 x_i x_j) = w (n - w)`` in integers), and
:func:`objective_on_labels` evaluates it on integer labels with one
split-half kernel, with no ``(dim, n)`` bit matrix.  ``ksat`` and
``number_partition`` run ``cost_vectorized`` on the labels' bit matrix:
``ksat`` counts satisfied clauses of ``sat_k`` literals (degree 3 for
3-SAT), and ``number_partition``'s ``-(sum_i s_i w_i)^2`` is quadratic over
float weights, whose split-half sums would not reproduce the bit-matrix
values bit for bit.  Dense construction (:meth:`ProblemInstance.objective_values`)
and the shard workers both go through :func:`objective_on_labels`.  The
public ``*_values(graph, bits)`` functions stay the bit-matrix API and the
reference the kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable

import networkx as nx  # noqa: F401  (re-exported context for metadata graphs)
import numpy as np

from ..core.precompute import OPTIMAL_ATOL, OPTIMAL_RTOL
from ..hilbert.bitops import ints_to_bit_matrix
from ..hilbert.subspace import DickeSpace, FeasibleSpace, FullSpace
from .densest_subgraph import densest_subgraph as _densest_subgraph
from .densest_subgraph import densest_subgraph_values as _densest_subgraph_values
from .extra import ising_energy as _ising_energy
from .extra import ising_energy_values as _ising_energy_values
from .extra import max_independent_set as _max_independent_set
from .extra import max_independent_set_values as _max_independent_set_values
from .extra import number_partition as _number_partition
from .extra import number_partition_values as _number_partition_values
from .extra import qubo_value as _qubo_value
from .extra import qubo_values as _qubo_values
from .graphs import complete_graph, erdos_renyi
from .ksat import ksat as _ksat
from .ksat import ksat_values as _ksat_values
from .ksat import random_ksat as _random_ksat
from .maxcut import maxcut as _maxcut
from .maxcut import maxcut_values as _maxcut_values
from .quadratic import PenalizedForm, QuadraticForm, graph_form, ising_form, qubo_form
from .vertex_cover import vertex_cover as _vertex_cover
from .vertex_cover import vertex_cover_values as _vertex_cover_values

__all__ = [
    "ProblemInstance",
    "make_problem",
    "make_problem_structure",
    "objective_on_labels",
    "PROBLEM_NAMES",
]

PROBLEM_NAMES = (
    "maxcut",
    "ksat",
    "densest_subgraph",
    "vertex_cover",
    "max_independent_set",
    "number_partition",
    "ising",
    "qubo",
    "hamming",
)


@dataclass
class ProblemInstance:
    """A problem instance: an objective over a feasible space.

    Everything :func:`make_problem` derives deterministically from
    ``(name, n, seed, params)``.  The feasible space is built the first time
    :attr:`space` is read, so the sharded and compressed execution paths can
    read ``dim`` without allocating a ``2^n`` label array.

    Attributes
    ----------
    name:
        Problem family name (e.g. ``"maxcut"``).
    n:
        Number of qubits.
    k:
        Hamming-weight constraint for Dicke-space problems, ``None`` for
        full-space problems.
    cost:
        Scalar cost function ``cost(x) -> float`` over 0/1 arrays.
    cost_vectorized:
        Vectorized cost over a ``(m, n)`` bit matrix.
    maximize:
        Whether the objective is to be maximized (the Ising energy is
        minimized; every other registry family is maximized).
    metadata:
        Free-form description of the instance (graph, clauses, seed, ...).
    value_of_weight:
        Optional analytic hook ``w -> C(x)`` for objectives that depend on a
        bitstring only through its Hamming weight.  When present the full
        value spectrum (distinct values + binomial degeneracies) is known in
        closed form for *any* n — the key that unlocks compressed Grover
        simulation far beyond enumerable dimensions.
    quadratic:
        The objective's :class:`~repro.problems.quadratic.QuadraticForm` (or
        :class:`~repro.problems.quadratic.PenalizedForm`) when it is a
        degree-2 polynomial of the bits (``None`` otherwise);
        :func:`objective_on_labels` then evaluates it without a bit matrix.
    flip_pairs:
        ``True`` for the flip-symmetric half of an ``n + 1``-bit problem
        (:func:`repro.core.symmetry.flip_half`): label ``x`` stands
        for ``x`` and its ``n + 1``-bit complement.
    """

    name: str
    n: int
    k: int | None
    cost: Callable[[np.ndarray], float]
    cost_vectorized: Callable[[np.ndarray], np.ndarray]
    maximize: bool = True
    metadata: dict = field(default_factory=dict)
    value_of_weight: Callable[[int], float] | None = None
    quadratic: QuadraticForm | PenalizedForm | None = None
    flip_pairs: bool = False
    #: the built space and objective values; ``dataclasses.replace`` starts
    #: a new instance with an empty one
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        """Feasible-space dimension — computed, never materialized."""
        if self.k is None:
            return 1 << self.n
        return comb(self.n, self.k)

    @property
    def space(self) -> FeasibleSpace:
        """The feasible space, built the first time it is read."""
        if "space" not in self._cache:
            self._cache["space"] = (
                FullSpace(self.n) if self.k is None else DickeSpace(self.n, self.k)
            )
        return self._cache["space"]

    def objective_values(self) -> np.ndarray:
        """Objective values across the feasible space (cached)."""
        if "obj_vals" not in self._cache:
            self._cache["obj_vals"] = objective_on_labels(self, self.space.labels)
        return self._cache["obj_vals"]

    def optimum(self) -> float:
        """Best objective value over the feasible space."""
        vals = self.objective_values()
        return float(vals.max() if self.maximize else vals.min())

    def optimal_states(self) -> np.ndarray:
        """Full-space labels of the optimal feasible states (the engines' tolerances)."""
        vals = self.objective_values()
        optimal = np.isclose(vals, self.optimum(), rtol=OPTIMAL_RTOL, atol=OPTIMAL_ATOL)
        return self.space.labels[optimal]

    def approximation_ratio(self, expectation: float) -> float:
        """``expectation / optimum`` (for maximization problems with a positive optimum)."""
        opt = self.optimum()
        if opt == 0:
            raise ZeroDivisionError("optimum is zero; approximation ratio undefined")
        return float(expectation) / opt


#: Labels per ``cost_vectorized`` call in :func:`objective_on_labels`.  A
#: ``(2^14, n)`` bit matrix and its per-clause temporaries stay in cache: 3-SAT
#: at n=20 evaluates in about 0.4 s in blocks against 1.0 s in one call.
BIT_MATRIX_BLOCK = 1 << 14


def objective_on_labels(problem: ProblemInstance, labels: np.ndarray) -> np.ndarray:
    """``problem``'s objective at strictly ascending full-space ``labels``.

    This is the one place that decides how an objective is evaluated: a
    problem with quadratic coefficients runs their split-half kernel on the
    labels, and any other runs ``cost_vectorized`` on the bit matrix of
    :data:`BIT_MATRIX_BLOCK` labels at a time.  Dense construction
    (:meth:`ProblemInstance.objective_values`), the shard workers and the
    enumerated compressed-Grover spectra
    (:func:`repro.api.routing.spectrum_for`) all call it.
    """
    if problem.quadratic is not None:
        return problem.quadratic.values(labels)
    labels = np.asarray(labels)
    values = np.empty(labels.shape, dtype=np.float64)
    for lo in range(0, labels.size, BIT_MATRIX_BLOCK):
        block = labels[lo:lo + BIT_MATRIX_BLOCK]
        block_values = np.asarray(
            problem.cost_vectorized(ints_to_bit_matrix(block, problem.n)), dtype=np.float64
        )
        if block_values.shape != block.shape:
            raise ValueError(
                f"vectorized cost returned shape {block_values.shape}, expected {block.shape}"
            )
        values[lo:lo + block.size] = block_values
    return values


def make_problem(
    name: str,
    n: int,
    seed: int = 0,
    *,
    k: int | None = None,
    edge_probability: float = 0.5,
    clause_density: float = 6.0,
    sat_k: int = 3,
    penalty: float = 2.0,
) -> ProblemInstance:
    """Construct a registered benchmark problem instance by name.

    Covers the paper's four figure families (``"maxcut"``, ``"ksat"``,
    ``"densest_subgraph"``, ``"vertex_cover"``) plus the extra objectives of
    :mod:`repro.problems.extra` (``"max_independent_set"``,
    ``"number_partition"``, ``"ising"``, ``"qubo"``) and the analytic
    ``"hamming"`` balanced-weight objective, whose random instances are
    regenerated deterministically from ``seed``.  Name lookup is
    case-insensitive.

    Parameters
    ----------
    name:
        One of :data:`PROBLEM_NAMES` (case-insensitive).
    n:
        Number of qubits (variables / vertices).
    seed:
        Seed for the random instance.
    k:
        Hamming-weight constraint for the constrained problems (defaults to n // 2,
        matching the paper's k = 6 at n = 12).
    edge_probability:
        Erdos–Renyi edge probability (paper uses 0.5).
    clause_density, sat_k:
        Random SAT parameters (paper uses density 6, 3-SAT).
    penalty:
        Edge-violation penalty of the unconstrained Max-Independent-Set
        formulation.
    """
    name = str(name).lower()
    if name not in PROBLEM_NAMES:
        raise ValueError(f"unknown problem {name!r}; choose from {sorted(PROBLEM_NAMES)}")

    if name == "maxcut":
        graph = erdos_renyi(n, edge_probability, seed=seed)
        return ProblemInstance(
            name="maxcut",
            n=n,
            k=None,
            cost=lambda x, g=graph: _maxcut(g, x),
            cost_vectorized=lambda bits, g=graph: _maxcut_values(g, bits),
            metadata={"graph": graph, "seed": seed, "edge_probability": edge_probability},
            quadratic=graph_form(graph, edge_linear=1.0, edge_pair=-2.0),
        )

    if name == "ksat":
        instance = _random_ksat(n, k=sat_k, clause_density=clause_density, seed=seed)
        return ProblemInstance(
            name="ksat",
            n=n,
            k=None,
            cost=lambda x, inst=instance: _ksat(inst, x),
            cost_vectorized=lambda bits, inst=instance: _ksat_values(inst, bits),
            metadata={
                "instance": instance,
                "seed": seed,
                "clause_density": clause_density,
                "k": sat_k,
            },
        )

    if name == "max_independent_set":
        graph = erdos_renyi(n, edge_probability, seed=seed)
        return ProblemInstance(
            name="max_independent_set",
            n=n,
            k=None,
            cost=lambda x, g=graph, w=penalty: _max_independent_set(g, x, penalty=w),
            cost_vectorized=lambda bits, g=graph, w=penalty: _max_independent_set_values(
                g, bits, penalty=w
            ),
            metadata={
                "graph": graph,
                "seed": seed,
                "penalty": penalty,
                "edge_probability": edge_probability,
            },
            quadratic=PenalizedForm(
                graph_form(graph, node_linear=1.0), graph_form(graph, edge_pair=1.0), penalty
            ),
        )

    if name == "number_partition":
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.1, 1.0, size=n)
        return ProblemInstance(
            name="number_partition",
            n=n,
            k=None,
            cost=lambda x, w=weights: _number_partition(w, x),
            cost_vectorized=lambda bits, w=weights: _number_partition_values(w, bits),
            metadata={"weights": weights, "seed": seed},
        )

    if name == "ising":
        rng = np.random.default_rng(seed)
        h = rng.uniform(-1.0, 1.0, size=n)
        J = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), k=1)
        return ProblemInstance(
            name="ising",
            n=n,
            k=None,
            cost=lambda x, hh=h, jj=J: _ising_energy(hh, jj, x),
            cost_vectorized=lambda bits, hh=h, jj=J: _ising_energy_values(hh, jj, bits),
            maximize=False,  # the classical convention: minimize the energy
            metadata={"h": h, "J": J, "seed": seed},
            quadratic=ising_form(h, J),
        )

    if name == "qubo":
        rng = np.random.default_rng(seed)
        Q = rng.uniform(-1.0, 1.0, size=(n, n))
        Q = (Q + Q.T) / 2.0
        return ProblemInstance(
            name="qubo",
            n=n,
            k=None,
            cost=lambda x, q=Q: _qubo_value(q, x),
            cost_vectorized=lambda bits, q=Q: _qubo_values(q, bits),
            metadata={"Q": Q, "seed": seed},
            quadratic=qubo_form(Q),
        )

    if name == "hamming":
        # C(x) = w(x) * (n - w(x)): the balanced-weight objective.  It depends
        # on a bitstring only through its Hamming weight, so the full value
        # spectrum is analytic (binomial degeneracies) at any n — the
        # reference workload for compressed Grover simulation.
        return ProblemInstance(
            name="hamming",
            n=n,
            k=None,
            cost=lambda x, nn=n: float(int(np.sum(x)) * (nn - int(np.sum(x)))),
            cost_vectorized=lambda bits, nn=n: (
                bits.sum(axis=1) * (nn - bits.sum(axis=1))
            ).astype(np.float64),
            metadata={"seed": seed},
            value_of_weight=lambda w, nn=n: float(w * (nn - w)),
            # the cut form of the complete graph: sum_{i<j} (x_i + x_j - 2 x_i x_j)
            quadratic=graph_form(complete_graph(n), edge_linear=1.0, edge_pair=-2.0),
        )

    if k is None:
        k = n // 2

    if name == "densest_subgraph":
        graph = erdos_renyi(n, edge_probability, seed=seed)
        return ProblemInstance(
            name="densest_subgraph",
            n=n,
            k=k,
            cost=lambda x, g=graph: _densest_subgraph(g, x),
            cost_vectorized=lambda bits, g=graph: _densest_subgraph_values(g, bits),
            metadata={"graph": graph, "seed": seed, "k": k, "edge_probability": edge_probability},
            quadratic=graph_form(graph, edge_pair=1.0),
        )

    # vertex_cover
    graph = erdos_renyi(n, edge_probability, seed=seed)
    return ProblemInstance(
        name="vertex_cover",
        n=n,
        k=k,
        cost=lambda x, g=graph: _vertex_cover(g, x),
        cost_vectorized=lambda bits, g=graph: _vertex_cover_values(g, bits),
        metadata={"graph": graph, "seed": seed, "k": k, "edge_probability": edge_probability},
        quadratic=graph_form(graph, edge_linear=1.0, edge_pair=-1.0),
    )


#: A second name for :func:`make_problem`; the benchmark tracer wraps both names.
make_problem_structure = make_problem
