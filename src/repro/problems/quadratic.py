"""Quadratic objectives evaluated directly on integer labels.

Seven registry families are degree-2 polynomials in the bits of a state:

    C(x) = const + sum_i h_i x_i + sum_{i<j} J_ij x_i x_j .

:class:`QuadraticForm` holds those coefficients and evaluates them on
full-space integer labels without building a bit matrix of the space.  It
splits the ``n`` index bits into the low ``L = ceil(n/2)`` and high
``H = n - L``.  With ``a`` the low half of a label and ``b`` the high half,

    C = f[a] + g[b] + cross[b, a],   cross[b, a] = (B J_hl)[b] . A[a]

where ``f`` (``2^L`` entries) and ``g`` (``2^H`` entries, ``const``
included) are the half tables and ``A``/``B`` the half-width bit matrices.
``cross`` is built by doubling over the low bits:
``cross[:, a | 2^l] = cross[:, a] + P[:, l]`` for ``a < 2^l``, with
``P = B J_hl``.  That costs one add per output and sums each entry's
couplings in increasing bit order.

* On an aligned contiguous range (start and length multiples of ``2^L``),
  which covers the full space and every full-space shard chunk, the output is
  that ``(rows, 2^L)`` block, written in place with no gather.
* Any other label set (Dicke spaces, unaligned ranges) gathers the tables
  per label and adds the ``L`` couplings in the same bit order, with ``O(m)``
  temporaries for ``m`` labels.

Both branches perform the same additions in the same order, so a chunked
evaluation equals a one-shot one bit for bit.  Integer coefficients give
exact integers on both branches, identical to the families' bit-matrix
``*_values`` functions.  A penalty is kept out of the coefficients:
:class:`PenalizedForm` scales an integer violation count once, as the
bit-matrix path does, so states with equal counts get equal values for any
penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import networkx as nx
import numpy as np

from ..hilbert.bitops import ints_to_bit_matrix
from .graphs import edge_array

__all__ = ["QuadraticForm", "PenalizedForm", "graph_form", "ising_form", "qubo_form"]


@dataclass(frozen=True)
class QuadraticForm:
    """``const + linear . x + sum_{i<j} pairs[i, j] x_i x_j`` over ``n`` bits.

    ``pairs`` is strictly upper triangular; the constructors below fold any
    lower-triangle or diagonal input into it and ``linear``.
    """

    const: float
    linear: np.ndarray
    pairs: np.ndarray

    @property
    def n(self) -> int:
        """Number of bits."""
        return int(self.linear.size)

    @cached_property
    def _tables(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """``(L, f, g, P.T)``: the half tables and the coupling rows, built on first use."""
        n = self.n
        low = (n + 1) // 2
        lo_bits = ints_to_bit_matrix(np.arange(1 << low), low).astype(np.float64)
        hi_bits = ints_to_bit_matrix(np.arange(1 << (n - low)), n - low).astype(np.float64)

        def half(bits: np.ndarray, part: slice) -> np.ndarray:
            within = self.pairs[part, part]
            return bits @ self.linear[part] + ((bits @ within) * bits).sum(axis=1)

        f = half(lo_bits, slice(0, low))
        g = half(hi_bits, slice(low, n)) + self.const
        couplings = np.ascontiguousarray((hi_bits @ self.pairs[:low, low:].T).T)
        return low, f, g, couplings

    def values(self, labels: np.ndarray) -> np.ndarray:
        """The form at each full-space label (``labels`` strictly ascending)."""
        labels = np.asarray(labels, dtype=np.int64)
        m = labels.size
        low, f, g, couplings = self._tables
        width = 1 << low
        if m and labels[-1] - labels[0] == m - 1 and labels[0] % width == 0 and m % width == 0:
            rows = slice(int(labels[0]) >> low, (int(labels[-1]) >> low) + 1)
            out = np.zeros((m >> low, width))
            for bit in range(low):
                span = 1 << bit
                np.add(out[:, :span], couplings[bit, rows, None], out=out[:, span:2 * span])
            out += f
            out += g[rows, None]
            return out.reshape(m)
        lo = labels & (width - 1)
        hi = labels >> low
        out = np.zeros(m)
        for bit in range(low):
            out += np.where((lo >> bit) & 1, couplings[bit][hi], 0.0)
        out += f[lo]
        out += g[hi]
        return out

    @cached_property
    def flip_symmetric(self) -> bool:
        """Whether ``C(x) == C(x̄)`` for every ``x`` (``x̄`` the complement of ``x``).

        ``C(x̄) - C(x)`` is affine in ``x``, so the form is symmetric exactly
        when ``linear[i] == -1/2 sum_j (pairs[i, j] + pairs[j, i])`` for every
        ``i``; the constant then cancels.  The comparison is exact: the
        integer families (MaxCut, ``hamming``, field-free ``ising``) meet it,
        and a form that misses it by an ulp counts as not symmetric.
        """
        return bool(np.array_equal(
            self.linear, -0.5 * (self.pairs.sum(axis=0) + self.pairs.sum(axis=1))
        ))


@dataclass(frozen=True)
class PenalizedForm:
    """``objective - penalty * violations`` for two integer-valued forms.

    Folding a non-dyadic penalty into one form's coefficients would round
    each state's sum differently; scaling the exact violation count once
    gives the bit-matrix path's values bit for bit.
    """

    objective: QuadraticForm
    violations: QuadraticForm
    penalty: float

    def values(self, labels: np.ndarray) -> np.ndarray:
        """The penalized objective at each full-space label (strictly ascending)."""
        return self.objective.values(labels) - self.penalty * self.violations.values(labels)

    @property
    def flip_symmetric(self) -> bool:
        """Whether both forms are flip-symmetric (see :attr:`QuadraticForm.flip_symmetric`)."""
        return self.objective.flip_symmetric and self.violations.flip_symmetric


def _form(n: int, const: float, linear: np.ndarray, pairs: np.ndarray) -> QuadraticForm:
    """Fold ``pairs`` (any square matrix) into a strictly upper-triangular form."""
    pairs = np.asarray(pairs, dtype=np.float64)
    if pairs.shape != (n, n) or np.shape(linear) != (n,):
        raise ValueError(f"coefficients do not describe {n} bits")
    upper = np.triu(pairs, k=1) + np.tril(pairs, k=-1).T
    linear = np.asarray(linear, dtype=np.float64) + np.diag(pairs)
    return QuadraticForm(float(const), linear, upper)


def graph_form(
    graph: nx.Graph,
    *,
    edge_linear: float = 0.0,
    edge_pair: float = 0.0,
    node_linear: float = 0.0,
) -> QuadraticForm:
    """A graph objective ``sum_i node_linear x_i + sum_{(u,v) in E}
    [edge_linear (x_u + x_v) + edge_pair x_u x_v]``.

    MaxCut is ``(edge_linear=1, edge_pair=-2)``, Densest-k-Subgraph
    ``(0, 1)`` and Max-k-Vertex-Cover ``(1, -1)``.  Max Independent Set
    penalizes the violation count ``(edge_pair=1)`` against the set size
    ``(node_linear=1)`` with a :class:`PenalizedForm`.
    """
    n = graph.number_of_nodes()
    edges = edge_array(graph)
    linear = np.full(n, float(node_linear))
    pairs = np.zeros((n, n))
    if edges.size:
        np.add.at(linear, edges.ravel(), float(edge_linear))
        np.add.at(pairs, (edges[:, 0], edges[:, 1]), float(edge_pair))
    return _form(n, 0.0, linear, pairs)


def ising_form(h: np.ndarray, J: np.ndarray) -> QuadraticForm:
    """``sum_i h_i s_i + sum_{i<j} J_ij s_i s_j`` with ``s = 2x - 1`` (upper triangle of ``J``)."""
    h = np.asarray(h, dtype=np.float64)
    upper = np.triu(np.asarray(J, dtype=np.float64), k=1)
    linear = 2.0 * h - 2.0 * (upper.sum(axis=0) + upper.sum(axis=1))
    return _form(h.size, upper.sum() - h.sum(), linear, 4.0 * upper)


def qubo_form(Q: np.ndarray) -> QuadraticForm:
    """``x^T Q x`` for 0/1 vectors ``x``."""
    Q = np.asarray(Q, dtype=np.float64)
    return _form(Q.shape[0], 0.0, np.zeros(Q.shape[0]), Q)
