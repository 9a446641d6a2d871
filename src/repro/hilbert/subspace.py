"""Feasible-space abstraction.

A QAOA in this package is always simulated over a *feasible space*: an ordered
collection of computational basis states over which the cost function is
evaluated and within which the mixer acts.  Unconstrained problems use the
full hypercube; Hamming-weight-constrained problems use a Dicke subspace; any
other constraint can be expressed by listing the feasible labels explicitly.

The class exposes exactly what the simulator's pre-computation step needs:

* ``labels`` — full-space integer labels in canonical order,
* ``bits`` — the same states as a ``(dim, n)`` 0/1 matrix,
* ``evaluate(cost)`` — the cost function evaluated across all feasible states,
* ``initial_state()`` — the uniform superposition over the space (the default
  QAOA starting state, per Sec. 3 of the paper).

Derived labels: :func:`FullSpace` and :func:`DickeSpace` are given by ``n``
(and ``k``) alone.  Their ``dim`` is ``2^n`` or ``C(n, k)``, and their labels
are :func:`~repro.hilbert.states.state_labels` /
:func:`~repro.hilbert.dicke.dicke_labels`, built the first time ``labels``
(or anything that reads them: ``bits``, ``index_of``, ``embed``,
``project``, ``evaluate``) is read, and never validated, since they are
correct by construction.  So ``FullSpace(40).dim`` allocates nothing, and a
run that only needs ``n``, ``dim``, ``is_full`` and ``initial_state()``
never builds a label array.  Explicit labels (``FeasibleSpace(n, labels)``,
:func:`CustomSpace`) are outside input and are checked when given.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .bitops import ints_to_bit_matrix
from .dicke import dicke_dim, dicke_labels
from .states import num_states, state_labels

__all__ = ["FeasibleSpace", "FullSpace", "DickeSpace", "CustomSpace"]


class FeasibleSpace:
    """An ordered set of feasible basis states of an ``n``-qubit register.

    Parameters
    ----------
    n:
        Number of qubits.
    labels:
        Full-space integer labels of the feasible states, in canonical order.
    name:
        Human-readable identifier used in caches and reprs.
    hamming_weight:
        If all feasible states share a Hamming weight, that weight; else None.

    ``dim`` is the number of feasible states.
    """

    def __init__(self, n: int, labels: np.ndarray, name: str = "custom",
                 hamming_weight: int | None = None) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError("labels must be a 1-D array")
        if labels.size == 0:
            raise ValueError("a feasible space must contain at least one state")
        if labels.min() < 0 or (n < 63 and labels.max() >= (1 << n)):
            raise ValueError("labels out of range for the given number of qubits")
        # Canonical order is ascending: index_of's binary search relies on it,
        # so a directly-constructed space with unsorted labels used to return
        # wrong indices silently.  Sorting here would instead silently permute
        # the basis out from under any caller-supplied per-state arrays, so
        # unsorted input is rejected loudly (CustomSpace sorts for you).
        # Strictly ascending labels are unique, so the O(dim) order check
        # alone passes valid input; np.unique only runs to pick the message.
        if labels.size > 1 and np.any(labels[1:] <= labels[:-1]):
            if len(np.unique(labels)) != len(labels):
                raise ValueError("feasible-state labels must be unique")
            raise ValueError(
                "feasible-state labels must be in ascending order (the canonical "
                "basis order); use CustomSpace(...) to sort arbitrary label lists"
            )
        self.n, self.dim, self.name, self.hamming_weight = n, int(labels.size), name, hamming_weight
        #: the labels and bit matrix, once built
        self._cache: dict = {"labels": labels}

    @classmethod
    def _derived(cls, n: int, dim: int, name: str, hamming_weight: int | None):
        """A full (``hamming_weight`` None) or Dicke space whose labels are
        derived on first read (see the module docstring)."""
        space = cls.__new__(cls)
        space.n, space.dim, space.name, space.hamming_weight = n, dim, name, hamming_weight
        space._cache = {}
        return space

    @property
    def labels(self) -> np.ndarray:
        """Full-space labels of the feasible states, ascending (derived ones
        are built on first read)."""
        if "labels" not in self._cache:
            self._cache["labels"] = (
                state_labels(self.n) if self.hamming_weight is None
                else dicke_labels(self.n, self.hamming_weight)
            )
        return self._cache["labels"]

    # -- basic geometry -------------------------------------------------
    @property
    def is_full(self) -> bool:
        """Whether this space is the complete ``2^n`` hypercube."""
        return self.dim == (1 << self.n)

    @property
    def bits(self) -> np.ndarray:
        """Feasible states as a ``(dim, n)`` 0/1 matrix (cached)."""
        if "bits" not in self._cache:
            self._cache["bits"] = ints_to_bit_matrix(self.labels, self.n)
        return self._cache["bits"]

    # -- pre-computation hooks -------------------------------------------
    def evaluate(self, cost: Callable[[np.ndarray], float]) -> np.ndarray:
        """Evaluate ``cost`` on every feasible state; returns a float array.

        ``cost`` receives a length-``n`` 0/1 array (qubit 0 first) and must
        return a scalar, matching the cost-function convention of the paper's
        Listing 1.
        """
        bits = self.bits
        return np.array([float(cost(bits[i])) for i in range(self.dim)], dtype=np.float64)

    def evaluate_vectorized(self, cost_vec: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Evaluate a vectorized cost ``cost_vec`` on the full bit matrix at once."""
        vals = np.asarray(cost_vec(self.bits), dtype=np.float64)
        if vals.shape != (self.dim,):
            raise ValueError(f"vectorized cost returned shape {vals.shape}, expected ({self.dim},)")
        return vals

    def initial_state(self, dtype=np.complex128) -> np.ndarray:
        """Uniform superposition over the feasible states (subspace representation)."""
        return np.full(self.dim, 1.0 / np.sqrt(self.dim), dtype=dtype)

    # -- embeddings -------------------------------------------------------
    def embed(self, psi_sub: np.ndarray) -> np.ndarray:
        """Embed a subspace statevector into the full ``2^n`` Hilbert space."""
        psi_sub = np.asarray(psi_sub)
        if psi_sub.shape != (self.dim,):
            raise ValueError(f"expected a length-{self.dim} subspace vector")
        full = np.zeros(1 << self.n, dtype=np.result_type(psi_sub.dtype, np.complex128))
        full[self.labels] = psi_sub
        return full

    def project(self, psi_full: np.ndarray) -> np.ndarray:
        """Restrict a full-space statevector to the feasible subspace."""
        psi_full = np.asarray(psi_full)
        if psi_full.shape != (1 << self.n,):
            raise ValueError(f"expected a length-{1 << self.n} full-space vector")
        return psi_full[self.labels].copy()

    def index_of(self, label: int) -> int:
        """Subspace index of a full-space label (raises if infeasible)."""
        idx = np.searchsorted(self.labels, label)
        if idx >= self.dim or self.labels[idx] != label:
            raise KeyError(f"state {label} is not in the feasible space")
        return int(idx)

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, dim={self.dim}, name={self.name!r})"


def FullSpace(n: int) -> FeasibleSpace:
    """The unconstrained feasible space: all ``2^n`` basis states (labels derived)."""
    return FeasibleSpace._derived(n, num_states(n), "full", None)


def DickeSpace(n: int, k: int) -> FeasibleSpace:
    """The Hamming-weight-``k`` feasible space (Dicke subspace; labels derived)."""
    return FeasibleSpace._derived(n, dicke_dim(n, k), f"dicke_k{k}", k)


def CustomSpace(n: int, labels: Sequence[int], name: str = "custom") -> FeasibleSpace:
    """A feasible space given by an explicit list of state labels.

    The labels are sorted into canonical ascending order.
    """
    labels = np.asarray(sorted(int(x) for x in labels), dtype=np.int64)
    weights = {int(x).bit_count() for x in labels}
    hw = weights.pop() if len(weights) == 1 else None
    return FeasibleSpace(n=n, labels=labels, name=name, hamming_weight=hw)
