"""Pre-allocated simulation buffers.

The paper emphasizes (Sec. 2.2) that the statevector simulation pre-allocates
and re-uses memory so that repeated expectation-value evaluations inside the
angle-finding loop have "functionally zero overhead".
:class:`BatchedWorkspace` holds the ``(dim, M)`` buffers of the evolution
kernel (M statevectors evolve side by side as the columns of one matrix, so
mixer layers become BLAS-3 GEMMs; a single simulation is M=1) plus the
per-layer storage the adjoint gradient wants, and hands them out without
re-allocating across calls.  Its buffers are backed by flat arrays and
handed out as prefix-reshaped views, so every view is C-contiguous
regardless of the requested batch size; capacity only ever grows.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BatchedWorkspace", "default_eval_batch"]


def default_eval_batch(dim: int, *, budget_elems: int = 1 << 22) -> int:
    """Largest evaluation batch whose ``(dim, M)`` workspace buffers each stay
    under ``budget_elems`` complex128 elements (~64 MB at the default budget),
    capped at 256 columns.

    The shared chunking policy of the batched sweep consumers (grid search,
    random-restart seed scoring): large-``n`` sweeps stay within the budget
    (down to one column), while small spaces still amortize the
    per-chunk Python overhead over hundreds of columns.
    """
    return max(1, min(256, budget_elems // max(1, dim)))


class BatchedWorkspace:
    """Reusable ``(dim, M)`` buffers for batched statevector simulation.

    Three matrix buffers are maintained: the evolving batch of states, a
    scratch matrix (eigenbasis coefficients / transform intermediates) and a
    phase matrix (per-column phase-separator and eigenphase factors).  All are
    backed by flat arrays of ``dim * capacity`` elements; a request for batch
    size ``M <= capacity`` returns the first ``dim * M`` elements reshaped to
    ``(dim, M)``, which is always C-contiguous — a requirement of the blocked
    Walsh–Hadamard kernel and the interleaved real-GEMM fast path.
    Capacity grows on demand and never shrinks.
    """

    def __init__(self, dim: int, batch: int = 1):
        if dim < 1:
            raise ValueError("workspace dimension must be positive")
        self.dim = int(dim)
        self._capacity = 0
        self._state: np.ndarray | None = None
        self._scratch: np.ndarray | None = None
        self._phase: np.ndarray | None = None
        # The gradient-only (layers, 2, dim, M) forward-layer store, allocated
        # lazily so pure-evaluation sweeps never pay for it.
        self._layer_flat: np.ndarray | None = None
        #: number of batched simulator calls served (for tests/benchmarks)
        self.calls_served = 0
        self.ensure(batch)

    @property
    def capacity(self) -> int:
        """Largest batch size the current buffers can serve without growing."""
        return self._capacity

    def ensure(self, batch: int) -> "BatchedWorkspace":
        """Grow the buffers to hold at least ``batch`` columns (never shrink).

        Growing reallocates, which invalidates previously handed-out views;
        callers must re-request views after ``ensure``.  The simulation loop
        calls this once up front, so views stay stable within one evolution.
        """
        if batch < 1:
            raise ValueError("batch size must be positive")
        if batch > self._capacity:
            size = self.dim * batch
            self._state = np.empty(size, dtype=np.complex128)
            self._scratch = np.empty(size, dtype=np.complex128)
            self._phase = np.empty(size, dtype=np.complex128)
            self._capacity = batch
        return self

    def _view(self, buffer: np.ndarray, batch: int) -> np.ndarray:
        if batch < 1:
            raise ValueError("batch size must be positive")
        return buffer[: self.dim * batch].reshape(self.dim, batch)

    def state(self, batch: int) -> np.ndarray:
        """The ``(dim, batch)`` evolving-states buffer (contents unspecified)."""
        self.ensure(batch)
        return self._view(self._state, batch)

    def scratch(self, batch: int) -> np.ndarray:
        """A ``(dim, batch)`` scratch matrix for basis changes / transforms."""
        self.ensure(batch)
        return self._view(self._scratch, batch)

    def phase(self, batch: int) -> np.ndarray:
        """A ``(dim, batch)`` buffer for elementwise phase factors."""
        self.ensure(batch)
        return self._view(self._phase, batch)

    def ensure_layers(self, layers: int, batch: int) -> np.ndarray:
        """Return a ``(layers, 2, dim, batch)`` buffer for per-layer forward batches.

        Slot ``[k, 0]`` stores the batch after the phase separator of round ``k``
        and slot ``[k, 1]`` the mixer's ``record`` of that round (for the
        eigenbasis families its middle vector) — both consumed by the batched
        adjoint gradient.  The backing allocation is flat and grown
        (never shrunk) on demand; the returned prefix view is C-contiguous,
        and its ``(dim, batch)`` slices satisfy the contiguity requirement of
        the batched mixer kernels.
        """
        if layers < 0:
            raise ValueError("layer count must be non-negative")
        if batch < 1:
            raise ValueError("batch size must be positive")
        size = layers * 2 * self.dim * batch
        if self._layer_flat is None or self._layer_flat.size < size:
            self._layer_flat = np.empty(size, dtype=np.complex128)
        return self._layer_flat[:size].reshape(layers, 2, self.dim, batch)

    def load_states(self, psi: np.ndarray, batch: int) -> np.ndarray:
        """Fill the state buffer with ``psi`` and return the ``(dim, batch)`` view.

        ``psi`` may be a single ``(dim,)`` statevector (broadcast to every
        column) or a ``(dim, batch)`` matrix of per-column initial states.
        """
        states = self.state(batch)
        psi = np.asarray(psi)
        if psi.ndim == 1:
            if psi.shape != (self.dim,):
                raise ValueError(f"state has shape {psi.shape}, expected ({self.dim},)")
            states[:] = psi[:, None]
        elif psi.shape == (self.dim, batch):
            states[:] = psi
        else:
            raise ValueError(
                f"states have shape {psi.shape}, expected ({self.dim},) or "
                f"({self.dim}, {batch})"
            )
        self.calls_served += 1
        return states

    def compatible_with(self, dim: int) -> bool:
        """Whether this workspace can serve a simulation of dimension ``dim``."""
        return self.dim == int(dim)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedWorkspace(dim={self.dim}, capacity={self._capacity}, "
            f"calls_served={self.calls_served})"
        )
