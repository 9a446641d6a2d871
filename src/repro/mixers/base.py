"""Mixer interface.

A mixer in this package is a Hermitian operator ``H_M`` acting on a feasible
space, exposed through exactly the operations the QAOA engine needs.  Both
kernels act on a ``(dim, M)`` batch of statevectors (one column per angle
set; a single state is M=1):

* ``apply_batch(Psi, betas)`` — the unitary evolution
  ``exp(-i beta_j H_M) |psi_j>`` of every column, implemented without ever
  forming the matrix exponential (the paper's core trick: diagonalize once,
  then only diagonal phases plus basis changes are needed per layer),
* ``apply_hamiltonian_batch(Psi)`` — the plain product ``H_M |psi_j>``,
  needed by the analytic (autodiff-equivalent) gradients,
* ``initial_state()`` — the canonical QAOA starting state for this mixer
  (uniform superposition over the feasible space, i.e. ``|+>^n`` or a Dicke
  state), which is the highest-energy eigenstate of the standard mixers,
* ``matrix()`` — a dense matrix representation for testing and for arbitrary
  downstream use.

All mixers are stateless with respect to the statevector: they may own
pre-computed spectral data (created once, possibly loaded from a disk cache)
but never mutate their inputs unless an explicit ``out`` buffer is provided.
"""

from __future__ import annotations

import abc
import threading

import numpy as np

from ..backend import kernels
from ..hilbert.subspace import FeasibleSpace

__all__ = ["Mixer", "DiagonalizedMixer"]


def front_view(buffer: np.ndarray, like: np.ndarray) -> np.ndarray:
    """A C-contiguous ``like``-shaped view on the front of the contiguous
    ``buffer``, or a fresh array when ``like`` needs more room."""
    if like.size > buffer.size:
        return np.empty_like(like)
    return buffer.reshape(-1)[: like.size].reshape(like.shape)


def per_input(transform, Psi: np.ndarray, out: np.ndarray, columns, free: np.ndarray):
    """``out = transform(Psi)``, column-mapped when ``columns`` is given.

    ``transform(src, dst)`` writes a layer's per-input work (a transform or
    basis change) of ``src`` into ``dst`` and returns ``dst``.  With a column
    map (see :meth:`Mixer.apply_batch`) it runs once on the distinct inputs,
    into the front of the free buffer ``free``, and one unbuffered gather
    (the map is range-checked) fans the results out to ``out``'s columns.
    """
    if columns is None:
        return transform(Psi, out)
    distinct = transform(Psi, front_view(free, Psi))
    return np.take(distinct, columns, axis=1, out=out, mode="clip")


class Mixer(abc.ABC):
    """Abstract base class for QAOA mixer Hamiltonians."""

    #: The feasible space the mixer acts on.
    space: FeasibleSpace

    def __init__(self, space: FeasibleSpace):
        self.space = space

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of qubits."""
        return self.space.n

    @property
    def dim(self) -> int:
        """Dimension of the space the mixer acts on."""
        return self.space.dim

    # ------------------------------------------------------------------
    # required operations
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def apply_batch(
        self,
        Psi: np.ndarray,
        betas: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return ``exp(-i beta_j H_M) |psi_j>`` for every column ``j`` of ``Psi``.

        ``Psi`` is a ``(dim, M)`` matrix whose columns are M independent
        statevectors and ``betas`` holds one angle per column (multi-angle
        mixers instead take a ``(num_angles, M)`` matrix).  ``out`` may alias
        ``Psi``.  ``workspace`` optionally supplies pre-allocated scratch (a
        :class:`~repro.core.workspace.BatchedWorkspace` of matching
        dimension).

        ``columns`` (optional) is an integer map for inputs shared by several
        outputs: ``Psi`` then holds only the distinct ``(dim, D)`` inputs, and
        ``out[:, j] = exp(-i beta_j H_M) Psi[:, columns[j]]`` for the
        ``M = len(columns)`` outputs, so ``betas`` has one angle per *output*
        column and ``out`` must not overlap ``Psi``.  The result equals
        ``apply_batch(Psi[:, columns], betas)``; the optimized families run
        their per-input work (the first transform or basis change) on the D
        distinct columns only, gather once, and apply the per-column phases
        and the outgoing basis change at full width.
        """

    @abc.abstractmethod
    def apply_hamiltonian_batch(
        self,
        Psi: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Return ``H_M |psi_j>`` for every column ``j`` of the ``(dim, M)`` batch.

        The contract the batched adjoint-gradient engine relies on: one call
        produces the mixer-Hamiltonian product for all M statevectors at
        once, so each backward-pass round costs one batched kernel.  ``out``
        may alias ``Psi``; ``workspace`` optionally supplies pre-allocated
        scratch (a :class:`~repro.core.workspace.BatchedWorkspace` of
        matching dimension) so repeated calls allocate nothing.  ``Psi`` is
        never modified unless it aliases ``out``.
        """

    def _check_batch(
        self, Psi: np.ndarray, out: np.ndarray | None, columns: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Validate a batched call; returns contiguous ``(Psi, out, M)``.

        ``M`` is the output width: ``Psi``'s column count, or ``len(columns)``
        for a column-mapped call (see :meth:`apply_batch`), whose map must
        index ``Psi``'s columns.
        """
        Psi = np.asarray(Psi)
        if Psi.ndim != 2 or Psi.shape[0] != self.dim:
            raise ValueError(
                f"batched statevectors have shape {Psi.shape}, expected "
                f"({self.dim}, M) for {self!r}"
            )
        if columns is None:
            M = Psi.shape[1]
        else:
            M = len(columns)
            if M and (np.min(columns) < 0 or np.max(columns) >= Psi.shape[1]):
                raise ValueError(f"column map does not index the {Psi.shape[1]} input columns")
        if Psi.dtype != np.complex128 or not Psi.flags.c_contiguous:
            Psi = np.ascontiguousarray(Psi, dtype=np.complex128)
        if out is None:
            out = np.empty((self.dim, M), dtype=np.complex128)
        elif out.shape != (self.dim, M):
            raise ValueError(f"out has shape {out.shape}, expected ({self.dim}, {M})")
        return Psi, out, M

    @staticmethod
    def _batch_angles(betas: np.ndarray, M: int) -> np.ndarray:
        """Normalize per-column angles to a float ``(M,)`` vector."""
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim == 0:
            betas = np.full(M, float(betas))
        if betas.shape != (M,):
            raise ValueError(f"betas have shape {betas.shape}, expected ({M},)")
        return betas

    @abc.abstractmethod
    def matrix(self) -> np.ndarray:
        """Dense ``dim x dim`` matrix of ``H_M`` in the feasible-space basis."""

    # ------------------------------------------------------------------
    # defaults
    # ------------------------------------------------------------------
    def initial_state(self, dtype=np.complex128) -> np.ndarray:
        """Default QAOA initial state: uniform superposition over the space."""
        return self.space.initial_state(dtype=dtype)

    def cache_key(self) -> str:
        """A string identifying the mixer's pre-computed data for disk caching."""
        return f"{type(self).__name__}_n{self.n}_{self.space.name}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, dim={self.dim})"


class DiagonalizedMixer(Mixer):
    """A mixer represented by an explicit eigendecomposition ``H_M = V D V^†``.

    This is the general-purpose path of the paper's pre-computation step: the
    decomposition is computed (or loaded from a cache) once, and every layer
    application is two dense matrix-vector products plus a diagonal phase:

        exp(-i beta H_M) |psi> = V exp(-i beta D) V^† |psi> .

    Subclasses (Clique, Ring, arbitrary Hermitian mixers) provide the
    eigenvectors ``V`` and eigenvalues ``D``.
    """

    def __init__(self, space: FeasibleSpace, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        super().__init__(space)
        eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        eigenvectors = np.asarray(eigenvectors)
        if eigenvalues.shape != (space.dim,):
            raise ValueError(f"eigenvalues have shape {eigenvalues.shape}, expected ({space.dim},)")
        if eigenvectors.shape != (space.dim, space.dim):
            raise ValueError(
                f"eigenvectors have shape {eigenvectors.shape}, expected "
                f"({space.dim}, {space.dim})"
            )
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        # Basis-change factors materialized once, contiguous, in their natural
        # dtype.  A real eigenbasis (real-symmetric mixers such as XY) keeps
        # float64 factors: basis changes then run as real GEMMs over the
        # interleaved re/im view — half the flops of a complex GEMM and no
        # per-call promotion of V to complex128.
        self._real_basis = bool(np.isrealobj(eigenvectors))
        dtype = np.float64 if self._real_basis else np.complex128
        self._V = np.ascontiguousarray(eigenvectors, dtype=dtype)
        self._Vdag = np.ascontiguousarray(self._V.conj().T)
        # historical name, still used by matrix() and external callers
        self._eigenvectors_dag = self._Vdag
        # Per-call scratch (the uniform-batch phase vector) so repeated layer
        # applications allocate nothing.  Kept thread-local: concurrent angle
        # scans sharing one mixer would otherwise interleave writes to shared
        # scratch and corrupt results.
        self._scratch_store = threading.local()

    def _phase_scratch(self) -> np.ndarray:
        """This thread's uniform-batch phase vector, allocated on first use."""
        store = self._scratch_store
        if not hasattr(store, "phase"):
            store.phase = np.empty(self.dim, dtype=np.complex128)
        return store.phase

    def _basis_change(self, factor: np.ndarray, src: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``factor @ src`` for complex ``src``/``out``, allocation-free.

        With a real eigenbasis and contiguous operands the product runs as a
        single real GEMM over the interleaved re/im float view, which is exact
        (the factor is real) and avoids per-call complex promotion of the
        factor.  ``out`` must not alias ``src``.
        """
        if self._real_basis and src.flags.c_contiguous and out.flags.c_contiguous:
            kernels.real_gemm(factor, src, out)
        else:
            kernels.matmul(factor, src, out=out)
        return out

    def apply_batch(
        self,
        Psi: np.ndarray,
        betas: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched layer: two GEMMs around a per-column eigenphase multiply.

        With a column map the ``V^†`` GEMM runs on the distinct inputs only.
        """
        Psi, out, M = self._check_batch(Psi, out, columns)
        betas = self._batch_angles(betas, M)
        if workspace is not None:
            coeffs = workspace.scratch(M)
            phases = workspace.phase(M)
        else:
            coeffs = np.empty((self.dim, M), dtype=np.complex128)
            phases = np.empty((self.dim, M), dtype=np.complex128)
        # the phase buffer is free until the phases are formed below
        per_input(
            lambda src, dst: self._basis_change(self._Vdag, src, dst), Psi, coeffs, columns, phases
        )
        if M > 0 and betas.min() == betas.max():
            # Uniform batch (every column shares one angle): a single phase
            # vector broadcasts across columns, skipping the (dim, M) outer.
            phase_vec = self._phase_scratch()
            np.multiply(self.eigenvalues, -1j * float(betas[0]), out=phase_vec)
            np.exp(phase_vec, out=phase_vec)
            coeffs *= phase_vec[:, None]
        else:
            np.multiply(self.eigenvalues[:, None], -1j * betas[None, :], out=phases)
            np.exp(phases, out=phases)
            coeffs *= phases
        self._basis_change(self._V, coeffs, out)
        return out

    def apply_hamiltonian_batch(
        self,
        Psi: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Batched ``H_M`` product: two GEMMs around an eigenvalue multiply."""
        Psi, out, M = self._check_batch(Psi, out)
        if workspace is not None:
            coeffs = workspace.scratch(M)
        else:
            coeffs = np.empty((self.dim, M), dtype=np.complex128)
        self._basis_change(self._Vdag, Psi, coeffs)
        coeffs *= self.eigenvalues[:, None]
        self._basis_change(self._V, coeffs, out)
        return out

    def matrix(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues[None, :]) @ self._eigenvectors_dag

    def spectral_data(self) -> tuple[np.ndarray, np.ndarray]:
        """The cached ``(eigenvalues, eigenvectors)`` pair."""
        return self.eigenvalues, self.eigenvectors
