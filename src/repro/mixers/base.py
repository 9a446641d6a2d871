"""Mixer interface.

A mixer in this package is a Hermitian operator ``H_M`` acting on a feasible
space, exposed through exactly the operations the QAOA engine needs.  Both
kernels act on a ``(dim, M)`` batch of statevectors (one column per angle
set; a single state is M=1):

* ``apply_batch(Psi, betas)`` — the unitary evolution
  ``exp(-i beta_j H_M) |psi_j>`` of every column, implemented without ever
  forming the matrix exponential (the paper's core trick: diagonalize once,
  then only diagonal phases plus basis changes are needed per layer),
* ``adjoint_batch(Phi, chi, record, betas)`` — one backward round of the
  analytic (autodiff-equivalent) gradient: the β-derivatives of the layer
  and ``Phi <- exp(+i beta_j H_M) Phi``, read off what the forward
  ``apply_batch`` call left in its ``record=`` buffer (for the eigenbasis
  families, the middle vector ``exp(-i beta D) W^† chi_j``, so a round costs
  two basis changes),
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

import numpy as np

from ..backend import kernels
from ..hilbert.subspace import FeasibleSpace

__all__ = ["Mixer", "DiagonalizedMixer", "weighted_imag_vdot", "weighted_sq_norms"]

#: Entries of the largest squared-modulus block :func:`weighted_sq_norms` forms.
SQ_NORM_BLOCK = 1 << 20


def weighted_imag_vdot(weights: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Im(<a_j | diag(weights) | b_j>)`` for every column ``j`` (real weights).

    Each term is one three-operand einsum over strided views of the real and
    imaginary parts, so no ``(dim, M)`` temporary is formed.
    """
    return np.einsum("d,dm,dm->m", weights, a.real, b.imag) - np.einsum(
        "d,dm,dm->m", weights, a.imag, b.real
    )


def weighted_sq_norms(weights: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``sum_y weights[y] |psi[y, j]|^2`` for every column ``j`` (real weights).

    The engines' batched energies, the shard workers' norms and
    optimal-state probabilities are this reduction: one ``kernels.matmul``
    of the weights with the squared moduli, formed one row block of at most
    :data:`SQ_NORM_BLOCK` entries at a time, so a large state needs no
    ``(dim, M)`` float temporary.
    """
    step = max(1, SQ_NORM_BLOCK // max(1, psi.shape[1]))
    total = np.zeros(psi.shape[1], dtype=np.float64)
    for lo in range(0, psi.shape[0], step):
        probs = np.abs(psi[lo:lo + step])
        np.square(probs, out=probs)
        total += kernels.matmul(weights[lo:lo + step], probs)
    return total


def layer_buffers(dim: int, M: int, workspace) -> tuple[np.ndarray, np.ndarray]:
    """A layer's two free ``(dim, M)`` buffers: the workspace's scratch and
    phase matrices, or fresh ones without a workspace."""
    if workspace is not None:
        return workspace.scratch(M), workspace.phase(M)
    return tuple(np.empty((dim, M), dtype=np.complex128) for _ in range(2))


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
    #: Angles one layer takes (one per term for multi-angle mixers).
    num_angles: int = 1

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
        record: np.ndarray | None = None,
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

        ``record`` (optional) is a C-contiguous ``(dim, M)`` buffer that
        receives what :meth:`adjoint_batch` needs of this layer.  The
        eigenbasis families (``H_M = W D W^†``) write the middle vector
        ``exp(-i beta_j D) W^† psi_j`` there, which they compute anyway; a
        mixer whose adjoint needs only the layer input leaves it untouched.
        """

    @abc.abstractmethod
    def adjoint_batch(self, Phi: np.ndarray, chi: np.ndarray, record: np.ndarray,
                      betas: np.ndarray, *, workspace=None) -> np.ndarray:
        """One backward round of the adjoint gradient for every column ``j``.

        ``chi`` is the layer's input batch, ``record`` the buffer its
        forward :meth:`apply_batch` call filled and ``betas`` its angles (as
        for :meth:`apply_batch`).  Returns the ``(num_betas, M)``
        derivatives ``2 Re <phi_j| dU/dbeta_t |chi_j>`` of the layer
        ``U`` — ``2 Im <phi_j| H_t |psi_j>`` with ``psi_j = U chi_j`` for an
        exact layer — and updates ``Phi`` in place to ``U^† Phi``.  ``Phi``
        must be a C-contiguous complex128 ``(dim, M)`` matrix; ``chi`` is
        not modified, ``record`` may be.  ``workspace`` optionally supplies
        pre-allocated scratch (a :class:`~repro.core.workspace.BatchedWorkspace`
        of matching dimension).
        """

    def _check_adjoint(self, Phi: np.ndarray) -> int:
        """Validate the in-place adjoint batch; returns its column count M."""
        if Phi.ndim != 2 or Phi.shape[0] != self.dim or Phi.dtype != np.complex128 \
                or not Phi.flags.c_contiguous:
            raise ValueError(f"the adjoint batch must be a C-contiguous complex128 "
                             f"({self.dim}, M) matrix, got {Phi.dtype} {Phi.shape}")
        return Phi.shape[1]

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
    #: Whether the mixer commutes with the global flip ``X^{⊗n}`` and starts
    #: from a flip-invariant state, so that :meth:`flip_folded` exists.
    flip_invariant: bool = False

    def flip_folded(self) -> "Mixer":
        """This mixer on the flip-symmetric half of its space, as an ordinary
        ``n - 1``-qubit mixer (only when :attr:`flip_invariant`; see
        :mod:`repro.core.symmetry`)."""
        raise TypeError(f"{type(self).__name__} does not commute with the global flip")

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

    def _eigenphases(self, betas: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """The factors ``exp(-i beta_j D)``, written into the ``(dim, M)`` ``phases``.

        A uniform batch (every column shares one angle) gets a single phase
        vector, in the front of ``phases``, that broadcasts across columns as
        ``(dim, 1)``, skipping the ``(dim, M)`` outer.
        """
        if betas.size and betas.min() == betas.max():
            phase_vec = phases.reshape(-1)[: self.dim]
            np.multiply(self.eigenvalues, -1j * float(betas[0]), out=phase_vec)
            np.exp(phase_vec, out=phase_vec)
            return phase_vec[:, None]
        np.multiply(self.eigenvalues[:, None], -1j * betas[None, :], out=phases)
        np.exp(phases, out=phases)
        return phases

    def apply_batch(
        self,
        Psi: np.ndarray,
        betas: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
        columns: np.ndarray | None = None,
        record: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched layer: two GEMMs around a per-column eigenphase multiply.

        With a column map the ``V^†`` GEMM runs on the distinct inputs only;
        with a ``record`` buffer the phased coefficients land there and the
        ``V`` GEMM reads them from it.
        """
        Psi, out, M = self._check_batch(Psi, out, columns)
        betas = self._batch_angles(betas, M)
        coeffs, phases = layer_buffers(self.dim, M, workspace)
        # the phase buffer is free until the phases are formed below
        per_input(
            lambda src, dst: self._basis_change(self._Vdag, src, dst), Psi, coeffs, columns, phases
        )
        factors = self._eigenphases(betas, phases)
        if record is None:
            coeffs *= factors
        else:
            coeffs = np.multiply(coeffs, factors, out=record)
        self._basis_change(self._V, coeffs, out)
        return out

    def adjoint_batch(self, Phi: np.ndarray, chi: np.ndarray, record: np.ndarray,
                      betas: np.ndarray, *, workspace=None) -> np.ndarray:
        """Backward round in the eigenbasis: two GEMMs.

        ``phi~ = V^† Phi``; the derivative is ``2 Im <phi~| D ⊙ record>``
        against the recorded ``exp(-i beta D) V^† chi``; then
        ``Phi = V exp(+i beta D) phi~``.
        """
        M = self._check_adjoint(Phi)
        betas = self._batch_angles(betas, M)
        coeffs, phases = layer_buffers(self.dim, M, workspace)
        self._basis_change(self._Vdag, Phi, coeffs)
        grads = 2.0 * weighted_imag_vdot(self.eigenvalues, coeffs, record)
        coeffs *= self._eigenphases(-betas, phases)
        self._basis_change(self._V, coeffs, Phi)
        return grads[None, :]

    def matrix(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues[None, :]) @ self._Vdag

    def spectral_data(self) -> tuple[np.ndarray, np.ndarray]:
        """The cached ``(eigenvalues, eigenvectors)`` pair."""
        return self.eigenvalues, self.eigenvectors
