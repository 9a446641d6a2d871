"""Pauli-X product mixers (transverse field and generalizations).

For unconstrained problems the paper's optimized path covers any mixer that is
a sum of products of Pauli-X operators,

    H_M = sum_t  c_t  prod_{i in t} X_i ,

which includes the original transverse-field mixer ``sum_i X_i`` and the
Grover mixer's multi-X expansions.  Using ``H Z H = X`` the evolution is

    exp(-i beta H_M) = H^{⊗n}  exp(-i beta f(Z_i))  H^{⊗n} ,

so a single diagonal vector ``d`` (the mixer eigenvalues in the Hadamard
basis) is pre-computed once, and each layer costs two fast Walsh–Hadamard
transforms plus an element-wise phase multiply (Sec. 2.1-2.2 of the paper).
Every transform here is the blocked kernel of
:func:`repro.backend.base.blocked_wht` (``kernels.wht_gemm`` on the
batched paths): one small ``±1`` Hadamard GEMM per block of index bits.

The diagonal entries follow from ``Z_{i1}...Z_{ik} |x> = (-1)^{popcount(x & mask)} |x>``:

    d[x] = sum_t  c_t  (-1)^{popcount(x & mask_t)} ,

which is itself the unnormalized Walsh–Hadamard transform of the term
coefficients scattered at their masks — one transform builds ``d``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from ..backend import kernels
from ..backend.base import blocked_wht, distinct_levels, hadamard_blocks, level_table_pays
from ..hilbert.subspace import FullSpace
from .base import Mixer, front_view, per_input

__all__ = [
    "walsh_hadamard_transform",
    "term_mask",
    "fold_x_terms",
    "x_mask_diagonal",
    "x_term_diagonal",
    "x_order_terms",
    "XMixer",
    "mixer_x",
    "transverse_field_mixer",
    "MultiAngleXMixer",
]


def walsh_hadamard_transform(psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Normalized Walsh–Hadamard transform ``H^{⊗n} |psi>``.

    ``psi`` is either a single statevector of power-of-two length or a
    ``(dim, M)`` batch of column statevectors (the transform acts along axis
    0).  A thin wrapper of :func:`~repro.backend.base.blocked_wht`: the
    result is complex128; if ``out`` is provided it is written there (it may
    alias ``psi``), otherwise a new array is returned and ``psi`` is left
    untouched.
    """
    psi = np.asarray(psi)
    dim = psi.shape[0]
    if dim == 0 or dim & (dim - 1):
        raise ValueError(f"statevector length {dim} is not a power of two")
    n = dim.bit_length() - 1
    work = np.array(psi, dtype=np.complex128, order="C")
    columns = work.reshape(dim, -1)
    blocked_wht(columns, np.empty_like(columns), columns, hadamard_blocks(n, columns.shape[1]))
    work *= 2.0 ** (-n / 2.0)
    if out is None:
        return work
    out[...] = work
    return out


def _hadamard_layer(
    mixer: "Mixer",
    Psi: np.ndarray,
    out: np.ndarray,
    M: int,
    factors,
    workspace,
    columns: np.ndarray | None = None,
) -> np.ndarray:
    """Batched ``H^{⊗n} diag(f) H^{⊗n} Psi`` via two blocked WHTs.

    The shared kernel of every products-of-X layer and Hamiltonian product,
    called on the output of :meth:`Mixer._check_batch`.  ``factors(free)``
    returns the elementwise factors ``f`` — ``(dim, M)``, written into the
    free ``(dim, M)`` buffer it is handed, or a broadcastable ``(dim, 1)`` —
    with both transforms' ``2^{-n/2}`` normalizations folded in, so the layer
    costs two transforms plus one elementwise pass for all M columns.  Under
    a column map (see :meth:`Mixer.apply_batch`) the first transform runs on
    the distinct inputs only.
    """
    if workspace is not None:
        scratch = workspace.scratch(M)
        free = workspace.phase(M)
    else:
        scratch = np.empty((mixer.dim, M), dtype=np.complex128)
        free = np.empty((mixer.dim, M), dtype=np.complex128)

    def wht(src, dst):
        blocks = hadamard_blocks(mixer.n, src.shape[1])
        return kernels.wht_gemm(src, front_view(scratch, src), dst, *blocks)

    per_input(wht, Psi, out, columns, free)
    out *= factors(free)
    return wht(out, out)


def term_mask(term: Sequence[int], n: int) -> int:
    """Bit mask ``sum_{q in term} 2^q`` of one X-product term on ``n`` qubits.

    Raises ``ValueError`` for an out-of-range or repeated qubit.
    """
    mask = 0
    for qubit in term:
        qubit = int(qubit)
        if not 0 <= qubit < n:
            raise ValueError(f"qubit index {qubit} out of range for n={n}")
        if mask >> qubit & 1:
            raise ValueError(f"duplicate qubit {qubit} in mixer term {tuple(term)}")
        mask |= 1 << qubit
    return mask


def fold_x_terms(
    masks: Sequence[int], coefficients: Sequence[float], n: int, high: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Rows and signed weights of X-product terms restricted to ``2^n`` indices.

    Over the indices ``(high << n) + x`` with ``x < 2^n``, term ``t``
    contributes ``c_t (-1)^{popcount(high & (mask_t >> n))} (-1)^{popcount(x
    & row_t)}`` with ``row_t = mask_t mod 2^n`` — so any diagonal or inner
    product over those indices is an unnormalized ``2^n`` WHT of the weights
    scattered at the rows.  ``high = 0`` covers the whole ``2^n`` space; a
    shard uses its chunk's high index bits.
    """
    rows = np.array([mask & ((1 << n) - 1) for mask in masks], dtype=np.intp)
    weights = np.array(
        [
            -float(c) if ((mask >> n) & high).bit_count() & 1 else float(c)
            for mask, c in zip(masks, coefficients)
        ],
        dtype=np.float64,
    )
    return rows, weights


def x_mask_diagonal(
    masks: Sequence[int],
    coefficients: Sequence[float],
    n: int,
    *,
    high: int = 0,
    angles: np.ndarray | None = None,
) -> np.ndarray:
    """``d[x] = sum_t c_t (-1)^{popcount(((high << n) + x) & mask_t)}`` for ``x < 2^n``.

    Scatters the (folded, see :func:`fold_x_terms`) coefficients at their
    masks and runs one Walsh–Hadamard transform.  With ``angles`` of shape
    ``(num_terms, M)`` it returns the ``(2^n, M)`` diagonals of a multi-angle
    layer instead, column ``j`` weighting term ``t`` by ``angles[t, j]``.
    """
    rows, weights = fold_x_terms(masks, coefficients, n, high)
    values = weights[:, None] if angles is None else weights[:, None] * angles
    diag = np.zeros((1 << n, values.shape[1]), dtype=np.float64)
    np.add.at(diag, rows, values)
    blocked_wht(diag, np.empty_like(diag), diag, hadamard_blocks(n, values.shape[1]))
    return diag[:, 0] if angles is None else diag


def x_term_diagonal(
    terms: Sequence[Sequence[int]], coefficients: Sequence[float], n: int
) -> np.ndarray:
    """Eigenvalues (in the Hadamard basis) of ``sum_t c_t prod_{i in t} X_i``.

    Returns a length-``2^n`` float array ``d`` with
    ``d[x] = sum_t c_t (-1)^{popcount(x & mask_t)}``.
    """
    return x_mask_diagonal([term_mask(term, n) for term in terms], coefficients, n)


class XMixer(Mixer):
    """Mixer built from a sum of products of Pauli-X operators (unconstrained).

    Parameters
    ----------
    n:
        Number of qubits; the mixer acts on the full ``2^n`` space.
    terms:
        Iterable of qubit-index tuples; each tuple ``t`` contributes
        ``prod_{i in t} X_i``.
    coefficients:
        Optional per-term coefficients (default all 1).
    """

    def __init__(
        self,
        n: int,
        terms: Iterable[Sequence[int]],
        coefficients: Sequence[float] | None = None,
    ):
        super().__init__(FullSpace(n))
        terms = [tuple(int(q) for q in term) for term in terms]
        if not terms:
            raise ValueError("an X mixer needs at least one term")
        if coefficients is None:
            coefficients = [1.0] * len(terms)
        coefficients = [float(c) for c in coefficients]
        if len(coefficients) != len(terms):
            raise ValueError("coefficients and terms must have the same length")
        self.terms = terms
        self.coefficients = coefficients
        # The pre-computed Hadamard-basis diagonal: the only per-mixer data the
        # simulation loop ever touches.
        self.diagonal = x_term_diagonal(terms, coefficients, n)
        # X-mixer spectra take few distinct values (the transverse field has
        # n + 1), so batched eigenphases are an exp over (levels, M) plus a
        # gather instead of an exp over the full (dim, M) matrix.
        self._diag_values, self._diag_inverse = distinct_levels(self.diagonal)

    def apply_batch(
        self,
        Psi: np.ndarray,
        betas: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched layer: two blocked WHTs around a per-column phase multiply.

        Each transform is ``kernels.wht_gemm`` (one small Hadamard GEMM
        per block of index bits, see :func:`~repro.backend.base.blocked_wht`),
        the ``2^{-n/2}`` normalizations of both transforms are folded into the
        phase factors, and the phase factors themselves come from a
        distinct-eigenvalue table — so a layer costs a few BLAS-3 calls plus
        elementwise passes for all M angle sets.  Under a column map the
        first transform runs on the distinct inputs only.
        """
        Psi, out, M = self._check_batch(Psi, out, columns)
        betas = self._batch_angles(betas, M)

        def phase_factors(phases):
            # eigenphases x (1/dim): the latter absorbs both transform norms
            levels = self._diag_values
            scale = 1.0 / self.dim
            if level_table_pays(levels.size, self.dim):
                table = np.empty((levels.size, M), dtype=np.complex128)
                np.multiply(levels[:, None], -1j * betas[None, :], out=table)
                np.exp(table, out=table)
                table *= scale
                # in-range indices: an unbuffered gather straight into phases
                return np.take(table, self._diag_inverse, axis=0, out=phases, mode="clip")
            np.multiply(self.diagonal[:, None], -1j * betas[None, :], out=phases)
            np.exp(phases, out=phases)
            phases *= scale
            return phases

        return _hadamard_layer(self, Psi, out, M, phase_factors, workspace, columns)

    def apply_hamiltonian_batch(
        self,
        Psi: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Batched ``H_M`` product (see :func:`_hadamard_layer`)."""
        Psi, out, M = self._check_batch(Psi, out)
        scaled = self.diagonal * (1.0 / self.dim)
        return _hadamard_layer(self, Psi, out, M, lambda free: scaled[:, None], workspace)

    def matrix(self) -> np.ndarray:
        dim = self.dim
        # H^{⊗n} diag(d) H^{⊗n}, built column by column (test/inspection use only).
        mat = np.empty((dim, dim), dtype=np.complex128)
        basis = np.zeros(dim, dtype=np.complex128)
        for j in range(dim):
            basis[:] = 0.0
            basis[j] = 1.0
            column = walsh_hadamard_transform(basis)
            column *= self.diagonal
            mat[:, j] = walsh_hadamard_transform(column)
        return mat

    def cache_key(self) -> str:
        body = "_".join("".join(map(str, t)) for t in self.terms)
        digest = hash((tuple(self.terms), tuple(self.coefficients))) & 0xFFFFFFFF
        return f"XMixer_n{self.n}_{digest:x}_{body[:32]}"


def x_order_terms(
    orders: Sequence[int], n: int, coefficients: Sequence[float] | None = None
) -> tuple[list[tuple[int, ...]], list[float]]:
    """Terms and per-term coefficients of every ``order``-body X product on ``n`` qubits.

    ``coefficients`` optionally weights each order (default 1).  Raises
    ``ValueError`` for an empty ``orders``, a coefficient count that does
    not match it, or an order outside ``[1, n]``.
    """
    orders = [int(order) for order in orders]
    if not orders:
        raise ValueError("at least one interaction order is required")
    if coefficients is not None and len(coefficients) != len(orders):
        raise ValueError("coefficients must match the number of orders")
    terms: list[tuple[int, ...]] = []
    coeffs: list[float] = []
    for idx, order in enumerate(orders):
        if not 1 <= order <= n:
            raise ValueError(f"interaction order {order} out of range for n={n}")
        weight = 1.0 if coefficients is None else float(coefficients[idx])
        for combo in combinations(range(n), order):
            terms.append(combo)
            coeffs.append(weight)
    return terms, coeffs


def mixer_x(orders: Sequence[int], n: int, coefficients: Sequence[float] | None = None) -> XMixer:
    """Build an X mixer from interaction orders, mirroring the paper's ``mixer_X``.

    ``orders=[1]`` gives the transverse-field mixer ``sum_i X_i``;
    ``orders=[1, 2]`` additionally includes all two-body ``X_i X_j`` products,
    and so on.  ``coefficients`` optionally weights each order.
    """
    return XMixer(n, *x_order_terms(orders, n, coefficients))


def transverse_field_mixer(n: int) -> XMixer:
    """The standard transverse-field mixer ``sum_i X_i``."""
    return mixer_x([1], n)


class MultiAngleXMixer(Mixer):
    """Multi-angle variant: each X term gets its own angle (Herrman et al. 2021).

    All products of X operators commute, so a layer with per-term angles
    ``beta_t`` is exactly ``H^{⊗n} exp(-i sum_t beta_t d_t) H^{⊗n}`` where
    ``d_t`` is the Hadamard-basis diagonal of term ``t``.  ``apply_batch``
    therefore takes ``num_terms`` angles per column.
    """

    def __init__(self, n: int, terms: Iterable[Sequence[int]]):
        super().__init__(FullSpace(n))
        terms = [tuple(int(q) for q in term) for term in terms]
        if not terms:
            raise ValueError("a multi-angle X mixer needs at least one term")
        self.terms = terms
        self.term_diagonals = np.stack([x_term_diagonal([t], [1.0], n) for t in terms], axis=0)
        self._summed_diagonal = self.term_diagonals.sum(axis=0)
        # (dim, num_terms) factor pre-scaled by -i, so the batched per-column
        # phase exponents are a single GEMM with the (num_terms, M) angles.
        self._term_diag_T_negj = np.ascontiguousarray(-1j * self.term_diagonals.T)

    @property
    def num_angles(self) -> int:
        """Number of independent angles in one layer."""
        return len(self.terms)

    def apply_batch(
        self,
        Psi: np.ndarray,
        betas: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched multi-angle layer.

        ``betas`` is a ``(num_angles, M)`` matrix — one angle per term per
        column; a ``(M,)`` vector or scalar broadcasts across terms.  The
        per-column phase exponents are one GEMM (``-i * D^T @ betas``), then
        the layer is two batched WHTs; under a column map the first
        transform runs on the distinct inputs only.
        """
        Psi, out, M = self._check_batch(Psi, out, columns)
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim == 0:
            betas = np.full((self.num_angles, M), float(betas))
        elif betas.ndim == 1:
            if betas.shape != (M,):
                raise ValueError(f"betas have shape {betas.shape}, expected ({M},)")
            betas = np.broadcast_to(betas, (self.num_angles, M))
        if betas.shape != (self.num_angles, M):
            raise ValueError(f"betas have shape {betas.shape}, expected ({self.num_angles}, {M})")

        def phase_factors(phases):
            kernels.matmul(self._term_diag_T_negj, np.ascontiguousarray(betas), out=phases)
            np.exp(phases, out=phases)
            phases *= 1.0 / self.dim  # absorbs both transforms' 2^{-n/2} norms
            return phases

        return _hadamard_layer(self, Psi, out, M, phase_factors, workspace, columns)

    def apply_hamiltonian_batch(
        self,
        Psi: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Batched summed-Hamiltonian product (see :func:`_hadamard_layer`)."""
        Psi, out, M = self._check_batch(Psi, out)
        scaled = self._summed_diagonal * (1.0 / self.dim)
        return _hadamard_layer(self, Psi, out, M, lambda free: scaled[:, None], workspace)

    def term_gradients_batch(
        self,
        Phi: np.ndarray,
        Psi: np.ndarray,
        *,
        workspace=None,
    ) -> np.ndarray:
        """``2 Im <phi_j | H_t | psi_j>`` for every term ``t`` and column ``j``.

        The per-term beta derivatives of one multi-angle layer for a whole
        batch, shape ``(num_angles, M)``.  Because every ``H_t`` is diagonal
        in the Hadamard basis, both batches are transformed once and all
        ``num_angles * M`` inner products collapse into a single real GEMM
        with the stacked term diagonals — instead of ``num_angles`` separate
        Hamiltonian products per column.  ``Phi`` and
        ``Psi`` must be C-contiguous complex ``(dim, M)`` matrices; neither is
        modified.
        """
        Phi = np.asarray(Phi)
        Psi = np.asarray(Psi)
        if Phi.shape != Psi.shape or Phi.ndim != 2 or Phi.shape[0] != self.dim:
            raise ValueError(
                f"batched statevectors have shapes {Phi.shape} / {Psi.shape}, "
                f"expected matching ({self.dim}, M) for {self!r}"
            )
        M = Phi.shape[1]
        if workspace is not None:
            via = workspace.scratch(M)
            wphi = workspace.phase(M)
            wpsi = workspace.aux(M)
        else:
            via = np.empty((self.dim, M), dtype=np.complex128)
            wphi = np.empty((self.dim, M), dtype=np.complex128)
            wpsi = np.empty((self.dim, M), dtype=np.complex128)
        blocks = hadamard_blocks(self.n, M)
        kernels.wht_gemm(Phi, via, wphi, *blocks)
        kernels.wht_gemm(Psi, via, wpsi, *blocks)
        # A = conj(W phi) * (W psi); both transforms are unnormalized, so A
        # carries an extra factor of dim that the final scale removes.
        np.conjugate(wphi, out=wphi)
        wphi *= wpsi
        # One real GEMM against the interleaved re/im view gives the real and
        # imaginary parts of every <W phi| d_t |W psi> side by side.
        products = kernels.matmul(
            self.term_diagonals, wphi.view(np.float64).reshape(self.dim, 2 * M)
        )
        return (2.0 / self.dim) * products[:, 1::2]

    def matrix(self) -> np.ndarray:
        dim = self.dim
        mat = np.empty((dim, dim), dtype=np.complex128)
        basis = np.zeros(dim, dtype=np.complex128)
        diag = self.term_diagonals.sum(axis=0)
        for j in range(dim):
            basis[:] = 0.0
            basis[j] = 1.0
            column = walsh_hadamard_transform(basis)
            column *= diag
            mat[:, j] = walsh_hadamard_transform(column)
        return mat
