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
coefficients scattered at their masks — one transform builds ``d`` (on
first use, so building a mixer only to fold it costs nothing).

X strings commute with the global flip; :func:`flip_fold_mask` gives a term
on the flip-symmetric half (see :mod:`repro.core.symmetry`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from ..backend import kernels
from ..backend.base import DiagonalPhase, blocked_wht, distinct_levels, hadamard_blocks
from ..hilbert.subspace import FullSpace
from .base import Mixer, front_view, layer_buffers, per_input, weighted_imag_vdot

__all__ = [
    "walsh_hadamard_transform",
    "term_mask",
    "flip_fold_mask",
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
    record: np.ndarray | None = None,
) -> np.ndarray:
    """Batched ``H^{⊗n} diag(f) H^{⊗n} Psi`` via two blocked WHTs.

    The shared kernel of every products-of-X layer, called on the output of
    :meth:`Mixer._check_batch`.  ``factors(free)`` returns the elementwise
    factors ``f`` — ``(dim, M)``, written into the free ``(dim, M)`` buffer
    it is handed, or a broadcastable ``(dim, 1)`` — with both transforms'
    ``2^{-n/2}`` normalizations folded in, so the layer costs two transforms
    plus one elementwise pass for all M columns.  Under a column map (see
    :meth:`Mixer.apply_batch`) the first transform runs on the distinct
    inputs only.  With a ``record`` buffer the phased middle vector lands
    there and the second transform reads it from it.
    """
    scratch, free = layer_buffers(mixer.dim, M, workspace)

    def wht(src, dst):
        blocks = hadamard_blocks(mixer.n, src.shape[1])
        return kernels.wht_gemm(src, front_view(scratch, src), dst, *blocks)

    per_input(wht, Psi, out, columns, free)
    if record is None:
        out *= factors(free)
        return wht(out, out)
    np.multiply(out, factors(free), out=record)
    return wht(record, out)


def _hadamard_adjoint(mixer: "Mixer", Phi: np.ndarray, M: int, factors, gradients,
                      workspace) -> np.ndarray:
    """One backward round of a products-of-X layer (see :meth:`Mixer.adjoint_batch`).

    ``Phi`` is transformed in place and ``gradients(transformed)`` reads the
    β-derivatives off it (the record's ``1/dim`` cancels the unnormalized
    transform); ``factors(free)``, the inverse eigenphases over ``dim``, and
    the second transform finish ``Phi``.
    """
    scratch, free = layer_buffers(mixer.dim, M, workspace)
    blocks = hadamard_blocks(mixer.n, M)
    kernels.wht_gemm(Phi, scratch, Phi, *blocks)
    grads = gradients(Phi)
    Phi *= factors(free)
    kernels.wht_gemm(Phi, scratch, Phi, *blocks)
    return grads


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


def flip_fold_mask(mask: int, n: int) -> int:
    """An ``n``-qubit X-string mask as it acts on the flip-symmetric half.

    On states with equal amplitudes at ``x`` and its complement, X on the top
    qubit equals X on the ``n - 1`` others, so a mask with the top bit set
    becomes ``(mask ^ top) ^ (top - 1)`` on the low ``n - 1`` qubits (the
    all-qubit string becomes the identity, mask 0); others are unchanged.
    """
    top = 1 << (n - 1)
    return mask ^ top ^ (top - 1) if mask & top else mask


def _flip_folded_terms(masks: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """Qubit tuples of :func:`flip_fold_mask` of every mask, in term order."""
    folded = [flip_fold_mask(mask, n) for mask in masks]
    return [tuple(q for q in range(n - 1) if mask >> q & 1) for mask in folded]


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
        self.masks = [term_mask(term, n) for term in terms]
        self.coefficients = coefficients

    #: X strings commute with the global flip (see :meth:`flip_folded`).
    flip_invariant = True

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The Hadamard-basis diagonal: the only per-mixer data the simulation
        loop ever touches (built on first use)."""
        return x_mask_diagonal(self.masks, self.coefficients, self.n)

    @cached_property
    def _levels(self) -> tuple[np.ndarray, np.ndarray]:
        # X-mixer spectra take few distinct values (the transverse field has
        # n + 1), so batched eigenphases are an exp over (levels, M) plus a
        # gather instead of an exp over the full (dim, M) matrix.
        return distinct_levels(self.diagonal)

    def flip_folded(self) -> "XMixer":
        """This mixer on the flip-symmetric half: the ``n - 1``-qubit X mixer of
        the folded terms (:func:`flip_fold_mask`), same order and coefficients."""
        return XMixer(self.n - 1, _flip_folded_terms(self.masks, self.n), self.coefficients)

    def _phase_factors(self, betas: np.ndarray, sign: float, phases: np.ndarray) -> np.ndarray:
        """Eigenphases ``exp(sign i beta_j d) / dim`` (the ``1/dim`` absorbs both
        transform norms), written into ``phases``."""
        return DiagonalPhase(
            self.diagonal, betas, sign, scale=1.0 / self.dim, levels=self._levels
        ).fill(phases)

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
        return _hadamard_layer(
            self, Psi, out, M, lambda free: self._phase_factors(betas, -1.0, free), workspace,
            columns, record,
        )

    def adjoint_batch(self, Phi: np.ndarray, chi: np.ndarray, record: np.ndarray,
                      betas: np.ndarray, *, workspace=None) -> np.ndarray:
        """Backward round: two blocked WHTs (see :func:`_hadamard_adjoint`)."""
        M = self._check_adjoint(Phi)
        betas = self._batch_angles(betas, M)
        return _hadamard_adjoint(
            self, Phi, M, lambda free: self._phase_factors(betas, +1.0, free),
            lambda phi_t: 2.0 * weighted_imag_vdot(self.diagonal, phi_t, record)[None, :],
            workspace,
        )

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
        self.masks = [term_mask(term, n) for term in terms]

    #: X strings commute with the global flip (see :meth:`flip_folded`).
    flip_invariant = True

    @cached_property
    def term_diagonals(self) -> np.ndarray:
        """``(num_terms, dim)`` Hadamard-basis diagonals, one per term (built on first use)."""
        return np.stack([x_mask_diagonal([mask], [1.0], self.n) for mask in self.masks])

    @cached_property
    def _term_diag_T_negj(self) -> np.ndarray:
        # (dim, num_terms) factor pre-scaled by -i, so the batched per-column
        # phase exponents are a single GEMM with the (num_terms, M) angles.
        return np.ascontiguousarray(-1j * self.term_diagonals.T)

    def flip_folded(self) -> "MultiAngleXMixer":
        """This mixer on the flip-symmetric half: the folded terms
        (:func:`flip_fold_mask`) in the same order, so the angle layout is unchanged."""
        return MultiAngleXMixer(self.n - 1, _flip_folded_terms(self.masks, self.n))

    @property
    def num_angles(self) -> int:
        """Number of independent angles in one layer."""
        return len(self.terms)

    def _term_angles(self, betas: np.ndarray, M: int) -> np.ndarray:
        """Normalize a layer's angles to a ``(num_angles, M)`` matrix; a
        ``(M,)`` vector or scalar broadcasts across terms."""
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim == 0:
            betas = np.full((self.num_angles, M), float(betas))
        elif betas.ndim == 1:
            if betas.shape != (M,):
                raise ValueError(f"betas have shape {betas.shape}, expected ({M},)")
            betas = np.broadcast_to(betas, (self.num_angles, M))
        if betas.shape != (self.num_angles, M):
            raise ValueError(f"betas have shape {betas.shape}, expected ({self.num_angles}, {M})")
        return np.ascontiguousarray(betas)

    def _phase_factors(self, betas: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """``exp(-i D^T betas) / dim``: the exponents are one GEMM."""
        kernels.matmul(self._term_diag_T_negj, betas, out=phases)
        np.exp(phases, out=phases)
        phases *= 1.0 / self.dim  # absorbs both transforms' 2^{-n/2} norms
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
        """Batched multi-angle layer.

        ``betas`` is a ``(num_angles, M)`` matrix — one angle per term per
        column; a ``(M,)`` vector or scalar broadcasts across terms.  The
        per-column phase exponents are one GEMM (``-i * D^T @ betas``), then
        the layer is two batched WHTs; under a column map the first
        transform runs on the distinct inputs only.
        """
        Psi, out, M = self._check_batch(Psi, out, columns)
        betas = self._term_angles(betas, M)
        return _hadamard_layer(
            self, Psi, out, M, lambda free: self._phase_factors(betas, free), workspace,
            columns, record,
        )

    def adjoint_batch(self, Phi: np.ndarray, chi: np.ndarray, record: np.ndarray,
                      betas: np.ndarray, *, workspace=None) -> np.ndarray:
        """Backward round: two blocked WHTs and one GEMM for all term derivatives.

        Every term is diagonal in the Hadamard basis, so the ``(num_angles,
        M)`` derivatives are the stacked term diagonals times the one
        ``(dim, M)`` matrix ``Im(conj(H^{⊗n} phi) ⊙ record)``.
        """
        M = self._check_adjoint(Phi)
        betas = self._term_angles(betas, M)

        def gradients(phi_t):
            imag = phi_t.real * record.imag
            imag -= phi_t.imag * record.real
            return 2.0 * kernels.matmul(self.term_diagonals, imag)

        return _hadamard_adjoint(
            self, Phi, M, lambda free: self._phase_factors(-betas, free), gradients, workspace
        )

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
