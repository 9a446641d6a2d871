"""The dense-kernel entry points, the Walsh–Hadamard kernel and phase tables.

Every hot path of the simulator reduces to a handful of dense-algebra
primitives: real and complex GEMMs and the blocked Walsh–Hadamard
transform, all on host numpy arrays in complex128/float64.  They run
through one module-level :class:`~repro.backend.numpy_backend.NumpyBackend`
instance, ``repro.backend.kernels``.  :class:`ArrayBackend` and its numpy
subclass remain as classes only because they are the patch points of the
benchmark's layer trace: ``perfbench`` wraps ``ArrayBackend.wht_gemm``,
``ArrayBackend.real_gemm`` and ``NumpyBackend.matmul`` to time the
``backend.wht`` and ``backend.gemm`` spans.

Walsh–Hadamard kernel
---------------------
Every products-of-X path (dense mixer layers, adjoint Hamiltonian products,
mixer diagonals, shard workers) runs :func:`blocked_wht`:
``H^{⊗n} = H_1 ⊗ ... ⊗ H_k`` over ``k`` near-equal blocks of index bits,
one BLAS call per block with the ``±1`` block as the first ``matmul``
operand.  :func:`hadamard_blocks` picks ``k`` from ``n`` and the column
count ``M`` alone: ``k = max(2, ceil(n / 6))``, except that ``n <= 16`` with
``M >= 32`` keeps the two-factor split, where its larger GEMMs beat the
extra memory passes.

Phase level tables
------------------
A diagonal phase ``exp(i * values * angle)`` whose ``values`` take few
distinct levels (integer costs, X-mixer spectra) is an exp over a
``(levels, M)`` table plus a gather through the inverse indices of
:func:`distinct_levels`.  :func:`level_table_pays` is the one rule for when
that beats the full exp; the dense separator, the dense X mixer and the
shard workers' phases all ask it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "ArrayBackend", "blocked_wht", "distinct_levels", "hadamard_blocks", "level_table_pays",
]


@lru_cache(maxsize=None)
def _hadamard(bits: int) -> np.ndarray:
    """The ``±1`` Hadamard matrix of order ``2^bits`` (shared, never written)."""
    from scipy.linalg import hadamard

    return np.ascontiguousarray(hadamard(1 << bits), dtype=np.float64)


def hadamard_blocks(n: int, columns: int) -> tuple[np.ndarray, ...]:
    """Hadamard blocks (high index bits first) for transforming ``columns`` vectors.

    Two blocks of ``n // 2`` and ``n - n // 2`` bits when ``n <= 12``, or
    when ``n <= 16`` and ``columns >= 32``; otherwise ``ceil(n / 6)``
    near-equal blocks (see the module docstring).
    """
    k = max(2, -(-n // 6))
    if n <= 16 and columns >= 32:
        k = 2
    base, extra = divmod(n, k)
    return tuple(_hadamard(base + (i >= k - extra)) for i in range(k))


def level_table_pays(levels: int, size: int) -> bool:
    """Whether a phase over ``size`` entries with ``levels`` distinct values uses a table.

    It does once each value repeats four times on average: the exp over the
    table then costs at most a quarter of the full one, which leaves room
    for the gather.
    """
    return levels * 4 <= size


def distinct_levels(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)``, without its sort when it can.

    Levels an integer apart (integer costs, unit-coefficient X spectra) get
    their inverse indices from one lookup through an offset table; the sort
    behind ``return_inverse`` took 6-8x as long for 2^19 and 2^23 values on
    a 2-vCPU Xeon.
    """
    levels = np.unique(values)
    if levels.size and np.isfinite(levels[[0, -1]]).all():
        offsets = levels - levels[0]
        if np.array_equal(offsets, np.round(offsets)) and offsets[-1] < values.size:
            # every value equals a level, so its offset is exact and integral
            lookup = np.zeros(int(offsets[-1]) + 1, dtype=np.intp)
            lookup[offsets.astype(np.intp)] = np.arange(levels.size)
            return levels, lookup[(values - levels[0]).astype(np.intp)]
    return np.unique(values, return_inverse=True)


def blocked_wht(src, via, dst, blocks, matmul=np.matmul) -> np.ndarray:
    """*Unnormalized* Walsh–Hadamard transform of the columns of ``src`` into ``dst``.

    ``src``/``via``/``dst`` are C-contiguous ``(dim, M)`` complex128 or
    float64 matrices (complex ones are transformed as their interleaved
    re/im float view); ``blocks`` come from :func:`hadamard_blocks`.
    ``via`` must be distinct from both others; ``src`` may alias ``dst``.
    Nothing is allocated.  The caller folds the ``2^{-n/2}`` normalization
    into its phase factors.

    * Two blocks: a batched GEMM over the low bits, then one GEMM over the
      high bits — about ``2 sqrt(dim)`` multiply-adds per entry, in large GEMMs
      that win for wide batches.
    * ``k >= 3`` blocks: each GEMM transforms the leading block of index
      bits and writes it as the trailing one (a transposed ``out``), so
      after ``k`` GEMMs the bits are back in order and one transposing copy
      moves the float columns back behind them.  With ``k`` even the
      columns are moved to the front first and every GEMM runs per column,
      so the pass count stays even and the result lands in ``dst``.
    """
    dim = src.shape[0]
    src_f = src.view(np.float64).reshape(dim, -1)
    width = src_f.shape[1]
    if len(blocks) == 2:
        h_hi, h_lo = blocks
        dim_hi, dim_lo = h_hi.shape[0], h_lo.shape[0]
        via_f = via.view(np.float64).reshape(dim_hi, dim_lo, width)
        matmul(h_lo, src_f.reshape(dim_hi, dim_lo, width), out=via_f)
        matmul(
            h_hi,
            via_f.reshape(dim_hi, dim_lo * width),
            out=dst.view(np.float64).reshape(dim_hi, dim_lo * width),
        )
        return dst
    buffers = (via.view(np.float64).reshape(-1), dst.view(np.float64).reshape(-1))
    per_column = len(blocks) % 2 == 0
    cur = src_f.reshape(-1)
    passes = 0
    if per_column:
        buffers[0].reshape(width, dim)[...] = src_f.T
        cur, passes = buffers[0], 1
    for block in blocks:
        size = block.shape[0]
        out = buffers[passes % 2]
        if per_column:
            rotated = out.reshape(width, dim // size, size).transpose(0, 2, 1)
            matmul(block, cur.reshape(width, size, dim // size), out=rotated)
        else:
            rest = dim * width // size
            matmul(block, cur.reshape(size, rest), out=out.reshape(rest, size).T)
        cur, passes = out, passes + 1
    dst.view(np.float64).reshape(dim, width)[...] = cur.reshape(width, dim).T
    return dst


class ArrayBackend:
    """The two derived dense kernels, written on the subclass's ``matmul``."""

    def real_gemm(self, factor: np.ndarray, src: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``factor @ src`` for a real ``factor`` and complex ``src``/``out``.

        Runs one real GEMM over the interleaved re/im float view — exact
        (the factor is real) and half the flops of a complex GEMM.  ``src``
        and ``out`` must be C-contiguous complex128 and must not alias.
        """
        self.matmul(
            factor,
            src.view(np.float64).reshape(src.shape[0], -1),
            out=out.view(np.float64).reshape(out.shape[0], -1),
        )
        return out

    def wht_gemm(self, src: np.ndarray, via: np.ndarray, dst: np.ndarray,
                 *blocks: np.ndarray) -> np.ndarray:
        """:func:`blocked_wht` on this class's GEMM (``blocks`` from :func:`hadamard_blocks`)."""
        return blocked_wht(src, via, dst, blocks, self.matmul)
