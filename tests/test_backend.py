"""The dense kernels of :mod:`repro.backend`: GEMMs, the blocked WHT, phase tables.

* ``kernels.matmul`` / ``kernels.real_gemm`` against raw numpy;
* the blocked Walsh–Hadamard kernel (``kernels.wht_gemm``) against the
  dense ``±1`` Hadamard matrix, for every block split;
* :func:`~repro.backend.base.distinct_levels` against ``np.unique``;
* the reductions every engine shares, ``weighted_sq_norms`` (row-blocked)
  and ``weighted_imag_vdot``, against one-shot numpy.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from repro.backend import kernels
from repro.backend.base import distinct_levels, hadamard_blocks
from repro.mixers import base as mixers_base
from repro.mixers.base import weighted_imag_vdot, weighted_sq_norms


# ---------------------------------------------------------------------------
# GEMM primitives vs raw numpy
# ---------------------------------------------------------------------------

class TestNumpyPrimitives:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def _complex(self, *shape):
        return self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)

    def test_matmul_matches_numpy(self):
        a = self._complex(6, 6)
        b = self._complex(6, 4)
        np.testing.assert_allclose(kernels.matmul(a, b), a @ b, rtol=0, atol=1e-13)

    def test_matmul_out(self):
        a = self.rng.standard_normal((5, 5))
        b = self.rng.standard_normal((5, 3))
        out = np.empty((5, 3))
        result = kernels.matmul(a, b, out=out)
        assert result is out
        np.testing.assert_allclose(out, a @ b, rtol=0, atol=1e-13)

    def test_real_gemm_matches_complex_product(self):
        factor = self.rng.standard_normal((6, 6))
        src = np.ascontiguousarray(self._complex(6, 3))
        out = np.empty((6, 3), dtype=np.complex128)
        kernels.real_gemm(factor, src, out)
        np.testing.assert_allclose(out, factor @ src, rtol=0, atol=1e-12)


@functools.lru_cache(maxsize=1)
def _int8_hadamard(n: int) -> np.ndarray:
    return hadamard(1 << n, dtype=np.int8)


def _hadamard_product(n: int, X: np.ndarray) -> np.ndarray:
    """``scipy.linalg.hadamard(2**n) @ X`` for complex ``X``, in row blocks of floats."""
    H = _int8_hadamard(n)
    Xf = X.view(np.float64)
    rows = 1 << min(n, 9)
    out = np.concatenate(
        [H[lo:lo + rows].astype(np.float64) @ Xf for lo in range(0, 1 << n, rows)]
    )
    return out.view(np.complex128)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 14),
    M=st.sampled_from([1, 3, 64]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=13, M=1, seed=0)  # three blocks (4+4+5 bits), odd n
@example(n=14, M=3, seed=1)  # three blocks (4+5+5 bits)
@example(n=14, M=64, seed=2)  # wide batch: the two-factor split
def test_wht_gemm_matches_hadamard_matrix(n, M, seed):
    """The blocked kernel equals the dense ``±1`` Hadamard product (src aliasing dst too)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((1 << n, M)) + 1j * rng.standard_normal((1 << n, M))
    expected = _hadamard_product(n, X)
    scale = np.abs(expected).max()
    blocks = hadamard_blocks(n, M)
    assert len(blocks) == (2 if n <= 12 or M >= 32 else max(2, -(-n // 6)))
    src, via, dst = X.copy(), np.empty_like(X), np.empty_like(X)
    assert kernels.wht_gemm(src, via, dst, *blocks) is dst
    assert np.abs(dst - expected).max() <= 1e-12 * scale
    np.testing.assert_array_equal(src, X)  # the input is untouched
    assert kernels.wht_gemm(src, via, src, *blocks) is src  # in place
    assert np.abs(src - expected).max() <= 1e-12 * scale


@pytest.mark.parametrize("bits", [(1, 2, 2, 3), (2, 2, 2, 2, 2), (0, 3, 1, 2)])
@pytest.mark.parametrize("M", [1, 3])
def test_wht_gemm_any_block_split(bits, M):
    """Even and odd block counts (the plans for n >= 19 and n >= 25) on small n."""
    n = sum(bits)
    rng = np.random.default_rng(n * M)
    X = rng.standard_normal((1 << n, M)) + 1j * rng.standard_normal((1 << n, M))
    expected = _hadamard_product(n, X)
    blocks = tuple(hadamard(1 << b).astype(np.float64) for b in bits)
    src, via = X.copy(), np.empty_like(X)
    kernels.wht_gemm(src, via, src, *blocks)
    assert np.abs(src - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.integers(-40, 40).map(float),  # integer spaced: the lookup path
            st.integers(-8, 8).map(lambda v: v + 0.5),
            st.floats(-1e3, 1e3, allow_nan=False),  # arbitrary: the sort path
            st.sampled_from([np.inf, -np.inf, -0.0]),
        ),
        max_size=40,
    ),
)
@example(values=[0.1, 1.1, 2.1, 0.1])  # offsets that round off an integer
@example(values=[0.0, 1e6])  # integer offsets wider than the value count
def test_distinct_levels_equals_unique_with_inverse(values):
    values = np.array(values, dtype=np.float64)
    levels, inverse = distinct_levels(values)
    expected_levels, expected_inverse = np.unique(values, return_inverse=True)
    np.testing.assert_array_equal(levels, expected_levels)
    np.testing.assert_array_equal(inverse, expected_inverse)
    assert inverse.dtype == expected_inverse.dtype


# ---------------------------------------------------------------------------
# shared reductions vs one-shot numpy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows,M", [(1000, 3), (1000, 1), (7, 2), (0, 2)])
def test_weighted_sq_norms_row_blocks_equal_one_shot(monkeypatch, rows, M):
    rng = np.random.default_rng(rows + M)
    psi = rng.normal(size=(rows, M)) + 1j * rng.normal(size=(rows, M))
    weights = rng.normal(size=rows)
    expected = weights @ (np.abs(psi) ** 2)
    # blocks of 64 // M rows: several per matrix, the last one short
    monkeypatch.setattr(mixers_base, "SQ_NORM_BLOCK", 64)
    got = weighted_sq_norms(weights, psi)
    assert got.shape == (M,) and got.dtype == np.float64
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_weighted_imag_vdot_equals_the_complex_product():
    rng = np.random.default_rng(3)
    a, b = (rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4)) for _ in range(2))
    weights = rng.normal(size=50)
    expected = np.imag(np.einsum("d,dm,dm->m", weights, a.conj(), b))
    np.testing.assert_allclose(weighted_imag_vdot(weights, a, b), expected, rtol=1e-12)
