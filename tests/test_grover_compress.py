"""Tests for the compressed objective spectra (Grover-mixer fast path)."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grover.compress import (
    CompressedObjective,
    binomial_spectrum,
    compress_objective,
    compress_streaming,
    compress_streaming_dicke,
    hamming_weight_spectrum,
)
from repro.hilbert import DickeSpace, state_matrix
from repro.problems import densest_subgraph_values, maxcut_values


class TestCompressedObjective:
    def test_validation_sorted_values(self):
        with pytest.raises(ValueError):
            CompressedObjective(values=np.array([2.0, 1.0]), degeneracies=(1, 1), total=2)

    def test_validation_total(self):
        with pytest.raises(ValueError):
            CompressedObjective(values=np.array([1.0, 2.0]), degeneracies=(1, 1), total=3)

    def test_validation_positive_degeneracies(self):
        with pytest.raises(ValueError):
            CompressedObjective(values=np.array([1.0]), degeneracies=(0,), total=0)

    def test_basic_accessors(self):
        spec = CompressedObjective(
            values=np.array([0.0, 1.0, 5.0]), degeneracies=(2, 5, 1), total=8
        )
        assert spec.num_distinct == 3
        assert spec.optimum == 5.0
        assert spec.optimum_degeneracy == 1
        assert np.isclose(spec.mean(), (0 * 2 + 1 * 5 + 5 * 1) / 8)

    def test_merge(self):
        a = CompressedObjective(values=np.array([0.0, 1.0]), degeneracies=(2, 2), total=4)
        b = CompressedObjective(values=np.array([1.0, 3.0]), degeneracies=(1, 3), total=4)
        merged = a.merge(b)
        assert merged.total == 8
        assert np.array_equal(merged.values, [0.0, 1.0, 3.0])
        assert merged.degeneracies == (2, 3, 3)

    def test_expand_roundtrip(self):
        vals = np.array([0.0, 0.0, 1.0, 2.0, 2.0, 2.0])
        spec = compress_objective(vals)
        assert np.array_equal(np.sort(vals), spec.expand())

    def test_expand_refuses_huge(self):
        spec = CompressedObjective(values=np.array([0.0]), degeneracies=(1 << 23,), total=1 << 23)
        with pytest.raises(ValueError):
            spec.expand()

    def test_exact_big_integer_degeneracies(self):
        big = 2**80
        spec = CompressedObjective(
            values=np.array([0.0, 1.0]), degeneracies=(big, big), total=2 * big
        )
        assert spec.total == 2 * big
        assert spec.degeneracies[0] == big  # exact, not float


class TestCompressObjective:
    def test_matches_numpy_unique(self, maxcut_obj):
        spec = compress_objective(maxcut_obj)
        distinct, counts = np.unique(maxcut_obj, return_counts=True)
        assert np.array_equal(spec.values, distinct)
        assert spec.degeneracies == tuple(int(c) for c in counts)
        assert spec.total == maxcut_obj.size

    def test_decimals_grouping(self):
        vals = np.array([0.1000001, 0.1000002, 0.5])
        spec = compress_objective(vals, decimals=4)
        assert spec.num_distinct == 2
        assert spec.degeneracies == (2, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compress_objective(np.array([]))


class TestStreamingCompression:
    def test_full_space_matches_dense(self, small_graph, maxcut_obj):
        spec_stream = compress_streaming(
            lambda bits: maxcut_values(small_graph, bits), 6, chunk_size=7
        )
        spec_dense = compress_objective(maxcut_obj)
        assert np.array_equal(spec_stream.values, spec_dense.values)
        assert spec_stream.degeneracies == spec_dense.degeneracies

    def test_partial_range(self, small_graph, maxcut_obj):
        spec = compress_streaming(
            lambda bits: maxcut_values(small_graph, bits), 6, start=10, stop=30, chunk_size=8
        )
        expected = compress_objective(maxcut_obj[10:30])
        assert np.array_equal(spec.values, expected.values)
        assert spec.degeneracies == expected.degeneracies
        assert spec.total == 20

    def test_invalid_range(self, small_graph):
        with pytest.raises(ValueError):
            compress_streaming(lambda b: np.zeros(len(b)), 4, start=5, stop=3)
        with pytest.raises(ValueError):
            compress_streaming(lambda b: np.zeros(len(b)), 4, chunk_size=0)

    def test_dicke_space_matches_dense(self, small_graph):
        space = DickeSpace(6, 3)
        dense_vals = densest_subgraph_values(small_graph, space.bits)
        spec_stream = compress_streaming_dicke(
            lambda bits: densest_subgraph_values(small_graph, bits), 6, 3, chunk_size=6
        )
        spec_dense = compress_objective(dense_vals)
        assert np.array_equal(spec_stream.values, spec_dense.values)
        assert spec_stream.degeneracies == spec_dense.degeneracies
        assert spec_stream.total == comb(6, 3)


class TestAnalyticSpectra:
    def test_hamming_weight_spectrum_small_n_matches_bruteforce(self):
        n = 8
        func = lambda w: float(min(w, n - w))  # noqa: E731
        spec = hamming_weight_spectrum(n, func)
        weights = state_matrix(n).sum(axis=1)
        brute = compress_objective(np.array([func(w) for w in weights]))
        assert np.array_equal(spec.values, brute.values)
        assert spec.degeneracies == brute.degeneracies

    def test_hamming_weight_spectrum_large_n_exact_counts(self):
        n = 100
        spec = hamming_weight_spectrum(n, lambda w: float(w))
        assert spec.total == 2**100
        assert spec.num_distinct == 101
        assert spec.degeneracies[0] == 1
        assert spec.degeneracies[50] == comb(100, 50)

    def test_binomial_spectrum_sorting(self):
        spec = binomial_spectrum([3.0, 1.0, 2.0], [1, 2, 3])
        assert np.array_equal(spec.values, [1.0, 2.0, 3.0])
        assert spec.degeneracies == (2, 3, 1)
        assert spec.total == 6


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=200))
@settings(max_examples=40)
def test_property_compression_preserves_total_and_mean(values):
    arr = np.array(values, dtype=np.float64)
    spec = compress_objective(arr)
    assert spec.total == arr.size
    assert np.isclose(spec.mean(), arr.mean())
    assert spec.optimum == arr.max()
    assert sum(spec.degeneracies) == arr.size
