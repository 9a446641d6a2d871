"""Unit and property tests for repro.hilbert.bitops."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hilbert.bitops import (
    bit_get,
    bit_matrix_to_ints,
    bits_to_int,
    first_weight_k,
    gosper_iter,
    gosper_next,
    int_to_bits,
    ints_to_bit_matrix,
    last_weight_k,
    parity,
    popcount,
)


class TestPopcount:
    def test_scalar_matches_python(self):
        for value in (0, 1, 2, 3, 255, 256, 2**20 + 7):
            assert popcount(value) == bin(value).count("1")

    def test_array_matches_python(self, rng):
        values = rng.integers(0, 2**40, size=200)
        expected = np.array([bin(int(v)).count("1") for v in values])
        assert np.array_equal(popcount(values), expected)

    def test_large_64bit_values(self):
        values = np.array([2**63 - 1, 2**62, 0], dtype=np.uint64)
        assert list(popcount(values)) == [63, 1, 0]

    def test_rejects_float_array(self):
        with pytest.raises(TypeError):
            popcount(np.array([1.5, 2.5]))

    def test_preserves_shape(self, rng):
        values = rng.integers(0, 1000, size=(4, 5))
        assert popcount(values).shape == (4, 5)

    @given(st.integers(min_value=0, max_value=2**60))
    def test_property_matches_bit_count(self, value):
        assert popcount(value) == value.bit_count()


class TestParity:
    def test_scalar(self):
        assert parity(0) == 0
        assert parity(1) == 1
        assert parity(3) == 0
        assert parity(7) == 1

    def test_array(self, rng):
        values = rng.integers(0, 2**30, size=100)
        expected = np.array([bin(int(v)).count("1") % 2 for v in values])
        assert np.array_equal(parity(values), expected)


class TestBitGet:
    def test_scalar(self):
        assert bit_get(0b1010, 1) == 1
        assert bit_get(0b1010, 0) == 0
        assert bit_get(0b1010, 3) == 1

    def test_array(self):
        values = np.array([0b01, 0b10, 0b11])
        assert np.array_equal(bit_get(values, 0), [1, 0, 1])
        assert np.array_equal(bit_get(values, 1), [0, 1, 1])


class TestBitConversions:
    def test_bits_to_int_lsb_first(self):
        assert bits_to_int([1, 0, 1]) == 0b101
        assert bits_to_int([0, 0, 0, 1]) == 8

    def test_bits_to_int_rejects_non_binary(self):
        with pytest.raises(ValueError):
            bits_to_int([0, 2, 1])

    def test_int_to_bits_roundtrip(self):
        for label in range(64):
            assert bits_to_int(int_to_bits(label, 6)) == label

    def test_int_to_bits_rejects_overflow(self):
        with pytest.raises(ValueError):
            int_to_bits(8, 3)

    def test_int_to_bits_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 3)

    def test_bit_matrix_roundtrip(self, rng):
        labels = rng.integers(0, 2**12, size=50)
        bits = ints_to_bit_matrix(labels, 12)
        assert bits.shape == (50, 12)
        assert np.array_equal(bit_matrix_to_ints(bits), labels)

    def test_bit_matrix_to_ints_requires_2d(self):
        with pytest.raises(ValueError):
            bit_matrix_to_ints(np.array([0, 1, 0]))

    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=50)
    def test_property_matrix_roundtrip(self, n, label):
        label = label % (1 << n)
        bits = ints_to_bit_matrix(np.array([label]), n)
        assert int(bit_matrix_to_ints(bits)[0]) == label

    @given(
        st.integers(min_value=0, max_value=63),
        st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=20),
    )
    @settings(max_examples=100)
    def test_property_matrix_equals_shift_form(self, n, values):
        labels = np.array(values, dtype=np.int64) & ((1 << n) - 1)
        shifts = np.arange(n, dtype=np.uint64)
        expected = (
            (labels.astype(np.uint64)[:, None] >> shifts[None, :]) & np.uint64(1)
        ).astype(np.int8)
        bits = ints_to_bit_matrix(labels, n)
        assert bits.dtype == np.int8 and bits.flags.c_contiguous
        assert np.array_equal(bits, expected)


class TestGosper:
    def test_first_and_last(self):
        assert first_weight_k(6, 3) == 0b000111
        assert last_weight_k(6, 3) == 0b111000
        assert first_weight_k(5, 0) == 0
        assert last_weight_k(5, 5) == 0b11111

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            first_weight_k(4, 5)
        with pytest.raises(ValueError):
            last_weight_k(4, -1)

    def test_gosper_next_weight_preserved(self):
        value = 0b0111
        for _ in range(10):
            value = gosper_next(value)
            assert bin(value).count("1") == 3

    def test_gosper_next_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gosper_next(0)

    def test_iter_count_and_order(self):
        for n, k in [(5, 2), (6, 3), (7, 0), (7, 7), (8, 1)]:
            values = list(gosper_iter(n, k))
            assert len(values) == comb(n, k)
            assert values == sorted(values)
            assert all(bin(v).count("1") == k for v in values)

    def test_iter_matches_bruteforce(self):
        n, k = 8, 4
        expected = [x for x in range(1 << n) if bin(x).count("1") == k]
        assert list(gosper_iter(n, k)) == expected

    def test_iter_invalid(self):
        with pytest.raises(ValueError):
            list(gosper_iter(4, 6))

    @given(st.integers(min_value=1, max_value=12), st.data())
    @settings(max_examples=30)
    def test_property_gosper_enumeration(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        values = list(gosper_iter(n, k))
        assert len(values) == comb(n, k)
        assert len(set(values)) == len(values)
