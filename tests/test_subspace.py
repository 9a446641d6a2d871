"""Tests for the FeasibleSpace abstraction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hilbert import (
    CustomSpace,
    DickeSpace,
    FeasibleSpace,
    FullSpace,
    dicke_labels,
    state_labels,
)
from repro.problems import maxcut, maxcut_values


class TestFullSpace:
    def test_geometry(self):
        space = FullSpace(5)
        assert space.n == 5
        assert space.dim == 32
        assert space.is_full
        assert len(space) == 32
        assert space.hamming_weight is None

    def test_bits_matrix(self):
        space = FullSpace(4)
        bits = space.bits
        assert bits.shape == (16, 4)
        # row i encodes label i (qubit 0 = LSB)
        assert np.array_equal(bits[5], [1, 0, 1, 0])

    def test_initial_state(self):
        psi = FullSpace(3).initial_state()
        assert np.allclose(psi, 1 / np.sqrt(8))

    def test_evaluate_scalar_vs_vectorized(self, small_graph):
        space = FullSpace(6)
        scalar = space.evaluate(lambda x: maxcut(small_graph, x))
        vectorized = space.evaluate_vectorized(lambda b: maxcut_values(small_graph, b))
        assert np.allclose(scalar, vectorized)

    def test_evaluate_vectorized_shape_check(self):
        space = FullSpace(3)
        with pytest.raises(ValueError):
            space.evaluate_vectorized(lambda bits: np.zeros(5))


class TestDickeSpace:
    def test_geometry(self):
        space = DickeSpace(6, 2)
        assert space.dim == 15
        assert not space.is_full
        assert space.hamming_weight == 2
        assert all(bin(int(x)).count("1") == 2 for x in space.labels)

    def test_embed_project_roundtrip(self, rng):
        space = DickeSpace(6, 3)
        sub = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        full = space.embed(sub)
        assert full.shape == (64,)
        assert np.allclose(space.project(full), sub)
        # Everything outside the subspace is zero.
        mask = np.ones(64, dtype=bool)
        mask[space.labels] = False
        assert np.allclose(full[mask], 0.0)

    def test_embed_shape_check(self):
        with pytest.raises(ValueError):
            DickeSpace(5, 2).embed(np.zeros(3))

    def test_project_shape_check(self):
        with pytest.raises(ValueError):
            DickeSpace(5, 2).project(np.zeros(16))

    def test_index_of(self):
        space = DickeSpace(5, 2)
        for idx, label in enumerate(space.labels):
            assert space.index_of(int(label)) == idx
        with pytest.raises(KeyError):
            space.index_of(0)  # weight 0 is infeasible


class TestCustomSpace:
    def test_sorted_and_weight_detection(self):
        space = CustomSpace(4, [9, 3, 12])  # all weight 2
        assert np.array_equal(space.labels, [3, 9, 12])
        assert space.hamming_weight == 2

    def test_mixed_weights(self):
        space = CustomSpace(4, [1, 3])
        assert space.hamming_weight is None

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FeasibleSpace(n=3, labels=np.array([1, 1, 2]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FeasibleSpace(n=3, labels=np.array([8]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FeasibleSpace(n=3, labels=np.array([], dtype=np.int64))

    def test_directly_constructed_unsorted_labels_rejected(self):
        # Regression: index_of uses a binary search, so a FeasibleSpace built
        # directly with unsorted labels used to return wrong indices or raise
        # spurious KeyErrors.  __post_init__ now rejects unsorted input loudly
        # (silently sorting would permute the basis out from under any
        # caller-supplied per-state arrays); CustomSpace sorts for you.
        with pytest.raises(ValueError, match="ascending"):
            FeasibleSpace(n=3, labels=np.array([5, 1, 3]))
        space = CustomSpace(3, [5, 1, 3])
        assert np.array_equal(space.labels, [1, 3, 5])
        assert space.index_of(3) == 1
        with pytest.raises(KeyError):
            space.index_of(2)

    def test_unsorted_duplicates_still_rejected(self):
        with pytest.raises(ValueError):
            FeasibleSpace(n=3, labels=np.array([5, 1, 5]))


@given(st.integers(min_value=2, max_value=10), st.data())
@settings(max_examples=25)
def test_property_dicke_initial_state_normalized(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    space = DickeSpace(n, k)
    psi = space.initial_state()
    assert np.isclose(np.linalg.norm(psi), 1.0)
    assert psi.shape == (space.dim,)


class TestDerivedLabels:
    def test_a_large_full_space_allocates_nothing(self):
        space = FullSpace(40)
        assert space.dim == 2**40 and space.is_full and space.hamming_weight is None
        assert not space._cache  # no label array until one is read

    def test_labels_are_built_once_on_first_read(self):
        space = DickeSpace(6, 2)
        assert not space._cache
        labels = space.labels
        assert space.labels is labels
        assert np.array_equal(labels, dicke_labels(6, 2))

    def test_derived_spaces_check_their_arguments(self):
        with pytest.raises(ValueError, match="non-negative"):
            FullSpace(-1)
        with pytest.raises(ValueError, match="0 <= k <= n"):
            DickeSpace(4, 5)


@given(st.integers(min_value=0, max_value=14), st.data())
@settings(max_examples=20, deadline=None)
def test_property_derived_spaces_equal_explicit_ones(n, data):
    """Derived labels, ``dim``, ``index_of``, ``embed`` and ``project`` equal
    those of a space given the same labels explicitly, for every weight."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    for k in [None, *range(n + 1)]:
        derived = FullSpace(n) if k is None else DickeSpace(n, k)
        labels = state_labels(n) if k is None else dicke_labels(n, k)
        explicit = FeasibleSpace(n, labels.copy(), hamming_weight=k)
        assert derived.dim == explicit.dim == labels.size
        assert derived.is_full == explicit.is_full == (k is None or labels.size == 1 << n)
        assert derived.labels.dtype == explicit.labels.dtype == np.int64
        assert np.array_equal(derived.labels, explicit.labels)
        for label in rng.integers(0, 1 << n, size=4):
            try:
                expected = explicit.index_of(int(label))
            except KeyError:
                with pytest.raises(KeyError):
                    derived.index_of(int(label))
            else:
                assert derived.index_of(int(label)) == expected
        sub = rng.normal(size=derived.dim) + 1j * rng.normal(size=derived.dim)
        assert np.array_equal(derived.embed(sub), explicit.embed(sub))
        full = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        assert np.array_equal(derived.project(full), explicit.project(full))
