"""Tests for the compressed objective spectra (Grover-mixer fast path)."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.routing import spectrum_for
from repro.api.spec import ProblemSpec
from repro.grover.compress import (
    CompressedObjective,
    binomial_spectrum,
    compress_objective,
    hamming_weight_spectrum,
)
from repro.hilbert import state_matrix
from repro.problems import PROBLEM_NAMES, make_problem
from repro.problems.registry import objective_on_labels


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
    """Enumerated spectra: ``objective_on_labels`` over the feasible labels.

    ``spectrum_for`` builds them; the bit-matrix families stream through
    ``objective_on_labels`` in blocks of ``BIT_MATRIX_BLOCK`` labels.
    """

    def test_full_space_matches_dense(self, maxcut_obj):
        # conftest's small_graph is the seed-1 MaxCut instance's graph
        spec_stream = spectrum_for(ProblemSpec("maxcut", 6, seed=1))
        spec_dense = compress_objective(maxcut_obj)
        assert np.array_equal(spec_stream.values, spec_dense.values)
        assert spec_stream.degeneracies == spec_dense.degeneracies

    def test_partial_range(self, maxcut_obj):
        structure = make_problem("maxcut", 6, seed=1)
        spec = compress_objective(objective_on_labels(structure, np.arange(10, 30)))
        expected = compress_objective(maxcut_obj[10:30])
        assert np.array_equal(spec.values, expected.values)
        assert spec.degeneracies == expected.degeneracies
        assert spec.total == 20

    def test_dicke_space_matches_dense(self, dks_obj):
        spec_stream = spectrum_for(ProblemSpec("densest_subgraph", 6, seed=1, params={"k": 3}))
        spec_dense = compress_objective(dks_obj)
        assert np.array_equal(spec_stream.values, spec_dense.values)
        assert spec_stream.degeneracies == spec_dense.degeneracies
        assert spec_stream.total == comb(6, 3)


#: Families on a Dicke space (the others run on the full space).
DICKE_FAMILIES = ("densest_subgraph", "vertex_cover")

#: Families with non-integer values, where the quadratic kernel and the
#: bit-matrix ``*_values`` functions may round differently.
FLOAT_FAMILIES = ("ising", "qubo")


@st.composite
def routed_problems(draw):
    name = draw(st.sampled_from(PROBLEM_NAMES))
    n = draw(st.integers(min_value=3, max_value=10))
    params = {"k": draw(st.integers(min_value=0, max_value=n))} if name in DICKE_FAMILIES else {}
    return name, n, draw(st.integers(min_value=0, max_value=2**16)), params


@given(routed_problems())
@settings(max_examples=80, deadline=None)
def test_property_routed_spectrum_is_the_dense_objective(problem):
    """Routing's spectrum is the dense engine's objective vector, compressed."""
    name, n, seed, params = problem
    instance = make_problem(name, n, seed=seed, **params)
    spectrum = spectrum_for(ProblemSpec(name, n, seed=seed, params=params))

    dense = compress_objective(instance.objective_values())
    assert np.array_equal(spectrum.values, dense.values)
    assert spectrum.degeneracies == dense.degeneracies
    assert spectrum.total == dense.total == instance.space.dim

    # Independent reference: the family's bit-matrix function on every state.
    reference = compress_objective(instance.cost_vectorized(instance.space.bits))
    if name in FLOAT_FAMILIES:
        assert np.allclose(spectrum.expand(), reference.expand(), rtol=0.0, atol=1e-12)
    else:
        assert np.array_equal(spectrum.values, reference.values)
        assert spectrum.degeneracies == reference.degeneracies

    if name == "number_partition":
        # Every value is negative: a phantom 0.0 state (an empty chunk once
        # counted as one) would show up as the optimum and in the total.
        assert spectrum.optimum == instance.objective_values().max() < 0


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
