"""Tests for the split-half quadratic kernel and the objective evaluator choice."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hilbert import dicke_labels, ints_to_bit_matrix
from repro.problems import PROBLEM_NAMES, make_problem
from repro.problems.quadratic import ising_form, qubo_form
from repro.problems.registry import objective_on_labels

QUADRATIC = (
    "maxcut", "densest_subgraph", "vertex_cover", "max_independent_set", "ising", "qubo",
    "hamming",
)
#: families whose coefficients are floats: compared to a relative 1e-12
FLOAT_FAMILIES = ("ising", "qubo")


def _reference(structure, labels: np.ndarray) -> np.ndarray:
    return structure.cost_vectorized(ints_to_bit_matrix(labels, structure.n))


def _assert_matches(name: str, got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == np.float64 and got.shape == expected.shape
    if name in FLOAT_FAMILIES:
        scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * scale)
    else:
        assert np.array_equal(got, expected)


@st.composite
def label_sets(draw, n: int) -> np.ndarray:
    """Strictly ascending label sets of every shape the kernel branches on."""
    dim = 1 << n
    width = 1 << ((n + 1) // 2)
    kind = draw(st.sampled_from(["full", "dicke", "aligned", "range", "subset", "empty"]))
    if kind == "full":
        return np.arange(dim)
    if kind == "dicke":
        return dicke_labels(n, draw(st.integers(0, n)))
    if kind == "aligned":
        rows = dim // width
        first = draw(st.integers(0, rows - 1))
        count = draw(st.integers(1, rows - first))
        return np.arange(first * width, (first + count) * width)
    if kind == "range":
        start = draw(st.integers(0, dim - 1))
        return np.arange(start, draw(st.integers(start + 1, dim)))
    if kind == "subset":
        mask = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(dim) < 0.3
        return np.flatnonzero(mask)
    return np.arange(0)


@st.composite
def structures(draw):
    name = draw(st.sampled_from(QUADRATIC))
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    params = {}
    if name in ("maxcut", "densest_subgraph", "vertex_cover", "max_independent_set"):
        params["edge_probability"] = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    if name == "max_independent_set":
        # non-dyadic penalties too: the violation count is scaled once
        params["penalty"] = draw(st.sampled_from([2.0, 1.5, 3.0, 0.3, 0.7, 1.1]))
    return make_problem(name, n, seed=seed, **params)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_matches_the_bit_matrix_path(data):
    structure = data.draw(structures())
    labels = data.draw(label_sets(structure.n))
    _assert_matches(
        structure.name, objective_on_labels(structure, labels), _reference(structure, labels)
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_chunked_evaluation_equals_one_shot(data):
    structure = data.draw(structures())
    labels = data.draw(label_sets(structure.n))
    cuts = sorted(data.draw(st.lists(st.integers(0, labels.size), max_size=6)))
    pieces = np.split(labels, cuts)
    chunked = np.concatenate([objective_on_labels(structure, piece) for piece in pieces])
    assert np.array_equal(chunked, objective_on_labels(structure, labels))


@pytest.mark.parametrize("name", QUADRATIC)
def test_edgeless_graphs_and_single_bit(name):
    for n in (1, 2, 5):
        structure = make_problem(name, n, seed=1, edge_probability=0.0)
        labels = np.arange(1 << n)
        _assert_matches(name, objective_on_labels(structure, labels),
                        _reference(structure, labels))


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_the_evaluator_is_chosen_by_the_coefficients(name):
    """The seven quadratic families carry coefficients; the rest use their bit matrix."""
    problem = make_problem(name, 7, seed=4)
    assert (problem.quadratic is not None) == (name in QUADRATIC)
    expected = problem.cost_vectorized(problem.space.bits)
    if problem.quadratic is not None:  # the kernel never builds or reads a bit matrix

        def no_bits(bits):
            raise AssertionError("the bit-matrix path ran for a quadratic family")

        problem = dataclasses.replace(problem, cost_vectorized=no_bits)
    _assert_matches(name, problem.objective_values(), expected)


@pytest.mark.parametrize("penalty", [0.3, 0.7, 1.1])
def test_non_dyadic_penalty_keeps_degenerate_states_equal(penalty):
    """A penalty folded into the pair coefficients would split equal states by an ulp."""
    structure = make_problem(
        "max_independent_set", 10, seed=3, edge_probability=0.5, penalty=penalty
    )
    labels = np.arange(1 << 10)
    values = objective_on_labels(structure, labels)
    expected = _reference(structure, labels)
    assert np.array_equal(values, expected)
    assert np.unique(values).size == np.unique(expected).size


def test_bit_path_checks_the_returned_shape():
    structure = make_problem("ksat", 4, seed=0)
    structure.cost_vectorized = lambda bits: np.zeros(3)
    with pytest.raises(ValueError, match="vectorized cost returned shape"):
        objective_on_labels(structure, np.arange(16))


def test_forms_fold_lower_triangle_and_diagonal():
    rng = np.random.default_rng(0)
    n = 6
    Q = rng.normal(size=(n, n))  # not symmetric
    labels = np.arange(1 << n)
    x = ints_to_bit_matrix(labels, n).astype(np.float64)
    np.testing.assert_allclose(
        qubo_form(Q).values(labels), np.einsum("si,ij,sj->s", x, Q, x), rtol=0, atol=1e-12
    )
    h, J = rng.normal(size=n), rng.normal(size=(n, n))  # the lower triangle is ignored
    s = 2.0 * x - 1.0
    expected = s @ h + np.einsum("si,ij,sj->s", s, np.triu(J, k=1), s)
    np.testing.assert_allclose(ising_form(h, J).values(labels), expected, rtol=0, atol=1e-12)
    assert np.array_equal(np.tril(qubo_form(Q).pairs), np.zeros((n, n)))

