"""Tests for PrecomputedCost and the workspace buffers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.precompute import PrecomputedCost, precompute_cost
from repro.core.workspace import BatchedWorkspace
from repro.hilbert import DickeSpace, FullSpace
from repro.problems import maxcut, maxcut_values


class TestPrecomputedCost:
    def test_basic_properties(self):
        cost = PrecomputedCost(values=np.array([1.0, 3.0, 3.0, 0.0]))
        assert cost.dim == 4
        assert cost.optimum == 3.0
        assert cost.worst == 0.0
        assert np.array_equal(cost.optimal_indices(), [1, 2])

    def test_minimization_sense(self):
        cost = PrecomputedCost(values=np.array([1.0, 3.0, 0.0]), maximize=False)
        assert cost.optimum == 0.0
        assert cost.worst == 3.0
        assert np.array_equal(cost.optimal_indices(), [2])

    def test_offset_applied(self):
        cost = PrecomputedCost(values=np.array([-1.0, 1.0]), offset=5.0)
        assert np.array_equal(cost.values, [4.0, 6.0])
        shifted = cost.with_offset(1.0)
        assert np.array_equal(shifted.values, [5.0, 7.0])

    def test_space_dimension_check(self):
        with pytest.raises(ValueError):
            PrecomputedCost(values=np.zeros(5), space=FullSpace(3))

    def test_rejects_empty_or_2d(self):
        with pytest.raises(ValueError):
            PrecomputedCost(values=np.array([]))
        with pytest.raises(ValueError):
            PrecomputedCost(values=np.zeros((2, 2)))

    def test_optimal_labels_requires_space(self, small_graph):
        vals = maxcut_values(small_graph, FullSpace(6).bits)
        with_space = PrecomputedCost(values=vals, space=FullSpace(6))
        labels = with_space.optimal_labels()
        assert len(labels) >= 1
        without_space = PrecomputedCost(values=vals)
        with pytest.raises(ValueError):
            without_space.optimal_labels()

    def test_degeneracies_sum_to_dim(self, maxcut_obj):
        cost = PrecomputedCost(values=maxcut_obj)
        distinct, counts = cost.degeneracies()
        assert counts.sum() == cost.dim
        assert np.all(np.diff(distinct) > 0)

    def test_signed_for_minimization(self):
        cost = PrecomputedCost(values=np.array([1.0, 2.0]), maximize=True)
        assert np.array_equal(cost.signed_for_minimization(), [-1.0, -2.0])
        cost_min = PrecomputedCost(values=np.array([1.0, 2.0]), maximize=False)
        assert np.array_equal(cost_min.signed_for_minimization(), [1.0, 2.0])


class TestPrecomputeCostFunction:
    def test_from_array(self):
        cost = precompute_cost(np.array([1.0, 2.0, 3.0, 4.0]))
        assert cost.dim == 4
        assert cost.space is None

    def test_from_scalar_callable(self, small_graph):
        cost = precompute_cost(lambda x: maxcut(small_graph, x), n=6)
        assert np.array_equal(cost.values, maxcut_values(small_graph, FullSpace(6).bits))

    def test_from_vectorized_callable(self, small_graph):
        cost = precompute_cost(
            lambda x: maxcut(small_graph, x),
            space=FullSpace(6),
            vectorized=lambda bits: maxcut_values(small_graph, bits),
        )
        assert cost.dim == 64

    def test_dicke_space_evaluation(self, small_graph):
        from repro.problems import densest_subgraph

        cost = precompute_cost(lambda x: densest_subgraph(small_graph, x), space=DickeSpace(6, 3))
        assert cost.dim == 20

    def test_callable_without_space_or_n_rejected(self):
        with pytest.raises(ValueError):
            precompute_cost(lambda x: 0.0)


class TestWorkspace:
    """The single-column (M=1) contract of the one workspace type, which every
    single-row simulation and gradient runs on."""

    def test_buffers_allocated(self):
        ws = BatchedWorkspace(16)
        assert ws.capacity == 1
        for buffer in (ws.state(1), ws.scratch(1), ws.phase(1)):
            assert buffer.shape == (16, 1)
            assert buffer.dtype == np.complex128

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            BatchedWorkspace(0)

    def test_load_state_copies(self, rng):
        ws = BatchedWorkspace(8)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        buffer = ws.load_states(psi, 1)
        assert np.shares_memory(buffer, ws.state(1))
        assert np.allclose(buffer[:, 0], psi)
        psi[0] = 0.0
        assert buffer[0, 0] != 0.0
        assert ws.calls_served == 1

    def test_load_state_shape_check(self):
        with pytest.raises(ValueError):
            BatchedWorkspace(8).load_states(np.zeros(4), 1)

    def test_layer_store_grows_and_persists(self):
        ws = BatchedWorkspace(4)
        store2 = ws.ensure_layers(2, 1)
        assert store2.shape == (2, 2, 4, 1)
        store1 = ws.ensure_layers(1, 1)
        # Not shrunk: the same backing buffer is reused.
        assert np.shares_memory(store1, store2)
        store5 = ws.ensure_layers(5, 1)
        assert store5.shape[0] == 5

    def test_layer_store_rejects_negative(self):
        with pytest.raises(ValueError):
            BatchedWorkspace(4).ensure_layers(-1, 1)

    def test_compatible_with(self):
        ws = BatchedWorkspace(32)
        assert ws.compatible_with(32)
        assert not ws.compatible_with(16)
