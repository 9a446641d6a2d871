"""Tests for the statevector and dense circuit backends and the QAOA circuit builder."""

from __future__ import annotations

import numpy as np
import pytest
from qaoa_reference import apply_mixer

from repro.circuits import (
    Circuit,
    DenseBackend,
    StatevectorBackend,
    apply_gate,
    cnot,
    decompose_circuit,
    gate_to_full_unitary,
    hadamard,
    initial_layer,
    ising_cost_layer,
    maxcut_cost_layer,
    maxcut_qaoa_circuit,
    pauli_x,
    rx,
    rzz,
    trotter_xy_qaoa_circuit,
    x_mixer_layer,
    xy_mixer_layer,
)
from repro.core import random_angles, simulate
from repro.hilbert import state_matrix, uniform_superposition
from repro.mixers import transverse_field_mixer
from repro.problems import erdos_renyi, maxcut_values
from repro.problems.extra import ising_energy_values


class TestApplyGate:
    def test_x_on_each_qubit(self):
        n = 3
        for q in range(n):
            psi = np.zeros(8, dtype=complex)
            psi[0] = 1.0
            out = apply_gate(psi, pauli_x(q), n)
            assert np.isclose(out[1 << q], 1.0)

    def test_hadamard_layer_gives_uniform(self):
        n = 4
        psi = np.zeros(16, dtype=complex)
        psi[0] = 1.0
        for q in range(n):
            psi = apply_gate(psi, hadamard(q), n)
        assert np.allclose(psi, uniform_superposition(n))

    def test_cnot_entangles(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        psi = apply_gate(psi, hadamard(0), 2)
        psi = apply_gate(psi, cnot(0, 1), 2)
        bell = np.zeros(4, dtype=complex)
        bell[0b00] = bell[0b11] = 1 / np.sqrt(2)
        assert np.allclose(psi, bell)

    def test_matches_dense_promotion(self, rng):
        n = 4
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        for gate in (rx(2, 0.3), rzz(1, 3, 0.8), cnot(3, 0), hadamard(1)):
            fast = apply_gate(psi, gate, n)
            slow = gate_to_full_unitary(gate, n) @ psi
            assert np.allclose(fast, slow, atol=1e-12)

    def test_diagonal_fast_path_matches_general(self, rng):
        n = 5
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        gate = rzz(1, 4, 0.55)
        fast = apply_gate(psi, gate, n, diagonal_fast_path=True)
        general = apply_gate(psi, gate, n, diagonal_fast_path=False)
        assert np.allclose(fast, general, atol=1e-12)

    def test_global_phase_gate(self, rng):
        from repro.circuits import global_phase

        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        out = apply_gate(psi, global_phase(0.9), 3)
        assert np.allclose(out, np.exp(1j * 0.9) * psi)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            apply_gate(np.zeros(7), hadamard(0), 3)


class TestBackends:
    def test_default_initial_state_is_zero_ket(self):
        circuit = Circuit(3)
        out = StatevectorBackend().run(circuit)
        assert np.isclose(out[0], 1.0)
        assert np.isclose(np.linalg.norm(out), 1.0)

    def test_gates_applied_counter(self):
        circuit = Circuit(2, [hadamard(0), hadamard(1), cnot(0, 1)])
        backend = StatevectorBackend()
        backend.run(circuit)
        assert backend.gates_applied == 3

    def test_dense_and_statevector_agree(self, rng):
        circuit = Circuit(3, [hadamard(0), rx(1, 0.4), cnot(0, 2), rzz(1, 2, 0.6)])
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        a = StatevectorBackend().run(circuit, initial_state=psi)
        b = DenseBackend().run(circuit, initial_state=psi)
        assert np.allclose(a, b, atol=1e-10)

    def test_dense_circuit_unitary(self):
        circuit = Circuit(2, [hadamard(0), cnot(0, 1)])
        U = DenseBackend().unitary(circuit)
        assert np.allclose(U @ U.conj().T, np.eye(4), atol=1e-12)
        psi = U @ np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(np.abs(psi) ** 2, [0.5, 0, 0, 0.5])

    def test_expectation_helpers_agree(self, rng):
        graph = erdos_renyi(4, 0.5, seed=3)
        obj = maxcut_values(graph, state_matrix(4))
        circuit = maxcut_qaoa_circuit(graph, [0.3], [0.8])
        sv = StatevectorBackend().expectation(circuit, obj)
        dense = DenseBackend().expectation(circuit, obj)
        assert np.isclose(sv, dense)

    def test_initial_state_shape_validation(self):
        with pytest.raises(ValueError):
            StatevectorBackend().run(Circuit(3), initial_state=np.zeros(4))
        with pytest.raises(ValueError):
            DenseBackend().run(Circuit(3), initial_state=np.zeros(4))


class TestQAOABuilder:
    def test_initial_layer_prepares_uniform(self):
        out = StatevectorBackend().run(initial_layer(5))
        assert np.allclose(out, uniform_superposition(5))

    def test_maxcut_cost_layer_is_diagonal_phase(self, rng):
        graph = erdos_renyi(5, 0.5, seed=8)
        obj = maxcut_values(graph, state_matrix(5))
        gamma = 0.77
        circuit = maxcut_cost_layer(graph, gamma)
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        psi /= np.linalg.norm(psi)
        out = StatevectorBackend().run(circuit, initial_state=psi)
        assert np.allclose(out, np.exp(-1j * gamma * obj) * psi, atol=1e-10)

    def test_x_mixer_layer_matches_direct_mixer(self, rng):
        n = 4
        beta = 0.52
        mixer = transverse_field_mixer(n)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        out = StatevectorBackend().run(x_mixer_layer(n, beta), initial_state=psi)
        assert np.allclose(out, apply_mixer(mixer, psi, beta), atol=1e-10)

    def test_full_circuit_matches_direct_simulator(self, rng):
        n, p = 5, 3
        graph = erdos_renyi(n, 0.5, seed=10)
        obj = maxcut_values(graph, state_matrix(n))
        angles = random_angles(p, rng=2)
        betas, gammas = angles[:p], angles[p:]
        circuit = maxcut_qaoa_circuit(graph, betas, gammas)
        circuit_state = StatevectorBackend().run(circuit)
        direct_state = simulate(angles, transverse_field_mixer(n), obj).statevector
        assert np.allclose(circuit_state, direct_state, atol=1e-9)

    def test_ising_cost_layer_phases(self, rng):
        n = 4
        h = rng.normal(size=n)
        J = np.triu(rng.normal(size=(n, n)), k=1)
        obj = ising_energy_values(h, J, state_matrix(n))
        gamma = 0.41
        circuit = ising_cost_layer(h, J, gamma)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        out = StatevectorBackend().run(circuit, initial_state=psi)
        expected = np.exp(-1j * gamma * obj) * psi
        # Equal up to a global phase (single-qubit RZ conventions drop a constant).
        overlap = np.vdot(expected, out)
        assert np.isclose(np.abs(overlap), 1.0, atol=1e-10)
        assert np.allclose(out, expected * np.exp(1j * np.angle(overlap)), atol=1e-9)

    def test_angle_length_mismatch_rejected(self):
        graph = erdos_renyi(4, 0.5, seed=1)
        with pytest.raises(ValueError):
            maxcut_qaoa_circuit(graph, [0.1, 0.2], [0.3])

    def test_decompose_preserves_state(self, rng):
        graph = erdos_renyi(4, 0.5, seed=12)
        circuit = maxcut_qaoa_circuit(graph, [0.3, 0.5], [0.7, 0.9])
        decomposed = decompose_circuit(circuit)
        assert decomposed.num_gates > circuit.num_gates
        a = StatevectorBackend().run(circuit)
        b = StatevectorBackend().run(decomposed)
        overlap = np.abs(np.vdot(a, b))
        assert np.isclose(overlap, 1.0, atol=1e-9)

    def test_xy_mixer_layer_unitary(self, rng):
        n = 4
        circuit = xy_mixer_layer(n, 0.3, [(0, 1), (1, 2), (2, 3)])
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        out = StatevectorBackend().run(circuit, initial_state=psi)
        assert np.isclose(np.linalg.norm(out), 1.0)

    def test_trotter_circuit_structure(self):
        graph = erdos_renyi(4, 0.5, seed=13)
        circuit = trotter_xy_qaoa_circuit(
            graph,
            [0.1],
            [0.2],
            pairs=[(0, 1), (2, 3)],
            cost_layer_builder=lambda gamma: maxcut_cost_layer(graph, gamma),
            trotter_steps=3,
        )
        assert circuit.gate_counts()["XY"] == 6  # 2 pairs x 3 steps
        with pytest.raises(ValueError):
            trotter_xy_qaoa_circuit(
                graph, [0.1], [0.2], [(0, 1)], lambda g: maxcut_cost_layer(graph, g),
                trotter_steps=0,
            )
