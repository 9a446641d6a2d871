"""Tests for the Grover mixer (rank-one projector form)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from qaoa_reference import apply_hamiltonian, apply_mixer

from repro.hilbert import DickeSpace, FullSpace, hamming_weights
from repro.mixers.grover import GroverMixer, grover_mixer, grover_mixer_dicke


class TestGroverMixerFullSpace:
    def test_matrix_is_projector(self):
        mixer = grover_mixer(4)
        mat = mixer.matrix()
        assert np.allclose(mat @ mat, mat)
        assert np.allclose(mat, mat.conj().T)
        assert np.isclose(np.trace(mat).real, 1.0)

    def test_apply_matches_dense_expm(self, rng):
        mixer = grover_mixer(5)
        dense = mixer.matrix()
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        psi /= np.linalg.norm(psi)
        beta = 1.234
        assert np.allclose(apply_mixer(mixer, psi, beta), sla.expm(-1j * beta * dense) @ psi)

    def test_apply_hamiltonian_matches_matrix(self, rng):
        mixer = grover_mixer(4)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.allclose(apply_hamiltonian(mixer, psi), mixer.matrix() @ psi)

    def test_unitarity(self, rng):
        mixer = grover_mixer(6)
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi /= np.linalg.norm(psi)
        assert np.isclose(np.linalg.norm(apply_mixer(mixer, psi, 2.2)), 1.0)

    def test_periodicity_2pi(self, rng):
        mixer = grover_mixer(4)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        assert np.allclose(apply_mixer(mixer, psi, 2 * np.pi), psi, atol=1e-10)

    def test_initial_state_eigenstate(self):
        mixer = grover_mixer(5)
        psi0 = mixer.initial_state()
        evolved = apply_mixer(mixer, psi0, 0.9)
        assert np.allclose(evolved, np.exp(-1j * 0.9) * psi0)

    def test_orthogonal_states_untouched(self):
        mixer = grover_mixer(3)
        psi = np.zeros(8, dtype=complex)
        psi[0], psi[1] = 1 / np.sqrt(2), -1 / np.sqrt(2)  # orthogonal to |+...+>
        assert np.allclose(apply_mixer(mixer, psi, 1.7), psi)

    def test_out_buffer(self, rng):
        mixer = grover_mixer(4)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        expected = apply_mixer(mixer, psi, 0.5)
        out = np.empty(16, dtype=complex)
        assert apply_mixer(mixer, psi, 0.5, out=out) is out
        assert np.allclose(out, expected)
        apply_mixer(mixer, psi, 0.5, out=psi)
        assert np.allclose(psi, expected)


class TestGroverMixerDicke:
    def test_subspace_dimension(self):
        mixer = grover_mixer_dicke(6, 2)
        assert mixer.dim == 15
        assert mixer.space.hamming_weight == 2

    def test_apply_matches_dense_expm(self, rng):
        mixer = grover_mixer_dicke(6, 3)
        dense = mixer.matrix()
        psi = rng.normal(size=20) + 1j * rng.normal(size=20)
        psi /= np.linalg.norm(psi)
        beta = 0.8
        assert np.allclose(apply_mixer(mixer, psi, beta), sla.expm(-1j * beta * dense) @ psi)

    def test_hamming_weight_conservation(self, rng):
        """Embedding the subspace evolution in the full space never populates
        states of a different Hamming weight (Sec. 2.4 property 1)."""
        n, k = 6, 2
        space = DickeSpace(n, k)
        mixer = GroverMixer(space)
        psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi /= np.linalg.norm(psi)
        evolved_full = space.embed(apply_mixer(mixer, psi, 1.1))
        weights = hamming_weights(n)
        assert np.allclose(evolved_full[weights != k], 0.0)


class TestCustomInitialState:
    def test_custom_initial_state_normalized(self, rng):
        space = FullSpace(3)
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        mixer = GroverMixer(space, initial=raw)
        assert np.isclose(np.linalg.norm(mixer.psi0), 1.0)
        # Projector onto the normalized custom state.
        assert np.allclose(mixer.matrix(), np.outer(mixer.psi0, mixer.psi0.conj()))

    def test_zero_initial_state_rejected(self):
        with pytest.raises(ValueError):
            GroverMixer(FullSpace(3), initial=np.zeros(8))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            GroverMixer(FullSpace(3), initial=np.ones(4))


@given(st.integers(min_value=2, max_value=8), st.floats(min_value=-4, max_value=4, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_property_grover_composition(n, beta):
    """Two applications with angles a and b equal one application with a+b."""
    mixer = grover_mixer(n)
    rng = np.random.default_rng(7)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    once = apply_mixer(mixer, psi, beta + 0.3)
    twice = apply_mixer(mixer, apply_mixer(mixer, psi, beta), 0.3)
    assert np.allclose(once, twice, atol=1e-10)
