"""Tests for the Clique and Ring (XY) mixers on Dicke subspaces."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest
import scipy.linalg as sla
from qaoa_reference import apply_hamiltonian, apply_mixer

from repro.hilbert import dicke_labels, hamming_weights
from repro.mixers.xy import (
    CliqueMixer,
    RingMixer,
    XYMixer,
    mixer_clique,
    mixer_ring,
    xy_subspace_matrix,
)

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def _dense_xy_hamiltonian(n, pairs):
    """Full 2^n x 2^n XY Hamiltonian (qubit 0 = LSB)."""

    def op_on(qubit, mat):
        total = np.eye(1)
        for q in range(n - 1, -1, -1):
            total = np.kron(total, mat if q == qubit else np.eye(2))
        return total

    H = np.zeros((1 << n, 1 << n), dtype=complex)
    for i, j in pairs:
        H += op_on(i, _X) @ op_on(j, _X) + op_on(i, _Y) @ op_on(j, _Y)
    return H


class TestSubspaceMatrix:
    def test_matches_full_space_restriction(self):
        n, k = 5, 2
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        labels = dicke_labels(n, k)
        full = _dense_xy_hamiltonian(n, pairs)
        restricted = full[np.ix_(labels, labels)].real
        assert np.allclose(xy_subspace_matrix(n, k, pairs), restricted)

    def test_ring_pattern_restriction(self):
        n, k = 6, 3
        pairs = [(i, (i + 1) % n) for i in range(n)]
        labels = dicke_labels(n, k)
        full = _dense_xy_hamiltonian(n, pairs)
        restricted = full[np.ix_(labels, labels)].real
        assert np.allclose(xy_subspace_matrix(n, k, pairs), restricted)

    def test_symmetric(self):
        mat = xy_subspace_matrix(6, 3, [(0, 1), (2, 3), (4, 5)])
        assert np.allclose(mat, mat.T)

    def test_full_space_never_mixes_weights(self):
        """The XY Hamiltonian is block diagonal in Hamming weight."""
        n = 4
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        full = _dense_xy_hamiltonian(n, pairs)
        weights = hamming_weights(n)
        for a in range(1 << n):
            for b in range(1 << n):
                if weights[a] != weights[b]:
                    assert full[a, b] == 0


class TestCliqueMixer:
    def test_dimensions(self):
        mixer = CliqueMixer(6, 3)
        assert mixer.dim == comb(6, 3)
        assert len(mixer.pairs) == 15

    def test_apply_matches_dense_expm(self, rng, clique_mixer_63):
        dense = clique_mixer_63.matrix()
        psi = rng.normal(size=20) + 1j * rng.normal(size=20)
        psi /= np.linalg.norm(psi)
        beta = 0.37
        expected = sla.expm(-1j * beta * dense) @ psi
        assert np.allclose(apply_mixer(clique_mixer_63, psi, beta), expected)

    def test_hamiltonian_matches_subspace_matrix(self, rng, clique_mixer_63):
        psi = rng.normal(size=20) + 1j * rng.normal(size=20)
        expected = xy_subspace_matrix(6, 3, clique_mixer_63.pairs) @ psi
        assert np.allclose(apply_hamiltonian(clique_mixer_63, psi), expected)

    def test_unitarity_and_inverse(self, rng, clique_mixer_63):
        psi = rng.normal(size=20) + 1j * rng.normal(size=20)
        psi /= np.linalg.norm(psi)
        out = apply_mixer(clique_mixer_63, psi, 0.61)
        assert np.isclose(np.linalg.norm(out), 1.0)
        assert np.allclose(apply_mixer(clique_mixer_63, out, -0.61), psi)

    def test_dicke_state_is_eigenstate(self, clique_mixer_63):
        """The Dicke state is the top eigenstate of the Clique mixer."""
        psi0 = clique_mixer_63.initial_state()
        evolved = apply_mixer(clique_mixer_63, psi0, 0.5)
        assert np.isclose(np.abs(np.vdot(psi0, evolved)), 1.0)

    def test_eigenvalues_match_scipy(self, clique_mixer_63):
        mat = xy_subspace_matrix(6, 3, clique_mixer_63.pairs)
        expected = np.linalg.eigvalsh(mat)
        assert np.allclose(np.sort(clique_mixer_63.eigenvalues), expected)


class TestRingMixer:
    def test_pair_pattern(self):
        mixer = RingMixer(6, 2)
        assert len(mixer.pairs) == 6
        assert (0, 5) in mixer.pairs

    def test_apply_matches_dense_expm(self, rng, ring_mixer_63):
        dense = ring_mixer_63.matrix()
        psi = rng.normal(size=20) + 1j * rng.normal(size=20)
        psi /= np.linalg.norm(psi)
        expected = sla.expm(-1j * 0.93 * dense) @ psi
        assert np.allclose(apply_mixer(ring_mixer_63, psi, 0.93), expected)

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            RingMixer(1, 0)

    def test_differs_from_clique(self, clique_mixer_63, ring_mixer_63):
        assert not np.allclose(clique_mixer_63.matrix(), ring_mixer_63.matrix())


class TestXYMixerValidation:
    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            XYMixer(4, 2, [(1, 1)])

    def test_rejects_out_of_range_pair(self):
        with pytest.raises(ValueError):
            XYMixer(4, 2, [(0, 7)])

    def test_rejects_empty_pairs(self):
        with pytest.raises(ValueError):
            XYMixer(4, 2, [])

    def test_duplicate_pairs_deduplicated(self):
        mixer = XYMixer(4, 2, [(0, 1), (1, 0), (0, 1)])
        assert mixer.pairs == ((0, 1),)


class TestMixerCaching:
    def test_cache_roundtrip(self, tmp_path):
        path = tmp_path / "clique_6_3.npz"
        first = mixer_clique(6, 3, file=path)
        assert path.exists()
        second = mixer_clique(6, 3, file=path)
        assert np.allclose(first.eigenvalues, second.eigenvalues)
        assert np.allclose(first.eigenvectors, second.eigenvectors)

    def test_cache_key_mismatch_detected(self, tmp_path):
        path = tmp_path / "mixer.npz"
        mixer_clique(6, 3, file=path)
        with pytest.raises(ValueError):
            mixer_ring(6, 3, file=path)

    def test_cached_mixer_behaves_identically(self, tmp_path, rng):
        path = tmp_path / "ring_6_3.npz"
        fresh = mixer_ring(6, 3)
        cached = mixer_ring(6, 3, file=path)
        reloaded = mixer_ring(6, 3, file=path)
        psi = rng.normal(size=20) + 1j * rng.normal(size=20)
        psi /= np.linalg.norm(psi)
        a = apply_mixer(fresh, psi, 0.4)
        b = apply_mixer(cached, psi, 0.4)
        c = apply_mixer(reloaded, psi, 0.4)
        assert np.allclose(a, b)
        assert np.allclose(a, c)
