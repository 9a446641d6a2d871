"""Tests for arbitrary Hermitian/unitary mixers and mixer schedules."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
from qaoa_reference import apply_mixer

from repro.hilbert import DickeSpace, FullSpace
from repro.mixers import (
    FixedUnitaryMixer,
    HermitianMixer,
    MixerSchedule,
    MultiAngleXMixer,
    is_hermitian,
    is_unitary,
    transverse_field_mixer,
)
from repro.mixers.grover import grover_mixer


def _random_hermitian(dim, rng):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (mat + mat.conj().T) / 2.0


class TestPredicates:
    def test_is_hermitian(self, rng):
        assert is_hermitian(_random_hermitian(6, rng))
        assert not is_hermitian(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert not is_hermitian(np.zeros((2, 3)))

    def test_is_unitary(self, rng):
        H = _random_hermitian(5, rng)
        U = sla.expm(1j * H)
        assert is_unitary(U)
        assert not is_unitary(2 * U)
        assert not is_unitary(np.zeros((2, 3)))


class TestHermitianMixer:
    def test_apply_matches_expm(self, rng):
        H = _random_hermitian(8, rng)
        mixer = HermitianMixer(H)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        beta = 0.59
        assert np.allclose(apply_mixer(mixer, psi, beta), sla.expm(-1j * beta * H) @ psi)
        assert np.allclose(mixer.matrix(), H)

    def test_subspace_mixer(self, rng):
        space = DickeSpace(5, 2)
        H = _random_hermitian(space.dim, rng)
        mixer = HermitianMixer(H, space=space)
        assert mixer.dim == space.dim

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError):
            HermitianMixer(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))

    def test_rejects_non_power_of_two_without_space(self, rng):
        with pytest.raises(ValueError):
            HermitianMixer(_random_hermitian(6, rng))

    def test_rejects_space_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            HermitianMixer(_random_hermitian(4, rng), space=FullSpace(3))

    def test_cache_file(self, tmp_path, rng):
        H = _random_hermitian(8, rng)
        path = tmp_path / "hermitian.npz"
        first = HermitianMixer(H, file=path)
        second = HermitianMixer(H, file=path)
        assert np.allclose(first.eigenvalues, second.eigenvalues)


class TestFixedUnitaryMixer:
    def test_beta_one_reproduces_unitary(self, rng):
        H = _random_hermitian(8, rng)
        U = sla.expm(-1j * H)
        mixer = FixedUnitaryMixer(U)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        assert np.allclose(apply_mixer(mixer, psi, 1.0), U @ psi)

    def test_beta_two_is_u_squared(self, rng):
        H = 0.2 * _random_hermitian(8, rng)  # small angles avoid branch cuts
        U = sla.expm(-1j * H)
        mixer = FixedUnitaryMixer(U)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        assert np.allclose(apply_mixer(mixer, psi, 2.0), U @ U @ psi)

    def test_rejects_non_unitary(self, rng):
        with pytest.raises(ValueError):
            FixedUnitaryMixer(rng.normal(size=(4, 4)))


class TestMixerSchedule:
    def test_single_mixer_repeated(self):
        mixer = transverse_field_mixer(4)
        schedule = MixerSchedule(mixer, rounds=3)
        assert schedule.p == 3
        assert schedule.total_betas == 3
        assert all(layer is mixer for layer in schedule)

    def test_requires_rounds_for_single_mixer(self):
        with pytest.raises(ValueError):
            MixerSchedule(transverse_field_mixer(3))

    def test_per_round_mixers(self):
        a, b = transverse_field_mixer(4), grover_mixer(4)
        schedule = MixerSchedule([a, b, a])
        assert schedule.p == 3
        assert schedule[1] is b

    def test_rejects_mismatched_spaces(self):
        with pytest.raises(ValueError):
            MixerSchedule([transverse_field_mixer(3), transverse_field_mixer(4)])

    def test_rejects_rounds_mismatch(self):
        mixer = transverse_field_mixer(3)
        with pytest.raises(ValueError):
            MixerSchedule([mixer, mixer], rounds=3)

    def test_rejects_non_mixer(self):
        with pytest.raises(TypeError):
            MixerSchedule([transverse_field_mixer(3), "not a mixer"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MixerSchedule([])

    def test_beta_counts_multi_angle(self):
        n = 3
        ma = MultiAngleXMixer(n, [(0,), (1,), (2,)])
        plain = transverse_field_mixer(n)
        schedule = MixerSchedule([plain, ma])
        assert schedule.beta_counts() == [1, 3]
        assert schedule.total_betas == 4
        chunks = schedule.split_betas(np.arange(4.0))
        assert np.allclose(chunks[0], [0.0])
        assert np.allclose(chunks[1], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            schedule.split_betas(np.arange(3.0))

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError):
            MixerSchedule(transverse_field_mixer(3), rounds=0)
