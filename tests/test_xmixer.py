"""Tests for Pauli-X product mixers and the Walsh–Hadamard transform."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from qaoa_reference import apply_hamiltonian, apply_mixer

from repro.hilbert import uniform_superposition
from repro.mixers.xmixer import (
    MultiAngleXMixer,
    XMixer,
    mixer_x,
    transverse_field_mixer,
    walsh_hadamard_transform,
    x_term_diagonal,
)

_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _kron_x_term(term, n):
    """Dense matrix of prod_{i in term} X_i on n qubits (qubit 0 = LSB)."""
    mat = np.eye(1)
    for qubit in range(n - 1, -1, -1):
        mat = np.kron(mat, _X if qubit in term else np.eye(2))
    return mat


def _popcount_diagonal(terms, coeffs, n):
    """Reference ``d[x] = sum_t c_t (-1)^{popcount(x & mask_t)}``, term by term."""
    labels = np.arange(1 << n)
    diag = np.zeros(1 << n)
    for term, c in zip(terms, coeffs):
        mask = sum(1 << q for q in term)
        parity = np.array([bin(x).count("1") & 1 for x in labels & mask])
        diag += c * (1.0 - 2.0 * parity)
    return diag


def _dense_x_mixer(terms, coeffs, n):
    total = np.zeros((1 << n, 1 << n))
    for term, c in zip(terms, coeffs):
        total += c * _kron_x_term(term, n)
    return total


class TestWalshHadamard:
    def test_matches_dense_hadamard(self, rng):
        n = 5
        H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        Hn = np.eye(1)
        for _ in range(n):
            Hn = np.kron(Hn, H)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        assert np.allclose(walsh_hadamard_transform(psi), Hn @ psi)

    def test_involution(self, rng):
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert np.allclose(walsh_hadamard_transform(walsh_hadamard_transform(psi)), psi)

    def test_unitarity(self, rng):
        psi = rng.normal(size=128) + 1j * rng.normal(size=128)
        assert np.isclose(np.linalg.norm(walsh_hadamard_transform(psi)), np.linalg.norm(psi))

    def test_zero_state_maps_to_uniform(self):
        psi = np.zeros(32, dtype=complex)
        psi[0] = 1.0
        assert np.allclose(walsh_hadamard_transform(psi), uniform_superposition(5))

    def test_out_buffer_and_aliasing(self, rng):
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        expected = walsh_hadamard_transform(psi)
        buffer = np.empty(16, dtype=complex)
        returned = walsh_hadamard_transform(psi, out=buffer)
        assert returned is buffer
        assert np.allclose(buffer, expected)
        # In-place (out aliases input).
        copy = psi.copy()
        walsh_hadamard_transform(copy, out=copy)
        assert np.allclose(copy, expected)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            walsh_hadamard_transform(np.zeros(6))


class TestXTermDiagonal:
    def test_transverse_field_diagonal(self):
        n = 4
        diag = x_term_diagonal([(i,) for i in range(n)], [1.0] * n, n)
        # In the Hadamard basis, sum_i X_i has eigenvalue n - 2*popcount(x).
        labels = np.arange(1 << n)
        expected = n - 2 * np.array([bin(x).count("1") for x in labels])
        assert np.allclose(diag, expected)

    def test_rejects_bad_qubits(self):
        with pytest.raises(ValueError):
            x_term_diagonal([(5,)], [1.0], 3)
        with pytest.raises(ValueError):
            x_term_diagonal([(1, 1)], [1.0], 3)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 14))
    def test_matches_popcount_definition(self, data, n):
        """Scatter-and-transform equals ``sum_t c_t (-1)^{popcount(x & mask_t)}``."""
        orders = st.integers(1, min(3, n))
        term = orders.flatmap(
            lambda k: st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
        )
        terms = data.draw(st.lists(term.map(tuple), min_size=1, max_size=8))
        if data.draw(st.booleans()):
            terms.append(())  # the identity term
        coeffs = data.draw(
            st.lists(st.floats(-3.0, 3.0), min_size=len(terms), max_size=len(terms))
        )
        expected = _popcount_diagonal(terms, coeffs, n)
        diag = x_term_diagonal(terms, coeffs, n)
        assert diag.shape == (1 << n,)
        np.testing.assert_allclose(diag, expected, rtol=0, atol=1e-12 * (1 + sum(map(abs, coeffs))))

    def test_identity_term_is_constant(self):
        np.testing.assert_array_equal(x_term_diagonal([()], [2.5], 5), np.full(32, 2.5))

    @pytest.mark.parametrize("n", [5, 13])
    def test_multi_angle_term_diagonals(self, n):
        terms = [(0,), (n - 1,), (1, 3), (0, 2, n - 1)]
        mixer = MultiAngleXMixer(n, terms)
        for t, term in enumerate(terms):
            np.testing.assert_array_equal(
                mixer.term_diagonals[t], _popcount_diagonal([term], [1.0], n)
            )
        np.testing.assert_array_equal(
            mixer.term_diagonals.sum(axis=0),
            _popcount_diagonal(terms, [1.0] * len(terms), n),
        )


class TestXMixer:
    @pytest.mark.parametrize(
        "terms",
        [
            [(0,), (1,), (2,), (3,)],
            [(0, 1), (2, 3)],
            [(0,), (1, 2), (0, 1, 2, 3)],
        ],
    )
    def test_apply_matches_dense_expm(self, terms, rng):
        n = 4
        coeffs = [1.0] * len(terms)
        mixer = XMixer(n, terms, coeffs)
        dense = _dense_x_mixer(terms, coeffs, n)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        beta = 0.731
        assert np.allclose(apply_mixer(mixer, psi, beta), sla.expm(-1j * beta * dense) @ psi)

    def test_matrix_matches_dense_sum(self):
        n = 3
        terms = [(0,), (1,), (0, 2)]
        mixer = XMixer(n, terms)
        assert np.allclose(mixer.matrix(), _dense_x_mixer(terms, [1.0] * 3, n))

    def test_apply_hamiltonian_matches_matrix(self, rng):
        mixer = transverse_field_mixer(5)
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert np.allclose(apply_hamiltonian(mixer, psi), mixer.matrix() @ psi)

    def test_unitarity_and_zero_angle(self, rng):
        mixer = transverse_field_mixer(6)
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi /= np.linalg.norm(psi)
        assert np.isclose(np.linalg.norm(apply_mixer(mixer, psi, 0.9)), 1.0)
        assert np.allclose(apply_mixer(mixer, psi, 0.0), psi)

    def test_apply_does_not_modify_input(self, rng):
        mixer = transverse_field_mixer(4)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        original = psi.copy()
        apply_mixer(mixer, psi, 0.5)
        assert np.array_equal(psi, original)

    def test_apply_out_aliasing(self, rng):
        mixer = transverse_field_mixer(4)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        expected = apply_mixer(mixer, psi, 0.3)
        apply_mixer(mixer, psi, 0.3, out=psi)
        assert np.allclose(psi, expected)

    def test_initial_state_is_eigenstate(self):
        # |+>^n is the top eigenstate of sum_i X_i: mixing leaves it unchanged
        # up to a global phase.
        mixer = transverse_field_mixer(5)
        psi = mixer.initial_state()
        evolved = apply_mixer(mixer, psi, 0.77)
        overlap = np.abs(np.vdot(psi, evolved))
        assert np.isclose(overlap, 1.0)

    def test_coefficients_validation(self):
        with pytest.raises(ValueError):
            XMixer(3, [(0,)], [1.0, 2.0])
        with pytest.raises(ValueError):
            XMixer(3, [])

    def test_mixer_x_orders(self):
        mixer = mixer_x([1], 4)
        assert len(mixer.terms) == 4
        mixer2 = mixer_x([1, 2], 4)
        assert len(mixer2.terms) == 4 + 6
        with pytest.raises(ValueError):
            mixer_x([5], 4)
        with pytest.raises(ValueError):
            mixer_x([], 4)
        with pytest.raises(ValueError):
            mixer_x([1, 2], 4, coefficients=[1.0])

    def test_mixer_x_weighted_orders(self):
        mixer = mixer_x([1, 2], 3, coefficients=[2.0, 0.5])
        dense = _dense_x_mixer(mixer.terms, mixer.coefficients, 3)
        assert np.allclose(mixer.matrix(), dense)


class TestMultiAngleXMixer:
    def test_matches_product_of_single_terms(self, rng):
        n = 3
        terms = [(0,), (1,), (2,)]
        mixer = MultiAngleXMixer(n, terms)
        betas = rng.random(3)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        expected = psi.copy()
        for term, beta in zip(terms, betas):
            expected = sla.expm(-1j * beta * _kron_x_term(term, n)) @ expected
        assert np.allclose(apply_mixer(mixer, psi, betas), expected)

    def test_equal_angles_match_plain_mixer(self, rng):
        n = 4
        mixer_ma = MultiAngleXMixer(n, [(i,) for i in range(n)])
        mixer_plain = transverse_field_mixer(n)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        beta = 0.42
        plain = apply_mixer(mixer_plain, psi, beta)
        assert np.allclose(apply_mixer(mixer_ma, psi, np.full(n, beta)), plain)
        # Scalar broadcast also works.
        assert np.allclose(apply_mixer(mixer_ma, psi, beta), plain)

    def test_wrong_angle_count_rejected(self):
        mixer = MultiAngleXMixer(3, [(0,), (1,)])
        with pytest.raises(ValueError):
            apply_mixer(mixer, np.zeros(8, dtype=complex), np.zeros(3))

    def test_hamiltonian_terms(self, rng):
        n = 3
        terms = [(0, 1), (2,)]
        mixer = MultiAngleXMixer(n, terms)
        chi = rng.normal(size=8) + 1j * rng.normal(size=8)
        phi = rng.normal(size=8) + 1j * rng.normal(size=8)
        betas = np.array([0.3, -1.1])
        record = np.empty((8, 1), dtype=np.complex128)
        psi = mixer.apply_batch(chi[:, None], betas[:, None], record=record)[:, 0]
        # each term's derivative weight is 2 Im <phi| term |psi>
        grads = mixer.adjoint_batch(phi[:, None].copy(), chi[:, None], record, betas[:, None])
        for t, term in enumerate(terms):
            expected = 2.0 * np.imag(np.vdot(phi, _kron_x_term(term, n) @ psi))
            assert np.isclose(grads[t, 0], expected)

    def test_num_angles(self):
        assert MultiAngleXMixer(4, [(0,), (1,), (2, 3)]).num_angles == 3


@given(st.integers(min_value=2, max_value=7), st.floats(min_value=-3, max_value=3, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_property_transverse_field_unitary(n, beta):
    mixer = transverse_field_mixer(n)
    rng = np.random.default_rng(1)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    out = apply_mixer(mixer, psi, beta)
    assert np.isclose(np.linalg.norm(out), 1.0, atol=1e-10)
    # Applying the inverse angle undoes the evolution.
    assert np.allclose(apply_mixer(mixer, out, -beta), psi, atol=1e-10)


@st.composite
def _x_orders(draw):
    """``(n, orders, coefficients)``: valid or not, sizes kept small."""
    n = draw(st.integers(1, 8))
    orders = draw(st.lists(st.integers(0, n + 1), max_size=3))
    coefficients = draw(
        st.none()
        | st.lists(
            st.floats(-2.0, 2.0, allow_nan=False),
            min_size=max(0, len(orders) - 1),
            max_size=len(orders) + 1,
        )
    )
    return n, orders, coefficients


@settings(max_examples=60, deadline=None)
@given(case=_x_orders())
def test_property_sharded_config_enumerates_the_dense_terms(case):
    """The registry X mixer the shard workers run validates like ``mixer_x``
    and, chunk by chunk, enumerates the dense terms and diagonal."""
    from repro.api.mixers import make_mixer
    from repro.hilbert import FullSpace
    from repro.hpc.partition import split_full_space
    from repro.hpc.sharded.executor import _WorkerConfig, _WorkerState
    from repro.mixers.xmixer import term_mask
    from repro.problems.registry import make_problem

    n, orders, coefficients = case
    params = {"orders": orders, "coefficients": coefficients}
    try:
        mixer = mixer_x(orders, n, coefficients)
    except ValueError as exc:
        with pytest.raises(ValueError) as registry_exc:
            make_mixer("x", FullSpace(n), **params)
        assert str(registry_exc.value) == str(exc)
        return
    registry = make_mixer("x", FullSpace(n), **params)
    assert registry.masks == [term_mask(term, n) for term in mixer.terms]
    assert registry.coefficients == list(mixer.coefficients)
    if n < 2:
        return
    problem = make_problem("maxcut", n, seed=1)
    chunks = []
    for chunk in split_full_space(n, 2):
        state = _WorkerState(_WorkerConfig(
            index=chunk.index, chunk=chunk, n=n, k=None, shards=2,
            problem=problem, mixer=registry,
        ))
        masks, coeffs = state._terms()
        assert tuple(masks) == tuple(term_mask(term, n) for term in mixer.terms)
        assert tuple(coeffs) == tuple(mixer.coefficients)
        chunks.append(state._chunk_diagonal())
    np.testing.assert_allclose(np.concatenate(chunks), mixer.diagonal, rtol=0, atol=1e-12)
