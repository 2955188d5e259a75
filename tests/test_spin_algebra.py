"""Tests for spin matrices, the operator basis, Bloch maps, and Haar sampling."""

import numpy as np
import pytest

from chaostomo import (
    SpinParams,
    angular_momentum_ops,
    frobenius_distance_to_identity,
    from_bloch,
    haar_random_state,
    haar_random_unitary,
    hermitian_basis,
    pure_state_density,
    spectral_function,
    to_bloch,
    unitary_fractional_power,
)

from oracles import random_hermitian, taylor_expm


class TestSpinParams:
    def test_dimension(self):
        assert SpinParams(0.5).d == 2
        assert SpinParams(10).d == 21

    @pytest.mark.parametrize("bad", [0.3, -1, 0, 10.2, float("inf")])
    def test_rejects_non_half_integer(self, bad):
        with pytest.raises(ValueError):
            SpinParams(bad)


class TestAngularMomentum:
    def test_qubit_jz(self):
        _, _, jz = angular_momentum_ops(SpinParams(0.5))
        np.testing.assert_allclose(jz, np.diag([0.5, -0.5]), atol=1e-15)

    def test_commutator_j10(self):
        jx, jy, jz = angular_momentum_ops(SpinParams(10))
        np.testing.assert_allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)

    def test_jz_squared_trace_j10(self):
        # Independent oracle: sum of m^2 over m = -10..10.
        expected = float(sum(m * m for m in range(-10, 11)))
        assert expected == 770.0
        _, _, jz = angular_momentum_ops(SpinParams(10))
        assert abs(np.trace(jz @ jz).real - expected) < 1e-10

    def test_hermitian(self):
        for op in angular_momentum_ops(SpinParams(3.5)):
            np.testing.assert_allclose(op, op.conj().T, atol=1e-14)


class TestHermitianBasis:
    def test_qubit_is_scaled_paulis(self):
        basis = hermitian_basis(SpinParams(0.5))
        s = 1 / np.sqrt(2)
        pauli = np.array(
            [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
        )
        np.testing.assert_allclose(basis, s * pauli, atol=1e-15)

    def test_element_count_d21(self):
        assert hermitian_basis(SpinParams(10)).shape == (440, 21, 21)

    @pytest.mark.parametrize("d", range(2, 22))
    def test_orthonormal_traceless_all_dims(self, d):
        basis = hermitian_basis(SpinParams((d - 1) / 2))
        traces = np.einsum("aii->a", basis)
        assert np.max(np.abs(traces)) < 1e-12
        gram = np.einsum("aij,bji->ab", basis, basis).real
        assert np.max(np.abs(gram - np.eye(d * d - 1))) < 1e-12


class TestBlochMaps:
    def test_maximally_mixed_is_origin(self):
        spin = SpinParams(1.5)
        basis = hermitian_basis(spin)
        r = to_bloch(np.eye(spin.d) / spin.d, basis)
        assert np.max(np.abs(r)) < 1e-14

    def test_pure_state_norm_d21(self):
        spin = SpinParams(10)
        basis = hermitian_basis(spin)
        psi = haar_random_state(spin, 5)
        r = to_bloch(pure_state_density(psi), basis)
        assert abs(r @ r - (1 - 1 / 21)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_random_unit_trace(self, seed):
        spin = SpinParams(2.5)
        basis = hermitian_basis(spin)
        h = random_hermitian(spin.d, seed)
        h = h / np.trace(h).real  # unit trace, generally not positive
        back = from_bloch(to_bloch(h, basis), basis)
        np.testing.assert_allclose(back, h, atol=1e-12)

    def test_dimension_mismatch(self):
        basis = hermitian_basis(SpinParams(1))
        with pytest.raises(ValueError):
            to_bloch(np.eye(4) / 4, basis)

    def test_stacks_match_single_calls(self):
        spin = SpinParams(2.5)
        basis = hermitian_basis(spin)
        ops = np.stack([random_hermitian(spin.d, seed) for seed in range(6)]).reshape(2, 3, spin.d, spin.d)
        r = to_bloch(ops, basis)
        assert r.shape == (2, 3, spin.d**2 - 1)
        back = from_bloch(r, basis)
        assert back.shape == ops.shape
        # A stack goes through a matrix product and one matrix through a
        # vector product, so the two may round differently.
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(r[idx], to_bloch(ops[idx], basis), rtol=0, atol=1e-14)
            np.testing.assert_allclose(back[idx], from_bloch(r[idx], basis), rtol=0, atol=1e-14)


class TestHaarSampling:
    def test_state_normalized_and_deterministic(self):
        spin = SpinParams(10)
        psi = haar_random_state(spin, 123)
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
        np.testing.assert_array_equal(psi, haar_random_state(spin, 123))

    def test_state_first_component_moment(self):
        # Haar moment oracle: E|<e1|psi>|^2 = 1/d, checked by Monte Carlo.
        spin = SpinParams(10)
        n = 10_000
        seeds = np.random.SeedSequence(7).spawn(n)
        values = np.array(
            [abs(haar_random_state(spin, s)[0]) ** 2 for s in seeds]
        )
        stderr = values.std(ddof=1) / np.sqrt(n)
        assert abs(values.mean() - 1 / 21) < 3 * stderr

    def test_unitary_defect_and_determinism(self):
        spin = SpinParams(10)
        u = haar_random_unitary(spin, 9)
        assert np.max(np.abs(u.conj().T @ u - np.eye(21))) < 1e-10
        np.testing.assert_array_equal(u, haar_random_unitary(spin, 9))

    def test_unitary_trace_moment(self):
        # Haar moment oracle: E|Tr U|^2 = 1, checked by Monte Carlo.
        spin = SpinParams(10)
        n = 1000
        seeds = np.random.SeedSequence(11).spawn(n)
        values = np.array(
            [abs(np.trace(haar_random_unitary(spin, s))) ** 2 for s in seeds]
        )
        stderr = values.std(ddof=1) / np.sqrt(n)
        assert abs(values.mean() - 1.0) < 3 * stderr


class TestUnitaryFractionalPower:
    def test_endpoints(self):
        spin = SpinParams(3)
        u = haar_random_unitary(spin, 2)
        np.testing.assert_allclose(unitary_fractional_power(u, 1.0), u, atol=1e-10)
        np.testing.assert_allclose(
            unitary_fractional_power(u, 0.0), np.eye(spin.d), atol=1e-12
        )

    def test_scalar_principal_branch(self):
        u = np.array([[1j]])
        out = unitary_fractional_power(u, 0.5)
        np.testing.assert_allclose(out, [[np.exp(1j * np.pi / 4)]], atol=1e-14)

    @pytest.mark.parametrize("eta1,eta2", [(0.3, 0.4), (0.25, 0.25), (0.1, 0.9)])
    def test_semigroup(self, eta1, eta2):
        spin = SpinParams(5)
        u = haar_random_unitary(spin, 31)
        lhs = unitary_fractional_power(u, eta1) @ unitary_fractional_power(u, eta2)
        rhs = unitary_fractional_power(u, eta1 + eta2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            unitary_fractional_power(np.ones((3, 3)), 0.5)

    def test_rejects_eta_out_of_range(self):
        u = haar_random_unitary(SpinParams(1), 0)
        with pytest.raises(ValueError):
            unitary_fractional_power(u, 1.5)


class TestSpectralFunction:
    def test_identity_map(self):
        h = random_hermitian(7, 3)
        np.testing.assert_allclose(spectral_function(h, lambda x: x), h, atol=1e-12)

    def test_phases_on_diagonal_input(self):
        spin = SpinParams(2)
        _, _, jz = angular_momentum_ops(spin)
        theta = 0.7
        out = spectral_function(jz, lambda x: np.exp(-1j * theta * x))
        expected = np.diag(np.exp(-1j * theta * spin.z_projections()))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_rotation_matches_taylor_oracle(self):
        spin = SpinParams(1)
        jx, _, _ = angular_momentum_ops(spin)
        alpha = 1.4
        ours = spectral_function(jx, lambda x: np.exp(-1j * alpha * x))
        oracle = taylor_expm(-1j * alpha * jx)
        np.testing.assert_allclose(ours, oracle, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_phase_map_gives_unitary(self, seed):
        h = random_hermitian(9, seed + 40)
        u = spectral_function(h, lambda x: np.exp(-1j * 0.9 * x))
        assert np.max(np.abs(u.conj().T @ u - np.eye(9))) < 1e-10


class TestFrobeniusDistance:
    def test_identity(self):
        assert frobenius_distance_to_identity(np.eye(6)) == 0.0

    def test_minus_identity_qubit(self):
        assert abs(frobenius_distance_to_identity(-np.eye(2)) - 2 * np.sqrt(2)) < 1e-12

    def test_nondecreasing_in_eta(self):
        u = haar_random_unitary(SpinParams(10), 17)
        dists = [
            frobenius_distance_to_identity(unitary_fractional_power(u, eta))
            for eta in (0.0, 0.25, 0.5, 1.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))
