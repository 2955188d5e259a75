"""Tests for the ordered-measurement zero-noise fidelity analysis."""

import numpy as np
import pytest

from chaostomo import (
    SpinParams,
    from_bloch,
    haar_random_state,
    haar_random_unitary,
    hermitian_basis,
    ideal_fidelity_curve,
    measurement_plan,
    pure_state_density,
    to_bloch,
    unitary_fractional_power,
)


@pytest.fixture(scope="module")
def setup21():
    spin = SpinParams(10)
    basis = hermitian_basis(spin)
    u_r = haar_random_unitary(spin, 42)
    return spin, basis, u_r


class TestPerturbedBasis:
    # The perturbed basis W E_a W^dag is read through the rotated state W^dag psi.
    def test_eta_zero_is_identity_map(self, setup21):
        spin, basis, u_r = setup21
        psi = haar_random_state(spin, 7)
        plan = measurement_plan(psi, basis, unitary_fractional_power(u_r, 0.0))
        np.testing.assert_allclose(plan.perturbed_components, plan.true_components, atol=1e-12)

    def test_orthonormality_and_trace_preserved(self, setup21):
        # A traceless orthonormal perturbed basis is complete: its components
        # rebuild the rotated pure state exactly.
        spin, basis, u_r = setup21
        psi = haar_random_state(spin, 7)
        w = unitary_fractional_power(u_r, 0.6)
        plan = measurement_plan(psi, basis, w)
        rebuilt = from_bloch(plan.perturbed_components, basis)
        rotated = w.conj().T @ pure_state_density(psi) @ w
        assert np.max(np.abs(rebuilt - rotated)) < 1e-12
        assert np.sum(plan.perturbed_components**2) == pytest.approx(1 - 1 / 21, abs=1e-12)


class TestMeasurementPlan:
    def test_orders_by_magnitude_with_index_ties(self):
        # (|0> + |1> - |2>) / sqrt(3) at d = 4: the symmetric elements 0, 1, 3
        # tie in magnitude at 2 / (3 sqrt 2) with signs +, -, -, then the last
        # diagonal element at +0.289; all else is 0. A signed sort would put
        # indices 1 and 3 last.
        basis = hermitian_basis(SpinParams(1.5))
        psi = np.array([1.0, 1.0, -1.0, 0.0]) / np.sqrt(3)
        plan = measurement_plan(psi, basis, np.eye(4))
        assert list(plan.permutation[:4]) == [0, 1, 3, 14]
        assert list(plan.permutation[4:]) == sorted(plan.permutation[4:])
        magnitudes = np.abs(plan.true_components[plan.permutation])
        assert np.all(np.diff(magnitudes) <= 1e-12)

    def test_components_match_bases(self, setup21):
        spin, basis, u_r = setup21
        psi = haar_random_state(spin, 8)
        w = unitary_fractional_power(u_r, 0.4)
        plan = measurement_plan(psi, basis, w)
        assert plan.true_components.shape == (440,)
        assert not np.allclose(plan.true_components, plan.perturbed_components)
        # Tr(rho W E_a W^dag) against the rotated basis built inline.
        rotated_basis = w @ basis @ w.conj().T
        expected = to_bloch(pure_state_density(psi), rotated_basis)
        assert np.max(np.abs(plan.perturbed_components - expected)) < 1e-12

    def test_stacked_states_match_single_calls(self, setup21):
        spin, basis, u_r = setup21
        psi = np.stack([haar_random_state(spin, 20 + i) for i in range(3)])
        w = unitary_fractional_power(u_r, 0.3)
        plan = measurement_plan(psi, basis, w)
        assert plan.permutation.shape == (3, 440)
        for i, state in enumerate(psi):
            single = measurement_plan(state, basis, w)
            np.testing.assert_array_equal(plan.permutation[i], single.permutation)
            np.testing.assert_allclose(plan.true_components[i], single.true_components, rtol=0, atol=1e-15)
            np.testing.assert_allclose(plan.perturbed_components[i], single.perturbed_components, rtol=0, atol=1e-15)

    def test_stacked_rotations_match_single_calls(self, setup21):
        # One order and one set of true components serve every rotation.
        spin, basis, u_r = setup21
        psi = np.stack([haar_random_state(spin, 40 + i) for i in range(3)])
        rotations = np.stack([unitary_fractional_power(u_r, eta) for eta in (0.0, 0.1, 0.3)])
        plan = measurement_plan(psi, basis, rotations)
        assert plan.permutation.shape == (3, 440)
        assert plan.perturbed_components.shape == (3, 3, 440)
        for w, perturbed in zip(rotations, plan.perturbed_components):
            single = measurement_plan(psi, basis, w)
            np.testing.assert_array_equal(plan.permutation, single.permutation)
            np.testing.assert_array_equal(plan.true_components, single.true_components)
            np.testing.assert_array_equal(perturbed, single.perturbed_components)


class TestIdealFidelityCurve:
    def test_unperturbed_curve_anchors_and_monotone(self, setup21):
        spin, basis, _ = setup21
        curve = ideal_fidelity_curve(haar_random_state(spin, 12), basis, np.eye(21))
        assert curve.shape == (441,)
        assert curve[0] == pytest.approx(1 / 21, abs=1e-12)
        assert curve[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(curve) >= -1e-15)
        assert np.max(curve) <= 1 + 1e-9

    def test_rejects_mixed_state(self, setup21):
        # A density matrix is no stack of unit vectors: the maximally mixed
        # state's rows have norm 1/21.
        spin, basis, _ = setup21
        with pytest.raises(ValueError):
            ideal_fidelity_curve(np.eye(21) / 21, basis, np.eye(21))

    def test_perturbed_curve_below_at_late_times(self, setup21):
        spin, basis, u_r = setup21
        psi = haar_random_state(spin, 13)
        base = ideal_fidelity_curve(psi, basis, np.eye(21))
        for eta in (0.1, 0.3):
            curve = ideal_fidelity_curve(psi, basis, unitary_fractional_power(u_r, eta))
            assert np.all(curve[51:] <= base[51:] + 1e-12)

    def test_continuity_in_eta(self, setup21):
        spin, basis, u_r = setup21
        psi = haar_random_state(spin, 14)
        base = ideal_fidelity_curve(psi, basis, np.eye(21))
        gaps = []
        for eta in (1e-3, 1e-2):
            curve = ideal_fidelity_curve(psi, basis, unitary_fractional_power(u_r, eta))
            gaps.append(np.max(np.abs(curve - base)))
            assert gaps[-1] < 10 * eta
        assert gaps[0] < gaps[1]

    def test_stacked_states_match_single_calls(self, setup21):
        spin, basis, u_r = setup21
        psi = np.stack([haar_random_state(spin, 30 + i) for i in range(4)])
        w = unitary_fractional_power(u_r, 0.3)
        curves = ideal_fidelity_curve(psi, basis, w)
        assert curves.shape == (4, 441)
        for curve, state in zip(curves, psi):
            np.testing.assert_allclose(curve, ideal_fidelity_curve(state, basis, w), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n_states", [None, 4])
    def test_stacked_rotations_match_single_calls(self, setup21, n_states):
        spin, basis, u_r = setup21
        if n_states is None:
            psi = haar_random_state(spin, 50)
        else:
            psi = np.stack([haar_random_state(spin, 50 + i) for i in range(n_states)])
        rotations = np.stack([unitary_fractional_power(u_r, eta) for eta in (0.0, 0.1, 0.3)])
        curves = ideal_fidelity_curve(psi, basis, rotations)
        assert curves.shape == (3,) + psi.shape[:-1] + (441,)
        for curve, w in zip(curves, rotations):
            np.testing.assert_array_equal(curve, ideal_fidelity_curve(psi, basis, w))
