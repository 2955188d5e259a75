"""Tests for the Floquet maps, Heisenberg trajectories, and error unitary."""

import numpy as np
import pytest

from chaostomo import (
    KickedTopParams,
    SpinParams,
    angular_momentum_ops,
    error_unitary,
    floquet_map,
    floquet_pair,
    frobenius_distance_to_identity,
    initial_observable,
    operator_trajectory,
    spectral_function,
)
from oracles import taylor_expm


def params(lam, alpha=1.4, dlam=0.0, j=10):
    return KickedTopParams(lam, alpha, dlam, SpinParams(j))


class TestFloquetMap:
    def test_zero_kick_is_pure_rotation(self):
        p = params(0.0, alpha=1.1, j=3)
        jx, _, _ = angular_momentum_ops(p.spin)
        rotation = spectral_function(jx, lambda x: np.exp(-1j * 1.1 * x))
        np.testing.assert_allclose(floquet_map(p), rotation, atol=1e-13)

    def test_qubit_kick_is_global_phase(self):
        # Jz^2 = I/4 for spin one half and the twist exponent divides by 2j = 1,
        # so the kick contributes the global phase exp(-i lam/4).
        p = params(2.0, alpha=0.9, j=0.5)
        u = floquet_map(p)
        p0 = params(0.0, alpha=0.9, j=0.5)
        np.testing.assert_allclose(u, np.exp(-1j * 2.0 / 4) * floquet_map(p0), atol=1e-13)

    def test_unitarity_strong_kick(self):
        u = floquet_map(params(7.0))
        assert np.max(np.abs(u.conj().T @ u - np.eye(21))) < 1e-10

    def test_perturbed_matches_shifted_kick(self):
        lam, dlam = 3.0, 0.01
        perturbed = floquet_map(params(lam, dlam=dlam), use_perturbed=True)
        shifted = floquet_map(params(lam + dlam))
        np.testing.assert_allclose(perturbed, shifted, atol=1e-15)

    def test_pair_identical_when_unperturbed(self):
        pair = floquet_pair(params(5.0, dlam=0.0))
        np.testing.assert_array_equal(pair.ideal, pair.true_perturbed)

    def test_pair_members_match_kick_times_rotation(self):
        # The pair shares one rotation factor; each map equals, bit for bit,
        # its own kick column times a rotation factor built for it alone.
        p = params(7.0, dlam=0.01)
        jx, _, _ = angular_momentum_ops(p.spin)
        m = p.spin.z_projections()
        pair = floquet_pair(p)
        for u, lam in ((pair.ideal, 7.0 + 0.0), (pair.true_perturbed, 7.0 + 0.01)):
            rotation = spectral_function(jx, lambda x: np.exp(-1j * 1.4 * x))
            kick = np.exp(-1j * lam * m**2 / (2.0 * p.spin.j))
            np.testing.assert_array_equal(u, kick[:, None] * rotation)
        np.testing.assert_array_equal(floquet_map(p, use_perturbed=True), pair.true_perturbed)


class TestInitialObservable:
    def test_traceless_and_spectrum(self):
        spin = SpinParams(10)
        obs = initial_observable(spin, 4)
        assert abs(np.trace(obs)) < 1e-10
        eigs = np.sort(np.linalg.eigvalsh(obs))
        np.testing.assert_allclose(eigs, np.arange(-10, 11), atol=1e-10)

    def test_deterministic(self):
        spin = SpinParams(3)
        np.testing.assert_array_equal(
            initial_observable(spin, 8), initial_observable(spin, 8)
        )


class TestOperatorTrajectory:
    def test_zero_steps(self):
        spin = SpinParams(1)
        jx, _, _ = angular_momentum_ops(spin)
        traj = operator_trajectory(jx, floquet_map(params(1.0, j=1)), 0)
        assert traj.shape == (1, 3, 3)
        np.testing.assert_array_equal(traj[0], jx)

    def test_norm_conservation(self):
        spin = SpinParams(10)
        obs = initial_observable(spin, 1)
        traj = operator_trajectory(obs, floquet_map(params(7.0)), 50)
        norms = np.einsum("kij,kji->k", traj, traj).real
        np.testing.assert_allclose(norms, norms[0], rtol=1e-8)

    def test_spectrum_invariant_along_trajectory(self):
        spin = SpinParams(10)
        obs = initial_observable(spin, 2)
        traj = operator_trajectory(obs, floquet_map(params(3.0)), 30)
        ref = np.sort(np.linalg.eigvalsh(traj[0]))
        for k in (10, 30):
            np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(traj[k])), ref, atol=1e-8)

    def test_single_step_matches_taylor_oracle(self):
        # Build the same map from truncated-series exponentials only.
        spin = SpinParams(1)
        p = params(3.0, alpha=1.4, j=1)
        jx, _, jz = angular_momentum_ops(spin)
        oracle_u = taylor_expm(-1j * 3.0 * jz @ jz / 2.0) @ taylor_expm(-1j * 1.4 * jx)
        obs = initial_observable(spin, 6)
        expected = oracle_u.conj().T @ obs @ oracle_u
        traj = operator_trajectory(obs, floquet_map(p), 1)
        np.testing.assert_allclose(traj[1], expected, atol=1e-9)

    def test_reversibility(self):
        spin = SpinParams(10)
        obs = initial_observable(spin, 3)
        u = floquet_map(params(7.0))
        forward = operator_trajectory(obs, u, 20)
        back = operator_trajectory(forward[20], u.conj().T, 20)
        np.testing.assert_allclose(back[20], obs, atol=1e-9)

    def test_rejects_negative_steps(self):
        spin = SpinParams(1)
        jx, _, _ = angular_momentum_ops(spin)
        with pytest.raises(ValueError):
            operator_trajectory(jx, floquet_map(params(1.0, j=1)), -1)

    def test_stacked_maps_match_single_calls(self):
        spin = SpinParams(10)
        obs = initial_observable(spin, 4)
        pair = floquet_pair(params(7.0, dlam=0.01))
        maps = np.stack((pair.true_perturbed, pair.ideal))
        traj = operator_trajectory(obs, maps, 25)
        assert traj.shape == (26, 2, 21, 21)
        for i, u in enumerate(maps):
            np.testing.assert_array_equal(traj[:, i], operator_trajectory(obs, u, 25))

    def test_stacked_observables_against_stacked_maps(self):
        # Observables (b, d, d) against maps (2, 1, d, d): batch (2, b).
        spin = SpinParams(2)
        obs = np.stack([initial_observable(spin, 10 + i) for i in range(3)])
        pair = floquet_pair(params(2.5, dlam=0.02, j=2))
        maps = np.stack((pair.true_perturbed, pair.ideal))
        traj = operator_trajectory(obs, maps[:, None], 12)
        assert traj.shape == (13, 2, 3, 5, 5)
        for i, u in enumerate(maps):
            for b, o in enumerate(obs):
                np.testing.assert_array_equal(traj[:, i, b], operator_trajectory(o, u, 12))

    def test_rejects_shape_mismatch(self):
        jx, _, _ = angular_momentum_ops(SpinParams(1))
        with pytest.raises(ValueError):
            operator_trajectory(jx, np.eye(5), 3)

    @pytest.mark.parametrize(
        "obs_shape,u_shape",
        [
            ((3, 3), (2, 5, 5)),  # matrix sizes differ under a stack
            ((2, 3, 4), (3, 4)),  # the maps are not square
            ((3,), (3, 3)),  # the observable is no matrix
            ((3, 3, 3), (2, 3, 3)),  # batches (3,) and (2,) do not broadcast
            ((4, 3, 3), (2, 3, 3, 3)),  # batches (4,) and (2, 3) do not broadcast
        ],
    )
    def test_rejects_stack_mismatch(self, obs_shape, u_shape):
        with pytest.raises(ValueError):
            operator_trajectory(np.zeros(obs_shape), np.zeros(u_shape), 3)


class TestErrorUnitary:
    def test_identity_cases(self):
        pair = floquet_pair(params(3.0, dlam=0.01))
        np.testing.assert_allclose(error_unitary(pair, 0), np.eye(21), atol=1e-12)
        matched = floquet_pair(params(3.0, dlam=0.0))
        np.testing.assert_allclose(error_unitary(matched, 40), np.eye(21), atol=1e-10)

    def test_unitary_and_bounded_distance(self):
        pair = floquet_pair(params(7.0, dlam=0.01))
        previous = 0.0
        for n in (0, 5, 20, 80):
            u = error_unitary(pair, n)
            assert np.max(np.abs(u.conj().T @ u - np.eye(21))) < 1e-10
            dist = frobenius_distance_to_identity(u)
            assert dist <= 2 * np.sqrt(21) + 1e-9
            if n == 0:
                assert dist < 1e-12
            previous = dist
        assert previous > 0
