"""Tests for the echo, relative-entropy, and incompatibility diagnostics."""

import math

import numpy as np
import pytest

from chaostomo import (
    KickedTopParams,
    SpinParams,
    angular_momentum_ops,
    floquet_pair,
    haar_random_unitary,
    incompatibility_otoc_form,
    initial_observable,
    loschmidt_echo,
    operator_incompatibility,
    operator_trajectory,
    regularize,
    relative_entropy,
    relative_entropy_series,
)


@pytest.fixture(scope="module")
def spin10():
    return SpinParams(10)


def trajectories(spin, lam, dlam, n, alpha=1.4, obs_seed=5):
    pair = floquet_pair(KickedTopParams(lam, alpha, dlam, spin))
    obs = initial_observable(spin, obs_seed)
    return (
        operator_trajectory(obs, pair.true_perturbed, n),
        operator_trajectory(obs, pair.ideal, n),
        pair,
        obs,
    )


class TestLoschmidtEcho:
    def test_starts_at_one_and_bounded(self, spin10):
        traj_true, traj_ideal, _, _ = trajectories(spin10, 3.0, 0.01, 60)
        series = loschmidt_echo(traj_true, traj_ideal)
        assert series.values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(series.values)) <= 1 + 1e-9

    def test_matched_dynamics_stays_at_one(self, spin10):
        traj_true, traj_ideal, _, _ = trajectories(spin10, 3.0, 0.0, 40)
        series = loschmidt_echo(traj_true, traj_ideal)
        np.testing.assert_allclose(series.values, 1.0, atol=1e-10)

    def test_chaotic_dynamics_decays_slower(self, spin10):
        regular = loschmidt_echo(*trajectories(spin10, 0.5, 0.01, 60)[:2])
        chaotic = loschmidt_echo(*trajectories(spin10, 7.0, 0.01, 60)[:2])
        assert chaotic.values[60] > regular.values[60]

    def test_rejects_zero_operator(self, spin10):
        zeros = np.zeros((3, 21, 21))
        with pytest.raises(ValueError):
            loschmidt_echo(zeros, zeros)

    def test_rejects_different_initial_operators(self, spin10):
        t1, _, _, _ = trajectories(spin10, 3.0, 0.01, 5, obs_seed=1)
        t2, _, _, _ = trajectories(spin10, 3.0, 0.01, 5, obs_seed=2)
        with pytest.raises(ValueError):
            loschmidt_echo(t1, t2)


class TestRegularize:
    def test_positive_input_rescaled(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        pos = m @ m.conj().T + np.eye(6)
        out = regularize(pos)
        np.testing.assert_allclose(out, pos / np.trace(pos).real, atol=1e-12)

    def test_jz_spin_one(self):
        _, _, jz = angular_momentum_ops(SpinParams(1))
        out = regularize(jz)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0, 0.5]), atol=1e-12)

    def test_idempotent(self, spin10):
        obs = initial_observable(spin10, 3)
        once = regularize(obs)
        twice = regularize(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            regularize(np.zeros((4, 4)))


class TestRelativeEntropy:
    def test_self_distance_zero(self, spin10):
        rho = regularize(initial_observable(spin10, 9))
        assert abs(relative_entropy(rho, rho)) < 1e-9

    def test_commuting_classical_oracle(self):
        # Scalar KL oracle for commuting diagonal inputs.
        a = np.diag([0.7, 0.3]).astype(complex)
        b = np.diag([0.5, 0.5]).astype(complex)
        expected = 0.7 * math.log(0.7 / 0.5) + 0.3 * math.log(0.3 / 0.5)
        assert abs(relative_entropy(a, b) - expected) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        ops = []
        for _ in range(2):
            m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            ops.append(regularize((m + m.conj().T) / 2))
        assert relative_entropy(*ops) > -1e-9

    def test_rank_deficient_inputs_finite(self):
        # Exact zero eigenvalues hit the floor instead of producing infinities.
        _, _, jz = angular_momentum_ops(SpinParams(1))
        a = regularize(jz)
        b = np.diag([0.2, 0.5, 0.3]).astype(complex)
        value = relative_entropy(a, b)
        assert np.isfinite(value) and value > 0

    def test_series_matched_dynamics(self, spin10):
        traj_true, traj_ideal, _, _ = trajectories(spin10, 2.0, 0.0, 10)
        series = relative_entropy_series(traj_true, traj_ideal)
        assert np.max(np.abs(series.values)) < 1e-9
        assert series.metric_name == "rel_entropy"

    @pytest.mark.parametrize("lam", [0.5, 7.0])
    def test_series_matches_per_step_loop(self, spin10, lam):
        # Reference: regularize each operator, then the two-argument entropy.
        traj_true, traj_ideal, _, _ = trajectories(spin10, lam, 0.01, 40)
        loop = [relative_entropy(regularize(a), regularize(b)) for a, b in zip(traj_true, traj_ideal)]
        series = relative_entropy_series(traj_true, traj_ideal)
        np.testing.assert_allclose(series.values, loop, rtol=0, atol=1e-12)

    def test_series_regular_exceeds_chaotic(self, spin10):
        regular = relative_entropy_series(*trajectories(spin10, 0.5, 0.01, 60)[:2])
        chaotic = relative_entropy_series(*trajectories(spin10, 7.0, 0.01, 60)[:2])
        assert regular.values[60] > chaotic.values[60]


class TestOperatorIncompatibility:
    def test_zero_at_start_and_matched(self, spin10):
        traj_true, traj_ideal, _, _ = trajectories(spin10, 3.0, 0.0, 20)
        series = operator_incompatibility(traj_true, traj_ideal, 10.0)
        assert series.values[0] == 0.0
        assert np.max(series.values) < 1e-12

    def test_symmetric_in_arguments(self, spin10):
        traj_true, traj_ideal, _, _ = trajectories(spin10, 4.0, 0.01, 30)
        ab = operator_incompatibility(traj_true, traj_ideal, 10.0)
        ba = operator_incompatibility(traj_ideal, traj_true, 10.0)
        np.testing.assert_allclose(ab.values, ba.values, rtol=1e-12, atol=1e-15)

    def test_regular_exceeds_chaotic(self, spin10):
        regular = operator_incompatibility(*trajectories(spin10, 0.5, 0.01, 60)[:2], 10.0)
        chaotic = operator_incompatibility(*trajectories(spin10, 7.0, 0.01, 60)[:2], 10.0)
        assert regular.values[60] > chaotic.values[60]

    @pytest.mark.parametrize("n", [0, 7, 25])
    def test_error_unitary_form_matches_direct(self, spin10, n):
        traj_true, traj_ideal, pair, obs = trajectories(spin10, 3.0, 0.01, 25)
        direct = operator_incompatibility(traj_true, traj_ideal, 10.0).values[n]
        via_error = incompatibility_otoc_form(obs, pair, n, 10.0)
        assert via_error == pytest.approx(direct, rel=1e-9, abs=1e-15)


class TestUnitaryCovariance:
    def test_metrics_invariant_under_joint_conjugation(self, spin10):
        traj_true, traj_ideal, _, _ = trajectories(spin10, 5.0, 0.01, 15)
        u = haar_random_unitary(spin10, 33)
        rot_true = u.conj().T @ traj_true @ u
        rot_ideal = u.conj().T @ traj_ideal @ u
        before = (
            loschmidt_echo(traj_true, traj_ideal).values,
            relative_entropy_series(traj_true, traj_ideal).values,
            operator_incompatibility(traj_true, traj_ideal, 10.0).values,
        )
        after = (
            loschmidt_echo(rot_true, rot_ideal).values,
            relative_entropy_series(rot_true, rot_ideal).values,
            operator_incompatibility(rot_true, rot_ideal, 10.0).values,
        )
        for b, a in zip(before, after):
            np.testing.assert_allclose(a, b, atol=1e-9)
