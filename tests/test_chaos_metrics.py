"""Tests for the echo, relative-entropy, and incompatibility diagnostics."""

import math

import numpy as np
import pytest

from chaostomo import (
    FloquetPair,
    KickedTopParams,
    SpinParams,
    angular_momentum_ops,
    error_unitary,
    floquet_pair,
    haar_random_unitary,
    incompatibility_otoc_form,
    initial_observable,
    loschmidt_echo,
    operator_incompatibility,
    operator_series,
    operator_trajectory,
    regularize,
    relative_entropy,
    relative_entropy_series,
)


@pytest.fixture(scope="module")
def spin10():
    return SpinParams(10)


def pair_and_observable(spin, lam, dlam, alpha=1.4, obs_seed=5):
    return floquet_pair(KickedTopParams(lam, alpha, dlam, spin)), initial_observable(spin, obs_seed)


def trajectories(spin, lam, dlam, n, alpha=1.4, obs_seed=5):
    pair, obs = pair_and_observable(spin, lam, dlam, alpha, obs_seed)
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
        pair, obs = pair_and_observable(spin10, 2.0, 0.0)
        series = relative_entropy_series(obs, pair, 10)
        assert len(series) == 11
        assert np.max(np.abs(series.values)) < 1e-9
        assert series.metric_name == "rel_entropy"

    @pytest.mark.parametrize("lam", [0.5, 7.0])
    def test_series_matches_per_step_loop(self, spin10, lam):
        # Reference: regularize each evolved operator, then the two-argument entropy.
        traj_true, traj_ideal, pair, obs = trajectories(spin10, lam, 0.01, 40)
        loop = [relative_entropy(regularize(a), regularize(b)) for a, b in zip(traj_true, traj_ideal)]
        series = relative_entropy_series(obs, pair, 40)
        np.testing.assert_allclose(series.values, loop, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [0, 7, 25])
    def test_series_matches_error_unitary_form(self, spin10, n):
        # Conjugating both step-n operators by U^n leaves the entropy of the
        # regularized O against E_n^dag reg(O) E_n, E_n the error unitary.
        pair, obs = pair_and_observable(spin10, 3.0, 0.01)
        reg = regularize(obs)
        e = error_unitary(pair, n)
        via_error = relative_entropy(reg, e.conj().T @ reg @ e)
        series = relative_entropy_series(obs, pair, 25)
        assert series.values[n] == pytest.approx(via_error, rel=1e-9, abs=1e-12)

    def test_series_rejects_bad_input(self, spin10):
        pair, obs = pair_and_observable(spin10, 3.0, 0.01)
        with pytest.raises(ValueError):
            relative_entropy_series(obs[:5, :5], pair, 3)
        with pytest.raises(ValueError):
            relative_entropy_series(obs, pair, -1)

    def test_series_regular_exceeds_chaotic(self, spin10):
        pair, obs = pair_and_observable(spin10, 0.5, 0.01)
        regular = relative_entropy_series(obs, pair, 60)
        pair, obs = pair_and_observable(spin10, 7.0, 0.01)
        chaotic = relative_entropy_series(obs, pair, 60)
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


class TestOperatorSeries:
    """The echo and incompatibility series from the eigenvector overlaps
    against their trajectory definitions, and the stacked evolution against
    its one-pair calls."""

    @pytest.mark.parametrize("dlam", [0.0, 0.01])
    @pytest.mark.parametrize("lam", [0.5, 2.5, 7.0])
    def test_match_trajectory_forms(self, spin10, lam, dlam):
        traj_true, traj_ideal, pair, obs = trajectories(spin10, lam, dlam, 200)
        echo = operator_series("loschmidt", obs, [pair], 200, 10.0)[0]
        otoc = operator_series("otoc", obs, [pair], 200, 10.0)[0]
        checks = [
            (echo, loschmidt_echo(traj_true, traj_ideal).values),
            (otoc, operator_incompatibility(traj_true, traj_ideal, 10.0).values),
        ]
        for values, reference in checks:
            assert values.shape == reference.shape
            error = np.abs(values - reference)
            assert np.all(error <= 1e-12 * np.maximum(np.abs(reference), 1e-5))
        assert abs(echo[0] - 1) <= 1e-12
        # A sum of non-negative terms, so no rounding can make it negative.
        assert np.all(otoc >= 0)

    @pytest.mark.parametrize("metric", ["loschmidt", "rel_entropy", "otoc"])
    def test_stacked_pairs_match_one_pair_calls(self, spin10, metric):
        obs = initial_observable(spin10, 5)
        pairs = [floquet_pair(KickedTopParams(lam, 1.4, 0.01, spin10)) for lam in (0.5, 2.5, 7.0)]
        stacked = operator_series(metric, obs, pairs, 60, 10.0)
        assert stacked.shape == (3, 61)
        for row, pair in zip(stacked, pairs):
            np.testing.assert_array_equal(row, operator_series(metric, obs, [pair], 60, 10.0)[0])

    @pytest.mark.parametrize("metric", ["loschmidt", "rel_entropy", "otoc"])
    def test_reject_bad_input(self, spin10, metric):
        pair, obs = pair_and_observable(spin10, 3.0, 0.01)
        with pytest.raises(ValueError):
            operator_series(metric, obs[:5, :5], [pair], 3)
        with pytest.raises(ValueError):
            operator_series(metric, obs, [pair], -1)

    def test_reject_unknown_metric(self, spin10):
        pair, obs = pair_and_observable(spin10, 3.0, 0.01)
        with pytest.raises(ValueError, match="metric"):
            operator_series("entropy", obs, [pair], 3)

    @pytest.mark.parametrize("metric", ["loschmidt", "rel_entropy"])
    def test_reject_zero_observable(self, spin10, metric):
        # Neither normalizes O = 0; the incompatibility is simply 0 there.
        pair, obs = pair_and_observable(spin10, 3.0, 0.01)
        with pytest.raises(ValueError):
            operator_series(metric, np.zeros_like(obs), [pair], 3)


class TestUnitaryCovariance:
    def test_metrics_invariant_under_joint_conjugation(self, spin10):
        # Conjugating O and both Floquet maps by u conjugates every evolved operator.
        traj_true, traj_ideal, pair, obs = trajectories(spin10, 5.0, 0.01, 15)
        u = haar_random_unitary(spin10, 33)
        rot_obs = u.conj().T @ obs @ u
        rot_pair = FloquetPair(
            ideal=u.conj().T @ pair.ideal @ u, true_perturbed=u.conj().T @ pair.true_perturbed @ u
        )
        rot_true = operator_trajectory(rot_obs, rot_pair.true_perturbed, 15)
        rot_ideal = operator_trajectory(rot_obs, rot_pair.ideal, 15)
        before = (
            loschmidt_echo(traj_true, traj_ideal).values,
            relative_entropy_series(obs, pair, 15).values,
            operator_incompatibility(traj_true, traj_ideal, 10.0).values,
        )
        after = (
            loschmidt_echo(rot_true, rot_ideal).values,
            relative_entropy_series(rot_obs, rot_pair, 15).values,
            operator_incompatibility(rot_true, rot_ideal, 10.0).values,
        )
        for b, a in zip(before, after):
            np.testing.assert_allclose(a, b, atol=1e-9)
