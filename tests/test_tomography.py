"""Tests for records, least-squares estimation, and the physicality projection."""

import numpy as np
import pytest

from chaostomo import (
    KickedTopParams,
    MeasurementRecord,
    ProjectionConvergenceError,
    SpinParams,
    angular_momentum_ops,
    covariance,
    design_matrix,
    ensemble_average_fidelity,
    fidelity,
    fidelity_matrix,
    floquet_map,
    floquet_pair,
    from_bloch,
    haar_random_state,
    hermitian_basis,
    initial_observable,
    ml_estimate,
    operator_trajectory,
    psd_project,
    pure_state_density,
    reconstruct,
    simulate_record,
    to_bloch,
)
from oracles import qubit_boundary_grid_minimum


@pytest.fixture(scope="module")
def spin5():
    return SpinParams(2)


@pytest.fixture(scope="module")
def basis5(spin5):
    return hermitian_basis(spin5)


def kicked_trajectory(spin, lam=3.0, dlam=0.0, n=40, obs_seed=3, perturbed=False):
    p = KickedTopParams(lam, 1.4, dlam, spin)
    u = floquet_map(p, use_perturbed=perturbed)
    obs = initial_observable(spin, obs_seed)
    return operator_trajectory(obs, u, n)


def complete_basis_trajectory(basis):
    """A trajectory whose measured operators are the basis itself (step 0 is a
    placeholder and never measured), so the record is informationally complete."""
    return np.concatenate([basis[:1], basis])


class TestSimulateRecord:
    def test_maximally_mixed_traceless_gives_zero(self, spin5, basis5):
        traj = kicked_trajectory(spin5)
        rec = simulate_record(np.eye(5) / 5, traj, 0.0, 1)
        assert len(rec) == 40
        assert np.max(np.abs(rec.values)) < 1e-12

    def test_noiseless_matches_pure_expectations(self, spin5):
        traj = kicked_trajectory(spin5)
        psi = haar_random_state(spin5, 7)
        rec = simulate_record(pure_state_density(psi), traj, 0.0, 2)
        expected = np.array([(psi.conj() @ traj[k] @ psi).real for k in range(1, 41)])
        np.testing.assert_allclose(rec.values, expected, atol=1e-12)

    def test_noise_mean_calibration(self, spin5):
        # Monte Carlo oracle: the added noise must average to zero at the
        # sigma/sqrt(n_samples) scale.
        traj = kicked_trajectory(spin5, n=5)
        rho = np.eye(5) / 5
        sigma, n_samples = 0.1, 10_000
        seeds = np.random.SeedSequence(3).spawn(n_samples)
        draws = np.array([simulate_record(rho, traj, sigma, s).values[3] for s in seeds])
        assert abs(draws.mean()) < 3 * sigma / np.sqrt(n_samples)

    def test_rejects_negative_sigma_and_mismatch(self, spin5):
        traj = kicked_trajectory(spin5)
        with pytest.raises(ValueError):
            simulate_record(np.eye(5) / 5, traj, -0.1, 0)
        with pytest.raises(ValueError):
            simulate_record(np.eye(4) / 4, traj, 0.1, 0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_rejects_non_finite_sigma(self, spin5, sigma):
        with pytest.raises(ValueError, match="sigma"):
            simulate_record(np.eye(5) / 5, kicked_trajectory(spin5), sigma, 0)


class TestDesignMatrix:
    def test_basis_element_row(self, basis5):
        rows = design_matrix(basis5[:1], basis5)
        expected = np.zeros(24)
        expected[0] = 1.0
        np.testing.assert_allclose(rows[0], expected, atol=1e-12)

    def test_jz_hits_only_diagonal_sector(self, spin5, basis5):
        # Diagonal generators sit at the end of the canonical ordering.
        _, _, jz = angular_momentum_ops(spin5)
        row = design_matrix(jz[None, :, :], basis5)[0]
        off_diagonal_count = 2 * (5 * 4 // 2)
        assert np.max(np.abs(row[:off_diagonal_count])) < 1e-12
        assert np.max(np.abs(row[off_diagonal_count:])) > 0.1

    def test_row_norm_equals_operator_norm(self, spin5, basis5):
        traj = kicked_trajectory(spin5, n=10)
        rows = design_matrix(traj[1:], basis5)
        op_norms = np.einsum("kij,kji->k", traj[1:], traj[1:]).real
        np.testing.assert_allclose((rows**2).sum(axis=1), op_norms, rtol=1e-8)

    def test_rank_deficiency_of_kicked_records(self, spin5, basis5):
        # The diagonal sector of the Floquet eigenbasis collapses to one
        # direction, leaving out >= d-2 dimensions.
        traj = kicked_trajectory(spin5, n=60)
        cov = covariance(design_matrix(traj[1:], basis5))
        assert cov.rank <= 5 * 5 - 5 + 1


class TestCovariance:
    def test_projector_input(self, basis5):
        design = np.zeros((3, 24))
        design[0, 0] = design[1, 5] = design[2, 11] = 1.0
        cov = covariance(design)
        expected = np.zeros((24, 24))
        for i in (0, 5, 11):
            expected[i, i] = 1.0
        np.testing.assert_allclose(cov.entries, expected, atol=1e-12)
        assert cov.rank == 3

    def test_zero_design_signaled(self):
        cov = covariance(np.zeros((4, 10)))
        assert cov.rank == 0
        assert np.all(cov.entries == 0)

    def test_rejects_bad_rcond(self):
        with pytest.raises(ValueError):
            covariance(np.eye(3), rcond=0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_penrose_conditions(self, seed):
        # Numeric oracle: Moore-Penrose identities for a rank-deficient design.
        rng = np.random.default_rng(seed)
        rank = rng.integers(3, 12)
        design = rng.standard_normal((30, rank)) @ rng.standard_normal((rank, 40))
        cov = covariance(design)
        a = design.T @ design
        c = cov.entries
        scale = np.linalg.eigvalsh(a)[-1]
        assert cov.rank == rank
        assert np.max(np.abs(a @ c @ a - a)) < 1e-8 * scale
        assert np.max(np.abs(c @ a @ c - c)) < 1e-8 * np.max(np.abs(c))
        assert np.max(np.abs(a @ c - (a @ c).T)) < 1e-8


class TestMlEstimate:
    def test_complete_noiseless_recovery(self, spin5, basis5):
        psi = haar_random_state(spin5, 21)
        rho0 = pure_state_density(psi)
        traj = complete_basis_trajectory(basis5)
        rec = simulate_record(rho0, traj, 0.0, 0)
        design = design_matrix(traj[1:], basis5)
        r_ml = ml_estimate(covariance(design), design, rec)
        np.testing.assert_allclose(r_ml, to_bloch(rho0, basis5), atol=1e-8)

    def test_single_direction_record(self, spin5, basis5):
        psi = haar_random_state(spin5, 22)
        rho0 = pure_state_density(psi)
        traj = np.concatenate([basis5[:1], basis5[:1]])
        rec = simulate_record(rho0, traj, 0.0, 0)
        design = design_matrix(traj[1:], basis5)
        r_ml = ml_estimate(covariance(design), design, rec)
        assert abs(r_ml[0] - to_bloch(rho0, basis5)[0]) < 1e-10
        assert np.max(np.abs(r_ml[1:])) < 1e-10

    def test_rank_deficient_zero_residual(self, spin5, basis5):
        psi = haar_random_state(spin5, 23)
        traj = kicked_trajectory(spin5, n=15)
        rec = simulate_record(pure_state_density(psi), traj, 0.0, 0)
        design = design_matrix(traj[1:], basis5)
        r_ml = ml_estimate(covariance(design), design, rec)
        # Residual oracle: noiseless records lie in the design's range.
        assert np.max(np.abs(design @ r_ml - rec.values)) < 1e-8

    def test_null_space_components_vanish(self, spin5, basis5):
        traj = kicked_trajectory(spin5, n=15)
        design = design_matrix(traj[1:], basis5)
        rec = simulate_record(pure_state_density(haar_random_state(spin5, 2)), traj, 0.05, 5)
        r_ml = ml_estimate(covariance(design), design, rec)
        _, s, vt = np.linalg.svd(design)
        null_vectors = vt[np.sum(s > 1e-10 * s[0]):]
        assert np.max(np.abs(null_vectors @ r_ml)) < 1e-10

    def test_shape_mismatch(self, basis5):
        with pytest.raises(ValueError):
            ml_estimate(covariance(np.eye(24)), np.eye(24), MeasurementRecord(np.zeros(3), 0.0))


class TestPsdProject:
    def test_feasible_point_unchanged(self, basis5):
        spin = SpinParams(0.5)
        basis = hermitian_basis(spin)
        r = np.array([0.1, -0.2, 0.3])
        r_bar, rho_bar = psd_project(r, np.eye(3), basis)
        np.testing.assert_allclose(r_bar, r, atol=1e-7)
        assert np.linalg.eigvalsh(rho_bar)[0] > -1e-9

    def test_zero_estimate_gives_maximally_mixed(self, basis5):
        r_bar, rho_bar = psd_project(np.zeros(24), np.eye(24), basis5)
        assert np.max(np.abs(r_bar)) < 1e-12
        np.testing.assert_allclose(rho_bar, np.eye(5) / 5, atol=1e-12)

    def test_qubit_grid_oracle_isotropic(self):
        spin = SpinParams(0.5)
        basis = hermitian_basis(spin)
        r_ml = np.array([0.9, 0.4, -0.3])
        r_bar, _ = psd_project(r_ml, np.eye(3), basis)
        ours = (r_bar - r_ml) @ (r_bar - r_ml)
        grid = qubit_boundary_grid_minimum(np.eye(3), r_ml)
        assert abs(ours - grid) < 1e-4

    def test_objective_beats_maximally_mixed(self, spin5, basis5):
        rng = np.random.default_rng(8)
        for _ in range(5):
            r_ml = rng.standard_normal(24)
            b = rng.standard_normal((10, 24))
            weight = b.T @ b
            r_bar, rho_bar = psd_project(r_ml, weight, basis5)
            ours = (r_bar - r_ml) @ weight @ (r_bar - r_ml)
            mixed = r_ml @ weight @ r_ml  # r = 0 is always feasible
            assert ours <= mixed + 1e-9
            assert np.linalg.eigvalsh(rho_bar)[0] > -1e-9
            assert abs(np.trace(rho_bar).real - 1) < 1e-10

    def test_iteration_cap_carries_best_iterate(self, basis5):
        # A strongly anisotropic weight cannot be solved in one iteration.
        r_ml = np.full(24, 2.0)
        weight = np.diag(np.logspace(0, 4, 24))
        with pytest.raises(ProjectionConvergenceError) as err:
            psd_project(r_ml, weight, basis5, max_iter=1)
        rho = err.value.rho_bar
        assert rho.shape == (5, 5)
        assert np.linalg.eigvalsh(rho)[0] > -1e-9
        assert abs(np.trace(rho).real - 1) < 1e-10


class TestReconstructAndFidelity:
    def test_fidelity_values(self, spin5):
        psi = haar_random_state(spin5, 1)
        assert abs(fidelity(psi, pure_state_density(psi)) - 1) < 1e-12
        assert abs(fidelity(psi, np.eye(5) / 5) - 0.2) < 1e-12
        phi = np.zeros(5, dtype=complex)
        phi[0] = 1.0
        psi_perp = psi - (phi.conj() @ psi) * 0  # build an orthogonal state directly
        psi_perp = phi - (psi.conj() @ phi) * psi
        psi_perp /= np.linalg.norm(psi_perp)
        assert fidelity(psi_perp, pure_state_density(psi)) < 1e-12

    def test_ideal_limit_complete_record(self, spin5, basis5):
        psi = haar_random_state(spin5, 31)
        rho0 = pure_state_density(psi)
        traj = complete_basis_trajectory(basis5)
        rec = simulate_record(rho0, traj, 0.0, 0)
        est = reconstruct(rec, traj, basis5, psi0=psi)
        assert est.fidelity >= 1 - 1e-6

    def test_all_zero_record(self, spin5, basis5):
        traj = kicked_trajectory(spin5, n=20)
        rec = MeasurementRecord(np.zeros(20), 0.0)
        est = reconstruct(rec, traj, basis5)
        assert np.max(np.abs(est.r_bar)) < 1e-10
        np.testing.assert_allclose(est.rho_bar, np.eye(5) / 5, atol=1e-10)
        assert est.fidelity is None

    @pytest.mark.parametrize("scale", [0.0, 1e-20])
    def test_vanishing_record_at_full_scale(self, scale):
        # rho_ml is (almost) I/d, so the fitted-record energy is (almost) 0
        # while the objective wobbles at rounding level; the stop must still
        # fire instead of running into the iteration cap.
        spin = SpinParams(10)
        traj = kicked_trajectory(spin, lam=7.0, n=60, obs_seed=0)
        values = scale * np.random.default_rng(0).normal(size=60)
        est = reconstruct(MeasurementRecord(values, 0.0), traj, hermitian_basis(spin))
        np.testing.assert_allclose(est.rho_bar, np.eye(21) / 21, atol=1e-10)

    def test_data_consistency_matched_noiseless(self, spin5, basis5):
        # n >= d^2 so the measured span has saturated.
        traj = kicked_trajectory(spin5, n=30)
        psi = haar_random_state(spin5, 12)
        rec = simulate_record(pure_state_density(psi), traj, 0.0, 0)
        est = reconstruct(rec, traj, basis5)
        design = design_matrix(traj[1:], basis5)
        assert np.max(np.abs(design @ est.r_bar - rec.values)) < 1e-6

    def test_basis_permutation_invariance(self, spin5, basis5):
        traj = kicked_trajectory(spin5, n=25)
        psi = haar_random_state(spin5, 14)
        rec = simulate_record(pure_state_density(psi), traj, 0.01, 9)
        rng = np.random.default_rng(0)
        perm = rng.permutation(24)
        f1 = reconstruct(rec, traj, basis5, psi0=psi).fidelity
        f2 = reconstruct(rec, traj, basis5[perm], psi0=psi).fidelity
        assert abs(f1 - f2) < 1e-9

    def test_rejects_length_mismatch(self, spin5, basis5):
        traj = kicked_trajectory(spin5, n=10)
        with pytest.raises(ValueError):
            reconstruct(MeasurementRecord(np.zeros(10), 0.0), traj[1:], basis5)

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_matches_public_bloch_chain(self, spin5, basis5, sigma):
        # reconstruct solves in operator space; the public Bloch chain
        # (covariance -> ml_estimate -> psd_project) must give the same estimate.
        traj = kicked_trajectory(spin5, n=40)
        psi = haar_random_state(spin5, 17)
        rec = simulate_record(pure_state_density(psi), traj, sigma, 4)
        est = reconstruct(rec, traj, basis5)
        design = design_matrix(traj[1:], basis5)
        r_ml = ml_estimate(covariance(design), design, rec)
        _, rho_bar = psd_project(r_ml, design.T @ design, basis5)
        np.testing.assert_allclose(est.r_ml, r_ml, rtol=0, atol=1e-9)
        np.testing.assert_allclose(est.rho_bar, rho_bar, rtol=0, atol=1e-9)


class TestEnsemble:
    def test_single_state_matches_matrix_row(self, spin5, basis5):
        traj_true = kicked_trajectory(spin5, dlam=0.01, n=15, perturbed=True)
        traj_ideal = kicked_trajectory(spin5, dlam=0.01, n=15, perturbed=False)
        psi = haar_random_state(spin5, 3)
        series = ensemble_average_fidelity(
            psi[None, :], traj_true, traj_ideal, basis5, 0.02, 77
        )
        matrix = fidelity_matrix(psi[None, :], traj_true, traj_ideal, basis5, 0.02, 77)
        np.testing.assert_array_equal(series.values, matrix[0])
        assert np.all(series.stderr == 0)
        assert series.times[0] == 1 and series.times[-1] == 15

    def test_growing_ensemble_keeps_early_states(self, spin5, basis5):
        traj = kicked_trajectory(spin5, n=12)
        states = np.stack([haar_random_state(spin5, 50 + i) for i in range(3)])
        # The per-state noise streams are keyed by state index, so they are
        # bit-identical regardless of ensemble size.
        rho0 = pure_state_density(states[0])
        child_of_two = np.random.SeedSequence(123).spawn(2)[0]
        child_of_three = np.random.SeedSequence(123).spawn(3)[0]
        np.testing.assert_array_equal(
            simulate_record(rho0, traj, 0.05, child_of_two).values,
            simulate_record(rho0, traj, 0.05, child_of_three).values,
        )
        # Curves agree to solver precision (batch shape changes BLAS blocking,
        # so bitwise equality across batch sizes is not guaranteed).
        two = fidelity_matrix(states[:2], traj, traj, basis5, 0.05, 123)
        three = fidelity_matrix(states, traj, traj, basis5, 0.05, 123)
        np.testing.assert_allclose(two, three[:2], atol=1e-9)

    def test_seed_sequence_not_advanced(self, spin5, basis5):
        # Noise children come from the sequence without spawning from it, so
        # the same object gives the same noise on every call, and the same
        # noise as its integer seed.
        traj_true = kicked_trajectory(spin5, dlam=0.01, n=12, perturbed=True)
        traj_ideal = kicked_trajectory(spin5, dlam=0.01, n=12, perturbed=False)
        states = np.stack([haar_random_state(spin5, 80 + i) for i in range(2)])
        seq = np.random.SeedSequence(31)
        first = fidelity_matrix(states, traj_true, traj_ideal, basis5, 0.2, seq)
        second = fidelity_matrix(states, traj_true, traj_ideal, basis5, 0.2, seq)
        from_int = fidelity_matrix(states, traj_true, traj_ideal, basis5, 0.2, 31)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, from_int)

    def test_iteration_cap_carries_best_iterates(self, spin5, basis5):
        traj = kicked_trajectory(spin5, n=10)
        states = np.stack([haar_random_state(spin5, 70 + i) for i in range(2)])
        with pytest.raises(ProjectionConvergenceError) as err:
            fidelity_matrix(states, traj, traj, basis5, 0.05, 3, max_iter=1)
        assert err.value.r_bar.shape == (2, 24)
        assert err.value.rho_bar.shape == (2, 5, 5)
        for rho in err.value.rho_bar:
            assert np.linalg.eigvalsh(rho)[0] > -1e-9
            assert abs(np.trace(rho).real - 1) < 1e-10

    def test_matched_noiseless_nondecreasing_small(self, spin5, basis5):
        traj = kicked_trajectory(spin5, lam=7.0, n=30)
        states = np.stack([haar_random_state(spin5, 60 + i) for i in range(2)])
        matrix = fidelity_matrix(states, traj, traj, basis5, 0.0, 5)
        assert np.all(np.diff(matrix, axis=1) > -1e-6)

    def test_exactly_fitted_rows_stop_early(self):
        # At k << d^2 - 1 the fit is exact and the optimum objective is 0, so
        # a relative-change stop cannot fire; without the certified floor one
        # step of this d = 21 sweep needs 369 iterations.
        spin = SpinParams(10)
        pair = floquet_pair(KickedTopParams(7.0, 1.4, 0.01, spin))
        obs = initial_observable(spin, 1)
        traj_true = operator_trajectory(obs, pair.true_perturbed, 24)
        traj_ideal = operator_trajectory(obs, pair.ideal, 24)
        states = np.stack([haar_random_state(spin, 510 + i) for i in range(2)])
        matrix = fidelity_matrix(
            states, traj_true, traj_ideal, hermitian_basis(spin), 0.1, 1, max_iter=100
        )
        assert matrix.shape == (2, 24)

    def test_matched_noiseless_reaches_state(self, spin5, basis5):
        # The floor _FIT_TOL must stay tight enough that a complete noiseless
        # record recovers the state and the curve does not dip.
        pair = floquet_pair(KickedTopParams(7.0, 1.4, 0.0, spin5))
        obs = initial_observable(spin5, 0)
        traj_true = operator_trajectory(obs, pair.true_perturbed, 40)
        traj_ideal = operator_trajectory(obs, pair.ideal, 40)
        states = np.stack([haar_random_state(spin5, 100 + i) for i in range(3)])
        matrix = fidelity_matrix(states, traj_true, traj_ideal, basis5, 0.0, 1)
        assert matrix[:, -1].min() >= 1 - 1e-6
        assert np.diff(matrix, axis=1).min() >= -1e-6
