"""Acceptance suite: one test per criterion, at full problem scale (d = 21).

Each test prints a PASS line once its assertions hold, so `pytest -v -s`
gives one line per criterion. The heavy reconstruction sweep (criterion 4)
runs once in a session fixture and is reused by the determinism check
(criterion 10).
"""

import time

import numpy as np
import pytest

from chaostomo import (
    KickedTopParams,
    SpinParams,
    covariance,
    design_matrix,
    error_unitary,
    fidelity,
    fidelity_matrix,
    floquet_pair,
    frobenius_distance_to_identity,
    haar_random_state,
    haar_random_unitary,
    hermitian_basis,
    ideal_fidelity_curve,
    incompatibility_otoc_form,
    initial_observable,
    loschmidt_echo,
    ml_estimate,
    operator_incompatibility,
    operator_trajectory,
    parse_config,
    psd_project,
    pure_state_density,
    read_series,
    relative_entropy_series,
    run,
    simulate_record,
    unitary_fractional_power,
)
from oracles import qubit_boundary_grid_minimum

SPIN = SpinParams(10)
ALPHA = 1.4


@pytest.fixture(scope="session")
def basis21():
    return hermitian_basis(SPIN)


def sweep_config(out_dir):
    return parse_config(
        overrides={
            "experiment": "fidelity_sweep",
            "j": 10.0,
            "alpha": ALPHA,
            "delta_lambda": 0.01,
            "noise_sigma": 0.1,
            "lambda_list": (0.5, 2.5, 7.0),
            "n_states": 20,
            "n_steps": 200,
            "seed": 1,
            "output_dir": str(out_dir),
        }
    )


@pytest.fixture(scope="session")
def criterion4_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2a")
    config = sweep_config(out)
    start = time.perf_counter()
    manifest = run(config)
    elapsed = time.perf_counter() - start
    snapshots = {}
    for path in manifest.series_files:
        with open(path, "rb") as handle:
            snapshots[path] = handle.read()
    return config, manifest, elapsed, snapshots


def test_criterion_01_two_form_otoc_identity():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        lam = rng.uniform(0.0, 7.0)
        n = int(rng.integers(1, 101))
        obs_seed = int(rng.integers(0, 2**31))
        pair = floquet_pair(KickedTopParams(lam, ALPHA, 0.01, SPIN))
        obs = initial_observable(SPIN, obs_seed)
        traj_true = operator_trajectory(obs, pair.true_perturbed, n)
        traj_ideal = operator_trajectory(obs, pair.ideal, n)
        direct = operator_incompatibility(traj_true, traj_ideal, SPIN.j).values[n]
        via_error = incompatibility_otoc_form(obs, pair, n, SPIN.j)
        worst = max(worst, abs(direct - via_error) / abs(direct))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed <= 120
    print(f"criterion 1: PASS - two-form identity, worst rel err {worst:.2e}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_02_matched_dynamics_sanity(basis21):
    pair = floquet_pair(KickedTopParams(7.0, ALPHA, 0.0, SPIN))
    obs = initial_observable(SPIN, 0)
    traj = operator_trajectory(obs, pair.ideal, 200)
    traj_true = operator_trajectory(obs, pair.true_perturbed, 200)

    echo = loschmidt_echo(traj_true, traj).values
    assert np.max(np.abs(echo - 1.0)) <= 1e-12
    entropy = relative_entropy_series(obs, pair, 200).values
    assert np.max(entropy) <= 1e-9
    incompat = operator_incompatibility(traj_true, traj, SPIN.j).values
    assert np.max(incompat) <= 1e-12

    states = np.stack([haar_random_state(SPIN, 100 + i) for i in range(5)])
    curves = fidelity_matrix(states, traj_true, traj, basis21, 0.0, 1)
    worst_dip = float(np.diff(curves, axis=1).min())
    assert worst_dip >= -1e-6
    print(
        "criterion 2: PASS - matched dynamics: echo/entropy/incompatibility at "
        f"floor, worst fidelity dip {worst_dip:.2e} over 5 states"
    )


@pytest.mark.parametrize("lam", [0.5, 2.5, 7.0])
def test_criterion_03_rank_bound(basis21, lam):
    pair = floquet_pair(KickedTopParams(lam, ALPHA, 0.01, SPIN))
    obs = initial_observable(SPIN, 7)
    traj = operator_trajectory(obs, pair.true_perturbed, 500)
    cov = covariance(design_matrix(traj[1:], basis21), rcond=1e-10)
    assert cov.rank <= 421
    print(f"criterion 3: PASS - lambda={lam}: rank {cov.rank} <= 421 after 500 steps")


@pytest.mark.slow
def test_criterion_04_fig2a_orderings(criterion4_run):
    _, manifest, elapsed, _ = criterion4_run
    assert elapsed <= 600, f"sweep took {elapsed:.0f}s > 10 min"
    finals, errors = {}, {}
    for path in manifest.series_files:
        meta, cols = read_series(path)
        lam = cols["lambda"][0]
        values, stderr = cols["value"], cols["stderr"]
        assert len(values) == 200
        peak = int(np.argmax(values))
        assert values[peak] > values[0], f"lambda={lam}: no initial rise"
        assert values[-1] < values[peak], f"lambda={lam}: no decay after the peak"
        finals[lam], errors[lam] = values[-1], stderr[-1]
    for low, high in [(0.5, 2.5), (2.5, 7.0)]:
        gap = finals[high] - finals[low]
        pooled = np.hypot(errors[high], errors[low])
        assert gap > 2 * pooled, f"F({high}) - F({low}) = {gap:.4f} <= 2*{pooled:.4f}"
    print(
        "criterion 4: PASS - rise-then-fall and final ordering "
        f"F(7.0)={finals[7.0]:.3f} > F(2.5)={finals[2.5]:.3f} > F(0.5)={finals[0.5]:.3f}, "
        f"{elapsed:.0f}s"
    )


def test_criterion_05_fig2bcd_orderings():
    for obs_seed in (0, 1, 2):
        obs = initial_observable(SPIN, obs_seed)
        metrics = {}
        for lam in (0.5, 7.0):
            pair = floquet_pair(KickedTopParams(lam, ALPHA, 0.01, SPIN))
            traj_true = operator_trajectory(obs, pair.true_perturbed, 100)
            traj_ideal = operator_trajectory(obs, pair.ideal, 100)
            metrics[lam] = (
                loschmidt_echo(traj_true, traj_ideal).values[100],
                relative_entropy_series(obs, pair, 100).values[100],
                operator_incompatibility(traj_true, traj_ideal, SPIN.j).values[100],
            )
        assert metrics[7.0][0] > metrics[0.5][0], f"echo ordering failed, seed {obs_seed}"
        assert metrics[0.5][1] > metrics[7.0][1], f"entropy ordering failed, seed {obs_seed}"
        assert metrics[0.5][2] > metrics[7.0][2], f"incompatibility ordering failed, seed {obs_seed}"
    print("criterion 5: PASS - step-100 orderings of echo, entropy, incompatibility for 3 seeds")


@pytest.mark.slow
def test_criterion_06_fig4_perturbation_monotonicity(basis21):
    obs = initial_observable(SPIN, 0)
    states = np.stack([haar_random_state(SPIN, 300 + i) for i in range(20)])
    ideal = floquet_pair(KickedTopParams(7.0, ALPHA, 0.0, SPIN)).ideal
    traj_ideal = operator_trajectory(obs, ideal, 200)
    design = design_matrix(traj_ideal[1:], basis21)
    cov = covariance(design)
    weight = design.T @ design

    finals, stderrs = [], []
    for k, dlam in enumerate((0.005, 0.01, 0.02)):
        pair = floquet_pair(KickedTopParams(7.0, ALPHA, dlam, SPIN))
        traj_true = operator_trajectory(obs, pair.true_perturbed, 200)
        noise_children = np.random.SeedSequence(1, spawn_key=(3, k)).spawn(len(states))
        values = []
        for psi, child in zip(states, noise_children):
            record = simulate_record(pure_state_density(psi), traj_true, 0.1, child)
            r_ml = ml_estimate(cov, design, record)
            _, rho_bar = psd_project(r_ml, weight, basis21, max_iter=50_000)
            values.append(fidelity(psi, rho_bar))
        values = np.asarray(values)
        finals.append(values.mean())
        stderrs.append(values.std(ddof=1) / np.sqrt(len(values)))
    for i in (0, 1):
        gap = finals[i] - finals[i + 1]
        pooled = np.hypot(stderrs[i], stderrs[i + 1])
        assert gap > 2 * pooled, f"gap {gap:.4f} <= 2*{pooled:.4f} at pair {i}"
    print(
        "criterion 6: PASS - final fidelity decreasing in perturbation: "
        + " > ".join(f"{f:.3f}" for f in finals)
    )


def test_criterion_07_fig3_reproduction(basis21):
    u_r = haar_random_unitary(SPIN, 11)
    for state_seed in range(5):
        psi0 = haar_random_state(SPIN, 400 + state_seed)
        base = ideal_fidelity_curve(psi0, basis21, np.eye(21))
        assert abs(base[0] - 1 / 21) < 1e-12
        assert abs(base[440] - 1.0) <= 1e-9
        assert np.all(np.diff(base) >= -1e-15)
        for eta in (0.1, 0.3):
            curve = ideal_fidelity_curve(psi0, basis21, unitary_fractional_power(u_r, eta))
            assert np.all(curve[51:] <= base[51:] + 1e-12), f"eta={eta}, seed={state_seed}"
    distances = [
        frobenius_distance_to_identity(unitary_fractional_power(u_r, eta))
        for eta in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(distances, distances[1:]))
    print("criterion 7: PASS - ordered-measurement curves and Frobenius inset for 5 states")


@pytest.mark.slow
def test_criterion_08_projection_grid_oracle():
    spin = SpinParams(0.5)
    basis = hermitian_basis(spin)
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        r_ml = direction * rng.uniform(0.75, 2.0)  # outside |r| = 1/sqrt(2)
        b = rng.standard_normal((3, 3))
        weight = b.T @ b
        r_bar, _ = psd_project(r_ml, weight, basis)
        ours = (r_bar - r_ml) @ weight @ (r_bar - r_ml)
        oracle = qubit_boundary_grid_minimum(weight, r_ml, pitch=1e-3)
        worst = max(worst, abs(ours - oracle))
        assert abs(ours - oracle) <= 1e-4
    print(f"criterion 8: PASS - 100 qubit instances vs grid oracle, worst gap {worst:.2e}")


def test_criterion_09_pseudoinverse_contract():
    rng = np.random.default_rng(99)
    for trial in range(20):
        n_rows = int(rng.integers(50, 201))
        rank = int(rng.integers(5, 45))
        design = rng.standard_normal((n_rows, rank)) @ rng.standard_normal((rank, 440))
        cov = covariance(design)
        a = design.T @ design
        c = cov.entries
        scale = float(np.linalg.eigvalsh(a)[-1])
        assert cov.rank == rank
        assert np.max(np.abs(a @ c @ a - a)) <= 1e-8 * scale
        assert np.max(np.abs(c @ a @ c - c)) <= 1e-8 * np.max(np.abs(c))
        assert np.max(np.abs(a @ c - (a @ c).T)) <= 1e-8
    print("criterion 9: PASS - Penrose conditions on 20 rank-deficient designs up to 200x440")


@pytest.mark.slow
def test_criterion_10_byte_identical_rerun(criterion4_run):
    config, manifest, _, snapshots = criterion4_run
    repeat = run(config)  # same config, same output dir: files are rewritten
    assert repeat.series_files == manifest.series_files
    for path in repeat.series_files:
        with open(path, "rb") as handle:
            assert handle.read() == snapshots[path], f"{path} changed between runs"
    print("criterion 10: PASS - repeated sweep produced byte-identical CSVs")
