"""Tests of the benchmark itself, at small spin so they run in seconds.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import reference as ref  # noqa: E402
from workloads import ALPHA, DELTA_LAMBDA, Diagnostics, SingleShot, Sweep  # noqa: E402

ct = harness.setup()

J = 1.5
SMALL = {
    "sweep_batched": Sweep(j=J, lam=7.0, n_steps=24, n_states=2, resample=False),
    "sweep_resampled": Sweep(j=J, lam=0.5, n_steps=24, n_states=2, resample=True),
    "single_shot": SingleShot(j=J, lams=(0.5, 7.0), n_steps=30, n_states=2),
    "diagnostics": Diagnostics(j=J, lams=(0.5, 7.0), n_steps=20, etas=(0.0, 0.3), n_states=5),
}


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n, reported", [(1, None), (39, None), (40, "p75"), (99, "p75"), (100, "p90"),
                                         (999, "p90"), (1000, "p99")])
def test_latency_summary_follows_the_percentile_rule(n, reported):
    rng = random.Random(n)
    samples = [rng.expovariate(1.0) for _ in range(n)]
    summary = harness.latency_summary(samples)
    tails = [k for k in summary if k not in ("n", "p50")]
    assert summary["n"] == n
    assert summary["p50"] == pytest.approx(float(np.median(samples)))
    assert tails == ([reported] if reported else [])
    if reported:
        assert sum(s > summary[reported] for s in samples) >= 10


def test_reference_maps_match_the_package():
    spin = ct.SpinParams(J)
    jx, _, jz = ct.angular_momentum_ops(spin)
    ref_jx, ref_jz = ref.spin_matrices(J)
    assert np.allclose(ref_jx, jx, atol=1e-14) and np.allclose(ref_jz, jz, atol=1e-14)
    u = ct.floquet_map(ct.KickedTopParams(2.5, ALPHA, DELTA_LAMBDA, spin))
    assert np.allclose(ref.kicked_top(J, 2.5, ALPHA), u, atol=1e-12)
    obs = ct.initial_observable(spin, np.random.SeedSequence(7, spawn_key=(0,)))
    assert np.allclose(ref.observable(J, 7), obs, atol=1e-12)
    assert np.allclose(ref.trajectory(obs, u, 30), ct.operator_trajectory(obs, u, 30)[1:], atol=1e-11)
    psi = ct.haar_random_state(spin, np.random.SeedSequence(7, spawn_key=(2, 3)))
    assert np.allclose(ref.state(J, 7, 3), psi, atol=1e-15)
    traj = ct.operator_trajectory(obs, u, 30)
    record = ct.simulate_record(ct.pure_state_density(psi), traj, 0.1, np.random.SeedSequence(7, spawn_key=(3, 1)))
    expected = ref.record(psi, traj[1:], ref.noise(7, (3, 1), 0.1, 30))
    assert np.allclose(record.values, expected, atol=1e-12)


def test_reference_fit_matches_reconstruct_where_the_minimizer_is_unique():
    spin = ct.SpinParams(J)
    basis = ct.hermitian_basis(spin)
    obs = ref.observable(J, 5)
    u = ref.kicked_top(J, 7.0, ALPHA)
    traj = ct.operator_trajectory(obs, u, 30)
    psi = ref.state(J, 5, 0)
    values = ref.record(psi, traj[1:], ref.noise(5, (3, 0, 0), 0.3, 30))
    estimate = ct.reconstruct(ct.MeasurementRecord(values, 0.3), traj, basis, psi0=psi)
    rho, gap = ref.fit_density(traj[1:], values, gap_tol=1e-9)
    assert gap <= 1e-9
    assert abs((psi.conj() @ rho @ psi).real - estimate.fidelity) < 1e-4
    assert ref.frank_wolfe_gap(traj[1:], values, estimate.rho_bar) < 1e-4


def test_reference_relative_entropy_matches_the_package():
    obs = ref.observable(J, 2)
    a = ref.heisenberg(obs, ref.kicked_top(J, 7.01, ALPHA), [9])[9]
    b = ref.heisenberg(obs, ref.kicked_top(J, 7.0, ALPHA), [9])[9]
    expected = ct.relative_entropy(ct.regularize(a), ct.regularize(b))
    assert ref.relative_entropy(a, b) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("name", list(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_harness_end_to_end_at_small_spin(name, trace, tmp_path):
    result = harness.measure(SMALL[name], ct, seed=3, seconds=0.01, trace=trace, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0, result["info"]["problems"]
    assert result["attempted"] == SMALL[name].ops_per_round * (2 if trace else 1)
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else [m for m in spec["end_to_end"] if m["name"] != "setup_s"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.5
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_checks_reject_wrong_outputs(tmp_path):
    sweep = SMALL["sweep_batched"]
    output = sweep.run_round(ct, None, 11, tmp_path / "sweep")
    output[0]["value"][3] = 1.01
    assert any("outside [0, 1]" in p for p in sweep.check(11, output))

    single = SMALL["single_shot"]
    output = single.run_round(ct, single.prepare(ct), 11000, tmp_path / "single")
    k, i, rho, fid = output[0]
    output[0] = (k, i, rho, fid + 0.01)
    k, i, rho, fid = output[1]
    output[1] = (k, i, np.eye(single.d) / single.d, fid)
    problems = single.check(11000, output)
    assert any("Frank-Wolfe gap" in p for p in problems)
    assert any("reference fit" in p for p in problems)

    diag = SMALL["diagnostics"]
    output = diag.run_round(ct, None, 11, tmp_path / "diag")
    output["otoc"][1]["value"][1] *= 1.001
    assert any("OTOC" in p for p in diag.check(11, output))


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in benchmark_spec()["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run([sys.executable, *benchmark_spec()["command"][1:], "--workload", "single_shot",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
