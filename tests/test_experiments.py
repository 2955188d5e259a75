"""Tests for config parsing, the experiment runner, CSV output, and the CLI."""

import json

import numpy as np
import pytest

from chaostomo import (
    ConfigError,
    ExperimentConfig,
    KickedTopParams,
    MetricSeries,
    SpinParams,
    fidelity_matrix,
    floquet_pair,
    haar_random_state,
    hermitian_basis,
    initial_observable,
    operator_trajectory,
    parse_config,
    read_series,
    run,
    write_series,
)
from chaostomo.cli import main
from chaostomo.series import mean_and_stderr


def tiny_config(experiment, out, **kw):
    defaults = dict(
        experiment=experiment,
        j=1.0,
        n_steps=8,
        n_states=2,
        lambda_list=(0.7, 2.0),
        seed=5,
        output_dir=str(out),
    )
    defaults.update(kw)
    return parse_config(overrides=defaults)


class TestParseConfig:
    def test_empty_gives_paper_defaults(self):
        config = parse_config()
        assert config.experiment == "fidelity_sweep"
        assert config.j == 10.0
        assert config.alpha == 1.4
        assert config.delta_lambda == 0.01
        assert config.n_steps == 200
        assert config.n_states == 100
        assert config.noise_sigma == pytest.approx(0.1)  # 0.01 * j
        assert config.seed == 0

    def test_file_parsing_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "experiment = loschmidt\n"
            "j = 2\n"
            "lambda_list = 0.5, 2.5, 7.0\n"
            "perturb_experimenter = true\n"
            "\n"
        )
        config = parse_config(path)
        assert config.experiment == "loschmidt"
        assert config.lambda_list == (0.5, 2.5, 7.0)
        assert config.perturb_experimenter is True
        config = parse_config(path, {"seed": 9, "lambda_list": (1.0,)})
        assert config.seed == 9
        assert config.lambda_list == (1.0,)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("lamda_list = 1.0\n")
        with pytest.raises(ConfigError, match="lamda_list"):
            parse_config(path)

    def test_negative_lambda_accepted(self):
        config = parse_config(overrides={"lambda_list": (-1.0,)})
        assert config.lambda_list == (-1.0,)

    def test_non_half_integer_j_rejected(self):
        with pytest.raises(ConfigError, match="j"):
            parse_config(overrides={"j": 10.3})

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"experiment": "nope"}, "experiment"),
            ({"n_steps": 0}, "n_steps"),
            ({"n_states": -1}, "n_states"),
            ({"noise_sigma": -0.5}, "noise_sigma"),
            ({"eta_list": (0.5, 1.5)}, "eta_list"),
            ({"seed": -3}, "seed"),
            ({"noise_sigma": float("nan")}, "noise_sigma"),
            ({"noise_sigma": float("inf")}, "noise_sigma"),
            ({"delta_lambda": float("nan")}, "delta_lambda"),
            ({"j": float("inf")}, "j"),
        ],
    )
    def test_out_of_range_named_in_error(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            parse_config(overrides=overrides)


class TestWriteSeries:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(12)
        stderr = np.abs(rng.standard_normal(12))
        series = MetricSeries(
            "fidelity",
            np.arange(1, 13),
            values,
            stderr,
            {"experiment": "fidelity_sweep", "lambda": 0.5, "delta_lambda": 0.01, "seed": 3},
        )
        path = tmp_path / "series.csv"
        write_series(series, path)
        meta, cols = read_series(path)
        assert meta["metric"] == "fidelity"
        np.testing.assert_array_equal(cols["value"], values)
        np.testing.assert_array_equal(cols["stderr"], stderr)
        assert cols["lambda"][0] == 0.5
        assert cols["eta"][0] is None

    def test_stderr_column_empty_for_deterministic_metric(self, tmp_path):
        series = MetricSeries("loschmidt", np.arange(3), np.ones(3), None, {"lambda": 1.0})
        path = tmp_path / "echo.csv"
        write_series(series, path)
        lines = path.read_text().splitlines()
        assert lines[4] == "experiment,lambda,delta_lambda,eta,step,value,stderr"
        assert all(line.endswith(",") for line in lines[5:])
        _, cols = read_series(path)
        assert np.all(np.isnan(cols["stderr"]))


class TestRunExperiments:
    def test_loschmidt_matched_is_constant_one(self, tmp_path):
        config = tiny_config("loschmidt", tmp_path, delta_lambda=0.0, n_steps=6)
        manifest = run(config)
        assert len(manifest.series_files) == 2
        for path in manifest.series_files:
            meta, cols = read_series(path)
            assert len(cols["value"]) == 6
            # Identical trajectories leave only float-level norm drift.
            np.testing.assert_allclose(cols["value"], 1.0, atol=1e-12)

    def test_metric_rows_match_n_steps(self, tmp_path):
        for experiment in ("rel_entropy", "otoc"):
            config = tiny_config(experiment, tmp_path / experiment, n_steps=7)
            manifest = run(config)
            for path in manifest.series_files:
                _, cols = read_series(path)
                assert len(cols["value"]) == 7
                assert cols["step"][0] == 0

    def test_fidelity_sweep_files_and_rows(self, tmp_path):
        config = tiny_config("fidelity_sweep", tmp_path, noise_sigma=0.02)
        manifest = run(config)
        assert [p.split("/")[-1] for p in manifest.series_files] == [
            "fidelity_lambda0.7.csv",
            "fidelity_lambda2.csv",
        ]
        for path in manifest.series_files:
            _, cols = read_series(path)
            assert len(cols["value"]) == 8
            assert cols["step"][0] == 1
            assert np.all(np.isfinite(cols["stderr"]))

    def test_perturb_sweep_monotone_files(self, tmp_path):
        config = tiny_config(
            "perturb_sweep", tmp_path, lambda_list=(2.0,),
            delta_lambda_list=(0.005, 0.02), noise_sigma=0.02,
        )
        manifest = run(config)
        names = [p.split("/")[-1] for p in manifest.series_files]
        assert names == ["fidelity_dlambda0.005.csv", "fidelity_dlambda0.02.csv"]

    def test_bloch_perturb_row_count_is_k_range(self, tmp_path):
        config = tiny_config("bloch_perturb", tmp_path, eta_list=(0.0, 0.2))
        manifest = run(config)
        for path in manifest.series_files:
            _, cols = read_series(path)
            assert len(cols["value"]) == 3 * 3  # d^2 values of k for j=1
            assert cols["value"][0] == pytest.approx(1 / 3)

    def test_manifest_contents(self, tmp_path):
        config = tiny_config("loschmidt", tmp_path, n_steps=4)
        manifest = run(config)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["seed"] == 5
        assert on_disk["config"]["experiment"] == "loschmidt"
        assert on_disk["duration_seconds"] > 0
        assert on_disk["series_files"] == manifest.series_files
        assert on_disk["code_version"]

    def test_byte_identical_rerun(self, tmp_path):
        config_a = tiny_config("fidelity_sweep", tmp_path / "a", noise_sigma=0.02)
        config_b = tiny_config("fidelity_sweep", tmp_path / "b", noise_sigma=0.02)
        files_a = run(config_a).series_files
        files_b = run(config_b).series_files
        for fa, fb in zip(files_a, files_b):
            with open(fa, "rb") as ha, open(fb, "rb") as hb:
                a_bytes, b_bytes = ha.read(), hb.read()
            # Output directory is the only differing config field and it is
            # not serialized into the CSV body, only the config hash line.
            a_lines = a_bytes.split(b"\n")
            b_lines = b_bytes.split(b"\n")
            assert a_lines[2:] == b_lines[2:]

    def test_observable_reuse_across_lambdas(self, tmp_path):
        # One shared observable per sweep: the step-0 rel_entropy values all
        # vanish and series for different kick strengths still differ later.
        config = tiny_config("rel_entropy", tmp_path, n_steps=6)
        manifest = run(config)
        values = [read_series(p)[1]["value"] for p in manifest.series_files]
        assert abs(values[0][0]) < 1e-12 and abs(values[1][0]) < 1e-12
        assert not np.array_equal(values[0], values[1])


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "ok.cfg"
        path.write_text("experiment = otoc\nj = 1\n")
        assert main(["validate", "--config", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("j = 10.3\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_run_writes_series(self, tmp_path, capsys):
        code = main(
            [
                "run", "--experiment", "loschmidt", "--seed", "3",
                "--lambda", "1.0", "--out", str(tmp_path / "out"),
                "--config", str(self._write(tmp_path)),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "loschmidt_lambda1.csv" in out
        assert (tmp_path / "out" / "manifest.json").exists()

    @staticmethod
    def _write(tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("j = 1\nn_steps = 5\nn_states = 2\n")
        return path


class TestFidelityStreams:
    """The runner's fidelity CSVs equal a direct computation from the
    documented spawn keys: states (2, i), shared observable (0,), per-state
    observable (0, i), noise (3, k) for a shared observable and (3, k, i)
    for state i's own observable."""

    @staticmethod
    def _expected(config, lam, dlam, k):
        spin = SpinParams(config.j)
        basis = hermitian_basis(spin)

        def key(*parts):
            return np.random.SeedSequence(config.seed, spawn_key=parts)

        states = np.stack([haar_random_state(spin, key(2, i)) for i in range(config.n_states)])
        pair = floquet_pair(KickedTopParams(lam, config.alpha, dlam, spin))
        record_map, estimator_map = pair.true_perturbed, pair.ideal
        if config.perturb_experimenter:
            record_map, estimator_map = estimator_map, record_map

        def curves(obs, psi, noise):
            traj_record = operator_trajectory(obs, record_map, config.n_steps)
            traj_est = operator_trajectory(obs, estimator_map, config.n_steps)
            return fidelity_matrix(psi, traj_record, traj_est, basis, config.noise_sigma, noise)

        if config.resample_observable:
            fid = np.stack([
                curves(initial_observable(spin, key(0, i)), psi[None], key(3, k, i))[0]
                for i, psi in enumerate(states)
            ])
        else:
            fid = curves(initial_observable(spin, key(0)), states, key(3, k))
        return mean_and_stderr(fid)

    @pytest.mark.parametrize(
        "experiment,extra",
        [
            ("fidelity_sweep", {}),
            ("fidelity_sweep", {"resample_observable": True}),
            ("fidelity_sweep", {"perturb_experimenter": True}),
            ("perturb_sweep", {"delta_lambda_list": (0.02, 0.005)}),
        ],
    )
    def test_series_match_documented_streams(self, tmp_path, experiment, extra):
        config = tiny_config(experiment, tmp_path, noise_sigma=0.02, **extra)
        manifest = run(config)
        if experiment == "perturb_sweep":
            swept = [(config.lambda_list[0], dlam) for dlam in config.delta_lambda_list]
        else:
            swept = [(lam, config.delta_lambda) for lam in config.lambda_list]
        assert len(manifest.series_files) == len(swept)
        for k, ((lam, dlam), path) in enumerate(zip(swept, manifest.series_files)):
            _, cols = read_series(path)
            mean, stderr = self._expected(config, lam, dlam, k)
            np.testing.assert_array_equal(cols["value"], mean)
            np.testing.assert_array_equal(cols["stderr"], stderr)
