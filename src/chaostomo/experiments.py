"""Config-driven experiment runner.

Each experiment sweeps one knob of the kicked-top tomography pipeline
(kick strength, kick perturbation, or basis perturbation) and writes one
CSV per swept value, plus a JSON manifest sufficient to reproduce the run.
Per-state and per-sweep random streams are derived from the master seed
with fixed spawn keys, so enlarging the ensemble never reshuffles the
results already computed for earlier states.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bloch_analysis import ideal_fidelity_curve, perturbed_basis
from .chaos_metrics import loschmidt_echo, operator_incompatibility, relative_entropy_series
from .kicked_top import KickedTopParams, floquet_pair, initial_observable, operator_trajectory
from .series import MetricSeries, mean_and_stderr
from .spin_algebra import SpinParams, haar_random_state, haar_random_unitary, hermitian_basis, pure_state_density
from .tomography import fidelity_matrix

__all__ = [
    "EXPERIMENTS",
    "ConfigError",
    "ExperimentConfig",
    "RunManifest",
    "parse_config",
    "run",
    "write_series",
    "read_series",
]

EXPERIMENTS = ("fidelity_sweep", "loschmidt", "rel_entropy", "otoc", "bloch_perturb", "perturb_sweep")

CSV_HEADER = "experiment,lambda,delta_lambda,eta,step,value,stderr"

# Spawn keys for the master-seed stream tree. Per-state streams are keyed by
# the state index, so the first k states are unaffected by n_states > k.
_KEY_OBSERVABLE = 0
_KEY_BASIS_UNITARY = 1
_KEY_STATE = 2
_KEY_NOISE = 3


class ConfigError(ValueError):
    """Invalid experiment configuration (bad key, type, or range)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated run configuration with paper-default parameters."""

    experiment: str = "fidelity_sweep"
    j: float = 10.0
    alpha: float = 1.4
    lambda_list: tuple = (0.5, 2.5, 7.0)
    delta_lambda: float = 0.01
    delta_lambda_list: tuple = (0.005, 0.01, 0.02)
    n_steps: int = 200
    n_states: int = 100
    noise_sigma: float | None = None  # resolved to 0.01 * j during validation
    eta_list: tuple = (0.0, 0.1, 0.3)
    seed: int = 0
    output_dir: str = "out"
    # True swaps the roles: the record comes from the unperturbed map and the
    # experimenter models the perturbed one. Default matches the study design.
    perturb_experimenter: bool = False
    # True draws a fresh initial observable per ensemble state instead of one
    # shared observable per sweep.
    resample_observable: bool = False


@dataclass
class RunManifest:
    """Everything needed to reproduce and locate one run's outputs."""

    config: dict
    seed: int
    code_version: str
    config_hash: str
    series_files: list = field(default_factory=list)
    started: str = ""
    finished: str | None = None
    duration_seconds: float | None = None


_FLOAT_KEYS = ("j", "alpha", "delta_lambda", "noise_sigma")
_INT_KEYS = ("n_steps", "n_states", "seed")
_LIST_KEYS = ("lambda_list", "delta_lambda_list", "eta_list")
_BOOL_KEYS = ("perturb_experimenter", "resample_observable")
_STR_KEYS = ("experiment", "output_dir")
_ALL_KEYS = _FLOAT_KEYS + _INT_KEYS + _LIST_KEYS + _BOOL_KEYS + _STR_KEYS


def _coerce(key: str, raw: str):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _LIST_KEYS:
            return tuple(float(part) for part in raw.split(",") if part.strip())
        if key in _BOOL_KEYS:
            lowered = raw.strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse value {raw!r} ({exc})") from None


def _read_config_file(path) -> dict:
    data = {}
    text = Path(path).read_text()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        data[key] = _coerce(key, raw.strip())
    return data


def _validate(config: ExperimentConfig) -> ExperimentConfig:
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: {config.experiment!r} is not one of {EXPERIMENTS}")
    try:
        SpinParams(config.j)
    except ValueError as exc:
        raise ConfigError(f"j: {exc}") from None
    for name in ("alpha", "delta_lambda"):
        if not np.isfinite(getattr(config, name)):
            raise ConfigError(f"{name}: must be finite")
    if config.n_steps < 1:
        raise ConfigError(f"n_steps: must be >= 1, got {config.n_steps}")
    if config.n_states < 1:
        raise ConfigError(f"n_states: must be >= 1, got {config.n_states}")
    if config.seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {config.seed}")
    for name in ("lambda_list", "delta_lambda_list", "eta_list"):
        values = getattr(config, name)
        if len(values) == 0:
            raise ConfigError(f"{name}: must not be empty")
        if not all(np.isfinite(v) for v in values):
            raise ConfigError(f"{name}: all entries must be finite")
    if any(not 0.0 <= eta <= 1.0 for eta in config.eta_list):
        raise ConfigError(f"eta_list: entries must lie in [0, 1], got {config.eta_list}")
    if config.noise_sigma is None:
        config = replace(config, noise_sigma=0.01 * config.j)
    if not (np.isfinite(config.noise_sigma) and config.noise_sigma >= 0):
        raise ConfigError(f"noise_sigma: must be finite and >= 0, got {config.noise_sigma}")
    if not config.output_dir:
        raise ConfigError("output_dir: must not be empty")
    return config


def parse_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a validated config from an optional key=value file plus overrides.

    Unknown keys are rejected rather than silently ignored; override values
    (typically CLI flags) take precedence over the file.
    """
    data = _read_config_file(path) if path is not None else {}
    for key, value in (overrides or {}).items():
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        data[key] = value
    try:
        config = ExperimentConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    return _validate(config)


def _subseed(master: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master, spawn_key=key)


def _config_hash(config: ExperimentConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _format_value(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_series(series: MetricSeries, path) -> None:
    """Write one metric series as CSV with '#'-prefixed metadata lines.

    Floating-point fields carry 17 significant digits, enough to reparse the
    exact double. Unused columns stay empty.
    """
    p = series.params
    units = "nats" if series.metric_name == "rel_entropy" else "dimensionless"
    lines = [
        f"# seed: {p.get('seed', '')}",
        f"# config_hash: {p.get('config_hash', '')}",
        f"# metric: {series.metric_name}",
        f"# units: {units}",
        CSV_HEADER,
    ]
    experiment = p.get("experiment", "")
    lam = _format_value(p.get("lambda"))
    dlam = _format_value(p.get("delta_lambda"))
    eta = _format_value(p.get("eta"))
    for i, step in enumerate(series.times):
        stderr = "" if series.stderr is None else f"{series.stderr[i]:.17g}"
        lines.append(
            f"{experiment},{lam},{dlam},{eta},{step},{series.values[i]:.17g},{stderr}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_series(path) -> tuple[dict, dict]:
    """Parse a CSV written by write_series into (metadata, column arrays)."""
    meta = {}
    rows = []
    header = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no CSV header found")
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    out = {
        "experiment": columns["experiment"],
        "step": np.array([int(x) for x in columns["step"]]),
        "value": np.array([float(x) for x in columns["value"]]),
        "stderr": np.array([float(x) if x else np.nan for x in columns["stderr"]]),
    }
    for name in ("lambda", "delta_lambda", "eta"):
        out[name] = [float(x) if x else None for x in columns[name]]
    return meta, out


def _series_params(config: ExperimentConfig, config_hash: str, **extra) -> dict:
    params = asdict(config)
    params["config_hash"] = config_hash
    params.update(extra)
    return params


def _ensemble_states(config: ExperimentConfig, spin: SpinParams) -> np.ndarray:
    return np.stack(
        [haar_random_state(spin, _subseed(config.seed, _KEY_STATE, i)) for i in range(config.n_states)]
    )


def _run_fidelity(config: ExperimentConfig, config_hash: str):
    """Reconstruction-fidelity curves, one per kick strength (fidelity_sweep)
    or per kick perturbation at the first kick strength (perturb_sweep).

    The record comes from the perturbed map and estimation uses the
    unperturbed one (swapped when configured). The ensemble shares one
    observable with noise stream (3, k), or state i gets observable (0, i)
    and noise stream (3, k, i) when the observable is resampled.
    """
    spin = SpinParams(config.j)
    basis = hermitian_basis(spin)
    states = _ensemble_states(config, spin)
    if config.experiment == "perturb_sweep":
        lam = config.lambda_list[0]
        swept = [(lam, dlam, f"fidelity_dlambda{dlam:g}.csv") for dlam in config.delta_lambda_list]
    else:
        swept = [(lam, config.delta_lambda, f"fidelity_lambda{lam:g}.csv") for lam in config.lambda_list]
    # (observable key, noise-key suffix, ensemble rows) per observable group.
    if config.resample_observable:
        groups = [((_KEY_OBSERVABLE, i), (i,), slice(i, i + 1)) for i in range(len(states))]
    else:
        groups = [((_KEY_OBSERVABLE,), (), slice(None))]
    out = []
    for k, (lam, dlam, filename) in enumerate(swept):
        pair = floquet_pair(KickedTopParams(lam, config.alpha, dlam, spin))
        record_map, estimator_map = pair.true_perturbed, pair.ideal
        if config.perturb_experimenter:
            record_map, estimator_map = estimator_map, record_map
        fid = np.empty((len(states), config.n_steps))
        for obs_key, noise_key, rows in groups:
            obs = initial_observable(spin, _subseed(config.seed, *obs_key))
            traj_record = operator_trajectory(obs, record_map, config.n_steps)
            traj_est = operator_trajectory(obs, estimator_map, config.n_steps)
            fid[rows] = fidelity_matrix(
                states[rows], traj_record, traj_est, basis, config.noise_sigma,
                _subseed(config.seed, _KEY_NOISE, k, *noise_key),
            )
        mean, stderr = mean_and_stderr(fid)
        params = _series_params(config, config_hash, **{"lambda": lam}, delta_lambda=dlam)
        out.append((MetricSeries("fidelity", np.arange(1, config.n_steps + 1), mean, stderr, params), filename))
    return out


def _run_operator_metric(config: ExperimentConfig, config_hash: str):
    """Deterministic trajectory metrics, one series per kick strength.

    Steps run 0 .. n_steps-1 so every CSV has exactly n_steps rows while the
    step-0 anchor value (1 for the echo, 0 for the others) stays visible.
    """
    spin = SpinParams(config.j)
    obs = initial_observable(spin, _subseed(config.seed, _KEY_OBSERVABLE))
    out = []
    for lam in config.lambda_list:
        pair = floquet_pair(KickedTopParams(lam, config.alpha, config.delta_lambda, spin))
        traj_true = operator_trajectory(obs, pair.true_perturbed, config.n_steps - 1)
        traj_ideal = operator_trajectory(obs, pair.ideal, config.n_steps - 1)
        if config.experiment == "loschmidt":
            series = loschmidt_echo(traj_true, traj_ideal)
        elif config.experiment == "rel_entropy":
            series = relative_entropy_series(traj_true, traj_ideal)
        else:
            series = operator_incompatibility(traj_true, traj_ideal, config.j)
        series.params = _series_params(
            config, config_hash, **{"lambda": lam}, delta_lambda=config.delta_lambda
        )
        out.append((series, f"{config.experiment}_lambda{lam:g}.csv"))
    return out


def _run_bloch_perturb(config: ExperimentConfig, config_hash: str):
    spin = SpinParams(config.j)
    basis = hermitian_basis(spin)
    u_r = haar_random_unitary(spin, _subseed(config.seed, _KEY_BASIS_UNITARY))
    states = _ensemble_states(config, spin)
    out = []
    for eta in config.eta_list:
        rotated = perturbed_basis(basis, u_r, eta)
        curves = np.stack(
            [ideal_fidelity_curve(pure_state_density(s), basis, rotated).values for s in states]
        )
        mean, stderr = mean_and_stderr(curves)
        params = _series_params(config, config_hash, eta=eta)
        series = MetricSeries("fidelity", np.arange(mean.size), mean, stderr, params)
        out.append((series, f"bloch_eta{eta:g}.csv"))
    return out


_RUNNERS = {
    "fidelity_sweep": _run_fidelity,
    "perturb_sweep": _run_fidelity,
    "loschmidt": _run_operator_metric,
    "rel_entropy": _run_operator_metric,
    "otoc": _run_operator_metric,
    "bloch_perturb": _run_bloch_perturb,
}


def run(config: ExperimentConfig) -> RunManifest:
    """Execute one experiment and write its CSVs and manifest to output_dir.

    The manifest is written before the computation starts and finalized
    (duration, file list) afterwards. Identical config and seed produce
    byte-identical CSVs; only manifest timestamps differ between repeats.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_hash = _config_hash(config)
    manifest = RunManifest(
        config=asdict(config),
        seed=config.seed,
        code_version=__version__,
        config_hash=config_hash,
        started=datetime.now(timezone.utc).isoformat(),
    )
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(asdict(manifest), indent=2) + "\n")

    start = time.perf_counter()
    results = _RUNNERS[config.experiment](config, config_hash)
    for series, filename in results:
        path = out_dir / filename
        write_series(series, path)
        manifest.series_files.append(str(path))

    manifest.finished = datetime.now(timezone.utc).isoformat()
    manifest.duration_seconds = time.perf_counter() - start
    manifest_path.write_text(json.dumps(asdict(manifest), indent=2) + "\n")
    return manifest
