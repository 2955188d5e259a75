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
import numbers
import time
import typing
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bloch_analysis import ideal_fidelity_curve
from .chaos_metrics import operator_series
from .kicked_top import KickedTopParams, floquet_pair, initial_observable, operator_trajectory
from .series import MetricSeries, mean_and_stderr
from .spin_algebra import SpinParams, haar_random_state, haar_random_unitary, hermitian_basis, unitary_fractional_power
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
    """Run configuration with paper-default parameters, validated when built
    (``dataclasses.replace`` included). Each key's annotation is its type:
    config files parse by it, every value is checked against it and then
    stored as it (a tuple of floats for the list keys), so equal runs have
    equal configs and config hashes. The resolved noise default is stored
    like a set value: ``replace(config, j=2.0)`` keeps it, and
    ``replace(config, j=2.0, noise_sigma=None)`` derives it from the new j."""

    experiment: str = "fidelity_sweep"
    j: float = 10.0
    alpha: float = 1.4
    lambda_list: tuple[float, ...] = (0.5, 2.5, 7.0)
    delta_lambda: float = 0.01
    delta_lambda_list: tuple[float, ...] = (0.005, 0.01, 0.02)
    n_steps: int = 200
    n_states: int = 100
    noise_sigma: float | None = None  # resolved to 0.01 * j when the config is built
    eta_list: tuple[float, ...] = (0.0, 0.1, 0.3)
    seed: int = 0
    output_dir: str = "out"
    # True swaps the roles: the record comes from the unperturbed map and the
    # experimenter models the perturbed one. Default matches the study design.
    perturb_experimenter: bool = False
    # True draws a fresh initial observable per ensemble state instead of one
    # shared observable per sweep.
    resample_observable: bool = False

    def __post_init__(self):
        for name, (kind, nullable) in _KEYS.items():
            value = getattr(self, name)
            if not (_is_a(value, kind) or (nullable and value is None)):
                raise ConfigError(f"{name}: must be {_TYPES[kind][1]}, got {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: {self.experiment!r} is not one of {EXPERIMENTS}")
        try:
            SpinParams(self.j)
        except ValueError as exc:
            raise ConfigError(f"j: {exc}") from None
        for name in ("alpha", "delta_lambda"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name}: must be finite")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps: must be >= 1, got {self.n_steps}")
        if self.n_states < 1:
            raise ConfigError(f"n_states: must be >= 1, got {self.n_states}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        for name in ("lambda_list", "delta_lambda_list", "eta_list"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ConfigError(f"{name}: must not be empty")
            if not all(_is_a(v, float) and np.isfinite(v) for v in values):
                raise ConfigError(f"{name}: all entries must be finite numbers")
            # Each swept value names its CSV by its :g form, so equal forms
            # would write one file twice.
            labels = [f"{v:g}" for v in values]
            clashes = [v for v, label in zip(values, labels) if labels.count(label) > 1]
            if clashes:
                raise ConfigError(f"{name}: entries {clashes} collide in their :g form, which names their CSVs")
        if any(not 0.0 <= eta <= 1.0 for eta in self.eta_list):
            raise ConfigError(f"eta_list: entries must lie in [0, 1], got {self.eta_list}")
        if self.noise_sigma is None:
            object.__setattr__(self, "noise_sigma", 0.01 * self.j)
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigError(f"noise_sigma: must be finite and >= 0, got {self.noise_sigma}")
        if not self.output_dir:
            raise ConfigError("output_dir: must not be empty")
        # Each value is stored as its annotated type, so equal runs get equal
        # configs and hashes; only now, as a bool in a list would become 1.0.
        for name, (kind, _) in _KEYS.items():
            value = getattr(self, name)
            value = tuple(map(float, value)) if typing.get_origin(kind) is tuple else kind(value)
            object.__setattr__(self, name, value)


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


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"not a boolean: {raw!r}")
    return raw.lower() in ("true", "1", "yes")


# Per annotated type: the parser of its config-file text, and the label and
# accepted types of the check that every value passes before the config
# stores it as its annotated type.
_TYPES = {
    str: (str, "a string", str),
    bool: (_parse_bool, "a boolean", bool),
    int: (int, "an integer", numbers.Integral),
    float: (float, "a real number", numbers.Real),
    tuple[float, ...]: (lambda raw: tuple(float(x) for x in raw.split(",") if x.strip()), "a list", (tuple, list)),
}


def _is_a(value, kind) -> bool:
    # bool subclasses int, so it passes every numeric check unless excluded.
    return isinstance(value, _TYPES[kind][2]) and (kind is bool or not isinstance(value, bool))


# Each key's type and whether it may be None, from its annotation: X | None reads as X.
_KEYS = {
    name: (typing.get_args(hint)[0], True) if type(None) in typing.get_args(hint) else (hint, False)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
}


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
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            data[key] = _TYPES[_KEYS[key][0]][0](raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse value {raw!r} ({exc})") from None
    return data


def parse_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a validated config from an optional key=value file plus overrides.

    Unknown keys are rejected rather than silently ignored; override values
    (typically CLI flags) take precedence over the file.
    """
    data = _read_config_file(path) if path is not None else {}
    for key, value in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        data[key] = value
    return ExperimentConfig(**data)


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
    prefix = ",".join([p.get("experiment", "")] + [_format_value(p.get(k)) for k in ("lambda", "delta_lambda", "eta")])
    rows = zip(series.times.tolist(), series.values.tolist())
    if series.stderr is None:
        lines += [f"{prefix},{step},{value:.17g}," for step, value in rows]
    else:
        errs = series.stderr.tolist()
        lines += [f"{prefix},{step},{value:.17g},{err:.17g}" for (step, value), err in zip(rows, errs)]
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


def _series_params(config: ExperimentConfig, config_hash: str, **coords) -> dict:
    """A series' CSV metadata: the run's experiment, seed and config hash, and
    the coordinates (lambda, delta_lambda, eta) the series sits at; any other
    coordinate column stays empty."""
    return {"experiment": config.experiment, "seed": config.seed, "config_hash": config_hash, **coords}


def _ensemble_states(config: ExperimentConfig, spin: SpinParams) -> np.ndarray:
    return np.stack(
        [haar_random_state(spin, _subseed(config.seed, _KEY_STATE, i)) for i in range(config.n_states)]
    )


# A resampled-observable ensemble is reconstructed in blocks of this many
# states, which bounds the memory of a run: at d = 21 and 200 steps one state
# holds about 6 MB in a batched call, and a block 97 MB (see fidelity_matrix),
# 45 MB of it the block's trajectories under both maps, one call's output.
_STATE_BLOCK = 16


def _run_fidelity(config: ExperimentConfig, config_hash: str):
    """Reconstruction-fidelity curves, one per kick strength (fidelity_sweep)
    or per kick perturbation at the first kick strength (perturb_sweep).

    The record comes from the perturbed map and estimation uses the
    unperturbed one (swapped when configured); one ``operator_trajectory``
    call steps both maps. The ensemble shares one observable with noise
    stream (3, k): one ``fidelity_matrix`` call per swept value, trajectories
    of shape (n + 1, d, d). When the observable is resampled, state i gets
    observable (0, i) and noise stream (3, k, i, 0), and the states go to
    ``fidelity_matrix`` in blocks of ``_STATE_BLOCK`` with trajectories of
    shape (n + 1, block, d, d), the two map slices of one call's
    (n + 1, 2, block, d, d) output, so a run holds about 97 MB for them at
    d = 21 and 200 steps whatever the ensemble size.
    """
    spin = SpinParams(config.j)
    basis = hermitian_basis(spin)
    states = _ensemble_states(config, spin)
    if config.experiment == "perturb_sweep":
        lam = config.lambda_list[0]
        swept = [(lam, dlam, f"fidelity_dlambda{dlam:g}.csv") for dlam in config.delta_lambda_list]
    else:
        swept = [(lam, config.delta_lambda, f"fidelity_lambda{lam:g}.csv") for lam in config.lambda_list]
    n = len(states)
    blocks = [range(start, min(start + _STATE_BLOCK, n)) for start in range(0, n, _STATE_BLOCK)]
    if not config.resample_observable:
        obs = initial_observable(spin, _subseed(config.seed, _KEY_OBSERVABLE))
    out = []
    for k, (lam, dlam, filename) in enumerate(swept):
        pair = floquet_pair(KickedTopParams(lam, config.alpha, dlam, spin))
        maps = np.stack((pair.true_perturbed, pair.ideal))
        if config.perturb_experimenter:
            maps = maps[::-1]
        if config.resample_observable:
            fid = np.concatenate(
                [_resampled_fidelity(config, spin, basis, states, rows, maps, k) for rows in blocks]
            )
        else:
            trajs = operator_trajectory(obs, maps, config.n_steps)
            fid = fidelity_matrix(
                states, trajs[:, 0], trajs[:, 1], basis, config.noise_sigma, _subseed(config.seed, _KEY_NOISE, k)
            )
        mean, stderr = mean_and_stderr(fid)
        params = _series_params(config, config_hash, **{"lambda": lam}, delta_lambda=dlam)
        out.append((MetricSeries("fidelity", np.arange(1, config.n_steps + 1), mean, stderr, params), filename))
    return out


def _resampled_fidelity(config, spin, basis, states, rows, maps, k) -> np.ndarray:
    """Fidelity rows of the states in ``rows``, each measured through its own
    observable, for the stacked (record, estimator) maps of swept value k."""
    obs = np.stack([initial_observable(spin, _subseed(config.seed, _KEY_OBSERVABLE, i)) for i in rows])
    trajs = operator_trajectory(obs, maps[:, None], config.n_steps)
    noise = [_subseed(config.seed, _KEY_NOISE, k, i, 0) for i in rows]
    return fidelity_matrix(states[rows.start : rows.stop], trajs[:, 0], trajs[:, 1], basis, config.noise_sigma, noise)


def _run_operator_metric(config: ExperimentConfig, config_hash: str):
    """Deterministic operator metrics, one series per kick strength.

    One ``operator_series`` call evolves the shared observable's
    eigenvectors under the true and ideal map of every kick strength at once
    and reduces their overlaps step by step, so no operator trajectory is
    built; each series is bit for bit its one-pair call. Steps run
    0 .. n_steps-1 so every CSV has exactly n_steps rows while the step-0
    anchor value (1 for the echo, 0 for the others) stays visible.
    """
    spin = SpinParams(config.j)
    obs = initial_observable(spin, _subseed(config.seed, _KEY_OBSERVABLE))
    pairs = [floquet_pair(KickedTopParams(lam, config.alpha, config.delta_lambda, spin)) for lam in config.lambda_list]
    values = operator_series(config.experiment, obs, pairs, config.n_steps - 1, config.j)
    out = []
    for lam, row in zip(config.lambda_list, values):
        params = _series_params(config, config_hash, **{"lambda": lam}, delta_lambda=config.delta_lambda)
        series = MetricSeries(config.experiment, np.arange(config.n_steps), row, params=params)
        out.append((series, f"{config.experiment}_lambda{lam:g}.csv"))
    return out


def _run_bloch_perturb(config: ExperimentConfig, config_hash: str):
    spin = SpinParams(config.j)
    basis = hermitian_basis(spin)
    u_r = haar_random_unitary(spin, _subseed(config.seed, _KEY_BASIS_UNITARY))
    states = _ensemble_states(config, spin)
    rotations = np.stack([unitary_fractional_power(u_r, eta) for eta in config.eta_list])
    out = []
    for eta, curves in zip(config.eta_list, ideal_fidelity_curve(states, basis, rotations)):
        mean, stderr = mean_and_stderr(curves)
        params = _series_params(config, config_hash, eta=eta)
        series = MetricSeries("fidelity", np.arange(mean.size), mean, stderr, params)
        out.append((series, f"bloch_eta{eta:g}.csv"))
    return out


_RUNNERS = {
    "fidelity_sweep": _run_fidelity,
    "loschmidt": _run_operator_metric,
    "rel_entropy": _run_operator_metric,
    "otoc": _run_operator_metric,
    "bloch_perturb": _run_bloch_perturb,
    "perturb_sweep": _run_fidelity,
}
EXPERIMENTS = tuple(_RUNNERS)


def run(config: ExperimentConfig) -> RunManifest:
    """Execute one experiment and write its CSVs and manifest to output_dir.

    The manifest is written before the computation starts and finalized
    (duration, file list) afterwards. Identical config and seed produce
    byte-identical CSVs; only manifest timestamps differ between repeats.
    The config was validated when it was built, parsed or not.
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
