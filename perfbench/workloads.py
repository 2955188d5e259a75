"""The benchmark's workloads: what one round computes and how it is checked.

A round takes a master seed, calls the package's public API on inputs made
from that seed, and leaves its outputs for ``check``, which recomputes them
with ``reference`` (never with the package) or tests properties the method
must have. ``check`` returns one message per problem found.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

ALPHA = 1.4
DELTA_LAMBDA = 0.01
SIGMA = 0.1

# A single-shot fidelity must match the reference fit this closely. The
# package's stall-based stop leaves errors up to about 7e-4 at k = 200; the
# ensemble's standard error is about 1e-2.
FIDELITY_TOL = 3e-3
# The Frank-Wolfe gap of a single-shot estimate bounds its excess
# least-squares objective. The bound is five times the noise energy sigma^2 k
# of the record (10 at k = 200): the package's stall-based stop leaves gaps up
# to 0.71 in 1200 draws, and the starting point I/d has gaps above 470.
GAP_NOISE_FACTOR = 5


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns step, value and stderr of a series CSV (comment lines skipped)."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    col = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    return {
        "step": np.array([int(x) for x in col["step"]]),
        "value": np.array([float(x) for x in col["value"]]),
        "stderr": np.array([float(x) if x else np.nan for x in col["stderr"]]),
    }


def _run_experiment(ct, out_dir: Path, **overrides) -> list[Path]:
    config = ct.parse_config(
        overrides={"alpha": ALPHA, "delta_lambda": DELTA_LAMBDA, "output_dir": str(out_dir), **overrides}
    )
    ct.run(config)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return [Path(p) for p in manifest["series_files"]]


@dataclass(frozen=True)
class _Workload:
    j: float

    @property
    def d(self) -> int:
        return int(round(2 * self.j)) + 1

    def prepare(self, ct):
        """Set-up shared by the rounds of a run, outside the timed region."""
        return None


@dataclass(frozen=True)
class Sweep(_Workload):
    """``experiments.run`` with ``fidelity_sweep`` at one kick strength.

    One operation is one fidelity estimate: a state at a record length.
    """

    lam: float
    n_steps: int
    n_states: int
    resample: bool

    @property
    def ops_per_round(self) -> int:
        return self.n_states * self.n_steps

    estimates_per_round = ops_per_round

    def run_round(self, ct, ctx, master: int, out_dir: Path):
        files = _run_experiment(
            ct, out_dir, experiment="fidelity_sweep", j=self.j, lambda_list=(self.lam,),
            n_states=self.n_states, n_steps=self.n_steps, noise_sigma=SIGMA, seed=master,
            resample_observable=self.resample,
        )
        return [read_csv(p) for p in files]

    def check(self, master: int, output) -> list[str]:
        # The record stops short of the lengths where the minimizer is unique
        # (k >= 120 at d = 21), so the fidelity itself depends on the solver's
        # path and only properties every estimate has are checked here.
        (series,) = output
        values, stderr = series["value"], series["stderr"]
        if not np.array_equal(series["step"], np.arange(1, self.n_steps + 1)):
            return [f"steps are not 1..{self.n_steps}"]
        problems = []
        if not np.all((values >= 0) & (values <= 1)):
            problems.append("a mean fidelity lies outside [0, 1]")
        # Fidelities lie in [0, 1], so their sample deviation is at most 1.
        if not np.all((stderr >= 0) & (stderr <= 1 / np.sqrt(self.n_states))):
            problems.append("a standard error lies outside [0, 1/sqrt(n_states)]")
        if not values[-1] > values[0]:
            problems.append(f"no rise: F({self.n_steps}) = {values[-1]:.4f} <= F(1) = {values[0]:.4f}")
        return problems


@dataclass(frozen=True)
class SingleShot(_Workload):
    """Cold ``tomography.reconstruct`` at the full record length.

    One operation is one reconstruction; each is timed on its own.
    """

    lams: tuple
    n_steps: int
    n_states: int

    @property
    def ops_per_round(self) -> int:
        return len(self.lams) * self.n_states

    estimates_per_round = ops_per_round

    def prepare(self, ct):
        spin = ct.SpinParams(self.j)
        return {"spin": spin, "basis": ct.hermitian_basis(spin), "latency_s": []}

    def run_round(self, ct, ctx, master: int, out_dir: Path):
        out = []
        obs = ref.observable(self.j, master)
        for k, lam in enumerate(self.lams):
            pair = ct.floquet_pair(ct.KickedTopParams(lam, ALPHA, DELTA_LAMBDA, ctx["spin"]))
            traj_true = ct.operator_trajectory(obs, pair.true_perturbed, self.n_steps)
            traj_ideal = ct.operator_trajectory(obs, pair.ideal, self.n_steps)
            for i in range(self.n_states):
                psi = ref.state(self.j, master, i)
                noise_seed = np.random.SeedSequence(master, spawn_key=(ref.KEY_NOISE, k, i))
                record = ct.simulate_record(ct.pure_state_density(psi), traj_true, SIGMA, noise_seed)
                start = time.perf_counter()
                estimate = ct.reconstruct(record, traj_ideal, ctx["basis"], psi0=psi)
                ctx["latency_s"].append(time.perf_counter() - start)
                out.append((k, i, estimate.rho_bar, estimate.fidelity))
        return out

    def check(self, master: int, output) -> list[str]:
        problems = []
        obs = ref.observable(self.j, master)
        ops = {}  # kick-strength index -> (true, ideal) reference operators O_1..O_n
        for k, i, rho, fid in output:
            lam = self.lams[k]
            if k not in ops:
                ops[k] = tuple(
                    ref.trajectory(obs, ref.kicked_top(self.j, kick, ALPHA), self.n_steps)
                    for kick in (lam + DELTA_LAMBDA, lam)
                )
            ops_true, ops_ideal = ops[k]
            psi = ref.state(self.j, master, i)
            values = ref.record(psi, ops_true, ref.noise(master, (ref.KEY_NOISE, k, i), SIGMA, self.n_steps))
            where = f"lambda={lam}, state {i}"
            if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
                problems.append(f"{where}: rho_bar is not Hermitian")
            if abs(np.trace(rho).real - 1) > 1e-10:
                problems.append(f"{where}: Tr rho_bar = {np.trace(rho).real:.12f}")
            lam_min = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
            if lam_min < -1e-10:
                problems.append(f"{where}: lambda_min(rho_bar) = {lam_min:.2e}")
            gap = ref.frank_wolfe_gap(ops_ideal, values, rho)
            if not gap <= GAP_NOISE_FACTOR * SIGMA**2 * self.n_steps:
                problems.append(f"{where}: Frank-Wolfe gap {gap:.3g} above {GAP_NOISE_FACTOR} sigma^2 k")
            overlap = min(max((psi.conj() @ rho @ psi).real, 0.0), 1.0)
            if abs(fid - overlap) > 1e-12:
                problems.append(f"{where}: fidelity {fid} is not <psi|rho_bar|psi> = {overlap}")
            # The reference fit costs seconds at d = 21, so only round 0 of a
            # run (master seed 1000 * seed) gets one.
            if master % 1000 == 0 and (k, i) == (0, 0):
                ref_rho, _ = ref.fit_density(ops_ideal, values)
                want = (psi.conj() @ ref_rho @ psi).real
                if abs(fid - want) > FIDELITY_TOL:
                    problems.append(f"{where}: fidelity {fid:.6f}, reference fit {want:.6f}")
        return problems


@dataclass(frozen=True)
class Diagnostics(_Workload):
    """``experiments.run`` for the operator metrics and the Bloch analysis.

    One operation is one series (one CSV).
    """

    lams: tuple
    n_steps: int
    etas: tuple
    n_states: int

    METRICS = ("loschmidt", "rel_entropy", "otoc")

    @property
    def ops_per_round(self) -> int:
        return len(self.METRICS) * len(self.lams) + len(self.etas)

    estimates_per_round = 0

    def run_round(self, ct, ctx, master: int, out_dir: Path):
        out = {}
        common = {"j": self.j, "n_steps": self.n_steps, "seed": master}
        for metric in self.METRICS:
            files = _run_experiment(ct, out_dir / metric, experiment=metric, lambda_list=self.lams, **common)
            out[metric] = [read_csv(p) for p in files]
        files = _run_experiment(
            ct, out_dir / "bloch", experiment="bloch_perturb", eta_list=self.etas, n_states=self.n_states, **common
        )
        out["bloch"] = [read_csv(p) for p in files]
        return out

    def check(self, master: int, output) -> list[str]:
        problems = []
        last = self.n_steps - 1
        rng = np.random.default_rng(master)
        steps = sorted({1, last, *rng.integers(2, last, size=2).tolist()})
        obs = ref.observable(self.j, master)
        norm = np.trace(obs @ obs).real
        for k, lam in enumerate(self.lams):
            u_true = ref.kicked_top(self.j, lam + DELTA_LAMBDA, ALPHA)
            u_ideal = ref.kicked_top(self.j, lam, ALPHA)
            true_ops = ref.heisenberg(obs, u_true, steps)
            ideal_ops = ref.heisenberg(obs, u_ideal, steps)
            echo, entropy, otoc = (output[m][k]["value"] for m in self.METRICS)
            where = f"lambda={lam}"
            if any(len(v) != self.n_steps for v in (echo, entropy, otoc)):
                problems.append(f"{where}: a series does not have {self.n_steps} rows")
                continue
            if abs(echo[0] - 1) > 1e-12 or np.max(np.abs(echo)) > 1 + 1e-12:
                problems.append(f"{where}: echo(0) = {echo[0]!r}, max |echo| = {np.max(np.abs(echo))!r}")
            if abs(entropy[0]) > 1e-9 or np.min(entropy) < -1e-12:
                problems.append(f"{where}: S(0) = {entropy[0]!r}, min S = {np.min(entropy)!r}")
            if otoc[0] > 1e-12 or np.min(otoc) < 0:
                problems.append(f"{where}: C(0) = {otoc[0]!r}, min C = {np.min(otoc)!r}")
            for n in steps:
                a, b = true_ops[n], ideal_ops[n]
                comm = a @ b - b @ a
                error_u = np.linalg.matrix_power(u_true, n) @ np.linalg.matrix_power(u_ideal, n).conj().T
                turned = error_u @ obs @ error_u.conj().T
                comm_err = obs @ turned - turned @ obs
                expected = {
                    "echo": (echo[n], np.trace(a @ b).real / norm),
                    "relative entropy": (entropy[n], ref.relative_entropy(a, b)),
                    "OTOC": (otoc[n], np.sum(np.abs(comm) ** 2) / (2 * self.j**4)),
                    "OTOC, error-unitary form": (otoc[n], np.sum(np.abs(comm_err) ** 2) / (2 * self.j**4)),
                }
                for label, (got, want) in expected.items():
                    if abs(got - want) > 1e-7 * max(abs(want), 1e-5):
                        problems.append(f"{where}, step {n}: {label} {got!r}, reference {want!r}")
        for eta, series in zip(self.etas, output["bloch"]):
            curve = series["value"]
            if len(curve) != self.d**2 or abs(curve[0] - 1 / self.d) > 1e-12 or np.max(curve) > 1 + 1e-9:
                problems.append(f"eta={eta}: Bloch curve does not start at 1/d or exceeds 1")
            elif eta == 0 and abs(curve[-1] - 1) > 1e-9:
                problems.append(f"eta=0: Bloch curve ends at {curve[-1]!r}, not 1")
        return problems


WORKLOADS = {
    "sweep_batched": Sweep(j=10, lam=7.0, n_steps=24, n_states=4, resample=False),
    "sweep_resampled": Sweep(j=10, lam=0.5, n_steps=24, n_states=2, resample=True),
    "single_shot": SingleShot(j=10, lams=(0.5, 2.5, 7.0), n_steps=200, n_states=2),
    "diagnostics": Diagnostics(j=10, lams=(0.5, 2.5, 7.0), n_steps=200, etas=(0.0, 0.1, 0.3), n_states=100),
}
