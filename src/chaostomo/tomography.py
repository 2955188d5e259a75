"""Noisy measurement records, least-squares state estimation, and the
projection onto physical states.

The record is the time series of ensemble expectation values of an evolving
observable plus additive Gaussian noise. Estimation works in operator space:
with O_k the traceless measured operators and G = Tr(O_k O_l) their Gram
matrix (= D D^T for the Bloch design D), rho_ml = I/d + sum_k c_k O_k with
c = G^+ M from a rank-revealing pseudoinverse. Projected gradient descent
then minimizes sum_k Tr(O_k (rho - rho_ml))^2 over density matrices; the
Euclidean projection is the eigenvalue projection onto the probability
simplex (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import MetricSeries, mean_and_stderr
from .spin_algebra import _interleaved, from_bloch, pure_state_density, to_bloch

__all__ = [
    "MeasurementRecord",
    "CovarianceMatrix",
    "TomographyEstimate",
    "ProjectionConvergenceError",
    "simulate_record",
    "design_matrix",
    "covariance",
    "ml_estimate",
    "psd_project",
    "reconstruct",
    "fidelity",
    "fidelity_matrix",
    "ensemble_average_fidelity",
]

DEFAULT_RCOND = 1e-10
# Relative objective change below which a projection row counts as converged.
_PROJECTION_TOL = 1e-8
# Iteration cap of the physicality projection. Prefix sweeps re-solve 200
# closely related problems, and the few steps that land in a thin valley of
# the constrained landscape need this budget; typical solves take hundreds.
DEFAULT_MAX_ITER = 50_000

_OBJECTIVE_FLOOR = 1e-30

# Iterate-displacement scale (relative to max(1, |rho_ml - I/d|) in the move
# measure) below which a projection step counts as stagnant. Must sit above
# the float-resolution wobble of the project/eigh pipeline.
_MOVE_FLOOR_SCALE = 2e-11


@dataclass
class MeasurementRecord:
    """Expectation-value time series M_1..M_n and the noise spread used."""

    values: np.ndarray
    noise_sigma: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    def __len__(self) -> int:
        return self.values.size


@dataclass
class CovarianceMatrix:
    """Pseudoinverse of the normal matrix and its numerical rank.

    Rank 0 (all-zero design) is signaled through the ``rank`` field rather
    than an exception; the entries are then all zero.
    """

    entries: np.ndarray
    rank: int


@dataclass
class TomographyEstimate:
    """Least-squares estimate, its physical projection, and optional fidelity."""

    r_ml: np.ndarray
    r_bar: np.ndarray
    rho_bar: np.ndarray
    fidelity: float | None = None


class ProjectionConvergenceError(RuntimeError):
    """Physicality projection hit the iteration cap.

    Carries the best (feasible) iterate reached so far in ``r_bar`` /
    ``rho_bar``.
    """

    def __init__(self, message: str, r_bar: np.ndarray, rho_bar: np.ndarray):
        super().__init__(message)
        self.r_bar = r_bar
        self.rho_bar = rho_bar


def simulate_record(rho0: np.ndarray, traj: np.ndarray, sigma: float, seed) -> MeasurementRecord:
    """Record M_k = Tr(O_k rho0) + w_k over steps 1..n of the trajectory.

    Step 0 (the unevolved observable) is not measured. The noise terms are
    i.i.d. Gaussian with standard deviation ``sigma``.
    """
    rho0 = np.asarray(rho0)
    traj = np.asarray(traj)
    if rho0.shape != traj.shape[1:]:
        raise ValueError(f"state shape {rho0.shape} does not match trajectory {traj.shape[1:]}")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    expectations = np.einsum("kij,ji->k", traj[1:], rho0).real
    noise = np.random.default_rng(seed).normal(0.0, sigma, size=expectations.size)
    return MeasurementRecord(expectations + noise, sigma)


def design_matrix(traj: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Real matrix of basis components Tr(O_k E_a), one row per operator given."""
    return to_bloch(traj, basis)


def _mixed(d: int) -> np.ndarray:
    """The maximally mixed state I/d as an interleaved row."""
    return _interleaved(np.eye(d) / d)


def _operator_table(traj: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Traceless parts of the operators in ``traj`` as interleaved rows."""
    traj = np.asarray(traj)
    if traj.shape[1:] != basis.shape[1:]:
        raise ValueError(f"trajectory shape {traj.shape[1:]} does not match basis {basis.shape[1:]}")
    d = basis.shape[1]
    traces = np.trace(traj, axis1=1, axis2=2).real
    return _interleaved(traj - traces[:, None, None] * np.eye(d) / d)


def _pseudoinverse(gram: np.ndarray, rcond: float) -> tuple[np.ndarray, int, float]:
    """Pseudoinverse of a PSD matrix, its rank and its largest eigenvalue.

    Eigenvalues at or below ``rcond`` times the largest are treated as zero;
    without a positive eigenvalue the result is all zeros with rank 0.
    """
    if rcond <= 0:
        raise ValueError("rcond must be > 0")
    gram = (gram + gram.T) / 2
    w, v = np.linalg.eigh(gram)
    w_max = float(w[-1]) if w.size else 0.0
    if w_max <= 0:
        return np.zeros_like(gram), 0, w_max
    keep = w > rcond * w_max
    vk = v[:, keep]
    entries = (vk / w[keep]) @ vk.T
    return (entries + entries.T) / 2, int(np.count_nonzero(keep)), w_max


def covariance(design: np.ndarray, rcond: float = DEFAULT_RCOND) -> CovarianceMatrix:
    """Moore-Penrose pseudoinverse of design^T design.

    Eigenvalues at or below ``rcond`` times the largest are treated as zero;
    the count of retained eigenvalues is reported as the rank.
    """
    design = np.asarray(design, dtype=float)
    entries, rank, _ = _pseudoinverse(design.T @ design, rcond)
    return CovarianceMatrix(entries, rank)


def ml_estimate(cov: CovarianceMatrix, design: np.ndarray, record: MeasurementRecord) -> np.ndarray:
    """Least-squares Bloch estimate C design^T M; zero on the unmeasured subspace."""
    design = np.asarray(design, dtype=float)
    if design.shape[0] != len(record):
        raise ValueError(
            f"design has {design.shape[0]} rows but record has {len(record)} samples"
        )
    if cov.entries.shape != (design.shape[1], design.shape[1]):
        raise ValueError("covariance shape does not match design columns")
    return cov.entries @ (design.T @ record.values)


def _simplex_project(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of spectra onto the probability simplex (batched)."""
    u = np.sort(w, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    counts = np.arange(1, w.shape[-1] + 1)
    positive = u + (1.0 - css) / counts > 0
    last = w.shape[-1] - 1 - np.argmax(positive[..., ::-1], axis=-1)
    css_last = np.take_along_axis(css, last[..., None], axis=-1)
    shift = (1.0 - css_last) / (last + 1)[..., None]
    return np.maximum(w + shift, 0.0)


def _project_feasible(x: np.ndarray, d: int) -> np.ndarray:
    """Closest physical state (Frobenius norm) to each interleaved row's matrix."""
    m = x.view(complex).reshape(-1, d, d)
    m = (m + np.conjugate(np.swapaxes(m, -1, -2))) / 2
    w, v = np.linalg.eigh(m)
    w_proj = _simplex_project(w)
    return _interleaved((v * w_proj[:, None, :]) @ np.conjugate(np.swapaxes(v, -1, -2)))


def _projected_gradient(
    table: np.ndarray,
    x_ml: np.ndarray,
    lam_max: float,
    max_iter: int,
    x_start: np.ndarray | None,
    basis: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize sum_k Tr(O_k (rho - rho_ml))^2 over density matrices, batched.

    ``table`` and ``x_ml`` hold the operators O_k and rho_ml (one or a batch)
    as interleaved rows; ``lam_max`` is the top eigenvalue of Tr(O_k O_l).
    Projected gradient with fixed step 1/lam_max, Nesterov momentum, and a
    function restart whenever the (feasible) objective rises; the momentum
    cuts the iteration count by roughly the square root of the condition
    number without changing the minimum. A batch row is frozen once its
    relative objective change falls below ``_PROJECTION_TOL`` or it stops
    moving at float resolution, so stragglers do not keep the whole batch
    iterating. Returns
    Bloch components in ``basis`` and density matrices, batched like x_ml;
    raises ProjectionConvergenceError with both at the iteration cap.
    """
    d = basis.shape[1]
    single = x_ml.ndim == 1
    x_ml = np.atleast_2d(x_ml)

    def result(x):
        rho = x.view(complex).reshape(-1, d, d)
        r = to_bloch(rho, basis)
        return (r[0], rho[0]) if single else (r, rho)

    x = _project_feasible(x_ml if x_start is None else np.atleast_2d(x_start), d)
    if lam_max <= 0:
        # Zero objective everywhere; any feasible point is optimal.
        return result(x)
    resid = (x - x_ml) @ table.T
    obj = np.einsum("bk,bk->b", resid, resid)
    # Moves are sqrt(2) times the largest real or imaginary entry change: the
    # largest off-diagonal Bloch change for generalized Gell-Mann. A Frobenius
    # norm reads ~sqrt(d^2 - 1) times larger at float wobble and would never
    # fall below the floor.
    ml_size = np.sqrt(2) * float(np.max(np.abs(x_ml - _mixed(d))))
    move_floor = _MOVE_FLOOR_SCALE * max(1.0, ml_size)
    # Momentum-point state; the residual is affine in its argument, so the
    # residual at y comes from combining feasible-point residuals, and each
    # iteration costs one matmul per direction against the table.
    y = x.copy()
    y_resid = resid.copy()
    momentum = np.zeros(len(x))
    active = np.arange(len(x))
    for _ in range(max_iter):
        x_new = _project_feasible(y[active] - (y_resid[active] @ table) / lam_max, d)
        resid_new = (x_new - x_ml[active]) @ table.T
        obj_new = np.einsum("bk,bk->b", resid_new, resid_new)
        rose = obj_new > obj[active]
        momentum[active] = np.where(rose, 0.0, momentum[active] + 1.0)
        beta = (momentum[active] / (momentum[active] + 3.0))[:, None]
        y[active] = x_new + beta * (x_new - x[active])
        y_resid[active] = resid_new + beta * (resid_new - resid[active])
        moved = np.sqrt(2) * np.max(np.abs(x_new - x[active]), axis=1)
        done = (
            np.abs(obj[active] - obj_new)
            <= _PROJECTION_TOL * np.maximum(obj_new, 0.0) + _OBJECTIVE_FLOOR
        ) | (moved <= move_floor)
        x[active], resid[active], obj[active] = x_new, resid_new, obj_new
        if done.any():
            active = active[~done]
            if active.size == 0:
                return result(x)
    r_bar, rho_bar = result(x)
    raise ProjectionConvergenceError(
        f"physicality projection did not converge within {max_iter} iterations",
        r_bar=r_bar,
        rho_bar=rho_bar,
    )


def psd_project(
    r_ml: np.ndarray,
    c_inv: np.ndarray,
    basis: np.ndarray,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray]:
    """Closest physical Bloch vector to r_ml in the metric of c_inv = design^T design.

    Returns the projected components and the corresponding density matrix
    (positive semidefinite, unit trace).
    """
    r_ml = np.asarray(r_ml, dtype=float)
    c_inv = np.asarray(c_inv, dtype=float)
    n_basis = basis.shape[0]
    if r_ml.shape != (n_basis,) or c_inv.shape != (n_basis, n_basis):
        raise ValueError("r_ml / weight matrix shapes do not match the basis")
    # c_inv = B^T B with rows sqrt(w) v^T (w > 0); the rows of B, mapped to
    # operators through the basis, give the operator-space objective.
    w, v = np.linalg.eigh((c_inv + c_inv.T) / 2)
    keep = w > 0
    table = (v[:, keep] * np.sqrt(w[keep])).T @ _interleaved(basis)
    return _projected_gradient(
        table, _interleaved(from_bloch(r_ml, basis)), float(w[-1]), max_iter, None, basis
    )


def fidelity(psi0: np.ndarray, rho: np.ndarray) -> float:
    """Overlap <psi0| rho |psi0>, clamped to [0, 1] for reporting."""
    psi0 = np.asarray(psi0)
    rho = np.asarray(rho)
    if rho.shape != (psi0.size, psi0.size):
        raise ValueError("state and density matrix dimensions do not match")
    value = (psi0.conj() @ rho @ psi0).real
    return float(min(max(value, 0.0), 1.0))


def reconstruct(
    record: MeasurementRecord,
    experimenter_traj: np.ndarray,
    basis: np.ndarray,
    psi0: np.ndarray | None = None,
) -> TomographyEstimate:
    """Full estimation pipeline using the experimenter's operator trajectory.

    The trajectory must include the unmeasured step-0 observable, i.e. have
    one more entry than the record. When the record came from different
    (true) dynamics, the estimate is correspondingly biased — that mismatch
    is the object of study, not an error.
    """
    traj = np.asarray(experimenter_traj)
    if len(traj) != len(record) + 1:
        raise ValueError(
            f"trajectory must hold {len(record) + 1} operators (step 0 included), got {len(traj)}"
        )
    table = _operator_table(traj[1:], basis)
    pinv, _, lam_max = _pseudoinverse(table @ table.T, DEFAULT_RCOND)
    x_ml = _mixed(basis.shape[1]) + (pinv @ record.values) @ table
    r_bar, rho_bar = _projected_gradient(table, x_ml, lam_max, DEFAULT_MAX_ITER, None, basis)
    r_ml = to_bloch(x_ml.view(complex).reshape(basis.shape[1:]), basis)
    fid = fidelity(psi0, rho_bar) if psi0 is not None else None
    return TomographyEstimate(r_ml=r_ml, r_bar=r_bar, rho_bar=rho_bar, fidelity=fid)


def fidelity_matrix(
    states: np.ndarray,
    traj_true: np.ndarray,
    traj_ideal: np.ndarray,
    basis: np.ndarray,
    sigma: float,
    noise_seed,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Per-state reconstruction fidelity at every record length, shape (n_states, n).

    Records are simulated from the true trajectory (rows of ``states`` get
    independent noise streams: row i's has ``noise_seed``'s spawn key plus
    (i,), and a SeedSequence passed in is not advanced); estimation uses
    the experimenter's (ideal) trajectory. Each reconstruction starts from
    the previous record length's solution, which cuts the iteration count
    sharply. Below the record length where the minimizer becomes unique the
    minimizers form a face, and the warm start picks a point on it (which a
    cold ``reconstruct`` of the same record need not pick).
    """
    psi = np.atleast_2d(np.asarray(states))
    traj_true = np.asarray(traj_true)
    traj_ideal = np.asarray(traj_ideal)
    if traj_true.shape != traj_ideal.shape:
        raise ValueError("true and experimenter trajectories must have equal shape")
    n_steps = len(traj_true) - 1
    n_batch = len(psi)

    seq = noise_seed if isinstance(noise_seed, np.random.SeedSequence) else np.random.SeedSequence(noise_seed)
    children = [np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (i,), pool_size=seq.pool_size)
                for i in range(n_batch)]
    records = np.stack(
        [
            simulate_record(pure_state_density(s), traj_true, sigma, child).values
            for s, child in zip(psi, children)
        ]
    )

    table = _operator_table(traj_ideal[1:], basis)
    gram = table @ table.T
    mixed = _mixed(basis.shape[1])
    x_warm = np.tile(mixed, (n_batch, 1))
    fid = np.empty((n_batch, n_steps))
    for k in range(1, n_steps + 1):
        pinv, _, lam_max = _pseudoinverse(gram[:k, :k], DEFAULT_RCOND)
        x_ml = mixed + (records[:, :k] @ pinv) @ table[:k]
        _, rho_bar = _projected_gradient(table[:k], x_ml, lam_max, max_iter, x_warm, basis)
        x_warm = _interleaved(rho_bar)
        overlap = np.einsum("bi,bij,bj->b", psi.conj(), rho_bar, psi).real
        fid[:, k - 1] = np.clip(overlap, 0.0, 1.0)
    return fid


def ensemble_average_fidelity(
    states: np.ndarray,
    traj_true: np.ndarray,
    traj_ideal: np.ndarray,
    basis: np.ndarray,
    sigma: float,
    noise_seed,
) -> MetricSeries:
    """Mean reconstruction fidelity over a state ensemble, with standard error."""
    if len(states) == 0:
        raise ValueError("need at least one state")
    fid = fidelity_matrix(states, traj_true, traj_ideal, basis, sigma, noise_seed)
    mean, stderr = mean_and_stderr(fid)
    times = np.arange(1, fid.shape[1] + 1)
    return MetricSeries("fidelity", times, mean, stderr)
