"""Noisy measurement records, least-squares state estimation, and the
projection onto physical states.

The record is the time series of ensemble expectation values of an evolving
observable plus additive Gaussian noise. Estimation works in operator space:
with O_k the traceless measured operators and G = Tr(O_k O_l) their Gram
matrix (= D D^T for the Bloch design D), rho_ml = I/d + sum_k c_k O_k with
c = G^+ M from a rank-revealing pseudoinverse. Projected gradient descent
then minimizes sum_k Tr(O_k (rho - rho_ml))^2 over density matrices; the
Euclidean projection is the eigenvalue projection onto the probability
simplex (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)), which is
P_D(Y) = Y + (1 - Tr Y)/d I whenever that matrix is positive definite; rows
flagged by their last projection test this per row with a Cholesky
factorization before any eigensolver, so each row of a batch still equals its
one-row call bit for bit. A solve stops on a relative stall of the objective,
or on an objective floor that, as the optimum is >= 0, certifies exactly
fitted records (short or noiseless ones). The step follows from the start:
warm-started sweeps and cold solves (``reconstruct``, ``psd_project``) take
the two step rules given in ``_projected_gradient``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
]

DEFAULT_RCOND = 1e-10
# Stop rules of a projection row: a relative objective change at most
# _PROJECTION_TOL (a stall, which cannot fire as obj -> 0), or an objective at
# most _FIT_TOL times the fitted-record energy (a certificate, as obj* >= 0).
# At 1e-12 noiseless matched sweeps dip and miss the true state.
_PROJECTION_TOL = 1e-8
_FIT_TOL = 1e-14
# Iteration cap of the physicality projection. Prefix sweeps re-solve 200
# closely related problems, and the few steps that land in a thin valley of
# the constrained landscape need this budget; at d = 21 a median step takes
# about 100 iterations and the slowest of 200 up to about 1 500. A cold solve
# at d = 21, k = 200, sigma = 0.1 takes a median of 72 iterations and at most
# 142 over 60 draws (144 and 229 with the fixed step of sweeps).
DEFAULT_MAX_ITER = 50_000


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
    """Traceless parts of the operators in ``traj`` (..., d, d) as interleaved rows."""
    traj = np.asarray(traj)
    if traj.shape[-2:] != basis.shape[1:]:
        raise ValueError(f"trajectory shape {traj.shape[-2:]} does not match basis {basis.shape[1:]}")
    d = basis.shape[1]
    traces = np.trace(traj, axis1=-2, axis2=-1).real
    # One C-ordered copy (per-state trajectories arrive as a step-major view),
    # made traceless in place through the real parts of its diagonal.
    table = _interleaved(np.array(traj, dtype=complex, order="C"))
    table[..., :: 2 * (d + 1)] -= traces[..., None] / d
    return table


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
    """Euclidean projection of spectra onto the probability simplex, one per row.

    Each row of ``w`` (r, d) must be sorted ascending, as ``eigh`` returns it.
    """
    u = w[:, ::-1]
    css = np.cumsum(u, axis=-1)
    shifts = (1.0 - css) / np.arange(1, w.shape[-1] + 1)
    last = w.shape[-1] - 1 - np.argmax((u + shifts > 0)[:, ::-1], axis=-1)
    return np.maximum(w + shifts[np.arange(len(w)), last][:, None], 0.0)


def _spectral_project(m: np.ndarray, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue projection of Hermitian matrices (r, d, d) onto density matrices,
    and whether each clipped nothing (its least eigenvalue is above ``margin``)."""
    w, v = np.linalg.eigh(m)
    w_proj = _simplex_project(w)
    return (v * w_proj[:, None, :]) @ np.conjugate(np.swapaxes(v, -1, -2)), w_proj[:, 0] > margin


def _project_feasible(x: np.ndarray, d: int, interior: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closest physical state (Frobenius norm) to each interleaved row's matrix Y,
    and whether each projection clipped no eigenvalue. Flagged rows first try
    Y + (1 - Tr Y)/d I, kept if Cholesky finds it positive definite by d^2 eps
    (about its backward error, so pure states and other rank-deficient rows fail)."""
    m = x.view(complex).reshape(-1, d, d)
    m = (m + np.conjugate(np.swapaxes(m, -1, -2))) / 2
    margin = d * d * np.finfo(float).eps
    if not interior.any():
        rho, interior = _spectral_project(m, margin)
        return _interleaved(rho), interior
    interior, eye = interior.copy(), np.eye(d)
    for i in np.flatnonzero(interior):
        shifted = m[i] + (1.0 - np.trace(m[i]).real) / d * eye
        try:
            np.linalg.cholesky(shifted - margin * eye)
        except np.linalg.LinAlgError:
            interior[i] = False
        else:
            m[i] = shifted
    clip = np.flatnonzero(~interior)
    if clip.size:
        m[clip], interior[clip] = _spectral_project(m[clip], margin)
    return _interleaved(m), interior


def _physical(x: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bloch components in ``basis`` (b, d^2 - 1) and density matrices
    (b, d, d) of interleaved rows (b, 2d^2)."""
    rho = x.view(complex).reshape(-1, *basis.shape[1:])
    return to_bloch(rho, basis), rho


def _per_table(rows: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Product of rows (r, m) with their tables (g, m, p), in g equal groups of
    consecutive rows: shape (r, p)."""
    return (rows.reshape(len(tables), -1, rows.shape[-1]) @ tables).reshape(len(rows), -1)


def _least_squares(
    tables: np.ndarray, grams: np.ndarray, records: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares states rho_ml = I/d + sum_k c_k O_k, c = G^+ M, as interleaved
    rows (b, 2d^2), and the top eigenvalue of each Gram matrix G (g,), for records
    (b, k) in g equal groups of rows with tables (g, k, 2d^2) and grams (g, k, k)."""
    solved = [_pseudoinverse(gram, DEFAULT_RCOND) for gram in grams]
    pinv = np.stack([entries for entries, _, _ in solved])
    lam_max = np.array([w_max for _, _, w_max in solved])
    return _mixed(d) + _per_table(_per_table(records, pinv), tables), lam_max


def _projected_gradient(
    tables: np.ndarray,
    x_ml: np.ndarray,
    lam_max: np.ndarray,
    max_iter: int,
    basis: np.ndarray,
    x_start: np.ndarray | None = None,
) -> np.ndarray:
    """Minimize sum_k Tr(O_k (rho - rho_ml))^2 over density matrices, row by row.

    ``x_ml`` holds rho_ml as interleaved rows (b, 2d^2); ``tables``
    (g, k, 2d^2) the operators O_k as interleaved rows, one table shared by
    every row (g = 1) or one per row (g = b); ``lam_max`` (g,) the top
    eigenvalue of each table's Gram matrix Tr(O_k O_l); ``x_start`` the rows
    of a warm start (projected first), shaped like x_ml, or None for a cold
    solve from rho_ml.
    Projected gradient with step 1/L, Nesterov momentum, and a function
    restart whenever the (feasible) objective rises; the momentum cuts the
    iteration count by roughly the square root of the condition number
    without changing the minimum. The start selects L. A warm start (a
    sweep's previous record length) keeps L = lam_max, so the path, which
    defines the sweep's estimate below uniqueness, stays fixed. A cold solve
    (whose minimizer is unique at full record length) starts each row at
    L = lam_max/4; after each step s = x_new - y, L rises to the measured
    curvature |T s|^2 / |s|^2 if that exceeds it and otherwise shrinks by
    0.9, kept in [lam_max/4, lam_max]. Both norms come from arrays the loop
    holds, so adapting costs no matmul or projection, and warm rows skip it.
    A row stops once its relative
    objective change falls below ``_PROJECTION_TOL`` (a stall) or its
    objective falls to ``_FIT_TOL`` times its fitted-record energy
    sum_k Tr(O_k rho_ml)^2 plus rounding. The optimum is >= 0, so the
    objective bounds the suboptimality and the second rule certifies exactly
    fitted rows, which a stall cannot end. Each row carries a flag, "the last
    projection clipped nothing" (every row at the start, a warm start being
    the previous record length's solution); a flagged row tries
    P_D(Y) = Y + (1 - Tr Y)/d I, exact whenever that matrix is positive
    definite, before eigh. The working arrays hold only the rows still
    iterating, so stragglers iterate alone; with one table per row, each
    row's arithmetic, flag included, is that of a one-row call. Returns the
    solutions as interleaved rows (b, 2d^2); raises
    ProjectionConvergenceError with their Bloch components and density
    matrices at the iteration cap.
    """
    d = basis.shape[1]
    cold = x_start is None
    x_out, interior = _project_feasible(x_ml if cold else x_start, d, np.ones(len(x_ml), bool))
    per_row = len(tables) > 1
    lam = np.repeat(lam_max, len(x_ml) // len(tables))
    rows = np.flatnonzero(lam > 0)
    if rows.size == 0:
        # A zero Gram matrix makes the objective zero: any feasible point is optimal.
        return x_out
    # Per-row tables are copied once, so the caller's stay intact, and then
    # compacted in place.
    tables = tables[rows] if per_row else tables
    x, x_ml, lam, interior = x_out[rows], x_ml[rows], lam[rows], interior[rows]
    resid = _per_table(x - x_ml, tables.swapaxes(-1, -2))
    obj = np.einsum("bk,bk->b", resid, resid)
    fit = _per_table(x_ml - _mixed(d), tables.swapaxes(-1, -2))
    energy = np.einsum("bk,bk->b", fit, fit)
    # Plus the objective's rounding level, lam_max (d eps)^2: with rho_ml at
    # I/d (an all-zero record) the energy is 0 while the objective wobbles.
    obj_floor = _FIT_TOL * energy + lam * (d * np.finfo(float).eps) ** 2
    # Momentum-point state; the residual is affine in its argument, so the
    # residual at y comes from combining feasible-point residuals, and each
    # iteration costs one matmul per direction against the table.
    y, y_resid = x, resid
    momentum = np.zeros(len(x))
    lip = lam / 4 if cold else lam
    for _ in range(max_iter):
        x_new, interior = _project_feasible(y - _per_table(y_resid, tables) / lip[:, None], d, interior)
        resid_new = _per_table(x_new - x_ml, tables.swapaxes(-1, -2))
        obj_new = np.einsum("bk,bk->b", resid_new, resid_new)
        if cold:
            # Curvature |T s|^2 / |s|^2 of the step s = x_new - y, from arrays at hand.
            s, ts = x_new - y, resid_new - y_resid
            ss, curv = np.einsum("bi,bi->b", s, s), np.einsum("bk,bk->b", ts, ts)
            curv = np.divide(curv, ss, out=np.zeros_like(ss), where=ss > 0)
            lip = np.clip(np.where(curv > lip, curv, 0.9 * lip), lam / 4, lam)
        momentum = np.where(obj_new > obj, 0.0, momentum + 1.0)
        beta = (momentum / (momentum + 3.0))[:, None]
        y = x_new + beta * (x_new - x)
        y_resid = resid_new + beta * (resid_new - resid)
        done = (np.abs(obj - obj_new) <= _PROJECTION_TOL * obj_new) | (obj_new <= obj_floor)
        x, resid, obj = x_new, resid_new, obj_new
        if done.any():
            x_out[rows[done]] = x[done]
            keep = ~done
            if not keep.any():
                return x_out
            rows, x, resid, obj, y, y_resid, momentum, interior, x_ml, lam, lip, obj_floor = (
                a[keep] for a in (rows, x, resid, obj, y, y_resid, momentum, interior, x_ml, lam, lip, obj_floor)
            )
            if per_row:
                for dst, src in enumerate(np.flatnonzero(keep)):
                    tables[dst] = tables[src]
                tables = tables[: len(rows)]
    x_out[rows] = x
    raise ProjectionConvergenceError(
        f"physicality projection did not converge within {max_iter} iterations",
        *_physical(x_out, basis),
    )


def _cold_solve(
    table: np.ndarray, x_ml: np.ndarray, lam_max: np.ndarray, max_iter: int, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bloch components and density matrix of the cold ``_projected_gradient``
    solve of one row x_ml (1, 2d^2); a ProjectionConvergenceError carries
    that row's iterate alone."""
    try:
        r, rho = _physical(_projected_gradient(table, x_ml, lam_max, max_iter, basis), basis)
    except ProjectionConvergenceError as exc:
        raise ProjectionConvergenceError(str(exc), exc.r_bar[0], exc.rho_bar[0]) from None
    return r[0], rho[0]


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
    x_ml = _interleaved(from_bloch(r_ml, basis))
    return _cold_solve(table[None], x_ml[None], w[-1:], max_iter, basis)


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
    # The one-row case of fidelity_matrix's least-squares step, solved cold.
    table = _operator_table(traj[None, 1:], basis)
    x_ml, lam_max = _least_squares(table, table @ table.swapaxes(-1, -2), record.values[None], basis.shape[1])
    r_bar, rho_bar = _cold_solve(table, x_ml, lam_max, DEFAULT_MAX_ITER, basis)
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

    The trajectories hold the operators of steps 0..n: shape (n + 1, d, d)
    for one observable shared by all states, or (n + 1, n_states, d, d) for
    one observable per state (column i is state i's trajectory). Records are
    simulated from the true trajectory; estimation uses the experimenter's
    (ideal) one. Row i's noise stream has ``noise_seed``'s spawn key plus
    (i,), and a SeedSequence passed in is not advanced; a list of
    SeedSequences, one per state, gives the rows' streams themselves. Each
    reconstruction starts from the previous record length's solution, which
    cuts the iteration count sharply. Below the record length where the
    minimizer becomes unique the minimizers form a face, and the warm start
    picks a point on it (which a cold ``reconstruct`` of the same record
    need not pick).

    All rows share one projection loop. With per-state trajectories every
    row has its own operator table, Gram pseudoinverse and step, and its
    fidelities equal those of a one-row call bit for bit. Such a call holds
    about 6 MB per state at d = 21 and 200 steps (the two trajectories
    2.8 MB, the operator table and the projection's working copy of it
    2.8 MB, the Gram matrix 0.3 MB; 97 MB measured for 16 states), so large
    ensembles go in blocks of states.
    """
    psi = np.atleast_2d(np.asarray(states))
    traj_true = np.asarray(traj_true)
    traj_ideal = np.asarray(traj_ideal)
    if psi.size == 0:
        raise ValueError("need at least one state")
    if traj_true.shape != traj_ideal.shape:
        raise ValueError("true and experimenter trajectories must have equal shape")
    if len(traj_true) < 2:
        raise ValueError("trajectories must hold step 0 and at least one measured step")
    n_steps = len(traj_true) - 1
    n_batch = len(psi)
    per_state = traj_true.ndim == 4
    if per_state and traj_true.shape[1] != n_batch:
        raise ValueError(f"per-state trajectories hold {traj_true.shape[1]} states, got {n_batch} states")

    if isinstance(noise_seed, (list, tuple)) and all(isinstance(s, np.random.SeedSequence) for s in noise_seed):
        if len(noise_seed) != n_batch:
            raise ValueError(f"{len(noise_seed)} noise streams for {n_batch} states")
        streams = noise_seed
    else:
        seq = noise_seed if isinstance(noise_seed, np.random.SeedSequence) else np.random.SeedSequence(noise_seed)
        streams = [np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (i,), pool_size=seq.pool_size)
                   for i in range(n_batch)]
    records = np.stack(
        [
            simulate_record(pure_state_density(s), traj_true[:, i] if per_state else traj_true, sigma, stream).values
            for i, (s, stream) in enumerate(zip(psi, streams))
        ]
    )

    d = basis.shape[1]
    # One table per observable: (1, n, 2d^2) shared, (n_states, n, 2d^2) per state.
    tables = _operator_table(np.swapaxes(traj_ideal[1:], 0, 1) if per_state else traj_ideal[None, 1:], basis)
    grams = tables @ np.swapaxes(tables, -1, -2)
    x = np.tile(_mixed(d), (n_batch, 1))
    fid = np.empty((n_batch, n_steps))
    for k in range(1, n_steps + 1):
        x_ml, lam_max = _least_squares(tables[:, :k], grams[:, :k, :k], records[:, :k], d)
        x = _projected_gradient(tables[:, :k], x_ml, lam_max, max_iter, basis, x)
        rho = x.view(complex).reshape(-1, d, d)
        overlap = np.einsum("bi,bij,bj->b", psi.conj(), rho, psi).real
        fid[:, k - 1] = np.clip(overlap, 0.0, 1.0)
    return fid

