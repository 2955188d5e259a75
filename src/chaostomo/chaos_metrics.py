"""Operator-space diagnostics comparing a trajectory under the true
(perturbed) dynamics with the same observable under the ideal dynamics:
normalized Hilbert-Schmidt overlap, relative entropy of the regularized
operators, and the squared-commutator incompatibility in both its direct
and error-unitary forms.

``operator_series`` (and ``relative_entropy_series``, its one-pair entropy)
takes the observable and Floquet pairs and evolves only the observable's
eigenvectors; the trajectory forms (``loschmidt_echo``,
``operator_incompatibility``) take two operator trajectories and are the
definitions the series are checked against.
"""

from __future__ import annotations

import numpy as np

from .kicked_top import FloquetPair, error_unitary
from .series import MetricSeries
from .spin_algebra import spectral_function

__all__ = [
    "loschmidt_echo",
    "operator_series",
    "regularize",
    "relative_entropy",
    "relative_entropy_series",
    "operator_incompatibility",
    "incompatibility_otoc_form",
]

DEFAULT_ENTROPY_FLOOR = 1e-12


def _check_pair(traj_true: np.ndarray, traj_ideal: np.ndarray) -> None:
    if traj_true.shape != traj_ideal.shape:
        raise ValueError("trajectories must have equal shape")
    if not np.allclose(traj_true[0], traj_ideal[0], atol=1e-10):
        raise ValueError("trajectories must start from the same observable")


def loschmidt_echo(traj_true: np.ndarray, traj_ideal: np.ndarray) -> MetricSeries:
    """Overlap series Tr(O_n O'_n) / Tr(O^2) for two trajectories of one observable.

    Equals 1 at step 0 and stays within [-1, 1] up to rounding
    (Cauchy-Schwarz on the Hilbert-Schmidt inner product).
    """
    traj_true = np.asarray(traj_true)
    traj_ideal = np.asarray(traj_ideal)
    _check_pair(traj_true, traj_ideal)
    norm = np.einsum("ij,ji->", traj_true[0], traj_true[0]).real
    if norm <= 0:
        raise ValueError("initial observable has zero Hilbert-Schmidt norm")
    overlaps = np.einsum("kij,kji->k", traj_true, traj_ideal).real / norm
    return MetricSeries("loschmidt", np.arange(len(overlaps)), overlaps)


def _eigh_hermitian(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra and eigenvectors of the Hermitian parts of one matrix or a stack."""
    return np.linalg.eigh((ops + _dag(ops)) / 2)


def _dag(ops: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(ops, -1, -2))


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _regularized(w: np.ndarray) -> np.ndarray:
    """Spectrum |w| / sum |w|, rejecting the zero operator."""
    aw = np.abs(w)
    total = aw.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("cannot regularize the zero operator")
    return aw / total


def regularize(obs: np.ndarray) -> np.ndarray:
    """Positive unit-trace operator sharing the observable's eigenvectors.

    Takes the absolute value of the spectrum and normalizes its sum; rejects
    the zero operator.
    """
    return spectral_function(obs, _regularized)


def _entropy(wa: np.ndarray, wb: np.ndarray):
    """Map from the overlaps Q = V_a^dag V_b of the eigenvectors of a and b
    (one matrix or a stack) to Tr(a log a) - Tr(a log b), through |Q_ik|^2,
    for spectra wa and wb floored at DEFAULT_ENTROPY_FLOOR and renormalized."""
    wa = np.maximum(wa, DEFAULT_ENTROPY_FLOOR)
    wa = wa / wa.sum(axis=-1, keepdims=True)
    wb = np.maximum(wb, DEFAULT_ENTROPY_FLOOR)
    wb = wb / wb.sum(axis=-1, keepdims=True)
    own, log_wb = np.sum(wa * np.log(wa), axis=-1), np.log(wb)
    return lambda q: own - np.einsum("...i,...ik,...k->...", wa, np.abs(q) ** 2, log_wb)


def relative_entropy(a: np.ndarray, b: np.ndarray) -> float:
    """Tr(a (log a - log b)) in nats, for positive unit-trace operators.

    Eigenvalues of both arguments are raised to a fixed floor of 1e-12
    (``DEFAULT_ENTROPY_FLOOR``) and the spectra renormalized before taking
    logs, so exact zeros (common after regularization of rank-deficient
    observables) stay finite.
    """
    wa, va = _eigh_hermitian(np.asarray(a))
    wb, vb = _eigh_hermitian(np.asarray(b))
    return float(_entropy(wa, wb)(_dag(va) @ vb))


def _reducer(metric: str, w: np.ndarray, spin_j: float):
    """Map from one step's overlaps Q, shape (L, d, d), to the L values of
    ``metric`` for an observable with spectrum w. The sums are einsums, not
    matrix-vector products, whose BLAS rounding depends on L."""
    if metric == "loschmidt":
        norm = w @ w
        if norm <= 0:
            raise ValueError("initial observable has zero Hilbert-Schmidt norm")
        weights = np.outer(w, w) / norm
        return lambda q: np.einsum("ab,...ab->...", weights, _abs2(q))
    if metric == "otoc":
        gaps = (w[:, None] - w) ** 2 / (2.0 * spin_j**4)
        return lambda q: np.einsum("ab,...ab->...", gaps, _abs2((q * w) @ _dag(q)))
    if metric == "rel_entropy":
        p = _regularized(w)
        return _entropy(p, p)
    raise ValueError(f"metric must be 'loschmidt', 'otoc' or 'rel_entropy', got {metric!r}")


def operator_series(metric: str, obs: np.ndarray, pairs, n_steps: int, spin_j: float = 1.0) -> np.ndarray:
    """Values of ``metric`` ("loschmidt", "otoc" or "rel_entropy") at steps
    0..n_steps for each (true, ideal) Floquet pair of ``pairs``, shape
    (len(pairs), n_steps + 1); each row is bit for bit its one-pair call, and
    agrees with the trajectory form of its metric to rounding. ``spin_j``
    scales the OTOC only; any other metric name is a ValueError.

    Both evolved operators U^dag^n O U^n = V_n W V_n^dag keep the spectrum
    W = diag(w) of O and carry its eigenvectors V as V_n = U^dag^n V, so O is
    diagonalized once and the eigenvectors of all 2L maps move with one
    stacked product per step. Each metric depends on the two operators only
    through the overlaps Q_n = V_t,n^dag V_i,n, formed with one more product
    and reduced at once, so no trajectory is stored:
    echo Tr(O_n O'_n) / Tr(O^2) = sum_ab w_a w_b |Q_ab|^2 / sum_a w_a^2;
    OTOC ||[O_n, O'_n]||^2 / 2 j^4 = sum_ab (w_a - w_b)^2 |(Q W Q^dag)_ab|^2
    / 2 j^4, the commutator conjugated by V_t,n, a sum of non-negative terms;
    relative entropy of the regularized operators from |Q_ab|^2.
    """
    obs = np.asarray(obs, dtype=complex)
    maps = np.stack([np.stack([pair.true_perturbed, pair.ideal]) for pair in pairs])
    if obs.ndim != 2 or obs.shape != maps.shape[2:]:
        raise ValueError(f"shape mismatch: observable {obs.shape} vs unitaries {maps.shape[2:]}")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    w, v = _eigh_hermitian(obs)
    reduce = _reducer(metric, w, spin_j)
    maps_dag = _dag(maps)
    vecs = np.empty(maps.shape, dtype=complex)
    vecs[...] = v
    values = np.empty((n_steps + 1, len(maps)))
    for k in range(n_steps + 1):
        if k:
            vecs = maps_dag @ vecs
        values[k] = reduce(_dag(vecs[:, 0]) @ vecs[:, 1])
    return values.T


def relative_entropy_series(obs: np.ndarray, pair: FloquetPair, n_steps: int) -> MetricSeries:
    """Relative entropy of the regularized true vs ideal operator at steps
    0..n_steps, with spectra floored at 1e-12 (``DEFAULT_ENTROPY_FLOOR``).

    Both evolved operators keep the regularized spectrum p = |w| / sum |w| of
    O, so the entropy follows from the eigenvector overlaps of
    ``operator_series``, |Q_n|^2 = |V^dag E_n^dag V|^2 with E_n the step-n
    ``error_unitary(pair, n)``.
    """
    values = operator_series("rel_entropy", obs, [pair], n_steps)[0]
    return MetricSeries("rel_entropy", np.arange(n_steps + 1), values)


def operator_incompatibility(
    traj_true: np.ndarray, traj_ideal: np.ndarray, spin_j: float
) -> MetricSeries:
    """Squared-commutator series Tr([O_n, O'_n]^dag [O_n, O'_n]) / 2 j^4."""
    traj_true = np.asarray(traj_true)
    traj_ideal = np.asarray(traj_ideal)
    _check_pair(traj_true, traj_ideal)
    comm = traj_true @ traj_ideal - traj_ideal @ traj_true
    values = np.abs(comm).reshape(len(comm), -1) ** 2
    values = values.sum(axis=1) / (2.0 * spin_j**4)
    return MetricSeries("otoc", np.arange(len(values)), values)


def incompatibility_otoc_form(
    obs: np.ndarray, pair: FloquetPair, n: int, spin_j: float
) -> float:
    """Incompatibility at step n evaluated through the error unitary.

    Conjugating the commutator by the true evolution reduces the direct form
    to Tr(|[O, V^dag O V]|^2) / 2 j^4 with V the step-n error unitary; the two
    evaluations agree to rounding.
    """
    v = error_unitary(pair, n)
    obs_err = v.conj().T @ obs @ v
    comm = obs @ obs_err - obs_err @ obs
    return float(np.abs(comm).ravel() @ np.abs(comm).ravel() / (2.0 * spin_j**4))
