"""Operator-space diagnostics comparing a trajectory under the true
(perturbed) dynamics with the same observable under the ideal dynamics:
normalized Hilbert-Schmidt overlap, relative entropy of the regularized
operators, and the squared-commutator incompatibility in both its direct
and error-unitary forms.
"""

from __future__ import annotations

import numpy as np

from .kicked_top import FloquetPair, error_unitary
from .series import MetricSeries

__all__ = [
    "loschmidt_echo",
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
    return np.linalg.eigh((ops + np.conj(np.swapaxes(ops, -1, -2))) / 2)


def _regularized_spectrum(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum |w| / sum |w| of each operator, and its eigenvectors."""
    w, v = _eigh_hermitian(ops)
    aw = np.abs(w)
    total = aw.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("cannot regularize the zero operator")
    return aw / total, v


def regularize(obs: np.ndarray) -> np.ndarray:
    """Positive unit-trace operator sharing the observable's eigenvectors.

    Takes the absolute value of the spectrum and normalizes its sum; rejects
    the zero operator.
    """
    p, v = _regularized_spectrum(np.asarray(obs))
    return (v * p) @ v.conj().T


def _entropy(wa, va, wb, vb, floor: float) -> np.ndarray:
    """Tr(a log a) - Tr(a log b) from (stacked) spectra and eigenvectors, through
    the overlaps |<a_i|b_k>|^2, after raising eigenvalues to ``floor`` and renormalizing."""
    wa = np.maximum(wa, floor)
    wa = wa / wa.sum(axis=-1, keepdims=True)
    wb = np.maximum(wb, floor)
    wb = wb / wb.sum(axis=-1, keepdims=True)
    overlaps = np.abs(np.conj(np.swapaxes(va, -1, -2)) @ vb) ** 2
    cross = np.einsum("...i,...ik,...k->...", wa, overlaps, np.log(wb))
    return np.sum(wa * np.log(wa), axis=-1) - cross


def relative_entropy(a: np.ndarray, b: np.ndarray, floor: float = DEFAULT_ENTROPY_FLOOR) -> float:
    """Tr(a (log a - log b)) in nats, for positive unit-trace operators.

    Eigenvalues of both arguments are raised to ``floor`` and the spectra
    renormalized before taking logs, so exact zeros (common after
    regularization of rank-deficient observables) stay finite.
    """
    return float(_entropy(*_eigh_hermitian(np.asarray(a)), *_eigh_hermitian(np.asarray(b)), floor))


def relative_entropy_series(
    traj_true: np.ndarray,
    traj_ideal: np.ndarray,
    floor: float = DEFAULT_ENTROPY_FLOOR,
) -> MetricSeries:
    """Relative entropy of the regularized true vs ideal operator at each step."""
    traj_true = np.asarray(traj_true)
    traj_ideal = np.asarray(traj_ideal)
    _check_pair(traj_true, traj_ideal)
    values = _entropy(*_regularized_spectrum(traj_true), *_regularized_spectrum(traj_ideal), floor)
    return MetricSeries("rel_entropy", np.arange(len(values)), values)


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
