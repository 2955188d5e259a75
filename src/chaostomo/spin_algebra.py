"""Spin-j matrices, traceless Hermitian operator bases, Bloch coordinates,
spectral matrix functions, and seeded Haar sampling.

Conventions used throughout the package:

* the z-projection eigenbasis is ordered m = j, j-1, ..., -j;
* basis elements satisfy Tr(E_a E_b) = delta_ab and Tr(E_a) = 0;
* every sampling routine takes an explicit seed and is reproducible bit
  for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

__all__ = [
    "SpinParams",
    "angular_momentum_ops",
    "hermitian_basis",
    "to_bloch",
    "from_bloch",
    "pure_state_density",
    "haar_random_state",
    "haar_random_unitary",
    "unitary_fractional_power",
    "spectral_function",
    "frobenius_distance_to_identity",
]


@dataclass(frozen=True)
class SpinParams:
    """Spin quantum number j (positive integer or half-integer)."""

    j: float

    def __post_init__(self):
        two_j = 2 * self.j
        if not np.isfinite(self.j) or self.j <= 0 or abs(two_j - round(two_j)) > 1e-9:
            raise ValueError(f"j must be a positive half-integer, got {self.j}")

    @property
    def d(self) -> int:
        """Hilbert-space dimension 2j + 1."""
        return int(round(2 * self.j)) + 1

    def z_projections(self) -> np.ndarray:
        """Eigenvalues of the z component, ordered m = j ... -j."""
        return self.j - np.arange(self.d)


def angular_momentum_ops(p: SpinParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-j angular momentum matrices (x, y, z) in the z eigenbasis.

    Built from the ladder operators, so [Jx, Jy] = i Jz holds to rounding.
    """
    m = p.z_projections()
    raising = np.zeros((p.d, p.d), dtype=complex)
    # <m+1| J+ |m> = sqrt(j(j+1) - m(m+1)); source column has m = j-1 ... -j
    src = m[1:]
    raising[np.arange(p.d - 1), np.arange(1, p.d)] = np.sqrt(
        p.j * (p.j + 1) - src * (src + 1)
    )
    lowering = raising.conj().T
    jx = (raising + lowering) / 2
    jy = (raising - lowering) / 2j
    jz = np.diag(m).astype(complex)
    return jx, jy, jz


def hermitian_basis(p: SpinParams) -> np.ndarray:
    """Orthonormal basis of the d^2 - 1 traceless Hermitian operators.

    Generalized Gell-Mann construction, ordered canonically: the symmetric
    off-diagonal pairs (row-major), then the antisymmetric pairs in the same
    order, then the diagonal elements by increasing support size. Returned
    as a stacked array of shape (d^2 - 1, d, d).
    """
    d = p.d
    if d < 2:
        raise ValueError("need dimension >= 2")
    basis = np.zeros((d * d - 1, d, d), dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    idx = 0
    for a in range(d):
        for b in range(a + 1, d):
            basis[idx, a, b] = s
            basis[idx, b, a] = s
            idx += 1
    for a in range(d):
        for b in range(a + 1, d):
            basis[idx, a, b] = -1j * s
            basis[idx, b, a] = 1j * s
            idx += 1
    diag_idx = np.arange(d)
    for level in range(1, d):
        v = np.zeros(d)
        v[:level] = 1.0
        v[level] = -level
        basis[idx, diag_idx, diag_idx] = v / np.sqrt(level * (level + 1))
        idx += 1
    return basis


def _interleaved(ops: np.ndarray) -> np.ndarray:
    """(..., d, d) matrices as rows of re/im-interleaved entries (a float view),
    shape (..., 2 d^2). For Hermitian B, Re Tr(A B) is the dot product of the
    rows of A and B."""
    ops = np.ascontiguousarray(ops, dtype=complex)
    return ops.reshape(*ops.shape[:-2], -1).view(np.float64)


def to_bloch(rho: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Bloch components r_a = Tr(rho E_a) of a Hermitian matrix or a stack (..., d, d)."""
    rho = np.asarray(rho)
    if rho.shape[-2:] != basis.shape[1:]:
        raise ValueError(
            f"operator shape {rho.shape} does not match basis dimension {basis.shape[1:]}"
        )
    return _interleaved(rho) @ _interleaved(basis).T


def from_bloch(r: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Matrix I/d + sum_a r_a E_a for real components r, or a stack (..., d^2 - 1)
    of them (may be unphysical)."""
    r = np.asarray(r, dtype=float)
    if r.ndim == 0 or r.shape[-1] != basis.shape[0]:
        raise ValueError(
            f"component vector length {r.shape} does not match basis size {basis.shape[0]}"
        )
    d = basis.shape[1]
    ops = (r @ _interleaved(basis)).view(complex).reshape(*r.shape[:-1], d, d)
    return np.eye(d) / d + ops


def pure_state_density(psi: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi|."""
    psi = np.asarray(psi)
    return np.outer(psi, psi.conj())


def haar_random_state(p: SpinParams, seed) -> np.ndarray:
    """Unit vector drawn from the Haar (rotation invariant) measure."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(p.d) + 1j * rng.standard_normal(p.d)
    return z / np.linalg.norm(z)


def haar_random_unitary(p: SpinParams, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R-diagonal phases are absorbed into Q so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((p.d, p.d)) + 1j * rng.standard_normal((p.d, p.d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _require_unitary(u: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if defect > tol:
        raise ValueError(f"matrix is not unitary (max |U^dag U - I| = {defect:.3e})")
    return u


def unitary_fractional_power(u: np.ndarray, eta: float) -> np.ndarray:
    """U^eta on the principal branch of each eigenphase.

    Uses a complex Schur decomposition (exactly unitary similarity, robust
    for normal matrices) and maps each eigenphase theta in (-pi, pi] to
    eta * theta.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    u = _require_unitary(u)
    t, z = scipy.linalg.schur(u, output="complex")
    theta = np.angle(np.diagonal(t))
    return (z * np.exp(1j * eta * theta)) @ z.conj().T


def spectral_function(h: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar map to a Hermitian matrix through its eigenvalues.

    The input is symmetrized as (H + H^dag)/2 before decomposition to shed
    roundoff accumulated by repeated conjugation. Eigensolver failures
    propagate as ``numpy.linalg.LinAlgError``.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    fw = np.asarray(f(w))
    return (v * fw) @ v.conj().T


def frobenius_distance_to_identity(u: np.ndarray) -> float:
    """Frobenius norm ||U - I||; for unitary U this is sqrt(sum 4 sin^2(theta_k / 2))."""
    u = np.asarray(u)
    return float(np.linalg.norm(u - np.eye(u.shape[0])))
