"""Reference computations used to check the package's outputs.

Nothing here imports chaostomo. The spin matrices, kicked-top maps, input
streams and the state estimator are written from their definitions, so a
fault in the package does not also sit in its check.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Spawn keys of the master-seed stream tree documented in the package README:
# observable, basis unitary, per-state vector, per-sweep noise.
KEY_OBSERVABLE = 0
KEY_STATE = 2
KEY_NOISE = 3


def spin_matrices(j: float) -> tuple[np.ndarray, np.ndarray]:
    """(Jx, Jz) for spin j in the basis m = j, j-1, ..., -j."""
    d = int(round(2 * j)) + 1
    m = j - np.arange(d)
    j_plus = np.zeros((d, d))
    for col in range(1, d):
        # J+ |m> = sqrt((j - m)(j + m + 1)) |m + 1>, and m + 1 sits one row up.
        j_plus[col - 1, col] = np.sqrt((j - m[col]) * (j + m[col] + 1))
    return (j_plus + j_plus.T) / 2, np.diag(m)


def kicked_top(j: float, lam: float, alpha: float) -> np.ndarray:
    """One period: rotation exp(-i alpha Jx), then kick exp(-i lam Jz^2 / 2j)."""
    jx, jz = spin_matrices(j)
    return scipy.linalg.expm(-1j * lam * jz @ jz / (2 * j)) @ scipy.linalg.expm(-1j * alpha * jx)


def heisenberg(obs: np.ndarray, u: np.ndarray, steps) -> dict[int, np.ndarray]:
    """{n: (U^n)^dag O U^n} for each requested n, from explicit powers of U."""
    wanted = set(int(n) for n in steps)
    out = {}
    power = np.eye(len(u), dtype=complex)
    for n in range(max(wanted) + 1):
        if n in wanted:
            out[n] = power.conj().T @ obs @ power
        power = power @ u
    return out


def trajectory(obs: np.ndarray, u: np.ndarray, n_steps: int) -> np.ndarray:
    """Operators O_1 .. O_n stacked, shape (n, d, d)."""
    ops = heisenberg(obs, u, range(1, n_steps + 1))
    return np.stack([ops[n] for n in range(1, n_steps + 1)])


def haar_unitary(d: int, seq: np.random.SeedSequence) -> np.ndarray:
    rng = np.random.default_rng(seq)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = scipy.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def observable(j: float, master: int, *key: int) -> np.ndarray:
    """Jx turned by the Haar unitary of stream (KEY_OBSERVABLE, *key)."""
    jx, _ = spin_matrices(j)
    v = haar_unitary(len(jx), np.random.SeedSequence(master, spawn_key=(KEY_OBSERVABLE, *key)))
    obs = v @ jx @ v.conj().T
    return (obs + obs.conj().T) / 2


def state(j: float, master: int, index: int) -> np.ndarray:
    d = int(round(2 * j)) + 1
    rng = np.random.default_rng(np.random.SeedSequence(master, spawn_key=(KEY_STATE, index)))
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def noise(master: int, key: tuple, sigma: float, n: int) -> np.ndarray:
    """Gaussian noise of the stream SeedSequence(master, spawn_key=key)."""
    rng = np.random.default_rng(np.random.SeedSequence(master, spawn_key=key))
    return rng.normal(0.0, sigma, size=n)


def record(psi: np.ndarray, ops: np.ndarray, noise_values: np.ndarray) -> np.ndarray:
    """M_k = <psi| O_k |psi> + w_k."""
    return np.einsum("i,kij,j->k", psi.conj(), ops, psi).real + noise_values


def _simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, w.size + 1)
    last = np.nonzero(u - (css - 1) / k > 0)[0][-1]
    return np.maximum(w - (css[last] - 1) / (last + 1), 0.0)


def _project_density(h: np.ndarray) -> np.ndarray:
    w, v = scipy.linalg.eigh((h + h.conj().T) / 2)
    return (v * _simplex(w)) @ v.conj().T


def gradient(ops: np.ndarray, values: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Gradient in operator space of sum_k (Tr(O_k rho) - M_k)^2."""
    resid = np.einsum("kij,ji->k", ops, rho).real - values
    return 2 * np.tensordot(resid, ops, axes=1)


def frank_wolfe_gap(ops: np.ndarray, values: np.ndarray, rho: np.ndarray) -> float:
    """Tr(G rho) - lambda_min(G): an upper bound on rho's excess objective.

    The least-squares fit over density matrices has the same minimizers as
    the package's weighted projection of its pseudoinverse estimate, because
    the two objectives differ by a constant.
    """
    return _gap(gradient(ops, values, rho), rho)


def _gap(g: np.ndarray, rho: np.ndarray) -> float:
    return float(np.trace(g @ rho).real - scipy.linalg.eigvalsh((g + g.conj().T) / 2)[0])


def fit_density(ops: np.ndarray, values: np.ndarray, gap_tol: float = 1e-6, max_iter: int = 200_000):
    """Plain projected gradient over density matrices, stopped by the Frank-Wolfe gap.

    Returns (rho, gap). Raises RuntimeError if the gap stays above ``gap_tol``.
    """
    flat = ops.reshape(len(ops), -1)
    step = 1.0 / (2 * scipy.linalg.eigvalsh((flat.conj() @ flat.T).real)[-1])
    d = ops.shape[1]
    rho = np.eye(d, dtype=complex) / d
    for _ in range(max_iter):
        g = gradient(ops, values, rho)
        gap = _gap(g, rho)
        if gap <= gap_tol:
            return rho, gap
        rho = _project_density(rho - step * g)
    raise RuntimeError(f"reference fit: gap {gap:.2e} above {gap_tol:.0e} after {max_iter} steps")


def relative_entropy(a_obs: np.ndarray, b_obs: np.ndarray, floor: float = 1e-12) -> float:
    """S(a || b) of the regularized observables |O| / Tr|O|, spectra floored and renormalized."""

    def spectrum(obs):
        w, v = scipy.linalg.eigh((obs + obs.conj().T) / 2)
        w = np.maximum(np.abs(w) / np.abs(w).sum(), floor)
        return w / w.sum(), v

    wa, va = spectrum(a_obs)
    wb, vb = spectrum(b_obs)
    # Tr(a log a) - Tr(a log b), with overlaps |<a_i|b_k>|^2.
    overlaps = np.abs(va.conj().T @ vb) ** 2
    return float(wa @ np.log(wa) - wa @ overlaps @ np.log(wb))
