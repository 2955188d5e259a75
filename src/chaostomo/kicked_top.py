"""Kicked-top Floquet maps, Heisenberg-picture operator trajectories, and the
error unitary composing perturbed backward with ideal forward evolution.

One driving period rotates the spin by ``alpha`` about x and then applies a
torsional kick of strength ``lam`` about z; the perturbed map uses
``lam + delta_lambda``. Observables evolve stroboscopically as
O_{k+1} = U^dag O_k U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_algebra import (
    SpinParams,
    angular_momentum_ops,
    haar_random_unitary,
    spectral_function,
)

__all__ = [
    "KickedTopParams",
    "FloquetPair",
    "floquet_map",
    "floquet_pair",
    "initial_observable",
    "operator_trajectory",
    "error_unitary",
]


@dataclass(frozen=True)
class KickedTopParams:
    """Kick strength, rotation angle, kick perturbation, and the spin."""

    lam: float
    alpha: float
    delta_lambda: float
    spin: SpinParams

    def __post_init__(self):
        for name in ("lam", "alpha", "delta_lambda"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class FloquetPair:
    """Ideal one-period unitary and its kick-perturbed counterpart."""

    ideal: np.ndarray
    true_perturbed: np.ndarray


def floquet_map(params: KickedTopParams, use_perturbed: bool = False) -> np.ndarray:
    """One-period unitary: torsion kick times linear rotation.

    The kick factor is diagonal in the z eigenbasis with exact scalar phases
    exp(-i lam m^2 / 2j); the rotation factor exp(-i alpha Jx) comes from the
    eigendecomposition of Jx.
    """
    pair = floquet_pair(params)
    return pair.true_perturbed if use_perturbed else pair.ideal


def floquet_pair(params: KickedTopParams) -> FloquetPair:
    """Both members of the ideal/perturbed pair, sharing one rotation factor."""
    jx, _, _ = angular_momentum_ops(params.spin)
    m = params.spin.z_projections()
    rotation = spectral_function(jx, lambda x: np.exp(-1j * params.alpha * x))
    kicks = [np.exp(-1j * (params.lam + dlam) * m**2 / (2.0 * params.spin.j)) for dlam in (0.0, params.delta_lambda)]
    return FloquetPair(ideal=kicks[0][:, None] * rotation, true_perturbed=kicks[1][:, None] * rotation)


def initial_observable(p: SpinParams, seed) -> np.ndarray:
    """Jx conjugated by a seeded Haar unitary: traceless, spectrum {-j..j}."""
    jx, _, _ = angular_momentum_ops(p)
    v = haar_random_unitary(p, seed)
    obs = v @ jx @ v.conj().T
    return (obs + obs.conj().T) / 2


def operator_trajectory(obs: np.ndarray, u: np.ndarray, n_steps: int) -> np.ndarray:
    """Heisenberg trajectory [O_0, ..., O_n] with O_k = U^dag^k O U^k.

    Computed by iterated conjugation (one sandwich per step) with
    re-Hermitization, which avoids the phase error of large matrix powers.
    ``u`` may be a stack of maps (..., d, d) and ``obs`` a stack whose batch
    shape broadcasts against it; all step in one loop, each slice bit for bit
    its one-map call. Returned step-major: shape (n_steps + 1, *batch, d, d).
    """
    obs = np.asarray(obs, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if obs.ndim < 2 or u.ndim < 2 or obs.shape[-2:] != u.shape[-2:] or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"shape mismatch: observable {obs.shape} vs unitary {u.shape}")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    batch = np.broadcast_shapes(obs.shape[:-2], u.shape[:-2])  # ValueError unless they broadcast
    steps = np.empty((n_steps + 1, *batch) + u.shape[-2:], dtype=complex)
    steps[0] = obs
    udag = u.conj().swapaxes(-1, -2)
    current = obs
    for k in range(1, n_steps + 1):
        current = udag @ current @ u
        current = (current + current.conj().swapaxes(-1, -2)) / 2
        steps[k] = current
    return steps


def error_unitary(pair: FloquetPair, n: int) -> np.ndarray:
    """Residual evolution U_0^n (U^n)^dag: n perturbed periods backward, then n
    ideal periods forward (U_0 ideal, U perturbed)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    ideal_n = np.linalg.matrix_power(pair.ideal, n)
    perturbed_n = np.linalg.matrix_power(pair.true_perturbed, n)
    return ideal_n @ perturbed_n.conj().T
