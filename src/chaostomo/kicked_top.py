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
    lam = params.lam + (params.delta_lambda if use_perturbed else 0.0)
    jx, _, _ = angular_momentum_ops(params.spin)
    m = params.spin.z_projections()
    kick = np.exp(-1j * lam * m**2 / (2.0 * params.spin.j))
    rotation = spectral_function(jx, lambda x: np.exp(-1j * params.alpha * x))
    return kick[:, None] * rotation


def floquet_pair(params: KickedTopParams) -> FloquetPair:
    """Both members of the ideal/perturbed pair for one parameter set."""
    return FloquetPair(
        ideal=floquet_map(params, use_perturbed=False),
        true_perturbed=floquet_map(params, use_perturbed=True),
    )


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
    Returned as a stacked array of shape (n_steps + 1, d, d).
    """
    obs = np.asarray(obs, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if obs.shape != u.shape or obs.ndim != 2 or obs.shape[0] != obs.shape[1]:
        raise ValueError(f"shape mismatch: observable {obs.shape} vs unitary {u.shape}")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    steps = np.empty((n_steps + 1,) + obs.shape, dtype=complex)
    steps[0] = obs
    udag = u.conj().T
    current = obs
    for k in range(1, n_steps + 1):
        current = udag @ current @ u
        current = (current + current.conj().T) / 2
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
