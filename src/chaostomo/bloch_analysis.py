"""Idealized zero-noise analysis: measure Bloch components one at a time,
largest magnitude first, through an operator basis rotated away from the
truth, and accumulate the closed-form fidelity of the resulting estimate.

The estimator guesses zero for every unmeasured component, so after k
measurements the fidelity is 1/d plus the sum of the first k products of
perturbed and true components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import MetricSeries
from .spin_algebra import to_bloch, unitary_fractional_power

__all__ = ["OrderedMeasurementPlan", "perturbed_basis", "measurement_plan", "ideal_fidelity_curve"]


@dataclass
class OrderedMeasurementPlan:
    """Measurement order (by decreasing |r_a|) and both component readouts."""

    permutation: np.ndarray
    true_components: np.ndarray
    perturbed_components: np.ndarray


def perturbed_basis(basis: np.ndarray, u_r: np.ndarray, eta: float) -> np.ndarray:
    """Conjugate every basis element by u_r^eta; orthonormality is preserved."""
    w = unitary_fractional_power(u_r, eta)
    return w @ basis @ w.conj().T


def measurement_plan(rho0: np.ndarray, basis: np.ndarray, perturbed: np.ndarray) -> OrderedMeasurementPlan:
    """Order the basis by decreasing |Tr(rho0 E_a)|, ties broken by index."""
    r = to_bloch(rho0, basis)
    r_pert = to_bloch(rho0, perturbed)
    permutation = np.argsort(-np.abs(r), kind="stable")
    return OrderedMeasurementPlan(permutation, r, r_pert)


def ideal_fidelity_curve(rho0: np.ndarray, basis: np.ndarray, perturbed: np.ndarray) -> MetricSeries:
    """Fidelity after k ordered noiseless measurements, k = 0 .. d^2 - 1.

    F(k) = 1/d + sum of the first k products r'_a r_a in magnitude order of
    the unperturbed components, with the zero guess for the rest. Requires a
    pure input state (the closed form assumes a rank-one target).
    """
    rho0 = np.asarray(rho0)
    purity = np.einsum("ij,ji->", rho0, rho0).real
    if abs(purity - 1.0) > 1e-8:
        raise ValueError(f"input state must be pure (Tr rho^2 = {purity:.6f})")
    plan = measurement_plan(rho0, basis, perturbed)
    ordered_products = (
        plan.perturbed_components[plan.permutation] * plan.true_components[plan.permutation]
    )
    d = rho0.shape[0]
    values = 1.0 / d + np.concatenate(([0.0], np.cumsum(ordered_products)))
    return MetricSeries("fidelity", np.arange(values.size), values)
