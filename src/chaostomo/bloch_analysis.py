"""Idealized zero-noise analysis: measure Bloch components one at a time,
largest magnitude first, through an operator basis rotated away from the
truth, and accumulate the closed-form fidelity of the resulting estimate.

The estimator guesses zero for every unmeasured component, so after k
measurements the fidelity is 1/d plus the sum of the first k products of
perturbed and true components. The rotated basis W E_a W^dag is never built:
its components of a pure state are those of the rotated state W^dag psi,
Tr(rho W E_a W^dag) = <W^dag psi| E_a |W^dag psi>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_algebra import pure_state_density, to_bloch

__all__ = ["OrderedMeasurementPlan", "measurement_plan", "ideal_fidelity_curve"]


@dataclass
class OrderedMeasurementPlan:
    """Measurement order (by decreasing |r_a|) and both component readouts,
    batched like the states."""

    permutation: np.ndarray
    true_components: np.ndarray
    perturbed_components: np.ndarray


def measurement_plan(states: np.ndarray, basis: np.ndarray, rotation: np.ndarray) -> OrderedMeasurementPlan:
    """Order the basis by decreasing |<psi|E_a|psi>| for a pure state psi or a
    stack (b, d) of them, ties broken by index; the perturbed components are
    those in the basis W E_a W^dag of the rotation W, read from W^dag psi.
    A stack (m, d, d) of rotations shares the order and true components; its
    perturbed components, read one rotation at a time, gain a leading axis m."""
    psi = np.asarray(states)
    rotation = np.asarray(rotation)
    r = to_bloch(pure_state_density(psi), basis)
    r_pert = np.empty(rotation.shape[:-2] + r.shape)
    for w, out in zip(rotation.reshape(-1, *rotation.shape[-2:]), r_pert.reshape(-1, *r.shape)):
        out[...] = to_bloch(pure_state_density(psi @ np.conj(w)), basis)
    permutation = np.argsort(-np.abs(r), axis=-1, kind="stable")
    return OrderedMeasurementPlan(permutation, r, r_pert)


def ideal_fidelity_curve(states: np.ndarray, basis: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """Fidelity after k ordered noiseless measurements, k = 0 .. d^2 - 1, of a
    pure state (d,) or of each state in a stack (b, d): shape (d^2,) or (b, d^2),
    with a leading axis m for a stack (m, d, d) of rotations W.

    F(k) = 1/d + sum of the first k products r'_a r_a in magnitude order of
    the unperturbed components, with the zero guess for the rest; r' are the
    components in the basis rotated by W (see ``measurement_plan``). Requires
    unit vectors (the closed form assumes a rank-one target).
    """
    psi = np.asarray(states)
    norms = np.linalg.norm(psi, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise ValueError(f"states must be unit vectors (norms {np.min(norms):.6f} .. {np.max(norms):.6f})")
    plan = measurement_plan(psi, basis, rotation)
    true_ordered = np.take_along_axis(plan.true_components, plan.permutation, axis=-1)
    shape = true_ordered.shape[:-1] + (true_ordered.shape[-1] + 1,)
    curves = np.zeros(plan.perturbed_components.shape[:-1] + shape[-1:])
    for curve, r_pert in zip(curves.reshape(-1, *shape), plan.perturbed_components.reshape(-1, *true_ordered.shape)):
        np.cumsum(np.take_along_axis(r_pert, plan.permutation, axis=-1) * true_ordered, axis=-1, out=curve[..., 1:])
    curves += 1.0 / basis.shape[1]
    return curves
