"""Invariance of the stability class under integrable perturbations.

``perturbation_equivalence`` measures the L1 size of the difference of two
log-time generators and checks the realized change of the stability
constant against the bound exp(c * l1).  No CLI run reads it; acceptance
criterion 09 and the dynamics tests hold the shipped flow and stability
constant to it.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ellipreg.dynsys import refined_flow, spectral_norms, stability_constant


@dataclass(frozen=True)
class PerturbationReport:
    l1_of_difference: float
    K_hat_base: float
    K_hat_perturbed: float
    realized_factor: float
    c_measured: float
    bound_factor: float
    bound_satisfied: bool


def perturbation_equivalence(Rfun: Callable, Rtil: Callable, t_grid,
                             tol: float = 1e-8) -> PerturbationReport:
    """Stability class is unchanged by L1 perturbations of the generator.

    Measures int ||Rtil - R|| dt on the window (rejecting differences whose
    dyadic partial integrals keep growing, i.e. non-integrable ones), the
    two stability constants, and checks the realized change factor of K_hat
    against exp(c * l1) with c the measured conditioning constant
    max(K_base, K_perturbed).  ``t_grid`` is equispaced; each constant is
    read off a ``refined_flow`` at ``tol`` whose first lattice has twice as
    many intervals, at the flow nodes that are ``t_grid``, one every
    (flow nodes - 1) / (len(t_grid) - 1).
    """
    t_grid = np.asarray(t_grid, float)
    if not np.allclose(np.diff(t_grid), t_grid[1] - t_grid[0], rtol=1e-9, atol=0):
        raise ValueError("t_grid must be equispaced")
    fa = lambda t: np.atleast_2d(np.asarray(Rfun(t), float))
    fb = lambda t: np.atleast_2d(np.asarray(Rtil(t), float))
    if fa(t_grid[0]).shape != fb(t_grid[0]).shape:
        raise ValueError("generator dimensions differ")

    t0, t1 = t_grid[0], t_grid[-1]
    fine = np.unique(np.concatenate([np.linspace(t0, t1, 2049), t_grid]))
    diff = spectral_norms(np.array([fb(t) - fa(t) for t in fine]))
    seg = np.concatenate([[0.0], np.cumsum(0.5 * (diff[1:] + diff[:-1]) * np.diff(fine))])
    l1 = float(seg[-1])

    # integrability screen: increments over dyadic sub-windows must decay
    ends = t0 + (t1 - t0) * 2.0 ** np.arange(-8, 1, 1.0)
    cums = np.interp(ends, fine, seg)
    incs = np.diff(cums)
    if len(incs) >= 3 and incs[-1] > tol and incs[-1] >= 0.8 * incs[-2] >= 0.8 * 0.8 * incs[-3]:
        raise ValueError(
            "perturbation looks non-integrable: dyadic window increments "
            f"are not decaying ({incs[-3]:.3g}, {incs[-2]:.3g}, {incs[-1]:.3g})")

    lattice = np.linspace(t0, t1, 2 * len(t_grid) - 1)

    def K_hat(f):
        flow = refined_flow(lambda ts: np.stack([f(t) for t in ts]), lattice,
                            tol, strict=True)
        stride = (len(flow.t) - 1) // (len(t_grid) - 1)
        return stability_constant(flow.t[::stride], flow.y[::stride]).K_hat

    Ka, Kb = K_hat(fa), K_hat(fb)
    realized = max(Ka / Kb, Kb / Ka)
    c_meas = max(Ka, Kb)
    bound = float(np.exp(c_meas * l1))
    return PerturbationReport(l1, Ka, Kb, realized, c_meas, bound,
                              realized <= bound * (1 + 1e-9) + 1e-12)
