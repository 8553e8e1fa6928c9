"""Entrywise integrability of A - I, the blunt sufficient condition.

``condition_A_minus_I`` integrates the spherical mean of ||A - I||_2 in log
time on a profile's nodes.  The classifier does not read it; acceptance
criterion 12 and the hierarchy tests hold the refined conditions to it,
and ``profile_reference`` holds its partials to one sweep of the field.
"""

import numpy as np

from ellipreg.criteria import RadialProfile, _cumulative
from ellipreg.dyadic import IntegralEvidence, evidence_from_partials
from ellipreg.sphmean import sphere_sweep


def condition_A_minus_I(profile: RadialProfile,
                        tol: float = 1e-6) -> IntegralEvidence:
    """Integrability of the mean deviation: int (mean ||A - I||) d(rho)/rho.

    Finiteness is the blunt sufficient condition: it forces the ordered
    integral of R to converge absolutely, hence implies both refined
    conditions, and its failure is typical for slow (log-type) envelopes.
    The classifier does not read it, so the field is swept here, on the
    profile's nodes, one chunk of radii at a time.  The integrand is not
    polynomial in theta; it takes the grid of the profile's sampler.
    """
    s, grid = profile.s_nodes, profile.sampler.grid
    absdev = np.empty(len(s))
    for sl, A in sphere_sweep(profile.field, np.exp(-s), grid):
        dev = np.linalg.eigvalsh(A - np.eye(profile.dim))
        absdev[sl] = np.einsum("m,rm->r", grid.weights, np.max(np.abs(dev), axis=2))
        del A, dev   # or the chunk outlives the sweep's next field evaluation
    ks, partials = profile.octave_partials(_cumulative(absdev, s))
    return evidence_from_partials(ks, partials, tol)
