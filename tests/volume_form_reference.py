"""Volume form of the ordered integral of R, kept as a reference for the tests.

The principal-value volume integral of (A - n (A theta) theta^T) / |x|^n is
evaluated shell by shell in polar form, with its own Gauss-Legendre rule in
log-radius and its own angular resolution.  It is an independent
computation of |S^{n-1}| times the ordered radial integral of R, so the
dyadic partials of ``criteria.build_radial_profile``'s ``cum_R`` must agree
with it at every level.
"""

import math

import numpy as np

from ellipreg.sphmean import mean_matrix_R_many, sphere_sampler

LN2 = math.log(2.0)


def sphere_area(n):
    return 2 * math.pi if n == 2 else 4 * math.pi


def volume_integral_partials(field, r=0.5, k_max=30, gl_order=12,
                             angular_resolution=None):
    """Dyadic partials over [2^-k r, r], k = 1..k_max: a (k_max, n, n) array."""
    n = field.dim
    if angular_resolution is None:
        angular_resolution = 48 if n == 2 else 20
    sampler = sphere_sampler(n, angular_resolution)
    x, wq = np.polynomial.legendre.leggauss(gl_order)
    k = np.arange(k_max)
    a = -math.log(r) + k * LN2
    half = 0.5 * LN2
    snodes = (a + half)[:, None] + half * x[None, :]          # (k_max, gl_order)
    vals = mean_matrix_R_many(field, np.exp(-snodes.ravel()), sampler)
    shells = sphere_area(n) * half * np.einsum(
        "q,kqij->kij", wq, vals.reshape(k_max, gl_order, n, n))
    return np.cumsum(shells, axis=0)
