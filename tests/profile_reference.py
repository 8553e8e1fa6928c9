"""Reference radial profile that also carries the mean deviation of A from I.

This is the profile as one sweep that holds the field samples ``A`` on all
spheres at once, read through the field's own sphere sampler
``field.on_spheres`` as the program reads them, and reduces them to R, mu
and the spherical mean of ||A - I||_2.  The classifier reads only R and the
cumulative of mu, so ``criteria.build_radial_profile`` keeps those, and
``condition_A_minus_I`` (a_minus_i_reference.py) sweeps the deviation
itself; the tests hold both to this construction.
The cumulatives use the program's own Simpson rule, so the arrays compare
bit for bit; ``TestCumulativeSimpson`` holds that rule to scipy's.
"""

import math
from types import SimpleNamespace

import numpy as np

from ellipreg.criteria import _cumulative
from ellipreg.sphmean import default_grid, mean_R_kernel

LN2 = math.log(2.0)


def reference_profile(field, eps=0.5, k_max=30, nodes_per_octave=32, grid=None):
    if grid is None:
        grid = default_grid(field.dim)
    n = field.dim
    s0 = -math.log(eps)
    M = k_max * nodes_per_octave + 1
    s = s0 + np.arange(M) * (LN2 / nodes_per_octave)
    radii = np.exp(-s)

    A = field.on_spheres(radii, grid)
    R = mean_R_kernel(A, grid)
    S = -0.5 * (R + np.swapaxes(R, 1, 2))
    mu = np.linalg.eigvalsh(S)[:, -1]
    dev_eigs = np.linalg.eigvalsh(A - np.eye(n))
    absdev = np.einsum("m,rm->r", grid.weights, np.max(np.abs(dev_eigs), axis=2))

    return SimpleNamespace(
        s_nodes=s, R_nodes=R, mu_nodes=mu, absdev_nodes=absdev,
        cum_R=_cumulative(R, s), cum_mu=_cumulative(mu, s),
        cum_absdev=_cumulative(absdev, s),
        octave_idx=np.arange(0, k_max + 1) * nodes_per_octave)
