"""Reference mean matrix R from field samples: the three-pass formula.

R = mean over theta of A - n (A theta) x theta, with (A theta x theta)_{lk} =
(A theta)_l theta_k, accumulated as A theta, then its outer products with
theta, then the weighted sum over the nodes.  It reads each sample as given,
where ``sphmean.mean_R_kernel`` contracts the samples with the grid's weight
tensor in one matrix product and reads them transposed; the tests hold the
kernel to this formula.
"""

import numpy as np


def reference_mean_R(A, grid):
    """R from samples ``A`` of shape (..., m, n, n) on the grid's m nodes."""
    th = grid.nodes
    Ath = np.einsum("...mij,mj->...mi", A, th)
    return np.einsum("m,...mij->...ij", grid.weights,
                     A - grid.dim * (Ath[..., :, :, None] * th[:, None, :]))
