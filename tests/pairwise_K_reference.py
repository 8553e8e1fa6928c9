"""All-pairs running stability constant, kept as a reference for the tests.

Every pair of the subsampled nodes gets a spectral norm, batched per end
node.  ``dynsys._pairwise_K`` norms only the pairs whose bound
||Phi(t)|| ||Phi(s)^-1|| can raise the running maximum; the two must give
the same K_running exactly.
"""

import numpy as np

from ellipreg import dynsys


def pairwise_K_all_pairs(Phi):
    m = len(Phi)
    sel = np.unique(np.linspace(0, m - 1, min(m, dynsys._K_MAX_NODES)).astype(int))
    P = Phi[sel]
    Pinv = np.linalg.inv(P)
    K_run = np.empty(len(sel))
    best = 1.0
    for i in range(len(sel)):
        prods = P[i] @ Pinv[: i + 1]
        best = max(best, float(np.max(dynsys.spectral_norms(prods))))
        K_run[i] = best
    return sel, K_run
