"""All-pairs running stability constant, kept as a reference for the tests.

Every pair of nodes gets a spectral norm, batched per end node.  ``dynsys._pairwise_K`` norms only the pairs whose bound
||Phi(t)|| ||Phi(s)^-1|| can raise the running maximum; the two must give
the same K_running exactly.
"""

import numpy as np

from ellipreg import dynsys


def pairwise_K_all_pairs(Phi):
    Phi_inv = np.linalg.inv(Phi)
    K_run = np.empty(len(Phi))
    best = 1.0
    for i in range(len(Phi)):
        prods = Phi[i] @ Phi_inv[: i + 1]
        best = max(best, float(np.max(dynsys.spectral_norms(prods))))
        K_run[i] = best
    return K_run
