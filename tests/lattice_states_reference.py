"""Reference flow states: the Magnus steps multiplied in one at a time.

Phi_(p+1) = E_p Phi_p from Phi_0 = I, the loop ``dynsys._lattice_states``
ran before it formed the prefix products by doubling; the tests hold the
doubling scan to this loop within a rounding bound, since the two group
the products differently.
"""

import numpy as np


def lattice_states_sequential(E):
    """States Phi_0 = I, ..., Phi_m of the (m, d, d) steps E, in order."""
    Phi = np.empty((len(E) + 1,) + E.shape[1:])
    Phi[0] = np.eye(E.shape[-1])
    for p, Ep in enumerate(E):
        Phi[p + 1] = Ep @ Phi[p]
    return Phi
