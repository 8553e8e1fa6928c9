"""Column-by-column fundamental matrix, kept as a reference for the tests.

Each column of Phi is its own vector solve from a basis vector at ``tol``:
d solves where ``dynsys.fundamental_matrix`` solves the whole matrix state
once.  The two constructions must agree to within 10*tol.
"""

import numpy as np

from ellipreg import dynsys


def fundamental_matrix_by_columns(Rfun, t_grid, tol=1e-9, breakpoints=()):
    t_grid = np.asarray(t_grid, float)
    d = np.atleast_2d(np.asarray(Rfun(t_grid[0]), float)).shape[0]
    t0, t1 = float(t_grid[0]), float(t_grid[-1])
    cols = [dynsys.integrate_system(Rfun, t0, t1, np.eye(d)[j], tol,
                                    breakpoints).eval(t_grid)
            for j in range(d)]
    Phi = np.stack(cols, axis=2)   # (m, d, d): Phi[:, :, j] = j-th column
    Phi[0] = np.eye(d)
    return dynsys.FundamentalMatrixTrack(t_grid, Phi)
