"""Column-by-column fundamental matrix, kept as a reference for the tests.

Each column of Phi is its own vector solve from a basis vector, once at
``tol`` and once at tol/5 for the step-error estimate: 2d solves where
``dynsys.fundamental_matrix`` solves the whole matrix state twice.  The two
constructions must agree to within 10*tol.
"""

import numpy as np

from ellipreg import dynsys


def fundamental_matrix_by_columns(Rfun, t_grid, tol=1e-9, breakpoints=()):
    t_grid = np.asarray(t_grid, float)
    d = np.atleast_2d(np.asarray(Rfun(t_grid[0]), float)).shape[0]
    t0, t1 = float(t_grid[0]), float(t_grid[-1])

    def columns(eff_tol):
        cols = []
        for j in range(d):
            traj = dynsys.integrate_system(Rfun, t0, t1, np.eye(d)[j], eff_tol,
                                           breakpoints)
            cols.append(traj.eval(t_grid))
        return np.stack(cols, axis=2)   # (m, d, d): cols[:, :, j] = j-th column

    Phi = columns(tol)
    Phi_ref = columns(tol / 5.0)
    err = np.linalg.norm((Phi - Phi_ref).reshape(len(t_grid), -1), axis=1)
    Phi[0] = np.eye(d)
    return dynsys.FundamentalMatrixTrack(t_grid, Phi, err, tol, tuple(breakpoints))
