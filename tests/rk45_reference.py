"""Adaptive Runge-Kutta flow, kept as a reference for the tests.

scipy's RK45 solves d(phi)/dt = -R(t) phi with the tolerance mapping
``dynsys.integrate_system`` uses (rtol = tol/10, atol = tol/100 *
max(1, max |phi0|)), restarting at every breakpoint.  The Magnus flows of
``dynsys`` must agree with it to within 10*tol.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp


@dataclass(frozen=True)
class RK45Trajectory:
    t: np.ndarray
    y: np.ndarray          # (m, d) or (m, d, d)
    segments: tuple        # OdeSolution per smooth piece
    seg_bounds: np.ndarray

    def eval(self, tq):
        tq = np.atleast_1d(np.asarray(tq, float))
        shape = self.y.shape[1:]
        out = np.empty((len(tq),) + shape)
        idx = np.clip(np.searchsorted(self.seg_bounds, tq, side="right") - 1,
                      0, len(self.segments) - 1)
        for i, seg in enumerate(self.segments):
            m = idx == i
            if np.any(m):
                out[m] = seg(tq[m]).T.reshape((-1,) + shape)
        return out


def rk45_integrate(Rfun, t0, t1, phi0, tol=1e-9, breakpoints=()):
    phi0 = np.atleast_1d(np.asarray(phi0, float))
    shape = phi0.shape
    fun = lambda t: np.atleast_2d(np.asarray(Rfun(t), float))
    cuts = [t0] + sorted(t for t in set(float(b) for b in breakpoints)
                         if t0 < t < t1) + [t1]
    rhs = lambda t, y: -(fun(t) @ y.reshape(shape)).ravel()
    ts, ys, segs = [], [], []
    y = phi0.flatten()
    scale = max(1.0, float(np.max(np.abs(phi0))))
    for a, b in zip(cuts[:-1], cuts[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="RK45", rtol=0.1 * tol,
                        atol=0.01 * tol * scale, dense_output=True)
        if not sol.success:
            raise RuntimeError(f"RK45 failed near t = {sol.t[-1]:.6g}")
        keep = slice(0, len(sol.t) - 1) if b < cuts[-1] else slice(0, len(sol.t))
        ts.append(sol.t[keep])
        ys.append(sol.y[:, keep].T)
        segs.append(sol.sol)
        y = sol.y[:, -1]
    return RK45Trajectory(np.concatenate(ts), np.vstack(ys).reshape((-1,) + shape),
                          tuple(segs), np.asarray(cuts))


def rk45_fundamental_matrix(Rfun, t_grid, tol=1e-9, breakpoints=()):
    """Phi(t) on t_grid from Phi(t_grid[0]) = I, as an (m, d, d) array."""
    t_grid = np.asarray(t_grid, float)
    d = len(np.atleast_2d(np.asarray(Rfun(t_grid[0]), float)))
    flow = rk45_integrate(Rfun, float(t_grid[0]), float(t_grid[-1]), np.eye(d),
                          tol, breakpoints)
    Phi = flow.eval(t_grid)
    Phi[0] = np.eye(d)
    return Phi
