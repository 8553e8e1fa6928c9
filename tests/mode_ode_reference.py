"""First-moment mode profile of a rank-one field, kept as a reference for the tests.

The mode u = v(|x|) x_k solves the divergence-form equation for
A = I + g(|x|) theta theta^T iff

    -[ r^n a(r) (r v' + v) ]' + r^(n-1) [ a(r) r v' + c(r) v ] = 0,

a = (1+g)/n, c = 1 + g/n.  In log-time with the scaled flux Ftil = r^-n *
(flux) the system is regular:

    dv/dt   = v - Ftil / a,
    dFtil/dt = (n-1) (Ftil - v / n).

The pair (v, Ftil) is the first-order reduction V of ``appendix_system``
for one component, so the tests hold the assembled 2n-system against it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp


@dataclass(frozen=True)
class ModeSolution:
    r: np.ndarray
    v: np.ndarray
    rv_prime: np.ndarray
    flux: np.ndarray          # scaled flux r^-n * F, the second reduction variable


def gs_mode_ode_solution(g, n, r_grid, tol=1e-11):
    """Finite-energy mode profile v(r) on ``r_grid``, normalized to v(1) = 1.

    Inward shooting from r = 1 is swamped by the singular r^-n branch, so
    the profile is integrated outward from below the deepest radius, seeded
    on the frozen-coefficient regular eigenvector there; the seeding error
    rides the branch that decays outward.
    """
    gv = np.vectorize(g, otypes=[float]) if np.asarray(g(0.5)).shape else g
    r_grid = np.sort(np.asarray(r_grid, float))[::-1]
    if r_grid[0] > 1.0:
        raise ValueError("the profile is normalized at r = 1; grid must be inside")
    t_req = -np.log(r_grid)
    t_top = float(t_req[-1])
    # margin below the deepest radius purges the seeding error further
    t_seed = t_top + max(2.0, 0.15 * t_top)
    if t_seed > 300.0:
        raise ValueError("requested radii underflow the log-time range")

    def rhs(t, y):
        v, F = y
        av = (1.0 + float(gv(math.exp(-t)))) / n
        return [v - F / av, (n - 1.0) * (F - v / n)]

    # frozen-coefficient regular root of lambda^2 + n lambda + n - c/a = 0
    g_seed = float(gv(math.exp(-t_seed)))
    c_over_a = (n + g_seed) / (1.0 + g_seed)
    lam_plus = 0.5 * (-n + math.sqrt(n * n - 4.0 * (n - c_over_a)))
    a_seed = (1.0 + g_seed) / n
    y0 = [1.0, a_seed * (1.0 + lam_plus)]   # Ftil = a (v - v_t), v_t = -lam v

    sol = solve_ivp(rhs, (t_seed, 0.0), y0, method="RK45", rtol=tol,
                    atol=tol * 1e-2, dense_output=True)
    assert sol.success, sol.message
    v1 = sol.sol(0.0)[0]
    assert abs(v1) > 1e-280, "mode vanished at r = 1; cannot normalize"
    v, F = sol.sol(t_req) / v1
    rr = np.exp(-t_req)
    av = (1.0 + np.asarray(gv(rr), float)) / n
    return ModeSolution(r=rr, v=v, rv_prime=-(v - F / av), flux=F)
