"""Desk-scale ground truth: 2-D Dirichlet solves and their circle decomposition.

A cell-centered finite-volume scheme on [-1, 1]^2 discretizes
div(A grad u) = 0.  Normal fluxes use two-point differences with
matrix-harmonic face coefficients; the tensor cross terms use tangential
differences of corner values (4-cell means inside, exact boundary data on
the walls).  The scheme is assembled from its discrete energy form, so the
matrix is symmetric by construction and stays positive definite for the
ellipticity range handled here; boundary faces carry half weight (they own
half a cell).  Constant tensors reproduce linear data exactly and smooth
problems converge at second order.  The 9-point stencil is assembled
directly, one coefficient diagonal at a time, and the system is solved by
conjugate gradients preconditioned with a smoothed-aggregation multigrid
V-cycle, which needs about 14 iterations at every grid size.

The circle decomposition splits a solution on each circle of radius r into
its mean, its first-moment part v(r) . x, and a remainder with vanishing
mean and first moments; the limit of v(r) is the gradient at the origin
whenever it exists.  Everything the grid cannot resolve below a few cells
is reported as evidence at the stated radii, never extrapolated silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.interpolate import RectBivariateSpline

from .coeff import CoefficientField


class SolveError(RuntimeError):
    """Linear solver failed to reach the requested residual."""


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _inv2(A: np.ndarray) -> np.ndarray:
    """Closed-form inverses of a stack of 2 x 2 matrices (..., 2, 2)."""
    det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    inv = np.empty_like(A)
    inv[..., 0, 0] = A[..., 1, 1] / det
    inv[..., 1, 1] = A[..., 0, 0] / det
    inv[..., 0, 1] = -A[..., 0, 1] / det
    inv[..., 1, 0] = -A[..., 1, 0] / det
    return inv


def _face_family(field: CoefficientField, gfun: Callable, Ainv: np.ndarray,
                 swap: bool):
    """Stencil rows and load of one face family, in the family's own frame.

    The frame puts the face normal first: frame cell (p, j) is grid cell
    (p, j) for the x-normal faces and (j, p) for the y-normal ones (``swap``),
    and ``Ainv`` is given in that frame.  Face (p, j), p = 0..N, lies between
    cells (p-1, j) and (p, j).  Its energy is a_nn (Du)^2 + a_nt (Du)(TCu),
    with Du the two-point normal difference (half-cell against the data on a
    wall) and TCu the tangential difference of the corner values (4-cell
    means inside, data on the walls).  Inside, the face tensor is the
    matrix-harmonic mean of the two cells; a wall face carries half the
    tensor at the face, since it owns half a cell.

    Returns M, a dict from the offset (di, dj) to the (N, N) array whose
    entry (i, j) is the coefficient of D^T a_nn D + D^T a_nt T C in row cell
    (i, j) and column cell (i + di, j + dj), and the load vector b as an
    (N, N) array.
    """
    N = Ainv.shape[0]
    h = 2.0 / N
    xc = -1 + (np.arange(N) + 0.5) * h
    xw = -1 + np.arange(N + 1) * h           # walls and corners

    def real(n, t):
        pts = np.stack(np.broadcast_arrays(n, t), axis=-1).reshape(-1, 2)
        return pts[:, ::-1] if swap else pts

    ann, ant = np.empty((N + 1, N)), np.empty((N + 1, N))
    F = 2.0 * _inv2(Ainv[:-1] + Ainv[1:])
    ann[1:N], ant[1:N] = F[..., 0, 0], F[..., 0, 1]
    del F
    Awall = field.eval_batch(real(xw[[0, N], None], xc)).reshape(2, N, 2, 2)
    if swap:
        Awall = Awall[..., ::-1, ::-1]
    ann[[0, N]] = 0.5 * Awall[..., 0, 0]
    ant[[0, N]] = 0.5 * Awall[..., 0, 1]

    # normal difference: weights of cells (p, j) and (p-1, j), wall data
    wp = np.ones((N + 1, 1))
    wm = -np.ones((N + 1, 1))
    wp[0], wp[N], wm[0], wm[N] = 2.0, 0.0, 0.0, -2.0
    bn = np.zeros((N + 1, N))
    bn[0] = -2.0 * gfun(real(-1.0, xc))
    bn[N] = 2.0 * gfun(real(1.0, xc))

    # tangential difference of inner faces: weights of cells (p-1+a, j+d)
    # for d = -1, 0, 1 (same for a = 0, 1); wall corners enter as data
    j = np.arange(N)
    lo, hi = 0.25 * (j >= 1), 0.25 * (j <= N - 2)
    vt = {-1: -lo, 0: hi - lo, 1: hi}
    tb = np.zeros((N + 1, N))
    tb[1:N, N - 1] = gfun(real(xw[1:N], 1.0))
    tb[1:N, 0] -= gfun(real(xw[1:N], -1.0))
    for p, n in ((0, -1.0), (N, 1.0)):
        gw = gfun(real(n, xw))
        tb[p] = gw[1:] - gw[:-1]

    t = ann * bn + 0.5 * ant * tb
    b = -(wp[:N] * t[:N] + wm[1:] * t[1:])

    M = {(di, dj): np.zeros((N, N)) for di in (-1, 0, 1) for dj in (-1, 0, 1)}
    M[0, 0] += wp[:N] ** 2 * ann[:N] + wm[1:] ** 2 * ann[1:]
    M[-1, 0] += (wp * wm)[:N] * ann[:N]
    M[1, 0] += (wp * wm)[1:] * ann[1:]
    ant[[0, N]] = 0.0                        # wall faces: all corners are data
    cp, cm = wp[:N] * ant[:N], wm[1:] * ant[1:]
    for d, v in vt.items():
        M[-1, d] += cp * v
        M[0, d] += (cp + cm) * v
        M[1, d] += cm * v
    return M, b


def _shift(d: int, N: int):
    """Slices of rows k and of rows k + d, over the k where both exist."""
    if d >= 0:
        return slice(0, N - d), slice(d, N)
    return slice(-d, N), slice(0, N + d)


def assemble(field: CoefficientField, gfun: Callable, N: int):
    """Symmetric system (K, b) for the Dirichlet problem on the N x N grid.

    K is the 9-point stencil of the energy form, built diagonal by diagonal;
    the lower diagonals are the upper ones, so K is exactly symmetric.
    """
    if field.dim != 2:
        raise ValueError("the grid solver is two-dimensional")
    h = 2.0 / N
    xc = -1 + (np.arange(N) + 0.5) * h
    X, Y = np.meshgrid(xc, xc, indexing="ij")
    A = field.eval_batch(np.stack([X.ravel(), Y.ravel()], axis=1))
    Ainv = _inv2(A.reshape(N, N, 2, 2))
    del A

    M, b = _face_family(field, gfun, Ainv, swap=False)
    My, by = _face_family(field, gfun,
                           Ainv.transpose(1, 0, 2, 3)[..., ::-1, ::-1], swap=True)
    for (di, dj), m in My.items():
        M[dj, di] += m.T
    b += by.T
    del My, by, Ainv

    diags, offsets = [M[0, 0].ravel()], [0]
    for di, dj in ((0, 1), (1, -1), (1, 0), (1, 1)):
        (ri, si), (rj, sj) = _shift(di, N), _shift(dj, N)
        upper = np.zeros((N, N))
        upper[ri, rj] = 0.5 * (M[di, dj][ri, rj] + M[-di, -dj][si, sj])
        off = di * N + dj
        diags += [upper.ravel()[:N * N - off]] * 2
        offsets += [off, -off]
    K = sp.diags(diags, offsets, shape=(N * N, N * N), format="csr")
    return K, b.ravel(), xc


@dataclass(frozen=True)
class GridSolution:
    N: int
    cell_coords: np.ndarray      # (N,) cell-center coordinates per axis
    u: np.ndarray                # (N, N), index (i, j) ~ (x_i, y_j)
    residual_norm: float
    iterations: int
    field: CoefficientField
    boundary_data: Callable

    @cached_property
    def interpolator(self):
        """Bicubic spline evaluator over cell centers: pts (m, 2) -> (m,).

        The interpolating spline reproduces cubic polynomial data exactly,
        which the origin-gradient exactness contract needs.  It is built on
        first use and shared by every reader of this solution.
        """
        spl = RectBivariateSpline(self.cell_coords, self.cell_coords, self.u,
                                  kx=3, ky=3, s=0)

        def ev(pts):
            pts = np.atleast_2d(np.asarray(pts, float))
            return spl(pts[:, 0], pts[:, 1], grid=False)

        return ev

    @property
    def h(self) -> float:
        return 2.0 / self.N


# ---------------------------------------------------------------------------
# smoothed-aggregation multigrid preconditioner
# ---------------------------------------------------------------------------

_SWEEPS = 2              # damped-Jacobi sweeps before and after the correction
_MAX_COARSE = 256        # unknowns at which the hierarchy hands over to splu


@dataclass(frozen=True)
class _Level:
    K: sp.csr_matrix
    wdinv: np.ndarray            # omega / diag(K): one damped-Jacobi step
    P: sp.csr_matrix             # smoothed prolongator from the next level
    R: sp.csr_matrix             # P^T


def _hierarchy(K: sp.csr_matrix, n: int):
    """Smoothed-aggregation levels for K on an n x n grid, and the coarse LU.

    Aggregates are 2 x 2 blocks of the grid (a last one of size 1 along an
    odd side); the tentative prolongator T is piecewise constant on them and
    P = (I - omega D^-1 K) T with omega = 4 / (3 rho), rho the Gershgorin
    bound of D^-1 K.  Coarse operators are the Galerkin products P^T K P.
    (Vanek, Mandel and Brezina, Computing 56, 1996.)
    """
    levels = []
    while n * n > _MAX_COARSE:
        d = K.diagonal()
        rho = np.max(abs(K) @ np.ones(n * n) / d)
        wdinv = 4.0 / (3.0 * rho) / d
        m = (n + 1) // 2
        rows = np.arange(n * n)
        i, j = np.divmod(rows, n)
        T = sp.csr_matrix((np.ones(n * n), (rows, (i // 2) * m + j // 2)),
                          shape=(n * n, m * m))
        P = (T - sp.diags(wdinv) @ (K @ T)).tocsr()
        R = P.T.tocsr()
        levels.append(_Level(K, wdinv, P, R))
        K, n = (R @ K @ P).tocsr(), m
    return levels, spla.splu(K.tocsc())


def _vcycle(hierarchy, r: np.ndarray, k: int = 0) -> np.ndarray:
    """One V-cycle from level k of ``hierarchy`` = (levels, coarse LU) on r."""
    levels, coarse = hierarchy
    if k == len(levels):
        return coarse.solve(r)
    lev = levels[k]
    x = lev.wdinv * r
    for _ in range(_SWEEPS - 1):
        x += lev.wdinv * (r - lev.K @ x)
    x += lev.P @ _vcycle(hierarchy, lev.R @ (r - lev.K @ x), k + 1)
    for _ in range(_SWEEPS):
        x += lev.wdinv * (r - lev.K @ x)
    return x


def solve_dirichlet(field: CoefficientField, boundary_data: Callable, N: int,
                    tol: float = 1e-12, maxiter: int = 2000) -> GridSolution:
    """Solve the Dirichlet problem by preconditioned conjugate gradients.

    The preconditioner is one smoothed-aggregation multigrid V-cycle
    (2 x 2 aggregates, 2 + 2 damped-Jacobi sweeps, sparse LU on the coarsest
    level); it keeps the iteration count near 14 at every grid size.
    Failure to reach the requested relative residual raises with the
    residual history.
    """
    if not (8 <= N <= 2048):
        raise ValueError("N out of the supported range [8, 2048]")
    gfun = _vectorize_boundary(boundary_data)
    K, b, xc = assemble(field, gfun, N)
    hierarchy = _hierarchy(K, N)
    M = spla.LinearOperator(K.shape, matvec=lambda r: _vcycle(hierarchy, r))

    history = []
    u, info = spla.cg(K, b, rtol=tol, atol=0.0, maxiter=maxiter, M=M,
                      callback=lambda xk: history.append(
                          float(np.linalg.norm(b - K @ xk))))
    res = float(np.linalg.norm(b - K @ u) / np.linalg.norm(b))
    if info != 0 or res > 10 * tol:
        tail = ", ".join(f"{v:.3e}" for v in history[-5:])
        raise SolveError(
            f"conjugate gradients stopped at relative residual {res:.3e} "
            f"(target {tol:.1e}) after {len(history)} iterations; "
            f"history tail [{tail}]")
    return GridSolution(N, xc, u.reshape(N, N), res, len(history), field, gfun)


def _vectorize_boundary(g: Callable) -> Callable:
    probe = np.zeros((2, 2))
    try:
        out = np.asarray(g(probe), float)
        if out.shape == (2,):
            return g
    except Exception:
        pass
    return lambda pts: np.asarray([g(p) for p in np.atleast_2d(pts)], float)


# ---------------------------------------------------------------------------
# circle decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecomposition:
    radii: np.ndarray
    u0: np.ndarray               # (m,) circle means
    v: np.ndarray                # (m, 2) first-moment coefficients
    w_means: np.ndarray          # (m,) residual means on an independent grid
    w_moments: np.ndarray        # (m,) max residual first moments, same grid
    circle_resolution: int


def _trusted_radii(sol: GridSolution, radii: Sequence[float]) -> np.ndarray:
    """Radii in decreasing order, checked to lie within [2h, 1 - 2h]."""
    radii = np.asarray(sorted(radii, reverse=True), float)
    if np.any(radii < 2 * sol.h):
        bad = radii[radii < 2 * sol.h]
        raise ValueError(
            f"radius {bad.max():g} below the trusted floor 2h = {2 * sol.h:g}")
    if np.any(radii > 1.0 - 2 * sol.h):
        raise ValueError("radii must stay inside the unit disk on the grid")
    return radii


def spectral_decompose(sol: GridSolution, radii: Sequence[float],
                       circle_resolution: int = 256) -> SpectralDecomposition:
    """Split u on circles into mean + first moments + remainder.

    u0(r) is the circle mean, v_k(r) = (n/r) * mean(u theta_k); the
    remainder w has exactly zero mean and first moments against the defining
    quadrature, so the reported residuals are measured on an independent,
    offset, finer circle grid: they quantify interpolation and quadrature
    error, not bookkeeping.
    """
    radii = _trusted_radii(sol, radii)
    interp = sol.interpolator
    m = circle_resolution
    th = 2 * np.pi * np.arange(m) / m
    mfine = int(1.5 * m)
    thf = 2 * np.pi * (np.arange(mfine) + 0.37) / mfine

    u0, vv, wm, wmom = [], [], [], []
    for r in radii:
        pts = r * np.stack([np.cos(th), np.sin(th)], axis=1)
        vals = interp(pts)
        mean = float(vals.mean())
        v = 2.0 / r * np.array([np.mean(vals * np.cos(th)),
                                np.mean(vals * np.sin(th))])
        ptsf = r * np.stack([np.cos(thf), np.sin(thf)], axis=1)
        valsf = interp(ptsf)
        wf = valsf - mean - r * (v[0] * np.cos(thf) + v[1] * np.sin(thf))
        u0.append(mean)
        vv.append(v)
        wm.append(float(np.abs(wf.mean())))
        wmom.append(float(max(abs(np.mean(wf * np.cos(thf))),
                              abs(np.mean(wf * np.sin(thf))))))
    return SpectralDecomposition(radii, np.asarray(u0), np.asarray(vv),
                                 np.asarray(wm), np.asarray(wmom), m)


# ---------------------------------------------------------------------------
# pointwise evidence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientReport:
    radii: np.ndarray
    Q: np.ndarray                # max |u - u(0)| / r per circle
    u_origin: float
    bounded_evidence: bool


def lipschitz_quotient(sol: GridSolution, radii: Sequence[float],
                       circle_resolution: int = 256,
                       saturation_rtol: float = 0.05) -> QuotientReport:
    """Difference quotients max_{|x|=r} |u(x) - u(0)| / r on dyadic circles.

    Bounded evidence means the last three quotients agree within 5 percent,
    mirroring the saturation tests used by the analytic criteria.  Radii
    must lie in [2h, 1 - 2h], as for ``spectral_decompose``.
    """
    radii = _trusted_radii(sol, radii)
    interp = sol.interpolator
    u0 = float(interp(np.zeros((1, 2)))[0])
    th = 2 * np.pi * np.arange(circle_resolution) / circle_resolution
    Q = []
    for r in radii:
        pts = r * np.stack([np.cos(th), np.sin(th)], axis=1)
        vals = interp(pts)
        Q.append(float(np.max(np.abs(vals - u0)) / r))
    Q = np.asarray(Q)
    last = Q[-3:] if len(Q) >= 3 else Q
    bounded = bool(np.max(last) <= np.min(last) * (1 + saturation_rtol))
    return QuotientReport(radii, Q, u0, bounded)


@dataclass(frozen=True)
class GradientReport:
    radii: np.ndarray
    v: np.ndarray                # (m, 2)
    limit: np.ndarray            # extrapolated gradient estimate
    residuals: np.ndarray        # |v(r_{k+1}) - v(r_k)|
    converged_evidence: bool


def gradient_at_origin(dec: SpectralDecomposition) -> GradientReport:
    """Gradient from the first circle moments: limit of v(r) as r -> 0.

    Reads the moments v(r) off a circle decomposition.  Extrapolation
    accelerates the dyadic sequence v(2^-k) componentwise; converged
    evidence requires the successive differences to decrease.
    """
    v = dec.v[np.argsort(dec.radii)[::-1]]   # large r first
    diffs = np.linalg.norm(np.diff(v, axis=0), axis=1)
    converged = bool(len(diffs) >= 2 and np.all(np.diff(diffs) <= 1e-12 +
                                                0.35 * diffs[:-1]))
    limit = v[-1].copy()
    if len(v) >= 3:
        for c in range(2):
            s = v[:, c]
            d2 = s[2:] - 2 * s[1:-1] + s[:-2]
            if abs(d2[-1]) > 1e-300:
                limit[c] = s[-1] - (s[-1] - s[-2]) ** 2 / d2[-1]
    return GradientReport(dec.radii, dec.v, limit, diffs, converged)
