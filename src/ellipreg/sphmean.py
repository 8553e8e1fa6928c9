"""Spherical mean-value quadrature and the radial moment family.

All integrals are mean values over the unit sphere (weights sum to 1).  The
central object is the mean matrix

    R(r) = mean over theta of ( A(r theta) - n A(r theta) theta x theta ),

whose log-time evolution drives the whole regularity diagnosis, together
with its symmetrization S = -(R + R^T)/2, the top eigenvalue mu(S), and the
degree-<=4 moment matrices used by the first-order reduction.  Every R in
the package, at one radius or many, comes from the one kernel
:func:`mean_R_kernel` applied to field samples on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .coeff import CoefficientField

# field samples held by one chunk of a sphere sweep: 2^20 doubles (8 MB),
# 56 radii on the 3-D default grid and 4096 on the 2-D one
_SWEEP_CHUNK_DOUBLES = 1 << 20


@dataclass(frozen=True)
class SphericalGrid:
    """Quadrature nodes on S^{n-1} with mean-value weights (sum = 1)."""

    dim: int
    nodes: np.ndarray    # (m, n) unit vectors
    weights: np.ndarray  # (m,)


@dataclass(frozen=True)
class MomentData:
    """The radial moment family of a field at one radius.

    alpha = mean(theta^T A theta), beta_k = mean(theta^T A theta theta_k),
    gamma = mean(A theta), Amat_{lk} = mean(theta^T A theta theta_l theta_k),
    Bmat_{lk} = mean((A theta)_l theta_k), Cmat = mean(A).  R is computed
    from its own integrand and must agree with Cmat - n Bmat.
    """

    r: float
    alpha: float
    beta: np.ndarray
    gamma: np.ndarray
    Amat: np.ndarray
    Bmat: np.ndarray
    Cmat: np.ndarray
    R: np.ndarray
    S: np.ndarray
    mu: float


def sphere_grid(n: int, resolution: int) -> SphericalGrid:
    """Build a mean-value quadrature grid on S^{n-1}, n in {2, 3}.

    n = 2: uniform angles with equal weights (trapezoid rule, exact for
    trigonometric polynomials of degree < resolution).  n = 3: product of
    Gauss-Legendre in the polar cosine and uniform azimuth; exact for
    polynomial integrands of degree <= 2*resolution - 1 in the polar
    direction and trigonometric degree < 2*resolution in azimuth.
    """
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    if n == 2:
        th = 2.0 * np.pi * np.arange(resolution) / resolution
        nodes = np.stack([np.cos(th), np.sin(th)], axis=1)
        weights = np.full(resolution, 1.0 / resolution)
        return SphericalGrid(2, nodes, weights)
    if n == 3:
        npol, nazi = resolution, 2 * resolution
        x, wx = np.polynomial.legendre.leggauss(npol)   # cos(polar) in [-1, 1]
        phi = 2.0 * np.pi * np.arange(nazi) / nazi
        sin_pol = np.sqrt(1.0 - x ** 2)
        nodes = np.empty((npol * nazi, 3))
        weights = np.empty(npol * nazi)
        for i in range(npol):
            sl = slice(i * nazi, (i + 1) * nazi)
            nodes[sl, 0] = sin_pol[i] * np.cos(phi)
            nodes[sl, 1] = sin_pol[i] * np.sin(phi)
            nodes[sl, 2] = x[i]
            weights[sl] = (wx[i] / 2.0) / nazi
        return SphericalGrid(3, nodes, weights)
    raise ValueError(f"unsupported dimension n = {n}; only 2 and 3 are implemented")


def default_grid(n: int) -> SphericalGrid:
    return sphere_grid(n, 64 if n == 2 else 32)


# ---------------------------------------------------------------------------
# moment quadratures
# ---------------------------------------------------------------------------

def mean_R_kernel(A: np.ndarray, grid: SphericalGrid) -> np.ndarray:
    """Mean of A - n (A theta) x theta from field samples on the grid.

    ``A`` holds the field at the grid nodes, shape (..., m, n, n), for one
    radius or a batch of radii; the result has shape (..., n, n).  The outer
    product convention is (A theta x theta)_{lk} = (A theta)_l theta_k.
    """
    th = grid.nodes
    Ath = np.einsum("...mij,mj->...mi", A, th)
    # one expression, so no (..., m, n, n) temporary outlives its use
    return np.einsum("m,...mij->...ij", grid.weights,
                     A - grid.dim * (Ath[..., :, :, None] * th[:, None, :]))


def mean_matrix_R(field: CoefficientField, r: float,
                  grid: Optional[SphericalGrid] = None) -> np.ndarray:
    """Mean of A - n (A theta) x theta at radius r.

    Vanishes identically for constant and radial fields; entrywise bounded
    by a multiple of omega(r) in general.
    """
    if grid is None:
        grid = default_grid(field.dim)
    return mean_R_kernel(field.eval_batch(r * grid.nodes), grid)


def sphere_sweep(field: CoefficientField, radii: np.ndarray,
                 grid: SphericalGrid) -> Iterator[tuple]:
    """The field at radii x grid.nodes, in chunks of consecutive radii.

    Yields ``(sl, A)`` with ``A`` the samples at ``radii[sl]``, shape
    (len, m, n, n), holding at most _SWEEP_CHUNK_DOUBLES doubles (at least one
    radius), so memory stays fixed however many radii are swept.  The field is
    pointwise in the radius, so a reduction over chunks is bit-identical to
    one over the whole sweep.
    """
    radii = np.asarray(radii, float)
    m, n = grid.nodes.shape
    step = max(1, _SWEEP_CHUNK_DOUBLES // (m * n * n))
    for lo in range(0, len(radii), step):
        sl = slice(lo, min(lo + step, len(radii)))
        pts = (radii[sl, None, None] * grid.nodes[None, :, :]).reshape(-1, n)
        yield sl, field.eval_batch(pts).reshape(sl.stop - lo, m, n, n)


def mean_matrix_R_many(field: CoefficientField, radii: np.ndarray,
                       grid: Optional[SphericalGrid] = None) -> np.ndarray:
    """R(r) over an array of radii, shape (M, n, n).

    One :func:`sphere_sweep` of the field, each chunk reduced by
    :func:`mean_R_kernel` into the output, so only one chunk of field samples
    is held at a time.
    """
    if grid is None:
        grid = default_grid(field.dim)
    n = field.dim
    R = np.empty((len(radii), n, n))
    for sl, A in sphere_sweep(field, radii, grid):
        R[sl] = mean_R_kernel(A, grid)
    return R


def symmetrized_S(R: np.ndarray) -> np.ndarray:
    """S = -(R + R^T)/2 over the last two axes; the antisymmetric part drops out."""
    R = np.asarray(R, float)
    return -0.5 * (R + np.swapaxes(R, -1, -2))


def mu_max(S: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric matrix S."""
    return float(np.linalg.eigvalsh(np.asarray(S, float))[-1])


def appendix_moments(field: CoefficientField, r: float,
                     grid: Optional[SphericalGrid] = None) -> MomentData:
    """All radial moments of the field at radius r.

    For n = 3 the integrands reach total degree 6 in theta; the default grid
    is exact for them.  The returned R comes from the R kernel and is
    checked against Cmat - n*Bmat to 1e-12 (two independent accumulations of
    the same mean value).
    """
    if grid is None:
        grid = default_grid(field.dim)
    n = field.dim
    w = grid.weights
    th = grid.nodes
    A = field.eval_batch(r * th)
    Ath = np.einsum("mij,mj->mi", A, th)
    quad = np.einsum("mi,mi->m", th, Ath)          # theta^T A theta

    alpha = float(w @ quad)
    beta = np.einsum("m,m,mk->k", w, quad, th)
    gamma = np.einsum("m,mi->i", w, Ath)
    Amat = np.einsum("m,m,ml,mk->lk", w, quad, th, th)
    Bmat = np.einsum("m,ml,mk->lk", w, Ath, th)
    Cmat = np.einsum("m,mij->ij", w, A)
    R = mean_R_kernel(A, grid)

    consistency = np.max(np.abs(R - (Cmat - n * Bmat)))
    if consistency > 1e-12 * max(1.0, float(np.max(np.abs(Cmat)))):
        raise AssertionError(
            f"moment consistency violated: |R - (C - nB)| = {consistency:.3e}")

    S = symmetrized_S(R)
    return MomentData(r=float(r), alpha=alpha, beta=beta, gamma=gamma,
                      Amat=Amat, Bmat=Bmat, Cmat=Cmat, R=R, S=S, mu=mu_max(S))
