"""Spherical mean-value quadrature and the radial moment family.

All integrals are mean values over the unit sphere (weights sum to 1).  The
central object is the mean matrix

    R(r) = mean over theta of ( A(r theta) - n A(r theta) theta x theta ),

whose log-time evolution drives the whole regularity diagnosis, together
with its symmetrization S = -(R + R^T)/2, the top eigenvalue mu(S), and the
degree-<=4 moment matrices used by the first-order reduction.  Every R in
the package, at one radius or many, comes from the one kernel
:func:`mean_R_kernel` applied to field samples, or to the angular parts of
a field's separable form, on a grid.  Each grid carries
the weight tensor T_m = w_m (I - n theta_m theta_m^T), so that
R_ik = sum over m, j of A_m,ij T_m,jk: one matrix product per radius.

A field with a separable form A0(r) + sum_j c_j(r) B_j(theta)
(:class:`~ellipreg.coeff.SeparableParts`) is not sampled on spheres at all.
R is linear in A, and the mean of C - n C theta theta^T is 0 for every
constant C, so A0 adds exactly nothing and R(r) = sum_j c_j(r) R[B_j]: one
kernel call on the J angular parts at the grid's nodes, then one
(k, J) @ (J, n n) product.  A field with J = 0 (a constant or radial one)
has R = 0 exactly, and the identity part of a rank-one field leaves no
rounding residue in R, where a sweep leaves the grid's (up to 3e-14 in 3-D).

A field without a form is swept a chunk of whole spheres at a time, read
at the points through its ``eval_batch``
(:meth:`~ellipreg.coeff.CoefficientField.on_spheres`): at most
_SWEEP_CHUNK_DOUBLES doubles of samples (2 MB, small enough to stay in a
core's cache while the kernel reduces them), but at least one sphere.

R over many radii goes through :func:`mean_matrix_R_many` and a
:class:`SphereSampler`: one grid, ``[budget] grid_resolution`` or the
default one (64 in 2-D, 32 in 3-D), read by every R of a run, with a
record of the work done on it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from typing import Iterator, Optional

import numpy as np

from .coeff import CoefficientField

# field samples held by one chunk of a sphere sweep: 2^18 doubles (2 MB),
# 14 radii on the 3-D default grid and 1024 on the 2-D one
_SWEEP_CHUNK_DOUBLES = 1 << 18
# field samples of the finest single sphere (8 MB): bounds max_resolution
_SPHERE_CAP_DOUBLES = 1 << 20
_MIN_RESOLUTION = 8


@dataclass(frozen=True)
class SphericalGrid:
    """Quadrature nodes on S^{n-1} with mean-value weights (sum = 1) and
    the R kernel's weight tensor T_m = w_m (I - n theta_m theta_m^T)."""

    dim: int
    nodes: np.ndarray    # (m, n) unit vectors
    weights: np.ndarray  # (m,)
    R_weights: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        th, n = self.nodes, self.dim
        outer = th[:, :, None] * th[:, None, :]
        object.__setattr__(self, "R_weights",
                           self.weights[:, None, None] * (np.eye(n) - n * outer))


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
    if resolution < _MIN_RESOLUTION:
        raise ValueError(f"resolution must be at least {_MIN_RESOLUTION}")
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
        nodes = np.stack([np.outer(sin_pol, np.cos(phi)).ravel(),
                          np.outer(sin_pol, np.sin(phi)).ravel(),
                          np.repeat(x, nazi)], axis=1)   # latitude by latitude
        weights = np.repeat((wx / 2.0) / nazi, nazi)
        return SphericalGrid(3, nodes, weights)
    raise ValueError(f"unsupported dimension n = {n}; only 2 and 3 are implemented")


def default_resolution(n: int) -> int:
    return 64 if n == 2 else 32


def default_grid(n: int) -> SphericalGrid:
    return sphere_grid(n, default_resolution(n))


def max_resolution(n: int) -> int:
    """The finest resolution whose one sphere of n x n field samples fits
    _SPHERE_CAP_DOUBLES; a sweep chunk holds at least one whole sphere."""
    per_sphere = _SPHERE_CAP_DOUBLES // (n * n)
    return per_sphere if n == 2 else math.isqrt(per_sphere // 2)


@dataclass
class SphereSampler:
    """The sphere grid of every R a run reads, and a record of its work.

    ``field_evals`` counts the values computed from the field (whole-sphere
    samples, or the radial factors of a separable field), ``chunks`` the
    sweep chunks the samples came in and ``sweep_s`` the seconds spent
    evaluating and reducing them.  ``separable_parts`` is the part count J
    of a field whose R came from its form, None when the field was sampled
    on spheres.
    """

    resolution: int
    grid: SphericalGrid
    field_evals: int = 0
    chunks: int = 0
    sweep_s: float = 0.0
    separable_parts: Optional[int] = None

    def record(self) -> dict:
        """The sampler's work, for a report's volatile provenance block."""
        out = {"resolution": self.resolution,
               "field_evaluations": self.field_evals,
               "chunks": self.chunks, "sweep_s": self.sweep_s}
        if self.separable_parts is not None:
            out["separable_parts"] = self.separable_parts
        return out


def sphere_sampler(n: int, resolution: Optional[int] = None) -> SphereSampler:
    """The grid of ``resolution``, or the default grid when it is None."""
    if resolution is None:
        resolution = default_resolution(n)
    return SphereSampler(resolution, sphere_grid(n, resolution))


# ---------------------------------------------------------------------------
# moment quadratures
# ---------------------------------------------------------------------------

def mean_R_kernel(A: np.ndarray, grid: SphericalGrid) -> np.ndarray:
    """Mean of A - n (A theta) x theta from field samples on the grid.

    ``A`` holds the field at the grid nodes, shape (..., m, n, n), for one
    radius or a batch of radii; the result has shape (..., n, n).  The outer
    product convention is (A theta x theta)_{lk} = (A theta)_l theta_k.

    One batched matrix product with the grid's weight tensor: A read as
    (..., m n, n) and transposed, a view, is A_m,ji, which is A_m,ij because
    field samples are symmetric.  Each radius is its own product, so its R
    does not depend on the radii batched with it.
    """
    m, n = grid.nodes.shape
    At = A.reshape(A.shape[:-3] + (m * n, n)).swapaxes(-1, -2)
    return np.matmul(At, grid.R_weights.reshape(m * n, n))


def _radii_per_chunk(grid: SphericalGrid) -> int:
    m, n = grid.nodes.shape
    return max(1, _SWEEP_CHUNK_DOUBLES // (m * n * n))


def sphere_sweep(field: CoefficientField, radii: np.ndarray,
                 grid: SphericalGrid) -> Iterator[tuple]:
    """The field at radii x grid.nodes, in chunks of consecutive radii.

    Yields ``(sl, A)`` with ``A = field.on_spheres(radii[sl], grid)``, shape
    (len, m, n, n), holding at most _SWEEP_CHUNK_DOUBLES doubles (at least one
    radius), so memory stays fixed however many radii are swept.  The field is
    sampled sphere by sphere, so a reduction over chunks is bit-identical to
    one over the whole sweep.
    """
    radii = np.asarray(radii, float)
    step = _radii_per_chunk(grid)
    for lo in range(0, len(radii), step):
        sl = slice(lo, min(lo + step, len(radii)))
        yield sl, field.on_spheres(radii[sl], grid)


def mean_matrix_R_many(field: CoefficientField, radii: np.ndarray,
                       sampler: SphereSampler) -> np.ndarray:
    """R(r) over an array of radii, shape (M, n, n), on the sampler's grid.

    The R of a field with a form is its radial factors times its angular
    parts at the nodes, reduced by :func:`mean_R_kernel`; any other field's
    is one :func:`sphere_sweep` reduced by the kernel, so only one chunk of
    field samples is held at a time.  The work is added to the sampler's
    record."""
    radii = np.asarray(radii, float)
    n, parts, grid = field.dim, field.separable, sampler.grid
    start = time.perf_counter()
    if parts is None:
        R = np.empty((len(radii), n, n))
        for sl, A in sphere_sweep(field, radii, grid):
            R[sl] = mean_R_kernel(A, grid)
            del A      # or the chunk outlives the sweep's next field evaluation
        sampler.field_evals += len(radii) * len(grid.weights)
        sampler.chunks += -(-len(radii) // _radii_per_chunk(grid))
    else:
        c = np.asarray(parts.factors(radii), float)              # (k, J)
        RB = mean_R_kernel(parts.angular(grid.nodes), grid)      # (J, n, n)
        R = (c @ RB.reshape(len(RB), n * n)).reshape(len(radii), n, n)
        sampler.field_evals += c.size
        sampler.separable_parts = len(RB)
    sampler.sweep_s += time.perf_counter() - start
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
    A = field.on_spheres([r], grid)[0]
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
