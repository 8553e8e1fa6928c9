import dataclasses
import math

import numpy as np
import pytest

from ellipreg import coeff, sphmean


@pytest.fixture(scope="session")
def grid2():
    return sphmean.sphere_grid(2, 64)


@pytest.fixture(scope="session")
def grid3():
    return sphmean.sphere_grid(3, 32)


@pytest.fixture(scope="session")
def identity_field():
    return coeff.make_constant(2, np.eye(2))


def gs_log_field(sign=1.0, shift=1.0, n=2, power=1.0):
    """Rank-one field with g(r) = sign / (shift - ln r)^power."""
    def g(r):
        r = np.maximum(np.asarray(r, float), 1e-300)
        return sign / (shift - np.log(r)) ** power
    return coeff.make_gilbarg_serrin(
        n, g, coeff.inv_log_modulus(c=abs(sign), power=power, shift=shift))


def gs_power_field(a, c=1.0, n=2):
    def g(r):
        return c * np.asarray(r, float) ** a
    return coeff.make_gilbarg_serrin(n, g, coeff.power_modulus(a, abs(c)))


# The benchmark's rank-one lab fields: ("log", c, K, p) is g = c/log(e^K/r)^p
# and ("power", c, a) is g = c r^a, with omega = |g|
LAB_SPECS = [("log", -1.0, 2.0, 1.0), ("log", 1.0, 2.0, 1.0),
             ("log", 1.0, 1.0, 2.0), ("log", -0.5, 1.0, 2.0),
             ("power", 1.0, 0.5), ("power", -0.5, 0.5)]


def lab_field(spec, n):
    """The rank-one lab field of a LAB_SPECS entry in dimension n."""
    if spec[0] == "log":
        _, c, K, p = spec
        return gs_log_field(c, shift=K, n=n, power=p)
    _, c, a = spec
    return gs_power_field(a, c=c, n=n)


def sampled(field):
    """The field with its separable parts dropped: the sphere means sample
    it on whole spheres, as they sample every field without parts."""
    return dataclasses.replace(field, separable=None)


def random_spd(rng, n, lo=0.5, hi=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def scalar_rfun(gen, n):
    """Matrix generator of a scalar flow: R(t) = -((n-1)/n) gtil(t), 1x1."""
    nu = (n - 1.0) / n
    return lambda t: np.array([[-nu * float(gen.gtil(np.asarray(t, float)))]])


def sampler_on(grid):
    """The sampler that sweeps ``grid``."""
    m = len(grid.weights)
    return sphmean.SphereSampler(m if grid.dim == 2 else math.isqrt(m // 2), grid)


def mean_R(field, r, grid=None):
    """R at the one radius r, from the many-radii sweep on the grid (the
    default grid when None)."""
    if grid is None:
        grid = sphmean.default_grid(field.dim)
    return sphmean.mean_matrix_R_many(field, [r], sampler_on(grid))[0]


def batched(rfun):
    """A per-time generator as the array sampler ``dynsys.refined_flow`` takes."""
    return lambda ts: np.stack([np.atleast_2d(np.asarray(rfun(t), float))
                                for t in ts])
