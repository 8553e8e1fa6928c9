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


def random_spd(rng, n, lo=0.5, hi=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def scalar_rfun(gen, n):
    """Matrix generator of a scalar flow: R(t) = -((n-1)/n) gtil(t), 1x1."""
    nu = (n - 1.0) / n
    return lambda t: np.array([[-nu * float(gen.gtil(np.asarray(t, float)))]])


def batched(rfun):
    """A per-time generator as the array sampler ``dynsys.refined_flow`` takes."""
    return lambda ts: np.stack([np.atleast_2d(np.asarray(rfun(t), float))
                                for t in ts])
