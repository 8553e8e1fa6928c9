"""Reference 3-D sphere grid: the product rule built latitude by latitude.

Gauss-Legendre in the polar cosine times a uniform azimuth, filled one
polar node at a time, the way ``sphmean.sphere_grid`` built it before it
formed the nodes as outer products; the tests hold the vectorised grid to
this loop bit for bit.
"""

import numpy as np

from ellipreg import sphmean


def sphere_grid_by_latitude(resolution):
    """The 3-D grid of ``resolution``: 2 resolution^2 nodes, latitude by latitude."""
    npol, nazi = resolution, 2 * resolution
    x, wx = np.polynomial.legendre.leggauss(npol)
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
    return sphmean.SphericalGrid(3, nodes, weights)
