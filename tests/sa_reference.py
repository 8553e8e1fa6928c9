"""Reference grid solve: smoothed-aggregation multigrid with scipy's CG.

This is the sparse-matrix solver ``pde_verify`` shipped before its geometric
multigrid on stencil arrays: 2 x 2 aggregates, a smoothed prolongator, sparse
Galerkin products, 2 + 2 damped-Jacobi sweeps on every level and a sparse LU
on the coarsest.  Its coarse operators grow level by level, so it is slower,
but it shares no code with the shipped solver; the tests hold the shipped
solution to it.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ellipreg import pde_verify

_SWEEPS = 2
_MAX_COARSE = 256


def stencil_to_csr(S):
    """The (2w+1, 2w+1, n, n) stencil array as a sparse (n^2, n^2) matrix."""
    w, n = S.shape[0] // 2, S.shape[-1]
    idx = np.arange(n * n).reshape(n, n)
    rows, cols, vals = [], [], []
    for a in range(-w, w + 1):
        for b in range(-w, w + 1):
            ri, si = (slice(0, n - a), slice(a, n)) if a >= 0 else \
                (slice(-a, n), slice(0, n + a))
            rj, sj = (slice(0, n - b), slice(b, n)) if b >= 0 else \
                (slice(-b, n), slice(0, n + b))
            rows.append(idx[ri, rj].ravel())
            cols.append(idx[si, sj].ravel())
            vals.append(S[a + w, b + w][ri, rj].ravel())
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n * n, n * n))


def _hierarchy(K, n):
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
        levels.append((K, wdinv, P, R))
        K, n = (R @ K @ P).tocsr(), m
    return levels, spla.splu(K.tocsc())


def _vcycle(hierarchy, r, k=0):
    levels, coarse = hierarchy
    if k == len(levels):
        return coarse.solve(r)
    K, wdinv, P, R = levels[k]
    x = wdinv * r
    for _ in range(_SWEEPS - 1):
        x += wdinv * (r - K @ x)
    x += P @ _vcycle(hierarchy, R @ (r - K @ x), k + 1)
    for _ in range(_SWEEPS):
        x += wdinv * (r - K @ x)
    return x


def sa_solve(field, gfun, N, tol=1e-12, maxiter=2000):
    """u as an (N, N) grid for the Dirichlet problem."""
    S, b, _ = pde_verify.assemble(field, gfun, N)
    K = stencil_to_csr(S)
    hierarchy = _hierarchy(K, N)
    M = spla.LinearOperator(K.shape, matvec=lambda r: _vcycle(hierarchy, r))
    u, info = spla.cg(K, b, rtol=tol, atol=0.0, maxiter=maxiter, M=M)
    assert info == 0
    return u.reshape(N, N)
