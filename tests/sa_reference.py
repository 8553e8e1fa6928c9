"""Reference grid solve: smoothed-aggregation multigrid with scipy's CG.

This is the sparse-matrix solver ``pde_verify`` shipped before its geometric
multigrid on stencil arrays: 2 x 2 aggregates, a smoothed prolongator, sparse
Galerkin products, 2 + 2 damped-Jacobi sweeps on every level and a sparse LU
on the coarsest.  Its coarse operators grow level by level, so it is slower,
but it shares no code with the shipped solver; the tests hold the shipped
solution to it.  Its matrix comes from the planes of ``assemble`` expanded to
all nine neighbour offsets (``nine_planes``), which also give the reference
product ``nine_plane_apply``.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ellipreg import pde_verify

_SWEEPS = 2
_MAX_COARSE = 256
_UPPER = ((0, 1), (1, -1), (1, 0), (1, 1))   # offsets of planes 1..4


def nine_planes(S):
    """The (5, n + 2, n + 2) planes of ``assemble`` as a (3, 3, n, n) array:
    entry [1 + di, 1 + dj][i, j] couples cell (i, j) to (i + di, j + dj).
    A lower offset reads its upper plane at the neighbour, so an entry whose
    neighbour lies outside the grid reads the pad."""
    n = S.shape[-1] - 2
    out = np.empty((3, 3, n, n))
    out[1, 1] = S[0, 1:n + 1, 1:n + 1]
    for k, (di, dj) in enumerate(_UPPER, 1):
        out[1 + di, 1 + dj] = S[k, 1:n + 1, 1:n + 1]
        out[1 - di, 1 - dj] = S[k, 1 - di:n + 1 - di, 1 - dj:n + 1 - dj]
    return out


def nine_plane_apply(S, x):
    """K x from the expanded stencil, summed like the (3, 3, n, n) apply
    that preceded the planes: the centre term, then the neighbours
    (-1, -1) .. (1, 1) row by row, each against a zero-padded copy of x."""
    n = x.shape[0]
    S9 = nine_planes(S)
    xp = np.zeros((n + 2, n + 2))
    xp[1:n + 1, 1:n + 1] = x
    y = S9[1, 1] * x
    for a in range(3):
        for b in range(3):
            if (a, b) != (1, 1):
                y += S9[a, b] * xp[a:a + n, b:b + n]
    return y


def stencil_to_csr(S):
    """The planes of ``assemble`` as a sparse (n^2, n^2) matrix."""
    S9 = nine_planes(S)
    n = S9.shape[-1]
    idx = np.arange(n * n).reshape(n, n)
    rows, cols, vals = [], [], []
    for a in range(-1, 2):
        for b in range(-1, 2):
            ri, si = (slice(0, n - a), slice(a, n)) if a >= 0 else \
                (slice(-a, n), slice(0, n + a))
            rj, sj = (slice(0, n - b), slice(b, n)) if b >= 0 else \
                (slice(-b, n), slice(0, n + b))
            rows.append(idx[ri, rj].ravel())
            cols.append(idx[si, sj].ravel())
            vals.append(S9[a + 1, b + 1][ri, rj].ravel())
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
