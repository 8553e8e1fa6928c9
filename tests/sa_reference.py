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


class WholeGridSineSolver:
    """Exact solve with the unit 5-point Laplacian of the n x n grid.

    On the cells the identity field assembles to T (x) I + I (x) T, with T
    tridiagonal (-1, 2, -1) plus 1 on its two ends (the half-cell difference
    against the wall).  The DST-II basis U[j, k] = sin(pi k (j + 1/2) / n),
    k = 1 .. n, diagonalizes T with eigenvalues 4 sin^2(pi k / 2n), so the
    solve is U^-T ((U^T r U) / (lam_i + lam_j)) U^-1: a DST-II along each
    axis, a scale, and the inverse transform along each axis, all by real
    FFTs in O(n^2 log n) (``_dst``, ``_idst``).  Since U's columns are
    orthogonal, U^-1 is U^T up to the diagonal of their squared norms, and
    that diagonal commutes with the scale; the solve is symmetric and
    positive definite.

    The scale 1 / (lam_i + lam_j) and the real and complex work arrays are
    whole n x n arrays, made once here with the twiddles, and every
    transform works on the whole grid.
    """

    def __init__(self, n: int):
        k = np.arange(1, n + 1)
        lam = 4.0 * np.sin(0.5 * np.pi / n * k) ** 2
        self.n, self.inv = n, 1.0 / (lam[:, None] + lam)
        h = n // 2
        self._v = np.empty((n, n))
        W = np.empty(n * (h + 1), complex)
        tw = np.exp(-0.5j * np.pi / n * np.arange(h + 1))   # exp(-i pi k / 2n)
        # per transform axis: the real FFT's output, its twiddle and the
        # inverse twiddle, shaped to that axis
        self._W = (W.reshape(h + 1, n), W.reshape(n, h + 1))
        self._tw = (tw[:, None], tw)
        self._twc = (tw.conj()[:, None], tw.conj())

    def __call__(self, r: np.ndarray, out=None) -> np.ndarray:
        """The solve of r, written into ``out`` when given."""
        z = np.empty_like(r) if out is None else out
        self._dst(r, 1, z)
        self._dst(z, 0, z)
        z *= self.inv
        self._idst(z, 0, z)
        self._idst(z, 1, z)
        return z

    def _dst(self, x: np.ndarray, axis: int, out: np.ndarray):
        """DST-II along ``axis`` into ``out``, which may be x:
        y[k-1] = sum_j x[j] sin(pi k (j + 1/2) / n), k = 1 .. n, by one real
        FFT of length n (Makhoul, A fast cosine transform in one and two
        dimensions, IEEE TASSP 1980).

        The entries are permuted to v = [x0, x2, x4, ..., -x5, -x3, -x1], so
        the odd ones enter reversed and negated; then, with W the real FFT of
        v times exp(-i pi k / 2n), -Im W[k] is y_k and Re W[k] is y_(n-k),
        k = 0 .. n/2.
        """
        n, c, W = self.n, self.n - self.n // 2, self._W[axis]
        xs, vs = np.moveaxis(x, axis, 0), np.moveaxis(self._v, axis, 0)
        vs[:c] = xs[::2]
        np.negative(xs[n - 1 - n % 2::-2], out=vs[c:])
        np.fft.rfft(self._v, axis=axis, out=W)
        W *= self._tw[axis]
        Ws, ys = np.moveaxis(W, axis, 0), np.moveaxis(out, axis, 0)
        np.negative(Ws.imag[1:c], out=ys[:c - 1])
        ys[c - 1:] = Ws.real[::-1]

    def _idst(self, y: np.ndarray, axis: int, out: np.ndarray):
        """The inverse of ``_dst`` along ``axis`` into ``out``, which may be
        y, by one inverse real FFT.

        It undoes each step of ``_dst``: W[k] = y_(n-k) - i y_k (y_0 = 0),
        times exp(i pi k / 2n), then the inverse FFT and the inverse
        permutation.  For even n the Nyquist term W[n/2] = y_(n/2) (1 - i)
        keeps its imaginary part; the twiddle turns it real.
        """
        n, h, W = self.n, self.n // 2, self._W[axis]
        c = n - h
        Ws, ys = np.moveaxis(W, axis, 0), np.moveaxis(y, axis, 0)
        Ws.real = ys[c - 1:][::-1]
        Ws.imag[0] = 0.0
        np.negative(ys[:h], out=Ws.imag[1:])
        W *= self._twc[axis]
        np.fft.irfft(W, n, axis=axis, out=self._v)
        vs, xs = np.moveaxis(self._v, axis, 0), np.moveaxis(out, axis, 0)
        xs[::2] = vs[:c]
        np.negative(vs[c:], out=xs[n - 1 - n % 2::-2])


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
