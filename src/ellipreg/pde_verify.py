"""Desk-scale ground truth: 2-D Dirichlet solves and their circle decomposition.

A cell-centered finite-volume scheme on [-1, 1]^2 discretizes
div(A grad u) = 0.  Normal fluxes use two-point differences with
matrix-harmonic face coefficients; the tensor cross terms use tangential
differences of corner values (4-cell means inside, exact boundary data on
the walls).  The scheme is assembled from its discrete energy form, so the
matrix is symmetric by construction and stays positive definite for the
ellipticity range handled here; boundary faces carry half weight (they own
half a cell).  Constant tensors reproduce linear data exactly and smooth
problems converge at second order.  The 9-point stencil stores each
coupling once, in five planes on the zero-padded grid (the diagonal and the
four upper neighbour offsets), and the system is solved by conjugate
gradients started from the Coons patch of the wall data and preconditioned
with the exact solve of the unit 5-point Laplacian, diagonalized by the sine
transform and applied by real FFTs in O(n^2 log n) (Makhoul, IEEE TASSP
1980).  For fields close to
the identity it needs about 14 iterations at every grid size.  Circle
samples read a not-a-knot bicubic spline through the cell values.  Nothing
here needs more than numpy (2.0 or later, for FFTs written through
``out=``).

Memory.  A solve holds about 10.5 N x N arrays of doubles at once: the
stencil's five planes, the padded copy the stencil apply reads, the iterate
and CG's three work arrays.  The load is dropped before CG starts but for
its four lines next to the walls, the only ones it is not zero on, and the
preconditioner works through two buffers of one block of lines (a grid's
worth at n = 256, where the solve holds 11.7).  Assembly holds about as
many: the five planes, the four face-coefficient arrays and the load; the
cell inverses and the coupling shares exist a block of grid rows at a
time.  That is 21 MB at n = 512 and 81 MB at n = 1024 (tracemalloc
peaks); ``verify`` at n = 1024 peaks at 120 MB RSS and takes about 1.2 s
(in-report ``wall_time_s``) on a 2-CPU VM.

The circle decomposition reads the spline once per circle.  It splits a
solution on each circle of radius r into its mean, its first-moment part
v(r) . x, and a remainder with vanishing mean and first moments, and takes
the Lipschitz quotient max |u - u(0)| / r off the same samples; the limit of
v(r) is the gradient at the origin whenever it exists.  Everything the grid
cannot resolve below a few cells is reported as evidence at the stated
radii, never extrapolated silently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coeff import CoefficientField


_MAXITER = 2000            # conjugate-gradient iterations at most
PRECONDITIONER = "sine-transform Laplacian"   # what ``_SineSolver`` applies
_CIRCLE_RESOLUTION = 256   # equispaced samples per circle
_SATURATION_RTOL = 0.05    # last three quotients this close: bounded
_BLOCK = 64                # grid rows per field evaluation and face block
_SHARE = 32                # grid rows per block of the coupling shares
_RUN = 8192                # padded cells per block of the stencil apply
_LINES = 32768             # cells per block of the sine-transform solve


class SolveError(np.linalg.LinAlgError):
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


_UPPER = ((0, 1), (1, -1), (1, 0), (1, 1))   # offsets of planes 1..4


def _frame(a: np.ndarray, axis: int) -> np.ndarray:
    """The frame of the faces normal to ``axis``, or of the lines along it:
    a grid array indexed [normal, tangential, ...], the transpose of its
    first two axes for the y-normal faces.  numpy lays out what it computes from such views in their
    memory order, so the y-normal faces are computed in the grid's order."""
    return a if axis == 0 else a.swapaxes(0, 1)


def _points(axis: int, normal, tangential) -> np.ndarray:
    """Grid points from their normal and tangential coordinates for the faces
    normal to ``axis``, as an (m, 2) array."""
    pts = np.stack(np.broadcast_arrays(normal, tangential), axis=-1)
    pts = pts.reshape(-1, 2)
    return pts[:, ::-1] if axis else pts


def _normal_weights(N: int):
    """Weights of cells (p, j) and (p-1, j) in the normal difference across
    face p, as (N + 1, 1) columns: 1 and -1 inside, 2 against the wall data
    (a half-cell difference) and 0 for the cell beyond a wall."""
    wp, wm = np.ones((N + 1, 1)), -np.ones((N + 1, 1))
    wp[0], wp[N], wm[0], wm[N] = 2.0, 0.0, 0.0, -2.0
    return wp, wm


def _harmonic(lo: np.ndarray, hi: np.ndarray, axis: int):
    """a_nn and a_nt of the inner faces normal to ``axis`` between cells
    whose tensor inverses are lo and hi: the normal row of the
    matrix-harmonic mean 2 (lo + hi)^-1."""
    n, t = axis, 1 - axis
    B = lo + hi
    det = B[..., 0, 0] * B[..., 1, 1] - B[..., 0, 1] * B[..., 1, 0]
    return 2.0 * (B[..., t, t] / det), 2.0 * (-B[..., n, t] / det)


def _face_coefficients(field: CoefficientField, xc: np.ndarray):
    """a_nn and a_nt of both face families, as (ann, ant, axis) per family
    in its frame.

    Frame face (p, j), p = 0..N, lies between frame cells (p-1, j) and
    (p, j).  Its energy is a_nn (Du)^2 + a_nt (Du)(TCu), with Du the
    two-point normal difference (half-cell against the data on a wall) and
    TCu the tangential difference of the corner values (4-cell means inside,
    data on the walls).  Inside, the face tensor is the matrix-harmonic mean
    2 (Ainv_- + Ainv_+)^-1 of the two cells, of which only the normal row is
    formed; a wall face carries half the tensor at the face, since it owns
    half a cell.  ann and ant are (N + 1, N) arrays stored in the grid's
    order.

    The cells are visited _BLOCK grid rows at a time: a block's field values
    are inverted and every inner face within it written, and the x-normal
    faces between two blocks read the last row of inverses kept from the
    block before.  So the inverses never exist for the whole grid, and the
    field's own temporaries stay a fraction of one grid.
    """
    N = len(xc)
    xw = -1 + np.arange(N + 1) * (2.0 / N)   # walls and corners
    faces = []
    for axis in (0, 1):
        n, t = axis, 1 - axis
        shape, order = (N + 1, N), "CF"[axis]  # the grid's order
        ann, ant = np.empty(shape, order=order), np.empty(shape, order=order)
        Awall = field.eval_batch(_points(axis, xw[[0, N], None], xc))
        Awall = Awall.reshape(2, N, 2, 2)
        ann[[0, N]] = 0.5 * Awall[..., n, n]
        ant[[0, N]] = 0.5 * Awall[..., n, t]
        faces.append((ann, ant, axis))
    (ax, tx, _), (ay, ty, _) = faces
    ay, ty = _frame(ay, 1), _frame(ty, 1)    # y-normal faces as grid rows
    last = None
    for r0 in range(0, N, _BLOCK):
        X, Y = np.meshgrid(xc[r0:r0 + _BLOCK], xc, indexing="ij")
        A = field.eval_batch(np.stack([X.ravel(), Y.ravel()], axis=1))
        Ainv = _inv2(A.reshape(-1, N, 2, 2))
        r1 = r0 + len(Ainv)
        if last is not None:
            ax[r0], tx[r0] = _harmonic(last, Ainv[0], 0)
        ax[r0 + 1:r1], tx[r0 + 1:r1] = _harmonic(Ainv[:-1], Ainv[1:], 0)
        ay[r0:r1, 1:N], ty[r0:r1, 1:N] = _harmonic(Ainv[:, :-1], Ainv[:, 1:], 1)
        last = Ainv[-1].copy()
    return faces


def _face_load(gfun: Callable, ann: np.ndarray, ant: np.ndarray, axis: int,
               b: np.ndarray):
    """Add into the grid array b what the wall data contribute to the rows of
    the faces normal to ``axis``: the data in the normal difference of a wall
    face, and the wall corners in the tangential difference of every face
    that meets a wall.

    In the frame, the data bn of the normal differences sit on the two wall
    rows of faces and the corner data tb of the tangential ones on those
    rows and on the two edge columns, so only cells next to a wall take a
    load: t = a_nn bn + a_nt tb / 2 is formed on the face rows 0, 1, N-1, N
    and on the inner faces of the edge columns 0, N-1 alone (where bn is
    zero, as a_nt tb / 2), and the rest of b is left as it is.
    """
    N = ann.shape[1]
    h = 2.0 / N
    xc = -1 + (np.arange(N) + 0.5) * h
    xw = -1 + np.arange(N + 1) * h

    def g(normal, tangential):
        return gfun(_points(axis, normal, tangential))

    rows, cols = [0, 1, N - 1, N], [0, N - 1]  # faces the wall cells read
    bn, tb = np.zeros((4, N)), np.zeros((4, N))  # on those face rows
    bn[0] = -2.0 * g(-1.0, xc)
    bn[3] = 2.0 * g(1.0, xc)
    for p, normal in ((0, -1.0), (3, 1.0)):
        gw = g(normal, xw)
        tb[p] = gw[1:] - gw[:-1]
    te = np.zeros((N - 1, 2))                  # tb on the edge columns inside
    te[:, 1] = g(xw[1:N], 1.0)
    te[:, 0] -= g(xw[1:N], -1.0)
    tb[1:3, cols] = te[[0, -1]]

    t = ann[rows] * bn + 0.5 * ant[rows] * tb
    te = 0.5 * ant[1:N, cols] * te             # t there, where bn is zero
    wp, wm = _normal_weights(N)
    bf = _frame(b, axis)
    bf[::N - 1] += -(wp[[0, N - 1]] * t[[0, 2]] + wm[[1, N]] * t[[1, 3]])
    bf[1:N - 1, ::N - 1] += -(wp[1:N - 1] * te[:-1] + wm[2:N] * te[1:])


def _share_weights(N: int):
    """The weights ``_coupling`` reads, made once per grid: the normal
    weights of ``_normal_weights`` and, per d = -1, 0, 1, the weights v_d of
    the tangential corner difference along a line of N cells."""
    j = np.arange(N)
    lo, hi = 0.25 * (j >= 1), 0.25 * (j <= N - 2)
    return (*_normal_weights(N), {-1: -lo, 0: hi - lo, 1: hi})


def _coupling(ann: np.ndarray, ant: np.ndarray, axis: int, di: int, dj: int,
              rows: slice, weights):
    """One face family's share of D^T a_nn D + D^T a_nt T C in the coupling
    of each cell (i, j) of the grid rows ``rows`` to cell (i + di, j + dj),
    as a (len(rows), N) grid array; ``weights`` is ``_share_weights(N)``.

    Frame cell (i, j) couples along the normal through its low face i and
    its high face i + 1.  The tangential difference of the corner values
    weighs the cells (p-1+a, j+d), a = 0, 1, with v_d for d = -1, 0, 1 (wall
    corners enter as data), so a cell takes a_nt of its low face against the
    cells in rows i-1 and i, and minus that of its high face against rows i
    and i+1.  ``ant`` must be zero on the walls, whose corners are all data.
    The grid rows are frame rows of the x-normal faces, read with their
    faces r0 .. r1, and frame columns (tangential lines) of the y-normal
    ones.
    """
    dn, dt = (di, dj) if axis == 0 else (dj, di)
    wp, wm, v = weights
    v = v[dt]
    if axis == 0:
        faces = slice(rows.start, rows.stop + 1)
        ann, ant, wp, wm = ann[faces], ant[faces], wp[faces], wm[faces]
    else:
        ann, ant, v = ann[:, rows], ant[:, rows], v[rows]
    m = len(ann) - 1
    low, high = ant[:m], ant[1:]             # each cell's low and high face
    if dn == 0:
        c = low - high
        c *= v
        if dt == 0:
            a = wp[:m] ** 2 * ann[:m]
            a += wm[1:] ** 2 * ann[1:]
            a += c
            c = a
    elif dn == -1:
        c = low * v
        if dt == 0:
            c += (wp * wm)[:m] * ann[:m]
    else:
        c = high * v
        if dt == 0:
            np.subtract((wp * wm)[1:] * ann[1:], c, out=c)
        else:
            np.negative(c, out=c)
    return _frame(c, axis)


def assemble(field: CoefficientField, gfun: Callable, N: int):
    """Symmetric system (S, b) for the Dirichlet problem on the N x N grid.

    S is the 9-point stencil of the energy form with each coupling stored
    once: a (5, N + 2, N + 2) array of planes in the zero-padded layout of
    the grid.  S[0][i + 1, j + 1] is the diagonal entry of cell (i, j), and
    S[k][i + 1, j + 1], k = 1..4, couples it to cell (i + di, j + dj) for the
    k-th offset (di, dj) of _UPPER: (0, 1), (1, -1), (1, 0), (1, 1).  The
    coupling to (i - di, j - dj) is the one stored at that cell,
    S[k][i + 1 - di, j + 1 - dj], so the operator is exactly symmetric.  The
    pad, and every entry whose neighbour lies outside the grid, is zero.  b
    is the load vector, flattened row-major; only the cells next to a wall
    take a load, and every other entry is 0.0.

    The face coefficients come from one pass over blocks of grid rows
    (``_face_coefficients``), and S is filled _SHARE grid rows at a time
    from the two families' shares of each coupling.  An upper plane is
    ((x_up + y_up) + (x_lo + y_lo)) / 2: the two families' shares of the
    coupling as seen from each of its two cells.  At most about 10 N x N
    arrays are live at once: S, the four face arrays and b.
    """
    if field.dim != 2:
        raise ValueError("the grid solver is two-dimensional")
    h = 2.0 / N
    xc = -1 + (np.arange(N) + 0.5) * h
    faces = _face_coefficients(field, xc)
    b = np.zeros((N, N))
    for face in faces:
        _face_load(gfun, *face, b)
    for _, ant, _ in faces:
        ant[[0, N]] = 0.0

    S = np.zeros((5, N + 2, N + 2))
    cells = S[:, 1:N + 1, 1:N + 1]
    weights = _share_weights(N)
    for r0 in range(0, N, _SHARE):
        rows = slice(r0, min(r0 + _SHARE, N))
        for face in faces:
            cells[0][rows] += _coupling(*face, 0, 0, rows, weights)
        for k, (di, dj) in enumerate(_UPPER, 1):
            # the cells of these rows that have this neighbour, and those
            # neighbours
            r1 = min(rows.stop, N - di)
            if r1 <= r0:
                continue
            here = slice(r0, r1), slice(max(0, -dj), N - max(0, dj))
            there = slice(r0 + di, r1 + di), slice(max(0, dj), N + min(0, dj))
            lower = _coupling(*faces[0], -di, -dj, there[0], weights)
            lower += _coupling(*faces[1], -di, -dj, there[0], weights)
            upper = cells[k][here]
            for face in faces:
                upper += _coupling(*face, di, dj, here[0], weights)[:, here[1]]
            upper += lower[:, there[1]]
            upper *= 0.5
    return S, b.ravel(), xc


@dataclass(frozen=True)
class GridSolution:
    N: int
    cell_coords: np.ndarray      # (N,) cell-center coordinates per axis
    u: np.ndarray                # (N, N), index (i, j) ~ (x_i, y_j)
    residual_norm: float
    iterations: int
    start_residual: float = float("nan")   # relative residual of CG's start
    residual_tail: tuple = ()    # last relative residuals of CG, start included
    assemble_s: float = float("nan")       # wall time of ``assemble``
    solve_s: float = float("nan")          # wall time of the rest: start, CG


# ---------------------------------------------------------------------------
# not-a-knot bicubic spline
# ---------------------------------------------------------------------------

_BAND = 32                 # rows per block of the spline's moment solve


def _moment_band(L: int) -> np.ndarray:
    """The inverse of the L x L tridiagonal (1, 4, 1) matrix, by blocks of
    _BAND = B rows: block b holds rows bB .. bB + B - 1 against the 3B
    columns from (b - 1) B, zero where a row or column lies off the matrix.

    With p(k) = (-beta)^k and beta = 2 - sqrt(3), the images of the zero rows
    -1 and L give entry (i, j) as (p|i - j| - p(i + j + 2) - p(2L - i - j) +
    p(2L + 2 - |i - j|)) / (2 sqrt(3) (1 - p(2L + 2))).  Every entry off the
    band lies more than B from the diagonal, below beta^33 ~ 1e-19 of it,
    so the band is the inverse to rounding.
    """
    nb = -(-L // _BAND)
    i = np.arange(nb * _BAND).reshape(nb, _BAND, 1)
    j = np.arange(-_BAND, 2 * _BAND) + _BAND * np.arange(nb)[:, None, None]
    beta = 2.0 - np.sqrt(3.0)
    table = np.append((-beta) ** np.arange(64), 0.0)    # p(k), 0 from k = 64

    def p(k):
        return table[np.clip(k, 0, 64)]

    d = np.abs(i - j)
    band = ((p(d) - p(i + j + 2) - p(2 * L - i - j) + p(2 * L + 2 - d))
            / (2.0 * np.sqrt(3.0) * (1.0 - p(2 * L + 2))))
    band[(i >= L) | (j < 0) | (j >= L)] = 0.0
    return band


def _moments(f: np.ndarray, band: np.ndarray) -> np.ndarray:
    """h^2/6 times the second derivatives, along axis 0, of the not-a-knot
    cubic spline through the rows of f on a uniform grid.

    Row k of the interior equations is m[k-1] + 4 m[k] + m[k+1] = f[k-1] -
    2 f[k] + f[k+1].  Not-a-knot ends make m[0] - 2 m[1] + m[2] = 0, so on a
    uniform grid row 1 gives m[1] = (f[0] - 2 f[1] + f[2]) / 6 outright (and
    likewise at the far end); rows 2 .. n-3 are a (1, 4, 1) tridiagonal
    system, solved for all columns at once by one batched product with the
    band of its inverse, ``_moment_band(n - 4)``.
    """
    n, L = f.shape[0], f.shape[0] - 4
    m = np.empty_like(f)
    m[1] = (f[0] - 2.0 * f[1] + f[2]) / 6.0
    m[n - 2] = (f[n - 3] - 2.0 * f[n - 2] + f[n - 1]) / 6.0
    # right-hand sides of rows 2 .. n-3, with a zero block on either side
    d = np.zeros(((len(band) + 2) * _BAND,) + f.shape[1:])
    rhs = d[_BAND:_BAND + L]
    np.subtract(f[1:n - 3], f[2:n - 2], out=rhs)
    rhs -= f[2:n - 2]
    rhs += f[3:n - 1]
    rhs[0] -= m[1]
    rhs[-1] -= m[n - 2]
    windows = np.lib.stride_tricks.sliding_window_view(d, 3 * _BAND, axis=0)
    m[2:n - 2] = np.matmul(band, windows[::_BAND].swapaxes(1, 2)).reshape(
        -1, f.shape[1])[:L]
    m[0] = 2.0 * m[1] - m[2]
    m[n - 1] = 2.0 * m[n - 2] - m[n - 3]
    return m


class _Spline:
    """Tensor-product not-a-knot cubic spline through grid values u[i, j].

    On the cell [x_i, x_i+1] the 1-D spline is (1-t) f_i + t f_i+1 +
    ((1-t)^3 - (1-t)) m_i + (t^3 - t) m_i+1 with m from ``_moments``; the
    2-D spline combines values, x-moments, y-moments and mixed moments of
    the four corners, sixteen terms per point.  Points outside the grid are
    clamped to its edge.  The spline reproduces cubic polynomial data
    exactly, so the circle moments of linear data are exact too.
    """

    def __init__(self, x: np.ndarray, u: np.ndarray):
        self.x0, self.h, self.n = x[0], x[1] - x[0], len(x)
        band = _moment_band(len(x) - 4)
        mx = _moments(u, band)
        my = _moments(u.T, band).T
        mxy = _moments(mx.T, band).T
        self.coef = np.stack([u, mx, my, mxy])

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, float))
        s = np.clip((pts - self.x0) / self.h, 0.0, self.n - 1.0)
        k = np.minimum(s.astype(int), self.n - 2)
        t = s - k
        a = np.stack([1.0 - t, t])                      # value weights
        b = a ** 3 - a                                  # moment weights
        (i, j), out = k.T, 0.0
        for p in (0, 1):
            for q in (0, 1):
                c = self.coef[:, i + p, j + q]
                out = out + (a[p, :, 0] * (a[q, :, 1] * c[0] + b[q, :, 1] * c[2])
                             + b[p, :, 0] * (a[q, :, 1] * c[1] + b[q, :, 1] * c[3]))
        return out


# ---------------------------------------------------------------------------
# conjugate gradients, preconditioned by the sine-transform Laplacian
# ---------------------------------------------------------------------------


class _Stencil:
    """K x for the planes S of ``assemble`` on an n x n grid.

    x is copied into a zero-padded grid of the planes' layout, so a
    neighbour beyond the wall reads 0 and every term is one flat run over
    the padded cells: with d the flat offset of an upper neighbour (M = n + 2
    cells per padded row), cell k reads S_d[k] x[k + d] for that neighbour
    and S_d[k - d] x[k - d] for the lower one, the coupling stored at it.
    The terms are summed in the order of the 9-point stencil, the centre
    first and then the offsets (-1, -1) .. (1, 1) row by row, in blocks of
    whole padded rows of about _RUN cells, into a buffer whose cells are
    then copied out; the runs and the two buffers are made once, here, not
    on every product, so a product allocates no n x n array.
    """

    def __init__(self, S: np.ndarray):
        n = S.shape[-1] - 2
        M = n + 2
        self._xp = np.zeros((M, M))
        self._inner = self._xp[1:n + 1, 1:n + 1]
        xf, Sf = self._xp.reshape(-1), S.reshape(len(S), -1)
        # (plane, plane shift, x shift) per neighbour term: the lower
        # neighbours (-1, -1) .. (0, -1), then the upper ones
        shifts = [(k, di * M + dj) for k, (di, dj) in enumerate(_UPPER, 1)]
        terms = ([(k, -d, -d) for k, d in shifts[::-1]]
                 + [(k, 0, d) for k, d in shifts])
        rows = min(max(1, _RUN // M), n)
        acc, tmp = np.empty(rows * M), np.empty(rows * M)
        self._blocks = []
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            k0, L = (r0 + 1) * M + 1, (r1 - r0 - 1) * M + n

            def run(a, shift):
                return a[k0 + shift:k0 + shift + L]

            self._blocks.append((
                slice(r0, r1), run(Sf[0], 0), run(xf, 0),
                [(run(Sf[k], s), run(xf, d)) for k, s, d in terms],
                acc[:L], tmp[:L], acc[:(r1 - r0) * M].reshape(-1, M)[:, :n]))

    def __call__(self, x: np.ndarray, out=None) -> np.ndarray:
        """K x, written into ``out`` when given."""
        self._inner[...] = x
        y = np.empty_like(x) if out is None else out
        for rows, centre, xc, terms, acc, t, cells in self._blocks:
            np.multiply(centre, xc, out=acc)
            for s, xs in terms:
                acc += np.multiply(s, xs, out=t)
            y[rows] = cells
        return y


class _SineSolver:
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

    The solve works in place in its output, through blocks of about _LINES
    cells of whole lines: the transform along the rows block by block, then
    per block of columns the transform along them, the scale
    1 / (lam_i + lam_j) of that block and the inverse transform, then the
    inverse along the rows.  Every line goes through one small real buffer
    and one small complex one, made here with the twiddles, and every
    transform writes through ``out=``; so the solver holds no n x n array and
    a solve into ``out`` allocates none.
    """

    def __init__(self, n: int):
        k = np.arange(1, n + 1)
        self.n, self.lam = n, 4.0 * np.sin(0.5 * np.pi / n * k) ** 2
        h = n // 2
        m = self._lines = min(n, max(1, _LINES // n))
        v, W = np.empty(m * n), np.empty(m * (h + 1), complex)
        # the buffers shaped like the blocks they transform, per line count
        # (a whole block and the last one) and transform axis
        self._buffers = {}
        for lines in {m, n - (n - 1) // m * m}:
            vl, Wl = v[:lines * n], W[:lines * (h + 1)]
            self._buffers[lines, 0] = (vl.reshape(n, lines),
                                       Wl.reshape(h + 1, lines))
            self._buffers[lines, 1] = (vl.reshape(lines, n),
                                       Wl.reshape(lines, h + 1))
        tw = np.exp(-0.5j * np.pi / n * np.arange(h + 1))   # exp(-i pi k / 2n)
        # per transform axis: the twiddle and the inverse twiddle, shaped to
        # that axis
        self._tw = (tw[:, None], tw)
        self._twc = (tw.conj()[:, None], tw.conj())

    def __call__(self, r: np.ndarray, out=None) -> np.ndarray:
        """The solve of r, written into ``out`` when given."""
        z = np.empty_like(r) if out is None else out
        n, m = self.n, self._lines
        for i in range(0, n, m):
            self._dst(r[i:i + m], 1, z[i:i + m])
        for j in range(0, n, m):
            zj = z[:, j:j + m]
            self._dst(zj, 0, zj)
            # the real buffer is free between the two transforms
            scale = self._buffers[zj.shape[1], 0][0]
            np.add(self.lam[:, None], self.lam[j:j + m], out=scale)
            np.divide(1.0, scale, out=scale)
            zj *= scale
            self._idst(zj, 0, zj)
        for i in range(0, n, m):
            self._idst(z[i:i + m], 1, z[i:i + m])
        return z

    def _dst(self, x: np.ndarray, axis: int, out: np.ndarray):
        """DST-II along ``axis`` of the lines of x into ``out``, which may be
        x: y[k-1] = sum_j x[j] sin(pi k (j + 1/2) / n), k = 1 .. n, by one
        real FFT of length n per line (Makhoul, A fast cosine transform in
        one and two dimensions, IEEE TASSP 1980).

        The entries are permuted to v = [x0, x2, x4, ..., -x5, -x3, -x1], so
        the odd ones enter reversed and negated; then, with W the real FFT of
        v times exp(-i pi k / 2n), -Im W[k] is y_k and Re W[k] is y_(n-k),
        k = 0 .. n/2.
        """
        n, c = self.n, self.n - self.n // 2
        v, W = self._buffers[x.shape[1 - axis], axis]
        xs, vs = _frame(x, axis), _frame(v, axis)
        vs[:c] = xs[::2]
        np.negative(xs[n - 1 - n % 2::-2], out=vs[c:])
        np.fft.rfft(v, axis=axis, out=W)
        W *= self._tw[axis]
        Ws, ys = _frame(W, axis), _frame(out, axis)
        np.negative(Ws.imag[1:c], out=ys[:c - 1])
        ys[c - 1:] = Ws.real[::-1]

    def _idst(self, y: np.ndarray, axis: int, out: np.ndarray):
        """The inverse of ``_dst`` along ``axis`` into ``out``, which may be
        y, by one inverse real FFT per line.

        It undoes each step of ``_dst``: W[k] = y_(n-k) - i y_k (y_0 = 0),
        times exp(i pi k / 2n), then the inverse FFT and the inverse
        permutation.  For even n the Nyquist term W[n/2] = y_(n/2) (1 - i)
        keeps its imaginary part; the twiddle turns it real.
        """
        n, h = self.n, self.n // 2
        c = n - h
        v, W = self._buffers[y.shape[1 - axis], axis]
        Ws, ys = _frame(W, axis), _frame(y, axis)
        Ws.real = ys[c - 1:][::-1]
        Ws.imag[0] = 0.0
        np.negative(ys[:h], out=Ws.imag[1:])
        W *= self._twc[axis]
        np.fft.irfft(W, n, axis=axis, out=v)
        vs, xs = _frame(v, axis), _frame(out, axis)
        xs[::2] = vs[:c]
        np.negative(vs[c:], out=xs[n - 1 - n % 2::-2])


def _coons(gfun: Callable, xc: np.ndarray) -> np.ndarray:
    """Transfinite (Coons) patch of the wall data at the cell centres.

    With weights w = ((1 - x) / 2, (1 + x) / 2) per axis, the patch is
    w_x . g(+-1, y) + w_y . g(x, +-1) - w_x . g(+-1, +-1) . w_y: it takes
    the data on all four walls and needs g only there and at the corners.
    It reproduces every sum a(x1) + b(x2), so for the shipped data (x1, x2,
    x1^2 - x2^2, sin(x1), 1) it is the data function itself, and for the
    harmonic ones the solution of the continuous problem.
    (Gordon and Hall, Transfinite element methods, 1973.)
    """
    pm = np.array([-1.0, 1.0])

    def at(x, y):
        X, Y = np.broadcast_arrays(x, y)
        return gfun(np.stack([X.ravel(), Y.ravel()], axis=1)).reshape(X.shape)

    w = np.stack([(1.0 - xc) / 2, (1.0 + xc) / 2])
    return (w.T @ at(pm[:, None], xc) + at(xc, pm[:, None]).T @ w
            - w.T @ at(pm[:, None], pm) @ w)


def _pcg(K: _Stencil, r: np.ndarray, bnorm: float, precond: Callable,
         tol: float, maxiter: int, x: np.ndarray):
    """Preconditioned conjugate gradients for K x = b from the start x and
    its residual r = b - K x, n x n grids both updated in place, with bnorm
    = |b|; ``precond(r, out=)`` writes its solve into a given array.

    Stops once the recurrence residual falls to tol |b| (or is not finite),
    which a start close enough meets before the first iteration; returns x
    and the relative residual of the start followed by the recurrence
    residual of every iteration.  The direction p and q are the only work
    arrays besides r: q holds K p, then alpha K p and alpha p for the
    updates, then the preconditioned residual, so an iteration allocates no
    n x n array.
    """
    history = [float(np.linalg.norm(r) / bnorm)]
    if not history[-1] > tol:
        return x, history
    q = precond(r)
    p, rz = q.copy(), np.vdot(r, q)
    for _ in range(maxiter):
        K(p, out=q)
        alpha = rz / np.vdot(p, q)
        r -= np.multiply(q, alpha, out=q)
        x += np.multiply(p, alpha, out=q)
        history.append(float(np.linalg.norm(r) / bnorm))
        if not history[-1] > tol:
            break
        precond(r, out=q)
        rz, rz_old = np.vdot(r, q), rz
        p *= rz / rz_old
        p += q
    return x, history


def solve_dirichlet(field: CoefficientField, boundary_data: Callable, N: int,
                    tol: float = 1e-12) -> GridSolution:
    """Solve the Dirichlet problem by preconditioned conjugate gradients.

    ``boundary_data`` maps an (m, 2) array of wall points to their m values.

    CG starts from the Coons patch of the wall data (``_coons``), which is
    the solution outright for the identity field with linear data, and is
    preconditioned by the exact solve with the unit Laplacian
    (``_SineSolver``).  For a field that stays a bounded perturbation of
    the identity the two operators are spectrally equivalent, so the
    iteration count does not grow with N; it grows like the square root of
    the field's ellipticity ratio instead (Concus and Golub, 1973).  The
    loop stops on the recurrence residual; the true relative residual
    |b - K u| / |b| is then computed once, and one above 10 tol raises with
    the tail of the recurrence history.

    |b| and the start residual come from the dense load; after that only
    b's four lines next to the walls are kept, since it is zero elsewhere,
    and the true residual is -K u plus those lines.
    """
    if not (8 <= N <= 2048):
        raise ValueError("N out of the supported range [8, 2048]")
    t0 = time.perf_counter()
    S, b, xc = assemble(field, boundary_data, N)
    t1 = time.perf_counter()
    b = b.reshape(N, N)
    K = _Stencil(S)
    u = _coons(boundary_data, xc)
    bnorm = np.linalg.norm(b)
    r = K(u)
    np.subtract(b, r, out=r)
    walls = b[::N - 1].copy(), b[1:N - 1, ::N - 1].copy()
    del b
    u, history = _pcg(K, r, bnorm, _SineSolver(N), tol, _MAXITER, u)
    np.negative(K(u, out=r), out=r)          # b - K u from b's wall lines
    r[::N - 1] += walls[0]
    r[1:N - 1, ::N - 1] += walls[1]
    res = float(np.linalg.norm(r) / bnorm)
    if not res <= 10 * tol:
        tail = ", ".join(f"{v:.3e}" for v in history[-5:])
        raise SolveError(
            f"conjugate gradients stopped at relative residual {res:.3e} "
            f"(target {tol:.1e}) after {len(history) - 1} iterations; "
            f"history tail [{tail}]")
    return GridSolution(N, xc, u, res, len(history) - 1,
                        start_residual=history[0],
                        residual_tail=tuple(history[-5:]),
                        assemble_s=t1 - t0, solve_s=time.perf_counter() - t1)


# ---------------------------------------------------------------------------
# circle decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecomposition:
    radii: np.ndarray            # (m,) decreasing
    u0: np.ndarray               # (m,) circle means
    v: np.ndarray                # (m, 2) first-moment coefficients
    w_means: np.ndarray          # (m,) residual means on an independent grid
    w_moments: np.ndarray        # (m,) max residual first moments, same grid
    Q: np.ndarray                # (m,) max |u - u(0)| / r per circle
    u_origin: float              # the spline's value at the origin
    bounded_evidence: bool       # the last three Q agree within 5 percent
    limit: np.ndarray            # (2,) extrapolated limit of v(r) as r -> 0
    converged_evidence: bool     # changes of v(r) grow by 35 % at most


def spectral_decompose(sol: GridSolution, radii: Sequence[float]) -> SpectralDecomposition:
    """Everything the circles say at the origin, from one reading of each.

    The radii are sorted decreasing, must be distinct (a repeated circle
    would count as several in the plateau tests) and must lie in
    [2h, 1 - 2h].  Each circle is sampled once on the equispaced rule and
    once on an offset, finer rule.  From the first come the mean u0(r), the
    first moments v_k(r) = (n/r) * mean(u theta_k) and the Lipschitz
    quotient Q(r) = max |u - u(0)| / r.  The remainder
    w = u - u0 - r v . theta has exactly zero mean and first moments against
    that rule, so its residuals are measured on the second rule: they
    quantify interpolation and quadrature error, not bookkeeping.

    Bounded evidence means the last three quotients agree within 5 percent,
    mirroring the saturation tests of the analytic criteria; fewer than
    three circles give none.  The limit of v(r) is the gradient at the
    origin whenever it exists: an Aitken step on the last three v(r),
    componentwise.  Converged evidence needs at least three circles, and
    each change |v(r_{k+1}) - v(r_k)| at most 1.35 times the one before it
    (plus 1e-12).
    """
    radii = np.asarray(sorted(radii, reverse=True), float)
    h = 2.0 / sol.N
    if not np.all(np.isfinite(radii)):
        raise ValueError("radii must be finite")
    if np.any(np.diff(radii) == 0):
        raise ValueError("radii must be distinct")
    if np.any(radii < 2 * h):
        bad = radii[radii < 2 * h]
        raise ValueError(
            f"radius {bad.max():g} below the trusted floor 2h = {2 * h:g}")
    if np.any(radii > 1.0 - 2 * h):
        raise ValueError("radii must stay inside the unit disk on the grid")

    interp = _Spline(sol.cell_coords, sol.u)
    u_origin = float(interp(np.zeros((1, 2)))[0])
    m = _CIRCLE_RESOLUTION
    th = 2 * np.pi * np.arange(m) / m
    mfine = int(1.5 * m)
    thf = 2 * np.pi * (np.arange(mfine) + 0.37) / mfine

    u0, vv, Q, wm, wmom = [], [], [], [], []
    for r in radii:
        vals = interp(r * np.stack([np.cos(th), np.sin(th)], axis=1))
        mean = float(vals.mean())
        v = 2.0 / r * np.array([np.mean(vals * np.cos(th)),
                                np.mean(vals * np.sin(th))])
        valsf = interp(r * np.stack([np.cos(thf), np.sin(thf)], axis=1))
        wf = valsf - mean - r * (v[0] * np.cos(thf) + v[1] * np.sin(thf))
        u0.append(mean)
        vv.append(v)
        Q.append(float(np.max(np.abs(vals - u_origin)) / r))
        wm.append(float(np.abs(wf.mean())))
        wmom.append(float(max(abs(np.mean(wf * np.cos(thf))),
                              abs(np.mean(wf * np.sin(thf))))))
    Q, v = np.asarray(Q), np.asarray(vv)

    bounded = bool(len(Q) >= 3 and
                   np.max(Q[-3:]) <= np.min(Q[-3:]) * (1 + _SATURATION_RTOL))
    diffs = np.linalg.norm(np.diff(v, axis=0), axis=1)
    converged = bool(len(diffs) >= 2 and np.all(np.diff(diffs) <= 1e-12 +
                                                0.35 * diffs[:-1]))
    limit = v[-1].copy()
    if len(v) >= 3:
        d2 = v[-1] - 2 * v[-2] + v[-3]
        for c in np.flatnonzero(np.abs(d2) > 1e-300):
            limit[c] = v[-1, c] - (v[-1, c] - v[-2, c]) ** 2 / d2[c]
    return SpectralDecomposition(radii, np.asarray(u0), v, np.asarray(wm),
                                 np.asarray(wmom), Q, u_origin, bounded,
                                 limit, converged)
