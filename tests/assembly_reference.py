"""Reference assembly of the finite-volume system from sparse operator products.

This is the energy form written out literally: per face family a normal
difference operator D, a tangential difference T of corner values, and a
corner operator C (4-cell means inside, boundary data on the walls), combined
as K = sum D^T a_nn D + (D^T a_nt T C + (T C)^T a_nt D) / 2.  It is slow and
memory-hungry, but each term can be read off the scheme, so the tests hold
``pde_verify.assemble`` to it.
"""

import numpy as np
import scipy.sparse as sp


def _corner_operator(N, gfun):
    """Corner values on the (N+1)^2 lattice: 4-cell means inside, data on walls."""
    h = 2.0 / N
    ncor = (N + 1) ** 2
    P, Q = np.meshgrid(np.arange(1, N), np.arange(1, N), indexing="ij")
    P, Q = P.ravel(), Q.ravel()
    kid = P * (N + 1) + Q
    rows = np.repeat(kid, 4)
    cols = np.stack([(P - 1) * N + (Q - 1), P * N + (Q - 1),
                     (P - 1) * N + Q, P * N + Q], axis=1).ravel()
    C = sp.csr_matrix((np.full(rows.size, 0.25), (rows, cols)),
                      shape=(ncor, N * N))
    pg, qg = np.meshgrid(np.arange(N + 1), np.arange(N + 1), indexing="ij")
    on_wall = (pg == 0) | (pg == N) | (qg == 0) | (qg == N)
    xy = np.stack([-1 + pg.ravel() * h, -1 + qg.ravel() * h], axis=1)
    gb = np.zeros(ncor)
    gb[on_wall.ravel()] = gfun(xy[on_wall.ravel()])
    return C, gb


def _face_family(N, axis, Ainv, field, gfun):
    """Difference/tangential operators and coefficients for one face family.

    axis 0: faces with normal x at (p, j) between cells (p-1, j), (p, j);
    axis 1: same with the roles of the indices swapped.  Boundary faces use
    half-cell two-point differences against the Dirichlet data and carry
    half the energy weight.
    """
    h = 2.0 / N
    xc = -1 + (np.arange(N) + 0.5) * h
    pf, jf = np.meshgrid(np.arange(N + 1), np.arange(N), indexing="ij")
    pf, jf = pf.ravel(), jf.ravel()
    nf = pf.size
    fid = np.arange(nf)
    interior = (pf > 0) & (pf < N)
    pi, ji = pf[interior], jf[interior]

    if axis == 0:
        cm, cp = (pi - 1) * N + ji, pi * N + ji
        klo, khi = pf * (N + 1) + jf, pf * (N + 1) + (jf + 1)
        fx, fy = -1 + pf * h, xc[jf]
    else:
        cm, cp = ji * N + (pi - 1), ji * N + pi
        klo, khi = jf * (N + 1) + pf, (jf + 1) * (N + 1) + pf
        fx, fy = xc[jf], -1 + pf * h

    rows = [fid[interior], fid[interior]]
    cols = [cp, cm]
    vals = [np.ones(cm.size), -np.ones(cm.size)]
    b_face = np.zeros(nf)
    lo, hi = pf == 0, pf == N
    cin_lo = (0 * N + jf[lo]) if axis == 0 else (jf[lo] * N + 0)
    cin_hi = ((N - 1) * N + jf[hi]) if axis == 0 else (jf[hi] * N + (N - 1))
    rows += [fid[lo], fid[hi]]
    cols += [cin_lo, cin_hi]
    vals += [2.0 * np.ones(lo.sum()), -2.0 * np.ones(hi.sum())]
    gface = gfun(np.stack([fx, fy], axis=1))
    b_face[lo] = -2.0 * gface[lo]
    b_face[hi] = 2.0 * gface[hi]

    D = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(nf, N * N))
    T = sp.csr_matrix((np.concatenate([np.ones(nf), -np.ones(nf)]),
                       (np.concatenate([fid, fid]),
                        np.concatenate([khi, klo]))),
                      shape=(nf, (N + 1) ** 2))

    Aface = np.empty((nf, 2, 2))
    Aface[interior] = 2.0 * np.linalg.inv(Ainv[cm] + Ainv[cp])
    bnd = ~interior
    Aface[bnd] = 0.5 * field.eval_batch(np.stack([fx[bnd], fy[bnd]], axis=1))
    return D, b_face, T, Aface


def reference_assemble(field, gfun, N):
    """Symmetric system (K, b) for the Dirichlet problem on the N x N grid."""
    h = 2.0 / N
    xc = -1 + (np.arange(N) + 0.5) * h
    X, Y = np.meshgrid(xc, xc, indexing="ij")
    A = field.eval_batch(np.stack([X.ravel(), Y.ravel()], axis=1))
    Ainv = np.linalg.inv(A)

    C, gb = _corner_operator(N, gfun)
    Dx, bx, Tx, Ax = _face_family(N, 0, Ainv, field, gfun)
    Dy, by, Ty, Ay = _face_family(N, 1, Ainv, field, gfun)
    TxC, txb = Tx @ C, Tx @ gb
    TyC, tyb = Ty @ C, Ty @ gb

    a11 = sp.diags(Ax[:, 0, 0])
    a12x = sp.diags(Ax[:, 0, 1])
    a22 = sp.diags(Ay[:, 1, 1])
    a12y = sp.diags(Ay[:, 0, 1])
    K = (Dx.T @ a11 @ Dx + Dy.T @ a22 @ Dy
         + 0.5 * (Dx.T @ a12x @ TxC + TxC.T @ a12x @ Dx)
         + 0.5 * (Dy.T @ a12y @ TyC + TyC.T @ a12y @ Dy))
    b = -(Dx.T @ (a11 @ bx) + Dy.T @ (a22 @ by)
          + 0.5 * (Dx.T @ (a12x @ txb) + TxC.T @ (a12x @ bx))
          + 0.5 * (Dy.T @ (a12y @ tyb) + TyC.T @ (a12y @ by)))
    return K.tocsr(), b
