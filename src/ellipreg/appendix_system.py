"""First-order reduction of the first-moment mode system.

The second-order system for the first-moment coefficient vector of a
solution reduces to dV/dt + (M_inf + S1(t)) V = 0 in log-time, where M_inf
is a constant 2n x 2n block matrix with eigenvalues {0 (n times), -n (n
times)} and S1 is assembled from the radial moment matrices and is small
whenever the field oscillation is.  The block diagonalizer J turns V into
the pair (phi, psi) on which all stability statements are made, and the
leading block of the transformed perturbation reproduces the mean matrix
R = C - nB up to a second-order (omega^2) defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sphmean import MomentData


def m_infinity(n: int) -> np.ndarray:
    """Constant block matrix [[-I, nI], [(1 - 1/n) I, (1 - n) I]]."""
    if n < 2:
        raise ValueError("n must be at least 2")
    I = np.eye(n)
    return np.block([[-I, n * I],
                     [(1.0 - 1.0 / n) * I, (1.0 - n) * I]])


def jordanizer(n: int) -> np.ndarray:
    """J = [[nI, nI], [I, (1-n) I]]; J^-1 M_inf J = diag(0,...,0, -n,...,-n)."""
    I = np.eye(n)
    return np.block([[n * I, n * I],
                     [I, (1.0 - n) * I]])


def s1_matrix(m: MomentData) -> np.ndarray:
    """Perturbation block assembled from the moment matrices at one radius:

        [[ I - A^-1 B,              A^-1 - nI      ],
         [ C - B A^-1 B + (1-n)/n I, B A^-1 - I    ]]

    Vanishes exactly on the identity field (A = B = I/n, C = I).  Rejects
    moment data whose A block is too ill-conditioned for the reduction's
    small-oscillation regime.
    """
    n = m.Amat.shape[0]
    cond = np.linalg.cond(m.Amat)
    if cond > 1e8:
        raise ValueError(
            f"moment matrix A is near-singular (cond = {cond:.3e}); the "
            "first-order reduction is outside its validity regime")
    Ainv = np.linalg.inv(m.Amat)
    I = np.eye(n)
    AinvB = Ainv @ m.Bmat
    BAinv = m.Bmat @ Ainv
    top = np.hstack([I - AinvB, Ainv - n * I])
    bot = np.hstack([m.Cmat - m.Bmat @ Ainv @ m.Bmat + (1.0 - n) / n * I,
                     BAinv - I])
    return np.vstack([top, bot])


@dataclass(frozen=True)
class R1Residual:
    R1: np.ndarray
    C_minus_nB: np.ndarray
    residual: float          # ||R1 - (C - nB)||, spectral
    quadrature_residual: float  # ||(C - nB) - R|| across the two accumulations


def r1_block_residual(m: MomentData) -> R1Residual:
    """Leading block of the transformed perturbation vs the mean matrix.

    R1 = (n-1)/n^2 A^-1 - (n-1)/n A^-1 B + C - B A^-1 B + (1/n) B A^-1 - I.
    The defect against C - nB is second order in the oscillation; the
    quadrature residual cross-checks C - nB against the directly accumulated
    mean matrix R (two independent code paths over the same nodes).
    """
    n = m.Amat.shape[0]
    Ainv = np.linalg.inv(m.Amat)
    I = np.eye(n)
    R1 = ((n - 1.0) / n ** 2 * Ainv
          - (n - 1.0) / n * Ainv @ m.Bmat
          + m.Cmat - m.Bmat @ Ainv @ m.Bmat
          + (1.0 / n) * m.Bmat @ Ainv - I)
    CnB = m.Cmat - n * m.Bmat
    res = float(np.linalg.norm(R1 - CnB, 2))
    qres = float(np.max(np.abs(CnB - m.R)))
    return R1Residual(R1, CnB, res, qres)
