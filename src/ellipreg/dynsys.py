"""Log-time linear dynamical systems and their stability evidence.

Integrates d(phi)/dt + R(t) phi = 0 with fourth-order Magnus steps,
Phi <- exp(Omega) Phi, and measures the stability notions the regularity
diagnosis needs: the uniform-stability constant K = sup ||Phi(t) Phi(s)^-1||,
asymptotic constancy of trajectories, the growth-bound ratio against
exp(int mu), and invariance of the stability class under integrable
perturbations of the generator.

One flow builds every ``Trajectory``: ``lattice_flow`` steps generator
samples on an equispaced lattice without calling anything, and
``refined_flow`` halves that lattice, sampling only the midpoints, until the
flow's Richardson estimate meets a tolerance.  A trajectory keeps its node
states and, per panel between nodes, the quadratic through the panel's
three samples, so dense output needs no further generator call.  A scalar
generator with a known integral needs no flow: its Phi is exp of that
integral (``gilbarg_serrin.closed_form_phi``).

The fundamental matrix Phi is one matrix-state flow; every dynamics question
reads from it: K from any start time (Phi(t) Phi(s)^-1 does not depend on it)
and the trajectory through e_1, the first column of Phi.

All verdicts are finite-window evidence with the window reported; nothing
here claims an asymptotic proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

EVIDENCE_STABLE = "evidence-stable"
EVIDENCE_UNSTABLE = "evidence-unstable"
EVIDENCE_YES = "evidence-yes"
EVIDENCE_NO = "evidence-no"
INCONCLUSIVE = "inconclusive"

LN2 = math.log(2.0)
_COND_LIMIT = 1e12
_K_BLOCK = 32                # rows of the pairwise K table normed per batch
_K_WINDOWS = 10              # dyadic windows of the K trend
_K_SATURATION_RTOL = 0.01    # last three windows this close: saturated
_ASYM_WINDOW_FRACTION = 0.1  # tail window of asymptotic_limit
_GRONWALL_QUAD_ORDER = 8     # Gauss-Legendre nodes per step for int mu
_FLOW_MAX_NODES_PER_OCTAVE = 256   # a lattice is halved no finer than ln2/256


class IntegrationError(RuntimeError):
    """A flow's error estimate stays above its tolerance at the finest lattice."""


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

# Higham's [13/13] Pade approximant, exact to double precision for 1-norms
# up to theta_13 (SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(Om: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (k, d, d) stack, by scaling and squaring.

    Each matrix is scaled by 2^-s into the Pade range, its [13/13] approximant
    is formed with six products and one solve, and it is squared s times;
    1x1 stacks are np.exp.
    """
    Om = np.asarray(Om, float)
    if Om.shape[-1] == 1:
        return np.exp(Om)
    norm = np.max(np.sum(np.abs(Om), axis=-2), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.ceil(np.log2(norm / _THETA13))
    s = np.where(np.isfinite(s) & (s > 0), s, 0).astype(int)  # 0 for 0, NaN, inf
    X = Om / np.exp2(s)[:, None, None]
    b = _PADE13
    I = np.eye(Om.shape[-1])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * I)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * I)
    E = np.linalg.solve(V - U, V + U)
    E[norm == 0] = I                          # exactly, for dense output at a node
    for j in range(int(s.max(initial=0))):
        m = s > j
        E[m] = E[m] @ E[m]
    return E


def _commutator(X, Y):
    return X @ Y - Y @ X


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def _shift_matrix(p: int, x0: float) -> np.ndarray:
    """T with sum_k c_k (x0 + u)^k = sum_j (T c)_j u^j for p coefficients."""
    return np.array([[math.comb(k, j) * x0 ** (k - j) if k >= j else 0.0
                      for k in range(p)] for j in range(p)])


@dataclass(frozen=True)
class Trajectory:
    """Node states of a Magnus flow plus a generator model per panel.

    On panel i, between t[i] and t[i+1], the generator A = -R is the
    polynomial sum_k coef[i, k] s^k in s = t - t[i].  Dense output starts
    from y[i] with the fourth-order Magnus exponent of that polynomial,
    Omega(s) = a1 - [b, a2]/12, where a1 = int_0^s A, a2 = (12/s) int_0^s
    (u - s/2) A du and b = s (A(0) + A(s))/2.  At the end of a panel this
    is the panel's Simpson-pair step.
    """

    t: np.ndarray          # (m,) node times
    y: np.ndarray          # (m, d) or (m, d, d) states at the nodes
    coef: np.ndarray       # (m - 1, p, d, d) generator model per panel

    @property
    def dim(self) -> int:
        return self.y.shape[1]

    def eval(self, tq) -> np.ndarray:
        tq = np.atleast_1d(np.asarray(tq, float))
        i = np.clip(np.searchsorted(self.t, tq, side="right") - 1,
                    0, len(self.t) - 2)
        s = tq - self.t[i]
        c = self.coef[i]
        k = np.arange(c.shape[1])
        pw = s[:, None] ** (k + 1)
        a1 = np.einsum("qk,qkab->qab", pw / (k + 1), c)
        a2 = np.einsum("qk,qkab->qab", pw * (6.0 * k / ((k + 1) * (k + 2))), c)
        b = s[:, None, None] * c[:, 0] + 0.5 * np.einsum(
            "qk,qkab->qab", pw[:, 1:], c[:, 1:])
        E = expm(a1 - _commutator(b, a2) / 12.0)
        y = self.y[i]
        Y = y[:, :, None] if y.ndim == 2 else y
        # E @ Y summed in one fixed order, so that the flow's column j
        # reproduces Phi[:, :, j] bit for bit
        out = E[:, :, :1] * Y[:, None, 0]
        for j in range(1, E.shape[-1]):
            out += E[:, :, j:j + 1] * Y[:, None, j]
        return out[:, :, 0] if y.ndim == 2 else out

    def column(self, j: int) -> "Trajectory":
        """Column j of a matrix-state trajectory, as a vector trajectory."""
        return Trajectory(self.t, self.y[:, :, j], self.coef)

    def rebased(self, t0: float) -> "Trajectory":
        """The matrix-state flow from t0 on, Phi(t) Phi(t0)^-1, no new solve."""
        i = int(np.clip(np.searchsorted(self.t, t0, side="right") - 1,
                        0, len(self.t) - 2))
        P0 = self.eval([t0])[0]
        y = np.concatenate([np.eye(len(P0))[None],
                            self.y[i + 1:] @ np.linalg.inv(P0)])
        coef = self.coef[i:].copy()
        coef[0] = np.einsum("jk,kab->jab",
                            _shift_matrix(len(coef[0]), t0 - self.t[i]), coef[0])
        return Trajectory(np.concatenate([[t0], self.t[i + 1:]]), y, coef)


# ---------------------------------------------------------------------------
# Magnus flow on a sampled lattice
# ---------------------------------------------------------------------------

def _lattice_steps(t: np.ndarray, R: np.ndarray):
    """Simpson-pair Magnus steps over node pairs: (exp(Omega), A0, A1, A2, H)."""
    A = -R
    A0, A1, A2 = A[0:-1:2], A[1::2], A[2::2]
    H = (t[2::2] - t[0:-1:2])[:, None, None]
    Om = H / 6.0 * (A0 + 4.0 * A1 + A2) + H * H / 12.0 * _commutator(A2, A0)
    return expm(Om), A0, A1, A2, H


def _lattice_states(E: np.ndarray) -> np.ndarray:
    Phi = np.empty((len(E) + 1,) + E.shape[1:])
    Phi[0] = np.eye(E.shape[-1])
    for p, Ep in enumerate(E):
        Phi[p + 1] = Ep @ Phi[p]
    return Phi


def lattice_flow(t: np.ndarray, R: np.ndarray) -> Trajectory:
    """Fundamental matrix of phi' = -R phi from sampled R, Phi(t[0]) = I.

    ``t`` is an equispaced lattice with an even count of intervals and
    ``R`` the (len(t), d, d) generator on it.  Each pair of intervals is one
    fourth-order Magnus step (Iserles and Norsett 1999; Blanes, Casas, Oteo
    and Ros 2009): with A = -R and H the pair's length,
    Omega = H/6 (A0 + 4 A1 + A2) + H^2/12 [A2, A0], whose first term is
    Simpson's rule.  Nothing is sampled beyond ``R``; dense output reads the
    quadratic through the pair's three samples.
    """
    if (len(t) - 1) % 2 or len(t) < 3:
        raise ValueError("lattice_flow needs an even, positive count of intervals")
    E, A0, A1, A2, H = _lattice_steps(t, R)
    coef = np.stack([A0, (4.0 * A1 - 3.0 * A0 - A2) / H,
                     2.0 * (A0 - 2.0 * A1 + A2) / (H * H)], axis=1)
    return Trajectory(t[::2], _lattice_states(E), coef)


def lattice_flow_error(t: np.ndarray, R: np.ndarray, flow: Trajectory) -> float:
    """Richardson estimate of ``lattice_flow(t, R)`` from every other node.

    The flow on the coarse lattice t[::2] (up to its last whole pair) is
    compared with ``flow`` at the coarse nodes; the largest entry of the
    difference over 15, relative to max(1, max |Phi|), estimates the fine
    flow's error.  Infinite when the coarse lattice holds no pair.

    The estimate holds at the nodes.  Dense output between them is about
    ten times coarser: for the 2-D field g = -1/log(e^2/r) on [0, 30] from
    1024 intervals at tol 1e-9, the error against a 1e-13 RK45 solve is
    5.2e-10 at the nodes and 5.4e-9 midway between them.  Output that must
    meet a tolerance is read at nodes.
    """
    n = 4 * ((len(t) - 1) // 4)
    if n == 0:
        return math.inf
    coarse = _lattice_states(_lattice_steps(t[:n + 1:2], R[:n + 1:2])[0])
    fine = flow.y[: n // 2 + 1: 2]
    size = np.maximum(1.0, np.max(np.abs(fine), axis=(1, 2)))
    return float(np.max(np.max(np.abs(fine - coarse), axis=(1, 2)) / size)) / 15.0


def refined_flow(sample: Callable, t: np.ndarray, tol: float,
                 R: Optional[np.ndarray] = None,
                 strict: bool = False) -> Trajectory:
    """``lattice_flow`` from t[0], its lattice halved until the error meets tol.

    ``sample`` maps an array of times to the (len, d, d) generator R there;
    ``t`` is the starting lattice, with an even count of intervals, and
    ``R`` its samples when they are at hand.  While ``lattice_flow_error``
    exceeds ``tol`` the lattice is halved with one call of ``sample`` at
    the midpoints, so every starting node stays a flow node, down to a
    spacing of ln 2 / _FLOW_MAX_NODES_PER_OCTAVE.  With ``strict``, an
    estimate still above ``tol`` there raises IntegrationError; otherwise
    the finest flow is returned as it is.
    """
    t = np.asarray(t, float)
    if R is None:
        R = sample(t)
    while True:
        flow = lattice_flow(t, R)
        err = lattice_flow_error(t, R, flow)
        h = t[2] - t[1]
        if not (err > tol and h * _FLOW_MAX_NODES_PER_OCTAVE > LN2 * (1 + 1e-9)):
            break
        mid = 0.5 * (t[1:] + t[:-1])
        R_mid = sample(mid)
        t = np.insert(t, np.arange(1, len(t)), mid)
        R = np.insert(R, np.arange(1, len(R)), R_mid, axis=0)
    if strict and not err <= tol:
        raise IntegrationError(
            f"flow on [{t[0]:.6g}, {t[-1]:.6g}] misses tol {tol:.3g}: Richardson "
            f"estimate {err:.3g} at the finest spacing {h:.3g}")
    return flow


# ---------------------------------------------------------------------------
# fundamental matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalMatrixTrack:
    """Phi(t) samples on a grid, Phi(t_grid[0]) = I.

    ``flow`` is the matrix-state flow the samples are read from, started at
    t_grid[0] (None on a track built from samples alone).
    """

    t_grid: np.ndarray
    Phi: np.ndarray          # (m, d, d)
    flow: Optional[Trajectory] = None

    def resample(self, t_grid) -> "FundamentalMatrixTrack":
        """The flow on another grid inside its window, no new solve."""
        return flow_track(self.flow, t_grid)


def flow_track(flow: Trajectory, t_grid) -> FundamentalMatrixTrack:
    """Phi(t) Phi(t_grid[0])^-1 on t_grid, read off a matrix-state flow.

    The track's flow is the flow rebased to start at t_grid[0].
    """
    t_grid = np.asarray(t_grid, float)
    lo, hi = flow.t[0], flow.t[-1]
    if not lo <= t_grid[0] < t_grid[-1] <= hi:
        raise ValueError(f"grid [{t_grid[0]:g}, {t_grid[-1]:g}] is not an "
                         f"increasing window inside [{lo:g}, {hi:g}]")
    based = flow.rebased(float(t_grid[0]))
    Phi = based.eval(t_grid)
    Phi[0] = np.eye(flow.dim)
    return FundamentalMatrixTrack(t_grid, Phi, based)


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Batched spectral norms; closed form up to 2x2, SVD otherwise."""
    if mats.shape[-1] == 1:
        return np.abs(mats[..., 0, 0])
    if mats.shape[-1] == 2:
        # (|(a+d, b-c)| + |(a-d, b+c)|)/2 does not cancel when sigma_1 ~ sigma_2
        a, b = mats[..., 0, 0], mats[..., 0, 1]
        c, d = mats[..., 1, 0], mats[..., 1, 1]
        return 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


# ---------------------------------------------------------------------------
# stability evidence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    K_hat: float
    K_trend: np.ndarray
    window_ends: np.ndarray
    verdict_uniform_stability: str
    growth_rate: Optional[float] = None
    diagnostics: str = ""
    K_running: Optional[np.ndarray] = None    # running K at every node


@dataclass(frozen=True)
class AsymptoticReport:
    verdict: str
    limit: Optional[np.ndarray] = None
    residual: Optional[float] = None


def _pairwise_K(Phi: np.ndarray):
    """K(e) = max over s <= t <= t_e of ||Phi(t) Phi(s)^-1||, per end index.

    Scalar tracks use the exact running-min formulation; matrix tracks pair
    every node with every earlier one.  K is a running maximum and
    ||Phi(t) Phi(s)^-1|| is at most ||Phi(t)|| ||Phi(s)^-1||, both read off
    the one batched SVD the conditioning check takes, so only pairs whose
    bound (with 1e-12 of headroom for rounding) exceeds a floor under the
    running maximum get a norm; the result equals the all-pairs maximum.
    The floor is raised before any pruning by norming, for every end node,
    the earlier node of largest bound; the remaining pairs are normed in
    batches of _K_BLOCK end nodes.  Returns K_running, nondecreasing, at
    every node.
    """
    m, d, _ = Phi.shape
    if d == 1:
        v = np.abs(Phi[:, 0, 0])
        running_min = np.minimum.accumulate(v)
        return np.maximum.accumulate(v / running_min)

    sv = np.linalg.svd(Phi, compute_uv=False)
    if np.any(sv[:, 0] > _COND_LIMIT * sv[:, -1]):
        raise np.linalg.LinAlgError(
            f"fundamental matrix conditioning exceeds {_COND_LIMIT:.0e}")
    Phi_inv = np.linalg.inv(Phi)
    inv_norm = (1 + 1e-12) / sv[:, -1]     # ||Phi^-1||, rounded up
    idx = np.arange(m)
    top = np.maximum.accumulate(np.where(
        inv_norm == np.maximum.accumulate(inv_norm), idx, 0))
    floor = np.maximum.accumulate(spectral_norms(Phi @ Phi_inv[top]))
    K_run = np.empty(m)
    best = 1.0
    for lo in range(0, m, _K_BLOCK):
        rows = idx[lo:lo + _K_BLOCK]
        T = np.maximum(best, floor[rows])
        cols = idx[: rows[-1] + 1]
        ii, jj = np.nonzero((sv[rows, :1] * inv_norm[cols] > T[:, None])
                            & (cols <= rows[:, None]))
        row_max = np.full(len(rows), -np.inf)
        if len(ii):
            np.maximum.at(row_max, ii, spectral_norms(Phi[rows[ii]] @ Phi_inv[jj]))
        K_run[rows] = np.maximum(T, np.maximum.accumulate(row_max))
        best = K_run[rows[-1]]
    return K_run


def stability_constant(track: FundamentalMatrixTrack) -> StabilityReport:
    """Uniform-stability constant estimate with dyadic-window trend.

    K_hat is the max of ||Phi(t) Phi(s)^-1|| over grid pairs; K_trend[m] is
    the same max over the window [t0, t0 + span * 2^(m+1-M)], so the windows
    expand dyadically to the full track.  Verdicts: saturation of the last
    three windows within _K_SATURATION_RTOL is stability evidence; log K
    growing at least linearly across the last four windows is instability
    evidence; anything else is inconclusive.  A fundamental matrix with
    conditioning beyond 1e12 yields inconclusive with a diagnostic.  The
    report carries the running K at every node of the track.
    """
    t = track.t_grid
    span = t[-1] - t[0]
    try:
        K_run = _pairwise_K(track.Phi)
    except np.linalg.LinAlgError as e:
        return StabilityReport(float("nan"), np.array([]), np.array([]),
                               INCONCLUSIVE, diagnostics=str(e))
    ends = t[0] + span * 2.0 ** np.arange(-(_K_WINDOWS - 1), 1, 1.0)
    K_trend = np.empty(len(ends))
    for i, e in enumerate(ends):
        j = np.searchsorted(t, e + 1e-12)
        K_trend[i] = K_run[min(max(j - 1, 0), len(K_run) - 1)]
    K_hat = float(K_run[-1])

    verdict = INCONCLUSIVE
    growth = None
    lastK = K_trend[-3:]
    if np.max(lastK) <= np.min(lastK) * (1 + _K_SATURATION_RTOL):
        verdict = EVIDENCE_STABLE
    else:
        logs = np.log(np.maximum(K_trend, 1.0))
        inc = np.diff(logs)
        consec = _longest_positive_run(inc, 1e-9)
        tail_slope = np.polyfit(np.arange(len(logs))[-5:], logs[-5:], 1)[0] \
            if len(logs) >= 5 else 0.0
        if consec >= 4 and tail_slope > 0.02:
            verdict = EVIDENCE_UNSTABLE
            growth = float(tail_slope)
    return StabilityReport(K_hat, K_trend, ends, verdict, growth,
                           K_running=K_run)


def _longest_positive_run(values: np.ndarray, eps: float) -> int:
    best = cur = 0
    for v in values:
        cur = cur + 1 if v > eps else 0
        best = max(best, cur)
    return best


def asymptotic_limit(state: Callable, t0: float, t1: float,
                     tol: float = 1e-6) -> AsymptoticReport:
    """Tail-window limit of a trajectory on [t0, t1].

    ``state`` maps an array of times to the (len, d) states there.  The
    limit is the mean over the final _ASYM_WINDOW_FRACTION of the span; the
    evidence is positive when the max deviation there is below tol and at
    most half that over the preceding window (an exactly quiet tail counts).
    """
    if t1 - t0 < 10:
        raise ValueError("trajectory window must span at least 10 time units")
    w = _ASYM_WINDOW_FRACTION * (t1 - t0)
    tq_last = np.linspace(t1 - w, t1, 200)
    tq_prev = np.linspace(t1 - 2 * w, t1 - w, 200)
    y_last = state(tq_last)
    y_prev = state(tq_prev)
    mean = y_last.mean(axis=0)
    dev = float(np.max(np.linalg.norm(y_last - mean, axis=1)))
    dev_prev = float(np.max(np.linalg.norm(y_prev - y_prev.mean(axis=0), axis=1)))
    if dev <= tol and (dev <= 0.5 * dev_prev or dev_prev <= tol):
        return AsymptoticReport(EVIDENCE_YES, mean, dev)
    if dev > tol and dev >= 0.9 * dev_prev:
        return AsymptoticReport(EVIDENCE_NO, None, dev)
    return AsymptoticReport(INCONCLUSIVE, None, dev)


# ---------------------------------------------------------------------------
# growth bound and perturbation equivalence
# ---------------------------------------------------------------------------

def gronwall_bound_check(traj: Trajectory, mu: Callable,
                         cumulative_mu: Optional[Callable] = None) -> float:
    """Worst ratio of |phi(t)| against |phi(s)| exp(int_s^t mu).

    ``mu(t)`` must be the top eigenvalue of the symmetric part of the
    system's right-hand generator: for d(phi)/dt + R phi = 0 that generator
    is B = -R, and (B + B^T)/2 is exactly the symmetrized matrix S whose top
    eigenvalue drives all growth bounds here.  The bound is an identity for
    scalar flows and an inequality otherwise, so the return value should
    never exceed 1 beyond integration error.
    """
    t = traj.t
    norms = np.linalg.norm(traj.y, axis=1)
    if np.any(norms == 0):
        raise ValueError("trajectory passes through zero; ratio undefined")
    if cumulative_mu is not None:
        M = np.asarray(cumulative_mu(t), float)
    else:
        x, w = np.polynomial.legendre.leggauss(_GRONWALL_QUAD_ORDER)
        a, b = t[:-1], t[1:]
        mid, half = (a + b) / 2, (b - a) / 2
        nodes = mid[:, None] + half[:, None] * x[None, :]
        vals = np.asarray([[mu(tt) for tt in row] for row in nodes])
        pieces = (vals * w[None, :]).sum(axis=1) * half
        M = np.concatenate([[0.0], np.cumsum(pieces)])
    q = np.log(norms) - M
    return float(np.exp(np.max(q - np.minimum.accumulate(q))))


@dataclass(frozen=True)
class PerturbationReport:
    l1_of_difference: float
    K_hat_base: float
    K_hat_perturbed: float
    realized_factor: float
    c_measured: float
    bound_factor: float
    bound_satisfied: bool


def perturbation_equivalence(Rfun: Callable, Rtil: Callable, t_grid,
                             tol: float = 1e-8) -> PerturbationReport:
    """Stability class is unchanged by L1 perturbations of the generator.

    Measures int ||Rtil - R|| dt on the window (rejecting differences whose
    dyadic partial integrals keep growing, i.e. non-integrable ones), the
    two stability constants, and checks the realized change factor of K_hat
    against exp(c * l1) with c the measured conditioning constant
    max(K_base, K_perturbed).  Each constant is read on t_grid off a
    ``refined_flow`` at ``tol`` that starts from twice as many intervals.
    """
    t_grid = np.asarray(t_grid, float)
    fa = lambda t: np.atleast_2d(np.asarray(Rfun(t), float))
    fb = lambda t: np.atleast_2d(np.asarray(Rtil(t), float))
    if fa(t_grid[0]).shape != fb(t_grid[0]).shape:
        raise ValueError("generator dimensions differ")

    t0, t1 = t_grid[0], t_grid[-1]
    fine = np.unique(np.concatenate([np.linspace(t0, t1, 2049), t_grid]))
    diff = spectral_norms(np.array([fb(t) - fa(t) for t in fine]))
    seg = np.concatenate([[0.0], np.cumsum(0.5 * (diff[1:] + diff[:-1]) * np.diff(fine))])
    l1 = float(seg[-1])

    # integrability screen: increments over dyadic sub-windows must decay
    ends = t0 + (t1 - t0) * 2.0 ** np.arange(-8, 1, 1.0)
    cums = np.interp(ends, fine, seg)
    incs = np.diff(cums)
    if len(incs) >= 3 and incs[-1] > tol and incs[-1] >= 0.8 * incs[-2] >= 0.8 * 0.8 * incs[-3]:
        raise ValueError(
            "perturbation looks non-integrable: dyadic window increments "
            f"are not decaying ({incs[-3]:.3g}, {incs[-2]:.3g}, {incs[-1]:.3g})")

    lattice = np.linspace(t0, t1, 2 * len(t_grid) - 1)

    def K_hat(f):
        flow = refined_flow(lambda ts: np.stack([f(t) for t in ts]), lattice,
                            tol, strict=True)
        return stability_constant(flow_track(flow, t_grid)).K_hat

    Ka, Kb = K_hat(fa), K_hat(fb)
    realized = max(Ka / Kb, Kb / Ka)
    c_meas = max(Ka, Kb)
    bound = float(np.exp(c_meas * l1))
    return PerturbationReport(l1, Ka, Kb, realized, c_meas, bound,
                              realized <= bound * (1 + 1e-9) + 1e-12)
