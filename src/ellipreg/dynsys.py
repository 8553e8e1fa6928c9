"""Log-time linear dynamical systems and their stability evidence.

Integrates d(phi)/dt + R(t) phi = 0 with an embedded adaptive Runge-Kutta
pair and measures the stability notions the regularity diagnosis needs: the
uniform-stability constant K = sup ||Phi(t) Phi(s)^-1||, asymptotic
constancy of trajectories, the growth-bound ratio against exp(int mu), and
invariance of the stability class under integrable perturbations of the
generator.

The fundamental matrix Phi is two dense solves of the whole (d, d) state, at
tol and at tol/5; every dynamics question reads from them: K from any start
time (Phi(t) Phi(s)^-1 does not depend on it) and the trajectory through
e_1, the first column of Phi.

All verdicts are finite-window evidence with the window reported; nothing
here claims an asymptotic proof.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

EVIDENCE_STABLE = "evidence-stable"
EVIDENCE_UNSTABLE = "evidence-unstable"
EVIDENCE_YES = "evidence-yes"
EVIDENCE_NO = "evidence-no"
INCONCLUSIVE = "inconclusive"

_COND_LIMIT = 1e12


class IntegrationError(RuntimeError):
    """Adaptive stepper failed (step-size underflow or generator blow-up)."""


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Solution samples plus dense interpolants per smooth segment."""

    t: np.ndarray          # (m,)
    y: np.ndarray          # (m, d) or (m, d, d)
    segments: tuple        # OdeSolution per smooth piece
    seg_bounds: np.ndarray  # (len(segments)+1,) segment boundary times

    @property
    def dim(self) -> int:
        return self.y.shape[1]

    def eval(self, tq) -> np.ndarray:
        tq = np.atleast_1d(np.asarray(tq, float))
        shape = self.y.shape[1:]
        out = np.empty((len(tq),) + shape)
        idx = np.clip(np.searchsorted(self.seg_bounds, tq, side="right") - 1,
                      0, len(self.segments) - 1)
        for i in range(len(self.segments)):
            m = idx == i
            if np.any(m):
                out[m] = self.segments[i](tq[m]).T.reshape((-1,) + shape)
        return out

    def column(self, j: int) -> "Trajectory":
        """Column j of a matrix-state trajectory, as a vector trajectory."""
        d = self.dim   # the stepper holds a matrix state flattened row by row
        segs = tuple(lambda tq, s=s: s(tq)[j::d] for s in self.segments)
        return Trajectory(self.t, self.y[:, :, j], segs, self.seg_bounds)


def _as_matrix_fun(Rfun: Callable):
    """Normalize a generator to t -> (d, d) ndarray; scalars become 1x1."""
    probe = np.asarray(Rfun(0.0), float)
    if probe.ndim == 0:
        d = 1
        fun = lambda t: np.asarray(Rfun(t), float).reshape(1, 1)
    else:
        d = probe.shape[0]
        fun = lambda t: np.asarray(Rfun(t), float)
    return fun, d


def integrate_system(Rfun: Callable, t0: float, t1: float, phi0,
                     tol: float = 1e-9,
                     breakpoints: Sequence[float] = ()) -> Trajectory:
    """Solve d(phi)/dt = -R(t) phi on [t0, t1] adaptively.

    ``phi0`` is a vector or a (d, d) matrix, solved flattened with one step
    sequence.  The stepper never straddles a declared breakpoint: integration
    restarts at each one so discontinuous plateau generators are handled
    one-sidedly.  The tolerance maps to the embedded pair as rtol = tol/10
    (per-step control leaves headroom for accumulation: measured global
    drift on the built-in profiles stays within 10*tol over 100 time units).
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    fun, d = _as_matrix_fun(Rfun)
    phi0 = np.atleast_1d(np.asarray(phi0, float))
    shape = phi0.shape
    if shape not in ((d,), (d, d)):
        raise ValueError(f"phi0 has shape {shape}, generator dimension {d}")

    cuts = [t0] + sorted(t for t in set(float(b) for b in breakpoints)
                         if t0 < t < t1) + [t1]
    rhs = lambda t, y: -(fun(t) @ y.reshape(shape)).ravel()
    ts, ys, segs = [], [], []
    y = phi0.flatten()
    scale = max(1.0, float(np.max(np.abs(phi0))))
    for a, b in zip(cuts[:-1], cuts[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="RK45", rtol=0.1 * tol,
                        atol=0.01 * tol * scale, dense_output=True)
        if not sol.success:
            raise IntegrationError(
                f"stepper failed near t = {sol.t[-1]:.6g}: {sol.message}")
        keep = slice(0, len(sol.t) - 1) if b < cuts[-1] else slice(0, len(sol.t))
        ts.append(sol.t[keep])
        ys.append(sol.y[:, keep].T)
        segs.append(sol.sol)
        y = sol.y[:, -1]
    t = np.concatenate(ts)
    yy = np.vstack(ys).reshape((-1,) + shape)
    return Trajectory(t, yy, tuple(segs), np.asarray(cuts))


# ---------------------------------------------------------------------------
# fundamental matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalMatrixTrack:
    """Phi(t) samples on a grid, Phi(t_grid[0]) = I, with error estimates.

    ``step_error[k]`` compares the run against the reference solve at tol/5
    at node k; it bounds the realized local-error accumulation.  ``flow``
    and ``flow_ref`` are those two dense matrix-state solves (None on a
    track built from samples alone).
    """

    t_grid: np.ndarray
    Phi: np.ndarray          # (m, d, d)
    step_error: np.ndarray   # (m,)
    tol: float
    breakpoints: tuple = ()
    flow: Optional[Trajectory] = None
    flow_ref: Optional[Trajectory] = None

    @property
    def dim(self) -> int:
        return self.Phi.shape[1]

    def resample(self, t_grid) -> "FundamentalMatrixTrack":
        """The flow on another grid inside the solved window, no new solve.

        Samples are rebased to Phi(t) Phi(t_grid[0])^-1, the fundamental
        matrix started at t_grid[0].
        """
        t_grid = np.asarray(t_grid, float)
        lo, hi = self.flow.t[0], self.flow.t[-1]
        if not lo <= t_grid[0] < t_grid[-1] <= hi:
            raise ValueError(f"grid [{t_grid[0]:g}, {t_grid[-1]:g}] is not an "
                             f"increasing window inside [{lo:g}, {hi:g}]")
        Phi, Phi_ref = (P @ np.linalg.inv(P[0])
                        for P in (self.flow.eval(t_grid), self.flow_ref.eval(t_grid)))
        err = np.linalg.norm((Phi - Phi_ref).reshape(len(t_grid), -1), axis=1)
        Phi[0] = np.eye(self.dim)
        return replace(self, t_grid=t_grid, Phi=Phi, step_error=err)


def fundamental_matrix(Rfun: Callable, t_grid, tol: float = 1e-9,
                       breakpoints: Sequence[float] = ()) -> FundamentalMatrixTrack:
    """Fundamental matrix on the given grid from two matrix-state solves.

    The whole (d, d) state is solved from Phi(t_grid[0]) = I at ``tol`` and
    at tol/5, the reference for ``step_error``, both with dense output:
    ``resample`` reads any grid inside [t_grid[0], t_grid[-1]] off them, and
    ``flow.column(0)`` is the trajectory through e_1.
    """
    t_grid = np.asarray(t_grid, float)
    fun, d = _as_matrix_fun(Rfun)
    t0, t1 = float(t_grid[0]), float(t_grid[-1])
    flow, flow_ref = (integrate_system(fun, t0, t1, np.eye(d), eff_tol, breakpoints)
                      for eff_tol in (tol, tol / 5.0))
    start = FundamentalMatrixTrack(t_grid[:1], np.eye(d)[None], np.zeros(1), tol,
                                   tuple(breakpoints), flow, flow_ref)
    return start.resample(t_grid)


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
    K_running: Optional[np.ndarray] = None    # running K at the nodes used
    K_running_t: Optional[np.ndarray] = None  # times of those nodes


@dataclass(frozen=True)
class AsymptoticReport:
    verdict: str
    limit: Optional[np.ndarray] = None
    residual: Optional[float] = None
    previous_residual: Optional[float] = None


def _pairwise_K(Phi: np.ndarray, max_nodes: int = 320):
    """K(e) = max over s <= t <= t_e of ||Phi(t) Phi(s)^-1||, per end index.

    Scalar tracks use the exact running-min formulation over every node;
    matrix tracks subsample to max_nodes and take all pairs, batched.
    Returns (node_index_used, K_running) with K_running nondecreasing.
    """
    m, d, _ = Phi.shape
    if d == 1:
        v = np.abs(Phi[:, 0, 0])
        running_min = np.minimum.accumulate(v)
        K_run = np.maximum.accumulate(v / running_min)
        return np.arange(m), K_run

    sel = np.unique(np.linspace(0, m - 1, min(m, max_nodes)).astype(int))
    P = Phi[sel]
    conds = np.linalg.cond(P)
    if np.any(conds > _COND_LIMIT):
        raise np.linalg.LinAlgError(
            f"fundamental matrix conditioning exceeds {_COND_LIMIT:.0e}")
    Pinv = np.linalg.inv(P)
    k = len(sel)
    K_run = np.empty(k)
    best = 1.0
    for i in range(k):
        prods = P[i] @ Pinv[: i + 1]           # (i+1, d, d)
        best = max(best, float(np.max(spectral_norms(prods))))
        K_run[i] = best
    return sel, K_run


def stability_constant(track: FundamentalMatrixTrack,
                       n_windows: int = 10,
                       saturation_rtol: float = 0.01) -> StabilityReport:
    """Uniform-stability constant estimate with dyadic-window trend.

    K_hat is the max of ||Phi(t) Phi(s)^-1|| over grid pairs; K_trend[m] is
    the same max over the window [t0, t0 + span * 2^(m+1-M)], so the windows
    expand dyadically to the full track.  Verdicts: saturation of the last
    three windows within saturation_rtol is stability evidence; log K
    growing at least linearly across the last four windows is instability
    evidence; anything else is inconclusive.  A fundamental matrix with
    conditioning beyond 1e12 yields inconclusive with a diagnostic.  The
    report carries the running K at the nodes used, with their times.
    """
    t = track.t_grid
    span = t[-1] - t[0]
    try:
        idx_used, K_run = _pairwise_K(track.Phi)
    except np.linalg.LinAlgError as e:
        return StabilityReport(float("nan"), np.array([]), np.array([]),
                               INCONCLUSIVE, diagnostics=str(e))
    t_used = t[idx_used]
    ends = t[0] + span * 2.0 ** np.arange(-(n_windows - 1), 1, 1.0)
    K_trend = np.empty(len(ends))
    for i, e in enumerate(ends):
        j = np.searchsorted(t_used, e + 1e-12)
        K_trend[i] = K_run[min(max(j - 1, 0), len(K_run) - 1)]
    K_hat = float(K_run[-1])

    verdict = INCONCLUSIVE
    growth = None
    lastK = K_trend[-3:]
    if np.max(lastK) <= np.min(lastK) * (1 + saturation_rtol):
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
                           K_running=K_run, K_running_t=t_used)


def _longest_positive_run(values: np.ndarray, eps: float) -> int:
    best = cur = 0
    for v in values:
        cur = cur + 1 if v > eps else 0
        best = max(best, cur)
    return best


def asymptotic_limit(traj: Trajectory, window_fraction: float = 0.1,
                     tol: float = 1e-6) -> AsymptoticReport:
    """Tail-window limit of a trajectory.

    The limit estimate is the mean over the final window; the evidence is
    positive when the max deviation there is below tol and at most half the
    deviation over the preceding window (an exactly quiet tail counts).
    """
    t0, t1 = float(traj.t[0]), float(traj.t[-1])
    if t1 - t0 < 10:
        raise ValueError("trajectory window must span at least 10 time units")
    w = window_fraction * (t1 - t0)
    tq_last = np.linspace(t1 - w, t1, 200)
    tq_prev = np.linspace(t1 - 2 * w, t1 - w, 200)
    y_last = traj.eval(tq_last)
    y_prev = traj.eval(tq_prev)
    mean = y_last.mean(axis=0)
    dev = float(np.max(np.linalg.norm(y_last - mean, axis=1)))
    dev_prev = float(np.max(np.linalg.norm(y_prev - y_prev.mean(axis=0), axis=1)))
    if dev <= tol and (dev <= 0.5 * dev_prev or dev_prev <= tol):
        return AsymptoticReport(EVIDENCE_YES, mean, dev, dev_prev)
    if dev > tol and dev >= 0.9 * dev_prev:
        return AsymptoticReport(EVIDENCE_NO, None, dev, dev_prev)
    return AsymptoticReport(INCONCLUSIVE, None, dev, dev_prev)


# ---------------------------------------------------------------------------
# growth bound and perturbation equivalence
# ---------------------------------------------------------------------------

def gronwall_bound_check(traj: Trajectory, mu: Callable,
                         cumulative_mu: Optional[Callable] = None,
                         n_quad: int = 8) -> float:
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
        x, w = np.polynomial.legendre.leggauss(n_quad)
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
                             tol: float = 1e-8,
                             breakpoints: Sequence[float] = ()) -> PerturbationReport:
    """Stability class is unchanged by L1 perturbations of the generator.

    Measures int ||Rtil - R|| dt on the window (rejecting differences whose
    dyadic partial integrals keep growing, i.e. non-integrable ones), the
    two stability constants, and checks the realized change factor of K_hat
    against exp(c * l1) with c the measured conditioning constant
    max(K_base, K_perturbed).
    """
    t_grid = np.asarray(t_grid, float)
    fa, d = _as_matrix_fun(Rfun)
    fb, db = _as_matrix_fun(Rtil)
    if db != d:
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

    Ka = stability_constant(fundamental_matrix(fa, t_grid, tol, breakpoints)).K_hat
    Kb = stability_constant(fundamental_matrix(fb, t_grid, tol, breakpoints)).K_hat
    realized = max(Ka / Kb, Kb / Ka)
    c_meas = max(Ka, Kb)
    bound = float(np.exp(c_meas * l1))
    return PerturbationReport(l1, Ka, Kb, realized, c_meas, bound,
                              realized <= bound * (1 + 1e-9) + 1e-12)
