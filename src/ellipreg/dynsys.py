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
flow's Richardson estimate meets a tolerance.  A trajectory is its node
times and node states, and every reader takes those arrays: the tolerance
holds at the nodes, so nothing is read between them.  A scalar generator
with a known integral needs no flow: its Phi is exp of that integral
(``gilbarg_serrin.closed_form_phi``).

A flow costs a fixed number of batched array operations per lattice, not
one Python step per node: ``expm`` takes every Magnus step of a lattice at
once, at the lowest Pade degree whose range covers the largest step, and
the node states, the prefix products of the steps, come from a log-depth
doubling scan.  The pairwise K is one pass too: a row screen keeps only the
end nodes whose largest bound can raise K, and only their pairs above the
bound's floor get a norm.

The fundamental matrix Phi is one matrix-state flow; every dynamics question
reads from it.  K = sup ||Phi(t) Phi(s)^-1|| does not depend on where Phi
starts, so ``stability_constant`` takes any (t, Phi) arrays, and the flow from
a later node t_s is Phi(t) Phi(t_s)^-1, one product off the same flow; the
trajectory through e_1 is its first column.

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
_K_WINDOWS = 10              # dyadic windows of the K trend
_K_SATURATION_RTOL = 0.01    # last three windows this close: saturated
_ASYM_WINDOW_FRACTION = 0.1  # tail window of asymptotic_limit
_FLOW_MAX_NODES_PER_OCTAVE = 256   # a lattice is halved no finer than ln2/256


class IntegrationError(RuntimeError):
    """A flow's error estimate stays above its tolerance at the finest lattice."""


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

# Higham's [m/m] Pade approximants (SIAM J. Matrix Anal. Appl. 26, 2005):
# (m, theta_m, b_0..b_m), each exact to double precision for 1-norms up to
# theta_m
_PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0,
                               25200.0, 1512.0, 56.0, 1.0)),
    (9, 2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0,
                              302702400.0, 30270240.0, 2162160.0, 110880.0,
                              3960.0, 90.0, 1.0)),
)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(Om: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (k, d, d) stack, by Higham's Pade method.

    The whole stack takes the lowest degree m in {3, 5, 7, 9, 13} whose
    theta_m covers its largest 1-norm, formed with m // 2 + 1 products (six
    for m = 13) and one solve; a Magnus step of a classify flow, 1-norm
    near 0.02, takes m = 5.  Only on the [13/13] path is each matrix scaled
    by 2^-s into the Pade range and squared s times.  1x1 stacks are np.exp.
    """
    Om = np.asarray(Om, float)
    if Om.shape[-1] == 1:
        return np.exp(Om)
    norm = np.max(np.sum(np.abs(Om), axis=-2), axis=-1)
    top = np.max(norm, initial=0.0)
    I = np.eye(Om.shape[-1])
    for m, theta, b in _PADE:
        if top <= theta:                      # False for NaN: the [13/13] path
            X2 = Om @ Om
            P = [I, X2]                       # even powers up to X^(m-1)
            while 2 * len(P) <= m:
                P.append(P[-1] @ X2)
            U = Om @ sum(b[2 * k + 1] * Pk for k, Pk in enumerate(P))
            V = sum(b[2 * k] * Pk for k, Pk in enumerate(P))
            s = np.zeros(len(Om), int)
            break
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.ceil(np.log2(norm / _THETA13))
        s = np.where(np.isfinite(s) & (s > 0), s, 0).astype(int)  # 0 for 0, NaN, inf
        X = Om / np.exp2(s)[:, None, None]
        b = _PADE13
        X2 = X @ X
        X4 = X2 @ X2
        X6 = X4 @ X2
        U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
                 + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * I)
        V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
             + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * I)
    E = np.linalg.solve(V - U, V + U)
    E[norm == 0] = I                          # exactly: a flow of R = 0 stays I
    for j in range(int(s.max(initial=0))):
        m = s > j
        E[m] = E[m] @ E[m]
    return E


def _commutator(X, Y):
    return X @ Y - Y @ X


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Node times and node states of a Magnus flow."""

    t: np.ndarray          # (m,) node times
    y: np.ndarray          # (m, d, d) fundamental matrix at the nodes


# ---------------------------------------------------------------------------
# Magnus flow on a sampled lattice
# ---------------------------------------------------------------------------

def _lattice_steps(t: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Simpson-pair Magnus steps exp(Omega) over node pairs."""
    A = -R
    A0, A1, A2 = A[0:-1:2], A[1::2], A[2::2]
    H = (t[2::2] - t[0:-1:2])[:, None, None]
    Om = H / 6.0 * (A0 + 4.0 * A1 + A2) + H * H / 12.0 * _commutator(A2, A0)
    return expm(Om)


def _lattice_states(E: np.ndarray) -> np.ndarray:
    """Prefix products Phi_p = E_(p-1) ... E_0, Phi_0 = I, by doubling.

    The Hillis-Steele scan: after the round of stride k each state holds
    the product of the up to 2k steps that end at it, so ceil(log2 m)
    batched products form all m states.
    """
    m = len(E) + 1
    Phi = np.empty((m,) + E.shape[1:])
    Phi[0] = np.eye(E.shape[-1])
    Phi[1:] = E
    k = 1
    while k < m:
        Phi[k:] = Phi[k:] @ Phi[:m - k]
        k *= 2
    return Phi


def lattice_flow(t: np.ndarray, R: np.ndarray) -> Trajectory:
    """Fundamental matrix of phi' = -R phi from sampled R, Phi(t[0]) = I.

    ``t`` is an equispaced lattice with an even count of intervals and
    ``R`` the (len(t), d, d) generator on it.  Each pair of intervals is one
    fourth-order Magnus step (Iserles and Norsett 1999; Blanes, Casas, Oteo
    and Ros 2009): with A = -R and H the pair's length,
    Omega = H/6 (A0 + 4 A1 + A2) + H^2/12 [A2, A0], whose first term is
    Simpson's rule.  Nothing is sampled beyond ``R``, and the flow's nodes
    are t[::2].
    """
    if (len(t) - 1) % 2 or len(t) < 3:
        raise ValueError("lattice_flow needs an even, positive count of intervals")
    return Trajectory(t[::2], _lattice_states(_lattice_steps(t, R)))


def lattice_flow_error(t: np.ndarray, R: np.ndarray, flow: Trajectory) -> float:
    """Richardson estimate of ``lattice_flow(t, R)`` from every other node.

    The flow on the coarse lattice t[::2] (up to its last whole pair) is
    compared with ``flow`` at the coarse nodes; the largest entry of the
    difference over 15, relative to max(1, max |Phi|), estimates the fine
    flow's error.  Infinite when the coarse lattice holds no pair.

    The estimate holds at the nodes only, which is why a flow keeps no
    model between them: for the 2-D field g = -1/log(e^2/r) on [0, 30] from
    1024 intervals at tol 1e-9, the error against a 1e-13 RK45 solve was
    5.2e-10 at the nodes and 5.4e-9 midway between them, read off the
    per-panel Magnus interpolant.
    """
    n = 4 * ((len(t) - 1) // 4)
    if n == 0:
        return math.inf
    coarse = _lattice_states(_lattice_steps(t[:n + 1:2], R[:n + 1:2]))
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
# stability evidence
# ---------------------------------------------------------------------------

def _sigma_max_2x2(mats: np.ndarray) -> np.ndarray:
    # (|(a+d, b-c)| + |(a-d, b+c)|)/2 does not cancel when sigma_1 ~ sigma_2
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    return 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Batched spectral norms; closed form up to 2x2, SVD otherwise."""
    if mats.shape[-1] == 1:
        return np.abs(mats[..., 0, 0])
    if mats.shape[-1] == 2:
        return _sigma_max_2x2(mats)
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


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
    every node with every earlier one.  The conditioning check reads
    sigma_max and sigma_min of every node: for 2x2 nodes in closed form,
    sigma_max by the formula of ``spectral_norms`` and sigma_min as
    |det| / sigma_max (an all-zero node, 0/0, is refused), and by one
    batched SVD otherwise.  K is a running maximum and ||Phi(t) Phi(s)^-1||
    is at most sigma_max(Phi(t)) ||Phi(s)^-1||, so only pairs whose bound
    exceeds a floor under the running maximum get a norm.  The bound
    carries no rounding headroom, which would make a flow that stays I
    (R = 0) norm every pair, each bound reading 1 + headroom > K = 1; so a
    skipped pair can beat the maximum by rounding alone, and the result
    equals the all-pairs maximum to a few ulps.
    The floor is raised before any pruning by norming, for every end node,
    the earlier node of largest bound.  The remaining pairs are normed in
    one pass, which screens rows first: only the end nodes whose largest
    bound, sigma_max(Phi(t)) times the largest ||Phi(s)^-1|| so far,
    exceeds the floor are masked pair by pair.  Returns K_running,
    nondecreasing, at every node.
    """
    m, d, _ = Phi.shape
    if d == 1:
        v = np.abs(Phi[:, 0, 0])
        running_min = np.minimum.accumulate(v)
        return np.maximum.accumulate(v / running_min)

    if d == 2:
        s_max = _sigma_max_2x2(Phi)
        det = Phi[:, 0, 0] * Phi[:, 1, 1] - Phi[:, 0, 1] * Phi[:, 1, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            s_min = np.abs(det) / s_max
    else:
        sv = np.linalg.svd(Phi, compute_uv=False)
        s_max, s_min = sv[:, 0], sv[:, -1]
    if not np.all(s_max <= _COND_LIMIT * s_min):      # NaN fails too
        raise np.linalg.LinAlgError(
            f"fundamental matrix conditioning exceeds {_COND_LIMIT:.0e}")
    Phi_inv = np.linalg.inv(Phi)
    inv_norm = 1.0 / s_min                 # ||Phi^-1||
    inv_top = np.maximum.accumulate(inv_norm)
    idx = np.arange(m)
    top = np.maximum.accumulate(np.where(inv_norm == inv_top, idx, 0))
    T = np.maximum(1.0, np.maximum.accumulate(spectral_norms(Phi @ Phi_inv[top])))
    rows = np.flatnonzero(s_max * inv_top > T)
    ii, jj = np.nonzero((s_max[rows, None] * inv_norm > T[rows, None])
                        & (idx <= rows[:, None]))
    row_max = np.full(m, -np.inf)
    if len(ii):
        np.maximum.at(row_max, rows[ii], spectral_norms(Phi[rows[ii]] @ Phi_inv[jj]))
    return np.maximum.accumulate(np.maximum(T, row_max))


def stability_constant(t: np.ndarray, Phi: np.ndarray) -> StabilityReport:
    """Uniform-stability constant estimate with dyadic-window trend.

    ``Phi`` holds a fundamental matrix, shape (m, d, d), at the increasing
    times ``t``; where it starts does not matter.  K_hat is the max of
    ||Phi(t) Phi(s)^-1|| over grid pairs; K_trend[m] is the same max over
    the window [t0, t0 + span * 2^(m+1-M)], so the windows expand dyadically
    to the full grid.  Verdicts: saturation of the last three windows within
    _K_SATURATION_RTOL is stability evidence; log K growing at least
    linearly across the last four windows is instability evidence; anything
    else is inconclusive.  A fundamental matrix with conditioning beyond
    1e12 yields inconclusive with a diagnostic.  The report carries the
    running K at every grid time.
    """
    t = np.asarray(t, float)
    span = t[-1] - t[0]
    try:
        K_run = _pairwise_K(Phi)
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


def asymptotic_limit(t: np.ndarray, y: np.ndarray,
                     tol: float = 1e-6) -> AsymptoticReport:
    """Tail-window limit of a trajectory read at its nodes.

    ``y`` holds the states, shape (m, d), at the increasing times ``t``.
    The last window is the nodes in the final _ASYM_WINDOW_FRACTION of
    [t[0], t[-1]], and the window before it the nodes in the fraction
    before that.  The limit is the mean over the last window; the evidence
    is positive when the max deviation there is below tol and at most half
    that over the window before (an exactly quiet tail counts).  A window
    of fewer than two nodes shows no deviation, so it is inconclusive.
    """
    t = np.asarray(t, float)
    t1 = t[-1]
    if t1 - t[0] < 10:
        raise ValueError("trajectory window must span at least 10 time units")
    w = _ASYM_WINDOW_FRACTION * (t1 - t[0])
    y_last = y[t >= t1 - w]
    y_prev = y[(t >= t1 - 2 * w) & (t <= t1 - w)]
    if min(len(y_last), len(y_prev)) < 2:
        return AsymptoticReport(INCONCLUSIVE)
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

def gronwall_bound_check(t: np.ndarray, y: np.ndarray,
                         cumulative_mu: Callable) -> float:
    """Worst ratio of |phi(t)| against |phi(s)| exp(int_s^t mu).

    ``y`` holds the states phi, shape (m, d), at the times ``t``, and
    ``cumulative_mu(t)`` is int mu from t[0] on, up to a constant.  ``mu``
    must be the top eigenvalue of the symmetric part of the system's
    right-hand generator: for d(phi)/dt + R phi = 0 that generator is
    B = -R, and (B + B^T)/2 is exactly the symmetrized matrix S whose top
    eigenvalue drives all growth bounds here.  The bound is an identity for
    scalar flows and an inequality otherwise, so the return value should
    never exceed 1 beyond integration error.
    """
    norms = np.linalg.norm(y, axis=1)
    if np.any(norms == 0):
        raise ValueError("trajectory passes through zero; ratio undefined")
    q = np.log(norms) - np.asarray(cumulative_mu(t), float)
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
    max(K_base, K_perturbed).  ``t_grid`` is equispaced; each constant is
    read off a ``refined_flow`` at ``tol`` whose first lattice has twice as
    many intervals, at the flow nodes that are ``t_grid``, one every
    (flow nodes - 1) / (len(t_grid) - 1).
    """
    t_grid = np.asarray(t_grid, float)
    if not np.allclose(np.diff(t_grid), t_grid[1] - t_grid[0], rtol=1e-9, atol=0):
        raise ValueError("t_grid must be equispaced")
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
        stride = (len(flow.t) - 1) // (len(t_grid) - 1)
        return stability_constant(flow.t[::stride], flow.y[::stride]).K_hat

    Ka, Kb = K_hat(fa), K_hat(fb)
    realized = max(Ka / Kb, Kb / Ka)
    c_meas = max(Ka, Kb)
    bound = float(np.exp(c_meas * l1))
    return PerturbationReport(l1, Ka, Kb, realized, c_meas, bound,
                              realized <= bound * (1 + 1e-9) + 1e-12)
