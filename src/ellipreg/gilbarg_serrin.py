"""Radial-rank-one example fields and their scalar reductions.

For fields A(x) = I + g(|x|) theta theta^T every diagnostic in this package
collapses to the scalar flow d(phi)/dt = ((n-1)/n) gtil(t) phi with
gtil(t) = g(e^-t), which makes the family the laboratory for sharpness
questions: the flow is exp(((n-1)/n) int gtil) in closed form, and plateau
constructions separate uniform stability from asymptotic constancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import dynsys

KIND_CONVERGENT_IMPROPER = "convergent-improper"
KIND_MINUS_INFINITY = "minus-infinity"


@dataclass(frozen=True)
class ScalarGenerator:
    """Scalar log-time generator gtil(t) with its exact integral.

    ``cumulative`` is the antiderivative int_0^t gtil.  ``breakpoints`` are
    the discontinuity times (plateau edges); the window grid puts nodes on
    them, since K peaks there.  ``envelope`` is an optional (C, a) pair
    certifying |gtil(t)| <= C * max(t, 1)^-a.
    """

    name: str
    gtil: Callable[[np.ndarray], np.ndarray]
    cumulative: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple = ()
    envelope: Optional[tuple] = None

    def __call__(self, t):
        return self.gtil(np.asarray(t, float))


def _vec(f):
    return lambda t, f=f: np.asarray(f(np.asarray(t, float)), float)


WHITELIST: dict = {}


def _register(name, gtil, cumulative, envelope=None):
    WHITELIST[name] = ScalarGenerator(name, _vec(gtil), _vec(cumulative),
                                      envelope=envelope)


_register("zero", lambda t: np.zeros_like(t), lambda t: np.zeros_like(t))
_register("exp-decay", lambda t: np.exp(-t), lambda t: 1.0 - np.exp(-t), (1.0, 10.0))
_register("neg-exp-decay", lambda t: -np.exp(-t), lambda t: np.exp(-t) - 1.0, (1.0, 10.0))
_register("one-over-1pt", lambda t: 1.0 / (1.0 + t), lambda t: np.log1p(t), (1.0, 1.0))
_register("neg-one-over-1pt", lambda t: -1.0 / (1.0 + t), lambda t: -np.log1p(t), (1.0, 1.0))
_register("one-over-1pt-sq", lambda t: (1.0 + t) ** -2.0,
          lambda t: 1.0 - 1.0 / (1.0 + t), (1.0, 2.0))


def closed_form_phi(gen: ScalarGenerator, n: int, t, phi0: float = 1.0):
    """phi(t) = phi0 * exp(((n-1)/n) int_0^t gtil), the scalar flow exactly."""
    t = np.asarray(t, float)
    return phi0 * np.exp((n - 1.0) / n * gen.cumulative(t))


# ---------------------------------------------------------------------------
# plateau counterexamples: asymptotic constancy without uniform stability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockData:
    """Verification data emitted with a plateau generator.

    ``block_integrals[j]`` = (+b_j, -(b_j + c_j)) for block pair j;
    ``boundary_values`` are the running integral at plateau edges, so every
    construction postcondition is assertable from this table without
    re-deriving the schedule.
    """

    kind: str
    block_integrals: np.ndarray   # (J, 2)
    plateau_times: np.ndarray     # (2J + 1,) edges t_0 < ... < t_2J
    plateau_heights: np.ndarray   # (2J,)
    boundary_values: np.ndarray   # (2J + 1,) running integral at the edges
    window_sup: float
    final_integral: float
    sq_partials: np.ndarray       # running int gtil^2 dt at block-pair ends


@dataclass(frozen=True)
class PlateauGenerator(ScalarGenerator):
    blocks: Optional[BlockData] = None
    horizon: float = 0.0


def build_cesari_counterexample(kind: str, decay_exponent: float = 2.0 / 3.0,
                                horizon: float = 1e4, *,
                                envelope_amplitude: float = 1.5,
                                block_gain: float = 0.55,
                                cancel_extra: float = 1.2,
                                target_window_sup: float = 5.0,
                                t_start: float = 1.0,
                                tail_fraction: float = 0.2) -> PlateauGenerator:
    """Plateau generator separating uniform stability from asymptotic constancy.

    Block pair j rises by b_j = block_gain * j and falls by b_j + c_j, with
    c_j = cancel_extra / j^2 (kind convergent-improper: the running integral
    converges) or c_j = cancel_extra (kind minus-infinity: it sinks without
    bound).  Plateau heights sit on the envelope C * t^-a at each plateau's
    right edge, so |gtil| <= C t^-a everywhere and gtil is square-integrable
    for a > 1/2; widths follow.  Blocks stop before (1 - tail_fraction) *
    horizon so the tail is exactly quiet, and the construction is rejected
    (naming the binding constraint) when the envelope cannot deliver a
    window sup of target_window_sup within the horizon.
    """
    if kind not in (KIND_CONVERGENT_IMPROPER, KIND_MINUS_INFINITY):
        raise ValueError(f"unknown kind {kind!r}")
    a = float(decay_exponent)
    if not (0.5 < a < 1.0):
        raise ValueError("decay_exponent must lie in (1/2, 1) for the "
                         "square-integrable/non-integrable regime")
    C = float(envelope_amplitude)
    t_stop = (1.0 - tail_fraction) * horizon

    edges = [t_start]
    heights = []
    block_integrals = []
    T = t_start
    j = 0
    while True:
        j += 1
        b = block_gain * j
        c = cancel_extra / j ** 2 if kind == KIND_CONVERGENT_IMPROPER else cancel_extra
        trial_edges, trial_heights = [], []
        T_try = T
        for mass, sgn in ((b, +1.0), (b + c, -1.0)):
            w = _plateau_width(C, a, T_try, mass)
            trial_heights.append(sgn * C * (T_try + w) ** (-a))
            T_try += w
            trial_edges.append(T_try)
        if T_try > t_stop:
            j -= 1
            break
        edges.extend(trial_edges)
        heights.extend(trial_heights)
        block_integrals.append((b, -(b + c)))
        T = T_try

    J = len(block_integrals)
    bi = np.asarray(block_integrals, float)
    if J == 0 or bi[-1, 0] < target_window_sup:
        achieved = bi[-1, 0] if J else 0.0
        raise ValueError(
            f"infeasible schedule: envelope {C:g}*t^-{a:g} delivers a max "
            f"block rise of {achieved:g} < target window sup "
            f"{target_window_sup:g} within horizon {horizon:g} "
            f"(binding constraint: blocks must end by t = {t_stop:g})")

    edges = np.asarray(edges)
    heights = np.asarray(heights)
    widths = np.diff(edges)
    boundary_values = np.concatenate([[0.0], np.cumsum(heights * widths)])
    run_min = np.minimum.accumulate(boundary_values)
    window_sup = float(np.max(boundary_values - run_min))
    sq = np.cumsum((heights ** 2 * widths).reshape(-1, 2).sum(axis=1))
    blocks = BlockData(kind, bi, edges, heights, boundary_values,
                       window_sup, float(boundary_values[-1]), sq)

    def gtil(t, edges=edges, heights=heights):
        t = np.asarray(t, float)
        k = np.searchsorted(edges, t, side="right") - 1
        inside = (k >= 0) & (k < len(heights))
        out = np.zeros_like(t)
        out[inside] = heights[np.clip(k[inside], 0, len(heights) - 1)]
        return out

    def cumulative(t, edges=edges, heights=heights, bv=boundary_values):
        t = np.asarray(t, float)
        k = np.clip(np.searchsorted(edges, t, side="right") - 1, -1, len(heights))
        out = np.empty_like(t)
        before = k < 0
        after = k >= len(heights)
        mid = ~(before | after)
        out[before] = 0.0
        out[after] = bv[-1]
        km = k[mid]
        out[mid] = bv[km] + heights[km] * (t[mid] - edges[km])
        return out

    return PlateauGenerator(
        name=f"cesari-{kind}", gtil=gtil,
        breakpoints=tuple(edges.tolist()),
        cumulative=cumulative, envelope=(C, a),
        blocks=blocks, horizon=float(horizon))


def _plateau_width(C: float, a: float, T: float, mass: float,
                   xtol: float = 1e-12) -> float:
    """The width w > 0 of a plateau from T that carries ``mass``.

    Solves f(w) = C w (T + w)^-a - mass = 0.  For a in (0, 1) f is
    increasing and concave, so Newton steps from the left end of the
    bracket climb to the root without overshoot; a step that would leave
    the bracket is replaced by bisection.  It stops once a step is below
    ``xtol``.
    A root beyond 1e12 is reported as an infinite width.
    """
    f = lambda w: C * w * (T + w) ** (-a) - mass
    lo, hi = 1e-12, 8.0
    while f(hi) < 0:
        if hi > 1e12:
            return math.inf     # wider than any horizon
        hi *= 2
    w = lo
    for _ in range(200):
        fw = f(w)
        if fw == 0:
            return w
        if fw < 0:
            lo = w
        else:
            hi = w
        step = fw / (C * (T + w) ** (-a - 1) * (T + (1 - a) * w))
        nxt = w - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - w) <= xtol:
            return nxt
        w = nxt
    return w


@dataclass(frozen=True)
class IndependenceReport:
    asym_constant: dynsys.AsymptoticReport
    uniformly_stable: dynsys.StabilityReport
    square_integrable_verdict: str
    square_partials: np.ndarray
    running_integral_final: float
    window_sup: float


def verify_independence(gen: ScalarGenerator, n: int = 2,
                        tol: float = 1e-4,
                        horizon: Optional[float] = None) -> IndependenceReport:
    """Run the stability machinery on a scalar generator and report the triple.

    For a convergent-improper plateau generator the expected outcome is
    asymptotically constant (quiet tail), uniform-stability evidence
    negative (window constants keep growing), and square-integrability
    positive; that triple is what makes the two asymptotic notions
    independent of each other.  The flow is ``closed_form_phi``, read on a
    window grid with a node on every plateau edge.
    """
    from .dyadic import analyze_scalar_sequence

    if horizon is None:
        horizon = getattr(gen, "horizon", 0.0) or 100.0
    grid = _window_grid(0.0, horizon, gen.breakpoints)
    track = dynsys.FundamentalMatrixTrack(
        grid, closed_form_phi(gen, n, grid)[:, None, None])
    stab = dynsys.stability_constant(track)
    asym = dynsys.asymptotic_limit(lambda t: closed_form_phi(gen, n, t)[:, None],
                                   0.0, horizon, tol=tol)

    blocks = getattr(gen, "blocks", None)
    if blocks is not None:
        sq_partials = blocks.sq_partials
        final = blocks.final_integral
        wsup = blocks.window_sup
    else:
        ts = np.linspace(0, horizon, 4097)
        g2 = np.asarray(gen.gtil(ts), float) ** 2
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (g2[1:] + g2[:-1]) * np.diff(ts))])
        ends = horizon * 2.0 ** np.arange(-12, 1, 1.0)
        sq_partials = np.interp(ends, ts, cum)
        final = float(gen.cumulative(np.asarray([horizon]))[0])
        wsup = float("nan")
    sq_verdict = analyze_scalar_sequence(
        np.arange(1, len(sq_partials) + 1), sq_partials, tol=1e-6).verdict

    return IndependenceReport(asym, stab, sq_verdict, np.asarray(sq_partials),
                              final, wsup)


def _window_grid(t0: float, t1: float, breakpoints: Sequence[float],
                 per_segment: int = 12, n_uniform: int = 257) -> np.ndarray:
    """Sample grid containing all plateau edges (flow extrema sit there)."""
    pts = [np.linspace(t0, t1, n_uniform)]
    bps = [b for b in breakpoints if t0 < b < t1]
    bounds = np.concatenate([[t0], np.sort(bps), [t1]]) if bps else np.array([t0, t1])
    for a, b in zip(bounds[:-1], bounds[1:]):
        pts.append(np.linspace(a, b, per_segment))
    return np.unique(np.concatenate(pts))
