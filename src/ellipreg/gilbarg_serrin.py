"""Radial-rank-one example fields and their scalar reductions.

For fields A(x) = I + g(|x|) theta theta^T every diagnostic in this package
collapses to the scalar flow d(phi)/dt = ((n-1)/n) gtil(t) phi with
gtil(t) = g(e^-t), which makes the family the laboratory for sharpness
questions: the flow is exp(((n-1)/n) int gtil) in closed form, and plateau
constructions separate uniform stability from asymptotic constancy.  Every
generator carries an envelope C * max(t, 1)^-a, which decides whether gtil
is square-integrable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import dynsys
from .dyadic import VERDICT_CONVERGES, VERDICT_INCONCLUSIVE

KIND_CONVERGENT_IMPROPER = "convergent-improper"
KIND_MINUS_INFINITY = "minus-infinity"

# the plateau schedule of build_cesari_counterexample
_ENVELOPE_AMPLITUDE = 1.5     # C in the envelope C t^-a
_BLOCK_GAIN = 0.55            # block pair j rises by _BLOCK_GAIN * j
_CANCEL_EXTRA = 1.2           # and falls by that plus c_j, made of _CANCEL_EXTRA
_TARGET_WINDOW_SUP = 5.0      # the largest block rise the horizon must carry
_T_START = 1.0                # the first plateau edge
_TAIL_FRACTION = 0.2          # the quiet share of the horizon after the blocks
_PLATEAU_XTOL = 1e-12         # Newton step at which a plateau width is done
_WINDOW_PER_SEGMENT = 12      # window grid points between two plateau edges
_WINDOW_UNIFORM = 257         # window grid points spread over the horizon


@dataclass(frozen=True)
class ScalarGenerator:
    """Scalar log-time generator gtil(t) with its exact integral.

    ``cumulative`` is the antiderivative int_0^t gtil.  ``envelope`` is a
    (C, a) pair certifying |gtil(t)| <= C * max(t, 1)^-a.  ``breakpoints``
    are the discontinuity times (plateau edges); the window grid puts nodes
    on them, since K peaks there.
    """

    name: str
    gtil: Callable[[np.ndarray], np.ndarray]
    cumulative: Callable[[np.ndarray], np.ndarray]
    envelope: tuple
    breakpoints: tuple = ()

    def __call__(self, t):
        return self.gtil(np.asarray(t, float))


def _vec(f):
    return lambda t, f=f: np.asarray(f(np.asarray(t, float)), float)


WHITELIST: dict = {}


def _register(name, gtil, cumulative, envelope):
    WHITELIST[name] = ScalarGenerator(name, _vec(gtil), _vec(cumulative),
                                      envelope)


_register("zero", lambda t: np.zeros_like(t), lambda t: np.zeros_like(t), (0.0, 1.0))
# e^-t <= max(t, 1)^-2, since t^2 e^-t <= 4/e^2 < 1
_register("exp-decay", lambda t: np.exp(-t), lambda t: 1.0 - np.exp(-t), (1.0, 2.0))
_register("neg-exp-decay", lambda t: -np.exp(-t), lambda t: np.exp(-t) - 1.0, (1.0, 2.0))
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


@dataclass(frozen=True)
class PlateauGenerator(ScalarGenerator):
    blocks: Optional[BlockData] = None
    horizon: float = 0.0


def build_cesari_counterexample(kind: str, decay_exponent: float = 2.0 / 3.0,
                                horizon: float = 1e4) -> PlateauGenerator:
    """Plateau generator separating uniform stability from asymptotic constancy.

    Block pair j rises by b_j = _BLOCK_GAIN * j and falls by b_j + c_j, with
    c_j = _CANCEL_EXTRA / j^2 (kind convergent-improper: the running integral
    converges) or c_j = _CANCEL_EXTRA (kind minus-infinity: it sinks without
    bound).  Plateau heights sit on the envelope C * t^-a at each plateau's
    right edge, so |gtil| <= C t^-a everywhere and gtil is square-integrable
    for a > 1/2; widths follow.  Blocks stop before (1 - _TAIL_FRACTION) *
    horizon so the tail is exactly quiet, and the construction is rejected
    (naming the binding constraint) when the envelope cannot deliver a
    window sup of _TARGET_WINDOW_SUP within the horizon.
    """
    if kind not in (KIND_CONVERGENT_IMPROPER, KIND_MINUS_INFINITY):
        raise ValueError(f"unknown kind {kind!r}")
    a = float(decay_exponent)
    if not (0.5 < a < 1.0):
        raise ValueError("decay_exponent must lie in (1/2, 1) for the "
                         "square-integrable/non-integrable regime")
    C = _ENVELOPE_AMPLITUDE
    t_stop = (1.0 - _TAIL_FRACTION) * horizon

    edges = [_T_START]
    heights = []
    block_integrals = []
    T = _T_START
    j = 0
    while True:
        j += 1
        b = _BLOCK_GAIN * j
        c = _CANCEL_EXTRA / j ** 2 if kind == KIND_CONVERGENT_IMPROPER else _CANCEL_EXTRA
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
    if J == 0 or bi[-1, 0] < _TARGET_WINDOW_SUP:
        achieved = bi[-1, 0] if J else 0.0
        raise ValueError(
            f"infeasible schedule: envelope {C:g}*t^-{a:g} delivers a max "
            f"block rise of {achieved:g} < target window sup "
            f"{_TARGET_WINDOW_SUP:g} within horizon {horizon:g} "
            f"(binding constraint: blocks must end by t = {t_stop:g})")

    edges = np.asarray(edges)
    heights = np.asarray(heights)
    widths = np.diff(edges)
    boundary_values = np.concatenate([[0.0], np.cumsum(heights * widths)])
    run_min = np.minimum.accumulate(boundary_values)
    window_sup = float(np.max(boundary_values - run_min))
    blocks = BlockData(kind, bi, edges, heights, boundary_values,
                       window_sup, float(boundary_values[-1]))

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


def _plateau_width(C: float, a: float, T: float, mass: float) -> float:
    """The width w > 0 of a plateau from T that carries ``mass``.

    Solves f(w) = C w (T + w)^-a - mass = 0.  For a in (0, 1) f is
    increasing and concave, so Newton steps from the left end of the
    bracket climb to the root without overshoot; a step that would leave
    the bracket is replaced by bisection.  It stops once a step is below
    _PLATEAU_XTOL.
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
        if abs(nxt - w) <= _PLATEAU_XTOL:
            return nxt
        w = nxt
    return w


@dataclass(frozen=True)
class IndependenceReport:
    asym_constant: dynsys.AsymptoticReport
    uniformly_stable: dynsys.StabilityReport
    square_integrable_verdict: str
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
    window grid with a node on every plateau edge; both the stability
    constant and the tail windows read it there.  Square-integrability is
    read off the envelope (C, a): int gtil^2 <= C^2 (1 + 1/(2a - 1)), so it
    converges when a > 1/2, and the envelope decides nothing otherwise.
    """
    if horizon is None:
        horizon = getattr(gen, "horizon", 0.0) or 100.0
    grid = _window_grid(0.0, horizon, gen.breakpoints)
    phi = closed_form_phi(gen, n, grid)
    stab = dynsys.stability_constant(grid, phi[:, None, None])
    asym = dynsys.asymptotic_limit(grid, phi[:, None], tol=tol)
    sq_verdict = (VERDICT_CONVERGES if gen.envelope[1] > 0.5
                  else VERDICT_INCONCLUSIVE)

    blocks = getattr(gen, "blocks", None)
    if blocks is not None:
        final = blocks.final_integral
        wsup = blocks.window_sup
    else:
        final = float(gen.cumulative(np.asarray([horizon]))[0])
        wsup = float("nan")
    return IndependenceReport(asym, stab, sq_verdict, final, wsup)


def _window_grid(t0: float, t1: float, breakpoints: Sequence[float]) -> np.ndarray:
    """Sample grid containing all plateau edges (flow extrema sit there)."""
    pts = [np.linspace(t0, t1, _WINDOW_UNIFORM)]
    bps = [b for b in breakpoints if t0 < b < t1]
    bounds = np.concatenate([[t0], np.sort(bps), [t1]]) if bps else np.array([t0, t1])
    for a, b in zip(bounds[:-1], bounds[1:]):
        pts.append(np.linspace(a, b, _WINDOW_PER_SEGMENT))
    return np.unique(np.concatenate(pts))
