"""Verdicts on dyadically truncated improper integrals.

Every analytic criterion in this package reduces to the behavior of a
sequence P_k of ordered truncations (cutoff 2^-k): does it converge, and to
what, or does it diverge, and how fast?  Raw Cauchy differences are useless
here because the interesting envelopes converge like 1/k; the verdict is
instead based on the decay exponent of the increments, and the limit is
the Levin u-transform estimate, with the spread across its orders as the
residual.

Classification of the increments d_k = P_{k+1} - P_k on the tail:
  * geometric decay (ratio bounded away from 1)      -> converges
  * algebraic decay |d_k| ~ k^-sigma with sigma > 1  -> converges
  * sigma <= 1 (harmonic or slower, or growth)       -> diverges
  * bounded partials with non-decaying sign flips    -> oscillates
The gap (1, 1.25] is reported as inconclusive rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Optional

import numpy as np

VERDICT_CONVERGES = "converges"
VERDICT_DIVERGES = "diverges"
VERDICT_OSCILLATES = "oscillates"
VERDICT_INCONCLUSIVE = "inconclusive"

RATE_LOG = "log"
RATE_POWER = "power"
RATE_TO_MINUS_INF = "to-minus-infinity"

_SIGMA_DIVERGENT = 1.0
_SIGMA_CONVERGENT = 1.25


@dataclass(frozen=True)
class SequenceVerdict:
    verdict: str
    limit: Optional[float] = None
    residual: Optional[float] = None
    rate_tag: Optional[str] = None
    sigma: Optional[float] = None


def levin_u(partials: np.ndarray, order: int) -> Optional[float]:
    """Levin u-transform limit estimate from the last order+2 partial sums."""
    s = np.asarray(partials, float)
    if len(s) < order + 2:
        return None
    s = s[-(order + 2):]
    a = np.diff(s)
    if np.any(a == 0):
        return None
    num = 0.0
    den = 0.0
    for j in range(order + 1):
        w = (-1.0) ** j * comb(order, j) * ((j + 2.0) / (order + 2.0)) ** (order - 1)
        om = (j + 2.0) * a[j]
        num += w * s[j + 1] / om
        den += w / om
    if den == 0 or not np.isfinite(num / den):
        return None
    return float(num / den)


_LEVIN_ORDERS = (4, 6, 8)


def _extrapolate(partials: np.ndarray):
    """Levin u limit estimate, with the spread across its orders.

    A tail with an exactly zero increment stands still and has no Levin
    estimate: its last partial is the limit, and the residual is its
    largest increment from the one before it first stands still on.
    """
    cands = [levin_u(partials, order) for order in _LEVIN_ORDERS]
    cands = np.asarray([v for v in cands if v is not None], float)
    if not len(cands):
        d = np.abs(np.diff(partials[-(max(_LEVIN_ORDERS) + 2):]))
        still = np.flatnonzero(d == 0)
        start = max(still[0] - 1, 0) if len(still) else 0
        return float(partials[-1]), float(np.max(d[start:]))
    med = float(np.median(cands))
    spread = float(np.max(np.abs(cands - med)))
    return med, spread


def _sigma_exponent(ks: np.ndarray, d: np.ndarray, window: int = 10):
    mask = np.abs(d) > 0
    kk, dd = ks[1:][mask], np.abs(d[mask])
    if len(dd) < 4:
        return None
    kk, dd = kk[-window:], dd[-window:]
    slope = np.polyfit(np.log(kk), np.log(dd), 1)[0]
    return float(-slope)


def analyze_scalar_sequence(ks, partials, tol: float) -> SequenceVerdict:
    """Classify one sequence of dyadic truncation values."""
    ks = np.asarray(ks, float)
    P = np.asarray(partials, float)
    if len(P) < 5:
        return SequenceVerdict(VERDICT_INCONCLUSIVE)
    scale = max(float(np.max(np.abs(P))), 1.0)
    d = np.diff(P)
    tail = d[-min(len(d), 12):]

    # flat sequence: already converged (identically zero integrands etc.)
    if np.max(np.abs(tail)) <= 1e-14 * scale + 1e-300:
        return SequenceVerdict(VERDICT_CONVERGES, limit=float(P[-1]),
                               residual=float(np.max(np.abs(tail))))

    signs = np.sign(tail[np.abs(tail) > 1e-14 * scale])
    mixed = len(set(signs.astype(int))) > 1

    if mixed:
        # alternating or irregular: decaying increments still converge
        head = np.mean(np.abs(tail[: len(tail) // 2]))
        back = np.mean(np.abs(tail[len(tail) // 2:]))
        if back <= 0.6 * head:
            limit, spread = _extrapolate(P)
            lo, hi = min(P[-2], P[-1]), max(P[-2], P[-1])
            bracketed = lo - spread <= limit <= hi + spread
            resid = spread if bracketed else max(spread, float(np.abs(tail[-1])))
            if resid <= 10 * tol:
                return SequenceVerdict(VERDICT_CONVERGES, limit, resid)
            return SequenceVerdict(VERDICT_INCONCLUSIVE, limit, resid)
        if np.max(np.abs(P)) < 1e6 * scale:
            return SequenceVerdict(VERDICT_OSCILLATES)
        return SequenceVerdict(VERDICT_INCONCLUSIVE)

    increasing = tail[-1] > 0
    nz = np.abs(tail) > 1e-300
    ratios = tail[1:][nz[1:] & nz[:-1]] / tail[:-1][nz[1:] & nz[:-1]]
    ratio_med = float(np.median(ratios)) if len(ratios) else 1.0

    # geometric decay: Levin u is exact on a geometric tail
    if 0 < ratio_med <= 0.93 and np.all(ratios > 0) and np.all(ratios < 0.985):
        limit, spread = _extrapolate(P)
        resid = max(spread, abs(float(tail[-1])) * ratio_med / (1 - ratio_med) * 1e-8)
        return SequenceVerdict(VERDICT_CONVERGES, limit, resid)

    # geometric growth: power-type divergence in the cutoff
    if ratio_med >= 1.15:
        tag = RATE_TO_MINUS_INF if not increasing else RATE_POWER
        return SequenceVerdict(VERDICT_DIVERGES, rate_tag=tag)

    sigma = _sigma_exponent(ks, d)
    if sigma is None:
        return SequenceVerdict(VERDICT_INCONCLUSIVE)

    if sigma >= _SIGMA_CONVERGENT:
        limit, spread = _extrapolate(P)
        if spread <= 10 * tol + 1e-12 * scale:
            return SequenceVerdict(VERDICT_CONVERGES, limit, max(spread, 1e-16),
                                   sigma=sigma)
        return SequenceVerdict(VERDICT_INCONCLUSIVE, limit, spread, sigma=sigma)

    if sigma <= _SIGMA_DIVERGENT:
        if increasing:
            tag = RATE_LOG if sigma > -0.2 else RATE_POWER
        else:
            below_floor = P[-1] < np.min(P[:-1]) + 1e-14 * scale
            tag = RATE_TO_MINUS_INF if below_floor else RATE_LOG
        return SequenceVerdict(VERDICT_DIVERGES, rate_tag=tag, sigma=sigma)

    return SequenceVerdict(VERDICT_INCONCLUSIVE, sigma=sigma)


@dataclass(frozen=True)
class IntegralEvidence:
    """Dyadic partial values of an improper integral plus the verdict.

    ``partial_values[i]`` is the ordered truncation at cutoff
    ``eps * 2**-k_values[i]``; matrix-valued integrands carry matrix partials
    and a per-entry analysis combined conservatively (any divergent entry
    makes the whole integral divergent, any oscillating entry oscillates).
    """

    k_values: np.ndarray
    partial_values: np.ndarray
    verdict: str
    limit: Optional[np.ndarray] = None
    residual: Optional[float] = None
    rate_tag: Optional[str] = None
    detail: dict = field(default_factory=dict)

    @property
    def converges(self) -> bool:
        return self.verdict == VERDICT_CONVERGES

    def limit_as_float(self) -> float:
        if self.limit is None:
            raise ValueError(f"no limit available: verdict is {self.verdict}")
        arr = np.asarray(self.limit, float)
        if arr.shape == ():
            return float(arr)
        raise ValueError("matrix-valued limit; use .limit")


def evidence_from_partials(ks, partials, tol: float) -> IntegralEvidence:
    """Build IntegralEvidence from scalar or matrix partial values."""
    ks = np.asarray(ks, float)
    P = np.asarray(partials, float)
    if P.ndim == 1:
        v = analyze_scalar_sequence(ks, P, tol)
        lim = None if v.limit is None else np.float64(v.limit)
        return IntegralEvidence(ks, P, v.verdict, lim, v.residual, v.rate_tag,
                                detail={"sigma": v.sigma})

    flat = P.reshape(len(P), -1)
    scale = float(np.max(np.abs(flat))) or 1.0
    verdicts = []
    for j in range(flat.shape[1]):
        col = flat[:, j]
        if np.max(np.abs(col)) <= 1e-9 * scale:
            # negligible entry relative to the matrix scale: treat as converged
            verdicts.append(SequenceVerdict(VERDICT_CONVERGES,
                                            limit=float(col[-1]), residual=0.0))
        else:
            verdicts.append(analyze_scalar_sequence(ks, col, tol))
    kinds = {v.verdict for v in verdicts}
    if kinds == {VERDICT_CONVERGES}:
        lim = np.array([v.limit for v in verdicts]).reshape(P.shape[1:])
        resid = max(v.residual or 0.0 for v in verdicts)
        return IntegralEvidence(ks, P, VERDICT_CONVERGES, lim, resid)
    if VERDICT_DIVERGES in kinds:
        tags = [v.rate_tag for v in verdicts if v.verdict == VERDICT_DIVERGES]
        return IntegralEvidence(ks, P, VERDICT_DIVERGES, rate_tag=tags[0])
    if VERDICT_OSCILLATES in kinds:
        return IntegralEvidence(ks, P, VERDICT_OSCILLATES)
    return IntegralEvidence(ks, P, VERDICT_INCONCLUSIVE)
