"""Analytic integral criteria and the regularity classifier.

Each criterion is an improper integral of the radial data (the envelope
omega, the mean matrix R, or the top symmetrized eigenvalue mu) whose
convergence or divergence decides one implication route:

  square-integrability of omega(r)/sqrt(r)  -> standing assumption
  bounded window integrals of mu            -> Lipschitz at the origin
  ordered convergence of int R dr/r, plus an
  L1 condition on its product with R        -> differentiable
  mu-integral sinking to -infinity on top
  of bounded windows                        -> differentiable, gradient zero

The blunt entrywise integrability of A - I implies the refined conditions
but decides no route, so the classifier does not compute it; the
acceptance gate holds the hierarchy to tests/a_minus_i_reference.py.

All integrals are evaluated as ordered dyadic truncations (conditional
convergence demands ordered partial sums, not absolute-value quadrature)
and classified by the sequence machinery in :mod:`ellipreg.dyadic`, whose
Levin u estimate is the limit of every convergent one.  Evidence objects
carry the partial-value tables so every verdict is auditable.

Quadrature is numpy only.  The envelope integral takes each octave by
Gauss-Legendre rules of 8, 16, 32 and 64 nodes, each compared with itself
doubled over the two halves; an octave on which some rule moves by more
than tol/10 is bisected, which closes in on the jumps of a piecewise
envelope.
R and mu are integrated on the profile's uniform log-radius nodes by
cumulative Simpson, so every octave edge carries Simpson pair sums.

Every R that ``classify`` reads (the profile, the flow lattice's extension
and its halvings) comes from one :class:`~ellipreg.sphmean.SphereSampler`
on the budget's ``grid_resolution`` grid, the default grid when that is
unset.  A profile holds its sampler, and every later sweep of the profile
goes through it.

The dynamics evidence reads one matrix-state flow from the profile's R, at
its nodes only: Phi(t) Phi(t_s)^-1 from the first node t_s of each window,
and the trajectory through e_1 as the first column of the product from t0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from . import dynsys
from .coeff import CoefficientField, FieldError, Modulus
from .dyadic import (IntegralEvidence, VERDICT_CONVERGES, VERDICT_DIVERGES,
                     VERDICT_INCONCLUSIVE, RATE_TO_MINUS_INF,
                     evidence_from_partials)
from .sphmean import (SphereSampler, mean_matrix_R_many, sphere_sampler,
                      symmetrized_S)

LN2 = math.log(2.0)
_STABILITY_NODES = 257   # flow nodes per stability window at most: K is quadratic

CLASS_INCONCLUSIVE = "inconclusive"
CLASS_LIPSCHITZ = "lipschitz-at-origin"
CLASS_DIFFERENTIABLE = "differentiable-at-origin"
CLASS_ZERO_GRADIENT = "differentiable-zero-gradient"

ROUTE_NONE = "none"
ROUTE_COR1 = "window-bound-route"
ROUTE_COR2 = "ordered-integral-route"
ROUTE_COR2_ITER = "iterated-integral-route"
ROUTE_COR3 = "sinking-integral-route"
ROUTE_DYNSYS = "dynamical-evidence-route"


# ---------------------------------------------------------------------------
# scalar envelope integrals
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gauss_legendre_table(sizes):
    """Nodes on [-1, 1] and weight rows of the n-node Gauss-Legendre rules.

    For each n in ``sizes`` there are two rows: the rule over [-1, 1], then
    the rule over each half of it (2n nodes).  The halves put nodes next to
    the midpoint, where every symmetric rule leaves a gap, so a jump that
    sits in that gap moves the two estimates apart.  Built on first use and
    kept: ``numpy.polynomial`` then loads only for a run that integrates.
    """
    segments = []      # (row, nodes, weights)
    for i, n in enumerate(sizes):
        x, w = np.polynomial.legendre.leggauss(n)
        segments += [(2 * i, x, w), (2 * i + 1, (x - 1) / 2, w / 2),
                     (2 * i + 1, (x + 1) / 2, w / 2)]
    nodes = np.concatenate([x for _, x, _ in segments])
    weights = np.zeros((2 * len(sizes), len(nodes)))
    start = 0
    for row, x, w in segments:
        weights[row, start:start + len(x)] = w
        start += len(x)
    return nodes, weights


_GL_SIZES = (8, 16, 32, 64)
_QUAD_MAX_BISECTIONS = 40   # the last pieces are ln2 * 2^-40, about 6e-13, wide


def _dyadic_quad_partials(F: Callable, s0: float, k_max: int, tol: float):
    """Partial integrals of F over [s0, s0 + k ln 2], k = 1..k_max.

    Every piece, first the octaves, is integrated by the n-node
    Gauss-Legendre rule for n = 8, 16, 32, 64, each once whole and once
    with its nodes doubled over the two halves of the piece.  The piece is
    done when, for every n, the doubling moves the estimate by at most
    tol/10 (relative once the estimate exceeds 1), and takes the doubled
    64-node value; otherwise it is bisected.  Asking every n, not the first
    to agree, keeps a jump from passing where two rules happen to err alike.
    All live pieces share one vectorised call of F per level.
    """
    gl_nodes, gl_weights = _gauss_legendre_table(_GL_SIZES)
    edges = s0 + LN2 * np.arange(k_max + 1)
    lo, hi, octave = edges[:-1], edges[1:], np.arange(k_max)
    pieces = np.zeros(k_max)
    for level in range(_QUAD_MAX_BISECTIONS + 1):
        half = 0.5 * (hi - lo)
        s = (lo + half)[:, None] + half[:, None] * gl_nodes
        est = half[:, None] * (F(s.ravel()).reshape(s.shape) @ gl_weights.T)
        whole, doubled = est[:, 0::2], est[:, 1::2]
        agreed = (np.abs(doubled - whole)
                  <= tol / 10 * np.maximum(1.0, np.abs(doubled)))
        done = agreed.all(axis=1)
        value = doubled[:, -1]
        # a non-finite piece or the last level ends with its best estimate
        done |= ~np.isfinite(value) | (level == _QUAD_MAX_BISECTIONS)
        np.add.at(pieces, octave[done], value[done])
        lo, hi, octave = lo[~done], hi[~done], octave[~done]
        if not len(lo):
            break
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        octave = np.concatenate([octave, octave])
    return np.arange(1, k_max + 1), np.cumsum(pieces)


def square_dini_integral(omega: Modulus, tol: float = 1e-8,
                         eps: float = 1.0, k_max: int = 30) -> IntegralEvidence:
    """Ordered truncations of int_0^eps omega(r)^2 dr / r (the standing gate)."""
    F = lambda s: omega.log_form(s) ** 2
    ks, partials = _dyadic_quad_partials(F, -math.log(eps), k_max, tol)
    return evidence_from_partials(ks, partials, tol)


# ---------------------------------------------------------------------------
# radial profile cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialProfile:
    """Log-radius samples of R, with the cumulatives of R and mu.

    Built once per (field, eps, k_max) at ``nodes_per_octave`` samples per
    dyadic shell; the classifier's criteria read R and mu from this cache,
    so their spherical quadrature runs once.  Only the (M, n, n) reductions
    are kept: the field samples behind R are swept one chunk of radii at a
    time and dropped, or never formed for a separable field, so the
    profile's memory grows with M only through these arrays.  Cumulative integrals are in the log variable s = -ln r,
    where d(rho)/rho = ds.
    """

    field: CoefficientField
    sampler: SphereSampler       # the profile's sphere quadrature
    eps: float
    k_max: int
    s_nodes: np.ndarray          # (M,)
    R_nodes: np.ndarray          # (M, n, n)
    cum_R: np.ndarray            # (M, n, n) int_{s0}^{s} R ds
    cum_mu: np.ndarray           # (M,)
    octave_idx: np.ndarray       # (k_max + 1,) node index of each octave edge

    @property
    def dim(self) -> int:
        return self.field.dim

    def octave_partials(self, cum: np.ndarray):
        ks = np.arange(1, self.k_max + 1)
        return ks, cum[self.octave_idx[1:]]


def build_radial_profile(field: CoefficientField, eps: float = 0.5,
                         k_max: int = 30, nodes_per_octave: int = 32,
                         sampler: Optional[SphereSampler] = None
                         ) -> RadialProfile:
    """R and mu on the profile's nodes through ``sampler``, which later
    sweeps of the profile reuse; None is the default grid."""
    if sampler is None:
        sampler = sphere_sampler(field.dim)
    s0 = -math.log(eps)
    M = k_max * nodes_per_octave + 1
    s = s0 + np.arange(M) * (LN2 / nodes_per_octave)
    R = mean_matrix_R_many(field, np.exp(-s), sampler)
    mu = np.linalg.eigvalsh(symmetrized_S(R))[:, -1]
    octs = np.arange(0, k_max + 1) * nodes_per_octave
    return RadialProfile(field, sampler, eps, k_max, s, R,
                         _cumulative(R, s), _cumulative(mu, s), octs)


def _cumulative(vals: np.ndarray, s: np.ndarray) -> np.ndarray:
    """int_{s_0}^{s_i} vals ds along axis 0 on the uniform nodes s.

    Interval [i, i+1] takes the Simpson parabola through nodes i, i+1, i+2
    when i is even, and through i-1, i, i+1 when i is odd or is the last
    interval; so each even node carries exact Simpson pair sums.
    """
    f = np.asarray(vals, float)
    h = (s[-1] - s[0]) / (len(s) - 1)
    out = np.zeros_like(f)
    if len(f) < 3:
        out[1:] = 0.5 * h * (f[1:] + f[:-1])
        return out
    fwd = 5 * f[:-2] + 8 * f[1:-1] - f[2:]    # interval i, parabola from node i
    back = -f[:-2] + 8 * f[1:-1] + 5 * f[2:]  # interval i + 1, the same parabola
    pieces = np.empty_like(f[1:])
    pieces[0:-1:2] = fwd[0::2]
    pieces[1::2] = back[0::2]
    pieces[-1] = back[-1]
    pieces *= h / 12
    np.cumsum(pieces, axis=0, out=out[1:])
    return out


# ---------------------------------------------------------------------------
# window boundedness and sinking of the mu-integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowBoundReport:
    kind: ClassVar[str] = "window-bound"
    sup_values: np.ndarray    # running sup over dyadic windows, per depth k
    k_values: np.ndarray
    bounded: bool
    K_hat: float


def check_condition_11(profile: RadialProfile, tol: float = 1e-6) -> WindowBoundReport:
    """Is sup over windows [r1, r2] in (0, eps) of int mu d(rho)/rho finite?

    The running sup over all sub-windows of the first k dyadic shells is a
    nondecreasing sequence; boundedness means it saturates, unboundedness
    shows up as log-or-faster growth of the sequence.
    """
    Imu = profile.cum_mu
    D = Imu - np.minimum.accumulate(Imu)
    run_sup = np.maximum.accumulate(D)
    ks, sups = profile.octave_partials(run_sup)
    # the sup sequence is nonnegative and nondecreasing by construction
    analysis = evidence_from_partials(ks, sups, tol)
    bounded = analysis.verdict == VERDICT_CONVERGES
    return WindowBoundReport(sups, ks, bounded, float(sups[-1]))


def divergence_condition_15(profile: RadialProfile,
                            tol: float = 1e-6) -> IntegralEvidence:
    """Partial values of int_r^eps mu d(rho)/rho on dyadic r.

    The route to a zero gradient requires these to sink below every floor
    (tag "to-minus-infinity"); convergence or growth both refute it.
    """
    ks, partials = profile.octave_partials(profile.cum_mu)
    return evidence_from_partials(ks, partials, tol)


# ---------------------------------------------------------------------------
# ordered matrix integrals
# ---------------------------------------------------------------------------

def pv_integral_R(profile: RadialProfile, tol: float = 1e-6) -> IntegralEvidence:
    """Ordered truncations of int_0^eps R(rho) d(rho)/rho, entrywise.

    Conditional convergence is the interesting regime, so the dyadic
    ordering of the truncations is part of the definition; bounded
    non-Cauchy partials report as oscillating.
    """
    ks, partials = profile.octave_partials(profile.cum_R)
    return evidence_from_partials(ks, partials, tol)


def l1_condition_12b(profile: RadialProfile, tol: float = 1e-6,
                     pv: Optional[IntegralEvidence] = None) -> IntegralEvidence:
    """L1 test of R(r)/r times the inner ordered integral int_0^r R d(rho)/rho.

    Needs the inner integral to converge; its tail is reconstructed from the
    cached cumulative as (limit - cum).  Norms are spectral: submultiplicative
    and dominating, which is what an L1 product condition needs.
    """
    if pv is None:
        pv = pv_integral_R(profile, tol)
    if not pv.converges:
        ks = pv.k_values
        return IntegralEvidence(ks, np.full(len(ks), np.nan), VERDICT_INCONCLUSIVE)
    return _tail_product_l1(profile, pv, profile.cum_R, tol)


def _tail_product(profile: RadialProfile, ordered: IntegralEvidence,
                  cum: np.ndarray) -> np.ndarray:
    """R times the tail (limit - cum) of a converged ordered integral."""
    inner = np.asarray(ordered.limit, float)[None, :, :] - cum
    return np.einsum("sij,sjk->sik", profile.R_nodes, inner)


def _tail_product_l1(profile: RadialProfile, ordered: IntegralEvidence,
                     cum: np.ndarray, tol: float) -> IntegralEvidence:
    """Ordered truncations of the spectral norm of ``_tail_product``."""
    norms = dynsys.spectral_norms(_tail_product(profile, ordered, cum))
    ks, partials = profile.octave_partials(_cumulative(norms, profile.s_nodes))
    return evidence_from_partials(ks, partials, tol)


@dataclass(frozen=True)
class IteratedReport:
    kind: ClassVar[str] = "iterated"
    level1_ordered: IntegralEvidence      # inner ordered integral of R
    level1_l1: IntegralEvidence           # the product L1 test
    level2_ordered: Optional[IntegralEvidence]
    level2_l1: Optional[IntegralEvidence]

    @property
    def level2_passes(self) -> bool:
        return (self.level2_ordered is not None and self.level2_ordered.converges
                and self.level2_l1 is not None and self.level2_l1.converges)


def iterated_condition_13(profile: RadialProfile, pv: IntegralEvidence,
                          l12b: IntegralEvidence,
                          tol: float = 1e-6) -> IteratedReport:
    """Second level of the ordered-integral refinement.

    ``pv`` and ``l12b`` are the profile's level-1 tests, as
    ``pv_integral_R`` and ``l1_condition_12b`` give them.  Level 2 replaces
    R by the product R(rho) * int_0^rho R d(sigma)/sigma and repeats both
    the ordered-convergence and the L1 test; inconclusive or worse at level 1
    propagates.
    """
    if not pv.converges:
        return IteratedReport(pv, l12b, None, None)
    cum_G = _cumulative(_tail_product(profile, pv, profile.cum_R),
                        profile.s_nodes)
    ks, partials = profile.octave_partials(cum_G)
    lvl2 = evidence_from_partials(ks, partials, tol)
    if not lvl2.converges:
        return IteratedReport(pv, l12b, lvl2, None)
    return IteratedReport(pv, l12b, lvl2,
                          _tail_product_l1(profile, lvl2, cum_G, tol))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

# The smallest tol, dyn_tol and asi_tol a Budget accepts.  Below it tol/10
# falls under the rounding of an O(1) partial (about 1e-16), pieces of the
# adaptive octave quadrature stop settling and are split level after level:
# tol = 1e-300 grew memory until the process was killed.
TOL_FLOOR = 1e-14

# The deepest log time any run reads: the field is sampled at r = e^-t,
# which underflows to 0 past t = 745.
T_MAX = 700.0
K_MAX_CAP = 40     # the most dyadic octaves a Budget or a moment table reads


@dataclass(frozen=True)
class Budget:
    """Numerical effort knobs for one classification run."""

    eps: float = 0.5
    k_max: int = 30
    tol: float = 1e-6
    grid_resolution: Optional[int] = None
    nodes_per_octave: int = 32
    dyn_tol: float = 1e-8
    dyn_t0: float = LN2
    asi_tol: float = 1e-5

    def validate(self):
        """Raise ValueError naming the first field outside its range."""
        for key in ("tol", "dyn_tol", "asi_tol"):
            value = getattr(self, key)
            if not 0 < value < math.inf:
                raise ValueError(f"{key}: must be finite and positive")
            if value < TOL_FLOOR:
                raise ValueError(f"{key}: must be at least the floor "
                                 f"{TOL_FLOOR:g}, where double precision "
                                 "still resolves it")
        if not 0 < self.eps <= 1:
            raise ValueError("eps: must lie in (0, 1]")
        if not 1 <= self.k_max <= K_MAX_CAP:
            raise ValueError(f"k_max: must lie in [1, {K_MAX_CAP}]")
        if not 1 <= self.nodes_per_octave <= 4096:
            raise ValueError("nodes_per_octave: must lie in [1, 4096]")
        if self.grid_resolution is not None and self.grid_resolution < 8:
            raise ValueError("grid_resolution: must be at least 8")
        depth = -math.log(self.eps) + self.k_max * LN2
        if depth > T_MAX:
            raise ValueError(f"eps: the profile depth -ln(eps) + k_max ln 2 = "
                             f"{depth:.6g} must be at most {T_MAX:g}, where "
                             "r = e^-t is still above its underflow")
        if not 0 <= 2 * self.dyn_t0 < depth:
            raise ValueError(f"dyn_t0: 2*dyn_t0 must lie in [0, {depth:.6g}), "
                             "the profile depth -ln(eps) + k_max ln 2")


@dataclass(frozen=True)
class RegularityVerdict:
    classification: str
    route: str
    evidence: dict
    dim: int
    budget: Budget
    sampler: Optional[SphereSampler] = None   # the sphere quadrature's record


def classify(field: CoefficientField, budget: Budget = Budget()) -> RegularityVerdict:
    """Full decision tree over the analytic criteria, dynamics attached.

    Order of precedence: the square-integrability gate first (everything is
    inconclusive without it); then the strongest analytic conclusion wins
    (zero-gradient > differentiable > Lipschitz); trajectory evidence can
    supply Lipschitz/differentiable conclusions when no analytic route
    fires, and is always attached for audit either way.
    """
    budget.validate()
    if not field.normalized:
        raise FieldError("classification requires a normalized field "
                         "(eval(0) = I); this one is flagged non-normalized")
    n = field.dim
    sampler = sphere_sampler(n, budget.grid_resolution)

    evidence: dict = {}

    def verdict(classification: str, route: str) -> RegularityVerdict:
        return RegularityVerdict(classification, route, evidence, n, budget,
                                 sampler)

    sq = square_dini_integral(field.modulus, budget.tol, budget.eps, budget.k_max)
    evidence["square_dini"] = sq

    profile = build_radial_profile(field, budget.eps, budget.k_max,
                                   budget.nodes_per_octave, sampler)
    cond11 = check_condition_11(profile, budget.tol)
    pv = pv_integral_R(profile, budget.tol)
    l12b = l1_condition_12b(profile, budget.tol, pv)
    sink = divergence_condition_15(profile, budget.tol)
    evidence["condition_11"] = cond11
    evidence["pv_12a"] = pv
    evidence["l1_12b"] = l12b
    evidence["to_minus_inf_15"] = sink

    dyn_stab, stab2, dyn_asym = _dynamics_evidence(profile, budget)
    evidence["dynsys_stability"] = dyn_stab
    evidence["dynsys_asymptotic"] = dyn_asym
    evidence["dynsys_stability_2t0"] = stab2

    if not sq.converges:
        return verdict(CLASS_INCONCLUSIVE, ROUTE_NONE)

    sinks = (sink.verdict == VERDICT_DIVERGES
             and sink.rate_tag == RATE_TO_MINUS_INF)
    if cond11.bounded and sinks:
        return verdict(CLASS_ZERO_GRADIENT, ROUTE_COR3)

    if pv.converges and l12b.converges:
        return verdict(CLASS_DIFFERENTIABLE, ROUTE_COR2)
    if pv.converges and l12b.verdict == VERDICT_INCONCLUSIVE:
        iterated = iterated_condition_13(profile, pv, l12b, budget.tol)
        evidence["iterated_13"] = iterated
        if iterated.level2_passes:
            return verdict(CLASS_DIFFERENTIABLE, ROUTE_COR2_ITER)

    if cond11.bounded:
        return verdict(CLASS_LIPSCHITZ, ROUTE_COR1)

    if dyn_stab.verdict == dynsys.EVIDENCE_STABLE:
        if dyn_asym.verdict == dynsys.EVIDENCE_YES:
            return verdict(CLASS_DIFFERENTIABLE, ROUTE_DYNSYS)
        return verdict(CLASS_LIPSCHITZ, ROUTE_DYNSYS)

    return verdict(CLASS_INCONCLUSIVE, ROUTE_NONE)


def _flow_lattice(profile: RadialProfile, t0: float):
    """Profile nodes and R from the last node at or below t0 to the depth.

    An odd count of intervals is made even by starting one node lower, or
    one node higher where the lower node would lie outside the unit ball
    (s < 0).  Nodes below the profile are swept in one batch.
    """
    s, R = profile.s_nodes, profile.R_nodes
    h = s[1] - s[0]
    j = math.floor((t0 - s[0]) / h + 1e-9)   # within 1e-9 h of a node: on it
    if (len(s) - 1 - j) % 2:
        j += -1 if s[0] + (j - 1) * h > -1e-9 * h else 1
    if j < 0:
        new = s[0] + np.arange(j, 0) * h
        R_new = mean_matrix_R_many(profile.field, np.exp(-new), profile.sampler)
        return np.concatenate([new, s]), np.concatenate([R_new, R])
    return s[j:], R[j:]


def _dynamics_evidence(profile: RadialProfile, budget: Budget):
    """Stability from t0 and from 2 t0, and asymptotics, off one flow.

    The flow is ``dynsys.refined_flow`` from the profile's own R samples, so
    it makes no sphere quadrature of its own unless the lattice must reach
    below the profile (dyn_t0 < -ln eps, or an odd count of intervals) or
    be halved to meet ``dyn_tol``, one sweep of the midpoints per halving.
    The window opening is a free parameter, so the stability constant is
    re-measured from twice the default start off the same flow.  Every item
    reads flow nodes, where ``dyn_tol`` holds, from the first node at or
    after its start up to the profile depth, where the flow ends: Phi(t)
    Phi(t_s)^-1 from that node t_s.  A stability window takes at most
    _STABILITY_NODES of them, the nodes nearest as many equispaced times,
    both ends included; the trajectory through e_1 is the first column from
    t0, at every node.
    """
    t0 = budget.dyn_t0
    s, R = _flow_lattice(profile, t0)
    sample = lambda t: mean_matrix_R_many(profile.field, np.exp(-t), profile.sampler)
    flow = dynsys.refined_flow(sample, s, budget.dyn_tol, R)
    slack = 1e-9 * (s[1] - s[0])

    def from_node(ts: float):
        i = np.searchsorted(flow.t, ts - slack)   # ts < depth = flow.t[-1]
        Phi = flow.y[i:] @ np.linalg.inv(flow.y[i])
        Phi[0] = np.eye(profile.dim)
        return flow.t[i:], Phi

    def stability(t, Phi) -> dynsys.StabilityReport:
        # the flow's nodes are equispaced, so equispaced indices are the
        # nodes nearest equispaced times
        k = np.rint(np.linspace(0, len(t) - 1, min(len(t), _STABILITY_NODES)))
        k = k.astype(int)
        return dynsys.stability_constant(t[k], Phi[k])

    t, Phi = from_node(t0)
    stab, stab2 = stability(t, Phi), stability(*from_node(2 * t0))
    asym = dynsys.AsymptoticReport(dynsys.INCONCLUSIVE)
    if t[-1] - t[0] >= 10:
        asym = dynsys.asymptotic_limit(t, Phi[:, :, 0], tol=budget.asi_tol)
    return stab, stab2, asym


def soundness_check(verdict: RegularityVerdict) -> bool:
    """Route soundness: conclusions require their gating evidence."""
    ev = verdict.evidence
    if verdict.classification != CLASS_INCONCLUSIVE:
        if not ev["square_dini"].converges:
            return False
    if verdict.classification == CLASS_ZERO_GRADIENT:
        if not ev["condition_11"].bounded:
            return False
    return True
