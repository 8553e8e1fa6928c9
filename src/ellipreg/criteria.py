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

All integrals are evaluated as ordered dyadic truncations (conditional
convergence demands ordered partial sums, not absolute-value quadrature)
and classified by the sequence machinery in :mod:`ellipreg.dyadic`; limits
of convergent scalar envelopes are refined by direct tail quadrature in the
log variable.  Evidence objects carry the partial-value tables so every
verdict is auditable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate as sci_integrate

from . import dynsys
from .coeff import CoefficientField, FieldError, Modulus
from .dyadic import (IntegralEvidence, VERDICT_CONVERGES, VERDICT_DIVERGES,
                     VERDICT_INCONCLUSIVE, RATE_TO_MINUS_INF,
                     evidence_from_partials)
from .sphmean import (SphericalGrid, default_grid, mean_matrix_R,
                      mean_matrix_R_many, mu_max, sample_on_spheres,
                      sphere_grid, symmetrized_S)

LN2 = math.log(2.0)

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

def _dyadic_quad_partials(F: Callable, s0: float, k_max: int, tol: float):
    """Partial integrals of F over [s0, s0 + k ln 2], one quad per octave."""
    pieces = np.empty(k_max)
    for k in range(k_max):
        a, b = s0 + k * LN2, s0 + (k + 1) * LN2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sci_integrate.IntegrationWarning)
            val, _ = sci_integrate.quad(F, a, b, epsabs=tol / 10, epsrel=tol / 10,
                                        limit=200)
        pieces[k] = val
    return np.arange(1, k_max + 1), np.cumsum(pieces)


def _tail_refine(F: Callable, s_end: float, tol: float) -> Optional[float]:
    """Quadrature of F over [s_end, inf); None when it cannot be trusted."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", sci_integrate.IntegrationWarning)
            val, err = sci_integrate.quad(F, s_end, np.inf,
                                          epsabs=tol / 100, epsrel=tol / 100,
                                          limit=400)
        if not np.isfinite(val) or err > max(tol, 1e-8 * abs(val)):
            return None
        return float(val)
    except Exception:
        return None


def _envelope_evidence(F: Callable, eps: float, k_max: int, tol: float,
                       refine_tail: bool) -> IntegralEvidence:
    s0 = -math.log(eps)
    ks, partials = _dyadic_quad_partials(F, s0, k_max, tol)
    ev = evidence_from_partials(ks, partials, tol)
    if ev.converges and refine_tail:
        tail = _tail_refine(F, s0 + k_max * LN2, tol)
        if tail is not None:
            refined = float(partials[-1]) + tail
            drift = abs(refined - ev.limit_as_float())
            resid = max(min(ev.residual, tol / 10), 1e-14)
            if drift > 100 * (ev.residual or 0.0) + tol:
                resid = drift   # refinement and extrapolation disagree
            ev = IntegralEvidence(ev.k_values, ev.partial_values, ev.verdict,
                                  np.float64(refined), resid,
                                  ev.rate_tag, ev.detail)
    return ev


def dini_integral(omega: Modulus, eps: float = 1.0,
                  tol: float = 1e-8, k_max: int = 30) -> IntegralEvidence:
    """Ordered truncations of int_0^eps omega(r) dr / r."""
    if not (0 < eps <= 1):
        raise ValueError("eps must lie in (0, 1]")
    F = lambda s: float(omega.log_form(np.array([s]))[0])
    refine = omega.analytic_tag != "piecewise-log"
    return _envelope_evidence(F, eps, k_max, tol, refine)


def square_dini_integral(omega: Modulus, tol: float = 1e-8,
                         eps: float = 1.0, k_max: int = 30) -> IntegralEvidence:
    """Ordered truncations of int_0^eps omega(r)^2 dr / r (the standing gate)."""
    F = lambda s: float(omega.log_form(np.array([s]))[0]) ** 2
    refine = omega.analytic_tag != "piecewise-log"
    return _envelope_evidence(F, eps, k_max, tol, refine)


# ---------------------------------------------------------------------------
# radial profile cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialProfile:
    """Log-radius samples of R and mu, with their cumulatives.

    Built once per (field, eps, k_max) at ``nodes_per_octave`` samples per
    dyadic shell; the classifier's criteria read R and mu from this cache,
    so their spherical quadrature runs once.  Cumulative integrals are in
    the log variable s = -ln r, where d(rho)/rho = ds.
    """

    field: CoefficientField
    grid: SphericalGrid          # the sphere quadrature the profile used
    eps: float
    k_max: int
    s_nodes: np.ndarray          # (M,)
    R_nodes: np.ndarray          # (M, n, n)
    mu_nodes: np.ndarray         # (M,)
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
                         grid: Optional[SphericalGrid] = None) -> RadialProfile:
    if grid is None:
        grid = default_grid(field.dim)
    s0 = -math.log(eps)
    M = k_max * nodes_per_octave + 1
    s = s0 + np.arange(M) * (LN2 / nodes_per_octave)
    R = mean_matrix_R_many(field, np.exp(-s), grid)
    mu = np.linalg.eigvalsh(symmetrized_S(R))[:, -1]
    octs = np.arange(0, k_max + 1) * nodes_per_octave
    return RadialProfile(field, grid, eps, k_max, s, R, mu,
                         _cumulative(R, s), _cumulative(mu, s), octs)


def _cumulative(vals: np.ndarray, s: np.ndarray) -> np.ndarray:
    return sci_integrate.cumulative_simpson(vals, x=s, axis=0, initial=0)


# ---------------------------------------------------------------------------
# window boundedness and sinking of the mu-integral
# ---------------------------------------------------------------------------

def mu_window_integrals(field: CoefficientField, r1: float, r2: float,
                        grid: Optional[SphericalGrid] = None,
                        tol: float = 1e-9) -> float:
    """int_{r1}^{r2} mu(S(rho)) d(rho)/rho by adaptive quadrature."""
    if not (0 < r1 < r2):
        raise ValueError("need 0 < r1 < r2")
    if grid is None:
        grid = default_grid(field.dim)

    def F(s):
        return mu_max(symmetrized_S(mean_matrix_R(field, math.exp(-s), grid)))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sci_integrate.IntegrationWarning)
        val, _ = sci_integrate.quad(F, -math.log(r2), -math.log(r1),
                                    epsabs=tol, epsrel=tol, limit=200)
    return float(val)


@dataclass(frozen=True)
class WindowBoundReport:
    sup_values: np.ndarray    # running sup over dyadic windows, per depth k
    k_values: np.ndarray
    bounded: bool
    K_hat: float
    verdict_detail: str


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
    return WindowBoundReport(sups, ks, bounded, float(sups[-1]), analysis.verdict)


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
        return IntegralEvidence(ks, np.full(len(ks), np.nan),
                                VERDICT_INCONCLUSIVE,
                                detail={"reason": f"inner integral {pv.verdict}"})
    inner = np.asarray(pv.limit, float)[None, :, :] - profile.cum_R
    prod = np.einsum("sij,sjk->sik", profile.R_nodes, inner)
    cum = _cumulative(dynsys.spectral_norms(prod), profile.s_nodes)
    ks, partials = profile.octave_partials(cum)
    return evidence_from_partials(ks, partials, tol)


@dataclass(frozen=True)
class IteratedReport:
    level1_ordered: IntegralEvidence      # inner ordered integral of R
    level1_l1: IntegralEvidence           # the product L1 test
    level2_ordered: Optional[IntegralEvidence]
    level2_l1: Optional[IntegralEvidence]

    @property
    def level2_passes(self) -> bool:
        return (self.level2_ordered is not None and self.level2_ordered.converges
                and self.level2_l1 is not None and self.level2_l1.converges)


def iterated_condition_13(profile: RadialProfile, tol: float = 1e-6) -> IteratedReport:
    """Second level of the ordered-integral refinement.

    Level 2 replaces R by the product R(rho) * int_0^rho R d(sigma)/sigma and
    repeats both the ordered-convergence and the L1 test; inconclusive or
    worse at level 1 propagates.
    """
    pv = pv_integral_R(profile, tol)
    l12b = l1_condition_12b(profile, tol, pv)
    if not pv.converges:
        return IteratedReport(pv, l12b, None, None)
    inner = np.asarray(pv.limit, float)[None, :, :] - profile.cum_R
    G = np.einsum("sij,sjk->sik", profile.R_nodes, inner)
    cum_G = _cumulative(G, profile.s_nodes)
    ks, partials = profile.octave_partials(cum_G)
    lvl2 = evidence_from_partials(ks, partials, tol)
    if not lvl2.converges:
        return IteratedReport(pv, l12b, lvl2, None)
    inner2 = np.asarray(lvl2.limit, float)[None, :, :] - cum_G
    prod2 = np.einsum("sij,sjk->sik", profile.R_nodes, inner2)
    cum2 = _cumulative(dynsys.spectral_norms(prod2), profile.s_nodes)
    ks2, partials2 = profile.octave_partials(cum2)
    lvl2_l1 = evidence_from_partials(ks2, partials2, tol)
    return IteratedReport(pv, l12b, lvl2, lvl2_l1)


# ---------------------------------------------------------------------------
# volume form and entrywise integrability
# ---------------------------------------------------------------------------

def sphere_area(n: int) -> float:
    return 2 * math.pi if n == 2 else 4 * math.pi


def volume_integral_form(field: CoefficientField, r: float = 0.5,
                         tol: float = 1e-6, k_max: int = 30,
                         gl_order: int = 12,
                         angular_resolution: Optional[int] = None) -> IntegralEvidence:
    """Principal-value volume integral of (A - n (Ax/|x|) x (x/|x|)) / |x|^n.

    Evaluated shell by shell in polar form with its own Gauss-Legendre rule
    in log-radius and its own angular resolution, so it is an independent
    computation of |S^{n-1}| times the ordered radial integral of R; the two
    must agree at every dyadic level.
    """
    n = field.dim
    if angular_resolution is None:
        angular_resolution = 48 if n == 2 else 20
    grid = sphere_grid(n, angular_resolution)
    x, wq = np.polynomial.legendre.leggauss(gl_order)
    s0 = -math.log(r)
    k = np.arange(k_max)
    a, b = s0 + k * LN2, s0 + (k + 1) * LN2
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    snodes = mid[:, None] + half[:, None] * x[None, :]        # (k_max, gl_order)
    vals = mean_matrix_R_many(field, np.exp(-snodes.ravel()), grid)
    shells = (sphere_area(n) * half[:, None, None]
              * np.einsum("q,kqij->kij", wq, vals.reshape(k_max, gl_order, n, n)))
    partials = np.cumsum(shells, axis=0)
    return evidence_from_partials(np.arange(1, k_max + 1), partials, tol * sphere_area(n))


def condition_A_minus_I(profile: RadialProfile,
                        tol: float = 1e-6) -> IntegralEvidence:
    """Integrability of the mean deviation: int (mean ||A - I||) d(rho)/rho.

    Finiteness is the blunt sufficient condition: it forces the ordered
    integral of R to converge absolutely, hence implies both refined
    conditions, and its failure is typical for slow (log-type) envelopes.
    The classifier does not read it, so the field is sampled here, on the
    profile's nodes and grid.
    """
    s, grid = profile.s_nodes, profile.grid
    dev = np.linalg.eigvalsh(sample_on_spheres(profile.field, np.exp(-s), grid)
                             - np.eye(profile.dim))
    absdev = np.einsum("m,rm->r", grid.weights, np.max(np.abs(dev), axis=2))
    ks, partials = profile.octave_partials(_cumulative(absdev, s))
    return evidence_from_partials(ks, partials, tol)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

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
        if self.tol <= 0 or self.dyn_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.k_max > 40:
            raise ValueError("k_max must not exceed 40")


@dataclass(frozen=True)
class RegularityVerdict:
    classification: str
    route: str
    evidence: dict
    dim: int
    budget: Budget


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
    grid = (default_grid(n) if budget.grid_resolution is None
            else sphere_grid(n, budget.grid_resolution))

    evidence: dict = {}
    sq = square_dini_integral(field.modulus, tol=budget.tol, k_max=budget.k_max)
    evidence["square_dini"] = sq

    profile = build_radial_profile(field, budget.eps, budget.k_max,
                                   budget.nodes_per_octave, grid)
    cond11 = check_condition_11(profile, budget.tol)
    pv = pv_integral_R(profile, budget.tol)
    l12b = l1_condition_12b(profile, budget.tol, pv)
    sink = divergence_condition_15(profile, budget.tol)
    evidence["condition_11"] = cond11
    evidence["pv_12a"] = pv
    evidence["l1_12b"] = l12b
    evidence["to_minus_inf_15"] = sink

    dyn_stab, stab2, dyn_asym = _dynamics_evidence(field, grid, budget)
    evidence["dynsys_stability"] = dyn_stab
    evidence["dynsys_asymptotic"] = dyn_asym
    evidence["dynsys_stability_2t0"] = stab2

    if not sq.converges:
        return RegularityVerdict(CLASS_INCONCLUSIVE, ROUTE_NONE, evidence, n, budget)

    sinks = (sink.verdict == VERDICT_DIVERGES
             and sink.rate_tag == RATE_TO_MINUS_INF)
    if cond11.bounded and sinks:
        return RegularityVerdict(CLASS_ZERO_GRADIENT, ROUTE_COR3, evidence, n, budget)

    if pv.converges and l12b.converges:
        return RegularityVerdict(CLASS_DIFFERENTIABLE, ROUTE_COR2, evidence, n, budget)
    if pv.converges and l12b.verdict == VERDICT_INCONCLUSIVE:
        iterated = iterated_condition_13(profile, budget.tol)
        evidence["iterated_13"] = iterated
        if iterated.level2_passes:
            return RegularityVerdict(CLASS_DIFFERENTIABLE, ROUTE_COR2_ITER,
                                     evidence, n, budget)

    if cond11.bounded:
        return RegularityVerdict(CLASS_LIPSCHITZ, ROUTE_COR1, evidence, n, budget)

    if dyn_stab.verdict_uniform_stability == dynsys.EVIDENCE_STABLE:
        if dyn_asym.verdict == dynsys.EVIDENCE_YES:
            return RegularityVerdict(CLASS_DIFFERENTIABLE, ROUTE_DYNSYS,
                                     evidence, n, budget)
        return RegularityVerdict(CLASS_LIPSCHITZ, ROUTE_DYNSYS, evidence, n, budget)

    return RegularityVerdict(CLASS_INCONCLUSIVE, ROUTE_NONE, evidence, n, budget)


def _dynamics_evidence(field: CoefficientField, grid: SphericalGrid,
                       budget: Budget):
    """Stability from t0 and from 2 t0, and asymptotics, off one flow.

    The window opening is a free parameter, so the stability constant is
    re-measured from twice the default start on the rebased flow.
    """
    t0 = budget.dyn_t0
    t1 = -math.log(budget.eps) + budget.k_max * LN2   # the profile depth
    rfun = lambda t: mean_matrix_R(field, math.exp(-t), grid)
    track = dynsys.fundamental_matrix(rfun, np.linspace(t0, t1, 257),
                                      budget.dyn_tol)
    stab = dynsys.stability_constant(track)
    stab2 = dynsys.stability_constant(track.resample(np.linspace(2 * t0, t1, 257)))
    asym = dynsys.AsymptoticReport(dynsys.INCONCLUSIVE)
    if t1 - t0 >= 10:
        asym = dynsys.asymptotic_limit(track.flow.column(0), tol=budget.asi_tol)
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
