"""Coefficient fields A(x) with attached modulus-of-continuity envelopes.

A field is an evaluator ``x -> A(x)`` (symmetric, uniformly elliptic, with
A(0) = I for normalized fields) together with a nondecreasing envelope
``omega`` bounding the entrywise oscillation on spheres:
``sup_{|x|=r} |a_ij(x) - delta_ij| <= omega(r)``.

Fields are represented as evaluators plus metadata, never as sampled arrays,
so quadrature resolution is always chosen by the consumer.  All objects here
are immutable and all operations pure.

A field that knows its angular structure is defined once, as a separable
form A(r theta) = A0(r) + sum_j c_j(r) B_j(theta) (:class:`SeparableParts`),
with A0 constant on each sphere.  Its values on whole spheres
(:meth:`CoefficientField.on_spheres`) and at points (``eval_batch``) are
both read off the form; the origin takes A0(0).  The sphere means reduce
the J angular parts once per grid: A0 adds nothing to R.
``make_gilbarg_serrin`` has J = 1 (c = g, B = theta theta^T);
``make_constant`` and a radial field have J = 0.  A field without a form
(``make_custom``, or ``make_perturbed_radial`` with a bare evaluator as a1)
is read through ``eval_batch`` at the points.  A grid is anything with
``nodes`` (m, n), so this module does not import the quadrature module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

FAMILY_CONSTANT = "Constant"
FAMILY_RADIAL = "Radial"
FAMILY_GILBARG_SERRIN = "GilbargSerrin"
FAMILY_PERTURBED_RADIAL = "PerturbedRadial"
FAMILY_CUSTOM = "Custom"

# the radii at which make_gilbarg_serrin checks g against its envelope
_GS_CHECK_RADII = 2.0 ** -np.arange(0, 31, dtype=float)


class FieldError(ValueError):
    """Rejected field construction (ellipticity, symmetry, envelope, ...)."""


# ---------------------------------------------------------------------------
# modulus of continuity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Modulus:
    """Oscillation envelope omega(r) on (0, 1], nondecreasing, omega(0+) = 0.

    ``omega_log(s)`` is omega(e^-s) in closed form.  ``analytic_tag`` names
    the closed form when there is one, e.g. "1/log(e/r)" or "r^0.5".
    """

    omega: Callable[[np.ndarray], np.ndarray]
    omega_log: Callable[[np.ndarray], np.ndarray]
    analytic_tag: Optional[str] = None

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.asarray(self.omega(r), dtype=float)
        return out

    def log_form(self, s):
        """omega(e^-s); exact for built-ins even where e^-s underflows."""
        return np.asarray(self.omega_log(np.asarray(s, dtype=float)), dtype=float)


def zero_modulus() -> Modulus:
    return Modulus(lambda r: np.zeros_like(np.asarray(r, float)), analytic_tag="0",
                   omega_log=lambda s: np.zeros_like(np.asarray(s, float)))


def power_modulus(a: float, c: float = 1.0) -> Modulus:
    """omega(r) = c * r**a with a > 0."""
    if a <= 0 or c < 0:
        raise FieldError("power modulus requires a > 0 and c >= 0")
    return Modulus(lambda r, a=a, c=c: c * np.asarray(r, float) ** a,
                   analytic_tag=f"{c:g}*r^{a:g}",
                   omega_log=lambda s, a=a, c=c: c * np.exp(-a * np.asarray(s, float)))


def inv_log_modulus(c: float = 1.0, power: float = 1.0, shift: float = 1.0) -> Modulus:
    """omega(r) = c / (shift - ln r)**power, i.e. c / log(e^shift / r)**power."""
    if c < 0 or power <= 0 or shift < 1.0:
        raise FieldError("inv-log modulus requires c >= 0, power > 0, shift >= 1")

    def om(r, c=c, p=power, s=shift):
        r = np.asarray(r, float)
        with np.errstate(divide="ignore"):
            val = c / (s - np.log(np.maximum(r, 1e-320))) ** p
        return np.where(r > 0, val, 0.0)

    tag = f"{c:g}/log(e^{shift:g}/r)^{power:g}"

    def om_log(s, c=c, p=power, sh=shift):
        s = np.asarray(s, float)
        return c / (sh + s) ** p

    return Modulus(om, analytic_tag=tag, omega_log=om_log)


def constant_modulus(c: float) -> Modulus:
    """Constant envelope; only valid for non-normalized constant fields."""
    return Modulus(lambda r, c=c: np.full_like(np.asarray(r, float), c),
                   analytic_tag=f"{c:g}",
                   omega_log=lambda s, c=c: np.full_like(np.asarray(s, float), c))


def piecewise_log_modulus(values: Sequence[float]) -> Modulus:
    """Envelope constant on dyadic shells: values[k] on (2^-(k+1), 2^-k].

    Beyond the table the last value is held; the table must be nonincreasing
    so that omega is nondecreasing in r.
    """
    vals = np.asarray(values, float)
    if np.any(np.diff(vals) > 0):
        raise FieldError("piecewise-in-log table must be nonincreasing with depth")

    def om(r, vals=vals):
        r = np.asarray(r, float)
        k = np.clip(np.floor(-np.log2(np.maximum(r, 1e-320))), 0, len(vals) - 1)
        return np.where(r > 0, vals[k.astype(int)], 0.0)

    def om_log(s, vals=vals):
        s = np.asarray(s, float)
        k = np.clip(np.floor(s / np.log(2.0)), 0, len(vals) - 1)
        return np.where(s >= 0, vals[k.astype(int)], vals[0])

    return Modulus(om, analytic_tag="piecewise-log", omega_log=om_log)


# ---------------------------------------------------------------------------
# whitelisted closed-form radial profiles
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""^\s*(?P<coef>[+-]?\d*\.?\d+(?:[eE][+-]?\d+)?)?\s*\*?\s*
        (?:
          (?P<pow>r\^(?P<a>[+-]?\d*\.?\d+))
        | (?P<log>1?/\(?log\(e(?:\^(?P<shift>\d*\.?\d+))?/r\)\)?(?:\^(?P<lp>\d*\.?\d+))?)
        )?\s*$""",
    re.VERBOSE,
)


def _parse_terms(expr: str):
    text = expr.replace(" ", "")
    if not text:
        raise FieldError("empty radial expression")
    # split at signs, except signs of scientific-notation exponents
    pieces = [p for p in re.split(r"(?<![eE])(?=[+-])", text) if p]
    terms = []
    for piece in pieces:
        m = _TERM_RE.match(piece)
        if not m:
            raise FieldError(f"radial expression term not in whitelist: {piece!r}")
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        if piece.startswith("-") and not m.group("coef"):
            coef = -1.0
        if m.group("pow"):
            terms.append(("pow", coef, float(m.group("a"))))
        elif m.group("log"):
            shift = float(m.group("shift")) if m.group("shift") else 1.0
            lp = float(m.group("lp")) if m.group("lp") else 1.0
            terms.append(("log", coef, (shift, lp)))
        else:
            terms.append(("const", coef, None))
    return tuple(terms)


def parse_radial_expr(expr: str) -> Callable[[np.ndarray], np.ndarray]:
    """Parse a whitelisted radial closed form into a vectorized callable.

    Grammar: sum of terms joined by '+' or '-', each term one of
    ``c``, ``c*r^a``, ``r^a``, ``c/log(e/r)``, ``c/(log(e^K/r))^a``.
    Anything else is rejected: configs may not inject arbitrary code.
    """
    terms = _parse_terms(expr)

    def f(r, terms=terms):
        r = np.asarray(r, float)
        out = np.zeros_like(r)
        safe = np.maximum(r, 1e-320)
        for kind, coef, p in terms:
            if kind == "const":
                out = out + coef
            elif kind == "pow":
                out = out + coef * safe ** p
            else:
                shift, lp = p
                out = out + coef / (shift - np.log(safe)) ** lp
        return out

    return f


def parse_modulus_expr(expr: str) -> Modulus:
    """Whitelisted envelope expression as a Modulus with an exact log channel."""
    terms = _parse_terms(expr)
    f = parse_radial_expr(expr)

    def om_log(s, terms=terms):
        s = np.asarray(s, float)
        out = np.zeros_like(s)
        for kind, coef, p in terms:
            if kind == "const":
                out = out + coef
            elif kind == "pow":
                out = out + coef * np.exp(-p * s)
            else:
                shift, lp = p
                out = out + coef / (shift + s) ** lp
        return out

    return Modulus(f, analytic_tag=expr.replace(" ", ""), omega_log=om_log)


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableParts:
    """A field's separable form, A(r theta) = A0(r) + sum_j c_j(r) B_j(theta).

    ``base`` maps radii (k,) to A0, shape (k, n, n); ``factors`` maps radii
    to the radial factors c, shape (k, J); ``angular`` maps unit vectors
    (m, n) to the angular parts B, shape (J, m, n, n), each symmetric.
    """

    base: Callable[[np.ndarray], np.ndarray]
    factors: Callable[[np.ndarray], np.ndarray]
    angular: Callable[[np.ndarray], np.ndarray]

    def on_spheres(self, radii: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """A at radii[i] * nodes[j], shape (k, m, n, n); radius 0 takes A0(0)."""
        c = np.where(radii[:, None] == 0, 0.0, self.factors(radii))
        A = np.einsum("kj,jmab->kmab", c, self.angular(nodes))
        A += self.base(radii)[:, None]
        return A

    def at_points(self, pts) -> np.ndarray:
        """A at each row of ``pts``, shape (m, n, n); the origin takes A0(0)."""
        pts = np.atleast_2d(np.asarray(pts, float))
        r = _radii(pts)
        origin = r == 0
        theta = pts / np.where(origin, 1.0, r)[:, None]
        # an origin row reads the parts at a unit vector, with factors 0
        theta[origin, 0] = 1.0
        c = np.where(origin[:, None], 0.0, self.factors(r))
        A = np.einsum("pj,jpab->pab", c, self.angular(theta))
        A += self.base(r)
        return A


def _radial_parts(base: Callable[[np.ndarray], np.ndarray]) -> SeparableParts:
    """The form of a field constant on each sphere: the base alone, J = 0."""
    return SeparableParts(
        base, lambda radii: np.zeros((len(radii), 0)),
        lambda nodes: np.zeros((0,) + nodes.shape + nodes.shape[-1:]))


@dataclass(frozen=True)
class CoefficientField:
    """Symmetric elliptic coefficient evaluator with metadata.

    ``eval_batch`` maps an (m, n) array of points to an (m, n, n) array of
    symmetric matrices; ``eval`` is the single-point convenience wrapper.
    ``normalized`` records whether eval(0) = I; the classification pipeline
    only accepts normalized fields, while the moment quadratures accept any.
    ``separable``, when given, is the field's form: ``on_spheres`` reads it,
    the factory reads ``eval_batch`` off it, and the sphere means take R
    from it without sampling spheres.  ``dataclasses.replace(field,
    separable=None)`` has them sample the field at points instead.
    """

    dim: int
    eval_batch: Callable[[np.ndarray], np.ndarray]
    ellipticity: tuple
    modulus: Modulus
    family_tag: str = FAMILY_CUSTOM
    normalized: bool = True
    separable: Optional[SeparableParts] = None

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, float).reshape(1, self.dim)
        return self.eval_batch(x)[0]

    def on_spheres(self, radii, grid) -> np.ndarray:
        """The field at radii[i] * grid.nodes[j], shape (k, m, n, n)."""
        radii = np.asarray(radii, float)
        if self.separable is not None:
            return self.separable.on_spheres(radii, grid.nodes)
        m, n = grid.nodes.shape
        pts = (radii[:, None, None] * grid.nodes[None, :, :]).reshape(-1, n)
        return self.eval_batch(pts).reshape(len(radii), m, n, n)

    def __call__(self, x) -> np.ndarray:
        return self.eval(x)


def _check_spd(A0: np.ndarray, what: str = "matrix") -> tuple:
    A0 = np.asarray(A0, float)
    if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
        raise FieldError(f"{what} must be square, got shape {A0.shape}")
    asym = np.max(np.abs(A0 - A0.T))
    if asym > 1e-14 * max(1.0, np.max(np.abs(A0))):
        raise FieldError(f"{what} is not symmetric (max asymmetry {asym:.2e})")
    w = np.linalg.eigvalsh(A0)
    if w[0] <= 0:
        raise FieldError(f"{what} is not positive definite (eigenvalue {w[0]:.6g})")
    return float(w[0]), float(w[-1])


def make_constant(n: int, A0: np.ndarray) -> CoefficientField:
    """Constant field A(x) = A0, a form with J = 0.  Normalized only when
    A0 = I.

    Non-normalized constant fields are accepted for the moment-quadrature
    sanity tests (their mean matrix R vanishes identically) but are rejected
    by the classification pipeline.
    """
    lam_min, lam_max = _check_spd(A0, "A0")
    A0 = 0.5 * (np.asarray(A0, float) + np.asarray(A0, float).T)
    if A0.shape[0] != n:
        raise FieldError(f"A0 has dimension {A0.shape[0]}, expected {n}")
    is_identity = np.allclose(A0, np.eye(n), atol=1e-15)
    parts = _radial_parts(lambda radii: np.broadcast_to(A0, (len(radii), n, n)))
    off = float(np.max(np.abs(A0 - np.eye(n))))
    mod = zero_modulus() if is_identity else constant_modulus(off)
    return CoefficientField(
        dim=n, eval_batch=parts.at_points, ellipticity=(lam_min, lam_max),
        modulus=mod, family_tag=FAMILY_CONSTANT, normalized=is_identity,
        separable=parts,
    )


def make_gilbarg_serrin(n: int, g: Callable, omega_bound: Modulus) -> CoefficientField:
    """Field A(x) = I + g(|x|) theta theta^T with theta = x/|x|, g(0+) = 0.

    The radial profile must stay inside the declared envelope,
    |g(r)| <= omega_bound(r), and keep the field elliptic, 1 + g(r) > 0;
    both are checked at the radii _GS_CHECK_RADII.  The field is its form
    with one part: the base I, the factor g(r), 0 at r = 0, and
    theta theta^T.
    """
    gv = np.vectorize(g, otypes=[float]) if not _is_vectorized(g, (2,)) else g
    rr = _GS_CHECK_RADII
    gr = np.asarray(gv(rr), float)
    wr = omega_bound(rr)
    bad = np.abs(gr) > wr * (1 + 1e-12) + 1e-15
    if np.any(bad):
        r_bad = rr[bad][0]
        raise FieldError(
            f"|g| exceeds the declared modulus at r = {r_bad:.6g} "
            f"(|g| = {abs(gr[bad][0]):.6g} > omega = {wr[bad][0]:.6g})")
    if np.any(1.0 + gr <= 0):
        r_bad = rr[1.0 + gr <= 0][0]
        raise FieldError(f"ellipticity lost: 1 + g(r) <= 0 at r = {r_bad:.6g}")

    def factors(radii, gv=gv):
        # g once per radius, (k, 1); radius 0 takes g = 0, so A = I there
        live = radii > 0
        gval = np.where(live, np.asarray(gv(np.where(live, radii, 1.0)), float), 0.0)
        return gval[:, None]

    parts = SeparableParts(
        lambda radii: np.broadcast_to(np.eye(n), (len(radii), n, n)), factors,
        lambda nodes: (nodes[:, :, None] * nodes[:, None, :])[None])
    lam_min = float(min(1.0, 1.0 + np.min(gr)))
    lam_max = float(max(1.0, 1.0 + np.max(gr)))
    return CoefficientField(
        dim=n, eval_batch=parts.at_points, ellipticity=(lam_min, lam_max),
        modulus=omega_bound, family_tag=FAMILY_GILBARG_SERRIN,
        normalized=True, separable=parts,
    )


def make_perturbed_radial(n: int, a0: Callable, a1=None, *,
                          modulus: Modulus) -> CoefficientField:
    """Field a0(|x|) + a1(x) - a1(0), with a0(0) = I and envelope ``modulus``.

    ``a0`` maps a radius to an n x n symmetric matrix, or radii (k,) to
    (k, n, n); ``a1`` is another CoefficientField, a batch evaluator, or
    None.  The correction by a1(0) keeps the combined field normalized, and
    the origin evaluates to I by fiat.  With a1 None the field is the form
    of a0 alone (J = 0), with a1 a field that has a form it is the sum of
    the two forms; then R is a1's, since radial parts integrate to zero.
    With any other a1 the field has no form and is read at points.
    """
    if not _is_vectorized(a0, (2, n, n)):
        a0 = lambda radii, a0=a0: np.array(
            [a0(r) for r in radii], float).reshape(-1, n, n)
    if not np.allclose(a0(np.zeros(1))[0], np.eye(n), atol=1e-12):
        raise FieldError("a0(0) must equal the identity")
    a1_parts = (_radial_parts(lambda radii: np.zeros((len(radii), n, n)))
                if a1 is None else getattr(a1, "separable", None))
    if a1_parts is not None:
        a1_zero = a1_parts.base(np.zeros(1))[0]

        def base(radii):
            out = a0(radii) + a1_parts.base(radii) - a1_zero
            out[radii == 0] = np.eye(n)
            return out

        parts = SeparableParts(base, a1_parts.factors, a1_parts.angular)
        batch = parts.at_points
    else:
        parts = None
        a1_batch = a1.eval_batch if isinstance(a1, CoefficientField) else a1
        a1_zero = np.asarray(a1_batch(np.zeros((1, n))), float)[0]

        def batch(pts):
            pts = np.atleast_2d(np.asarray(pts, float))
            r = _radii(pts)
            out = a0(r) + a1_batch(pts) - a1_zero
            out[r == 0] = np.eye(n)
            return out

    # sampled ellipticity estimate on a coarse probe set
    rng = np.random.default_rng(7)
    probe = rng.normal(size=(256, n))
    probe *= (rng.uniform(1e-4, 0.99, size=256) / np.linalg.norm(probe, axis=1))[:, None]
    Ap = batch(probe)
    _assert_symmetric(Ap)
    w = np.linalg.eigvalsh(Ap)
    lam_min, lam_max = float(w[:, 0].min()), float(w[:, -1].max())
    if lam_min <= 0:
        raise FieldError(f"combined field loses ellipticity (eigenvalue {lam_min:.6g})")

    tag = FAMILY_RADIAL if a1 is None else FAMILY_PERTURBED_RADIAL
    return CoefficientField(
        dim=n, eval_batch=batch, ellipticity=(lam_min, lam_max),
        modulus=modulus, family_tag=tag, normalized=True, separable=parts,
    )


def make_custom(n: int, eval_batch: Callable, modulus: Modulus,
                ellipticity: Optional[tuple] = None,
                normalized: bool = True) -> CoefficientField:
    """Wrap an arbitrary batch evaluator.

    A probe sweep checks that its matrices are symmetric, always, and
    estimates the ellipticity when none is given.
    """
    rng = np.random.default_rng(11)
    probe = rng.normal(size=(256, n))
    probe *= (rng.uniform(1e-4, 0.99, size=256) / np.linalg.norm(probe, axis=1))[:, None]
    Ap = np.asarray(eval_batch(probe), float)
    _assert_symmetric(Ap)
    if ellipticity is None:
        w = np.linalg.eigvalsh(Ap)
        ellipticity = (float(w[:, 0].min()), float(w[:, -1].max()))
        if ellipticity[0] <= 0:
            raise FieldError(f"custom field loses ellipticity (eigenvalue {ellipticity[0]:.6g})")
    return CoefficientField(dim=n, eval_batch=eval_batch, ellipticity=ellipticity,
                            modulus=modulus, family_tag=FAMILY_CUSTOM,
                            normalized=normalized)


# below this |x| the squares of a point's coordinates may underflow
_RADIUS_UNDERFLOW = 1e-140


def _radii(pts: np.ndarray) -> np.ndarray:
    """|x| per row of ``pts``.

    Rows under _RADIUS_UNDERFLOW are scaled by their largest |x_i| first, so
    a point at 1e-300 keeps its radius (the plain norm squares it to 0); the
    other rows take the plain norm, bit for bit.
    """
    r = np.linalg.norm(pts, axis=1)
    tiny = r < _RADIUS_UNDERFLOW
    if np.any(tiny):
        p = pts[tiny]
        scale = np.max(np.abs(p), axis=1)
        unit = p / np.where(scale > 0, scale, 1.0)[:, None]
        r[tiny] = scale * np.linalg.norm(unit, axis=1)
    return r


def _is_vectorized(f, shape: tuple) -> bool:
    """Whether ``f`` maps the radii [0.25, 0.5] to an array of ``shape``."""
    try:
        out = f(np.array([0.25, 0.5]))
        return np.asarray(out).shape == shape
    except Exception:
        return False


def _assert_symmetric(A: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(A))))
    asym = float(np.max(np.abs(A - np.swapaxes(A, -1, -2))))
    if asym > 1e-14 * scale:
        raise FieldError(f"evaluator returned non-symmetric matrices (max {asym:.2e})")
