import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate as sci_integrate

from ellipreg import coeff, criteria, dynsys, sphmean
from ellipreg import gilbarg_serrin as gs
from ellipreg.coeff import inv_log_modulus, power_modulus
from ellipreg.dyadic import (RATE_LOG, RATE_TO_MINUS_INF, VERDICT_CONVERGES,
                             VERDICT_DIVERGES, VERDICT_INCONCLUSIVE,
                             VERDICT_OSCILLATES, IntegralEvidence)

from conftest import gs_log_field, gs_power_field
from profile_reference import reference_profile
from rk45_reference import rk45_fundamental_matrix, rk45_integrate
from volume_form_reference import sphere_area, volume_integral_partials


def scalar_tail_oracle(gfun_log, s0, tol=1e-12):
    """High-accuracy quadrature of int_{s0}^inf g(e^-s) ds in the log variable."""
    val, err = sci_integrate.quad(gfun_log, s0, np.inf, epsabs=tol, epsrel=tol,
                                  limit=500)
    assert err < 100 * tol
    return val


class TestSquareDini:
    def test_log_envelope_exact_value(self):
        ev = criteria.square_dini_integral(inv_log_modulus(), tol=1e-8)
        assert ev.converges
        assert ev.limit_as_float() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
    def test_power_envelope_values(self, a):
        ev = criteria.square_dini_integral(power_modulus(a), tol=1e-9)
        assert ev.converges
        assert ev.limit_as_float() == pytest.approx(1 / (2 * a), abs=1e-8)

    def test_settled_tail_reports_last_partial(self):
        # omega = r: the octave pieces of int r dr fall below rounding of the
        # sum, so the tail has exactly zero increments and no Levin estimate
        ev = criteria.square_dini_integral(power_modulus(1.0), tol=1e-9)
        assert ev.partial_values[-1] == ev.partial_values[-2]
        assert ev.converges
        assert ev.limit_as_float() == ev.partial_values[-1]
        assert 0 < ev.residual <= 1e-15

    def test_constant_envelope_diverges(self):
        ev = criteria.square_dini_integral(coeff.constant_modulus(0.5), tol=1e-8)
        assert ev.verdict == VERDICT_DIVERGES
        assert ev.rate_tag == RATE_LOG

    def test_piecewise_log_envelope(self):
        m = coeff.piecewise_log_modulus((0.5 ** np.arange(1, 30)).tolist())
        ev = criteria.square_dini_integral(m, tol=1e-6)
        assert ev.converges


LN2 = math.log(2.0)


def _piecewise_square_integral(values, s):
    """int_0^s omega(e^-t)^2 dt for ``coeff.piecewise_log_modulus(values)``."""
    vals = np.asarray(values, float)
    m = int(math.floor(s / LN2))
    shells = vals[np.minimum(np.arange(m), len(vals) - 1)]
    return float(np.sum(shells ** 2) * LN2
                 + vals[min(m, len(vals) - 1)] ** 2 * (s - m * LN2))


_PIECEWISE_TABLE = 1.0 / (1.0 + np.arange(41))

# (modulus, antiderivative of omega(e^-s)^2 in s, jump points or None)
_SQUARE_DINI_ORACLES = {
    "inv-log": (inv_log_modulus(1.0, 1.0, 2.0), lambda s: -1.0 / (2.0 + s), None),
    "inv-log-sqrt": (inv_log_modulus(1.0, 0.5, 1.0), lambda s: math.log1p(s), None),
    "power": (power_modulus(0.5), lambda s: -math.exp(-s), None),
    "piecewise-log": (coeff.piecewise_log_modulus(_PIECEWISE_TABLE),
                      lambda s: _piecewise_square_integral(_PIECEWISE_TABLE, s),
                      LN2),
}


class TestSquareDiniQuadrature:
    """The numpy octave quadrature against closed forms and scipy's quad.

    Every octave piece must be within tol/10, the accuracy each octave is
    asked for.  At eps = 0.3 each octave of the piecewise table holds a
    jump (at a multiple of ln 2), which only bisection resolves.
    """

    K_MAX = 40

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    @pytest.mark.parametrize("eps", [0.5, 0.3])
    @pytest.mark.parametrize("name", sorted(_SQUARE_DINI_ORACLES))
    def test_octaves_match_closed_form_and_quad(self, name, eps, tol):
        omega, antiderivative, jump_spacing = _SQUARE_DINI_ORACLES[name]
        s0 = -math.log(eps)
        ks, partials = criteria._dyadic_quad_partials(
            lambda s: omega.log_form(s) ** 2, s0, self.K_MAX, tol)
        assert np.array_equal(ks, np.arange(1, self.K_MAX + 1))
        pieces = np.diff(partials, prepend=0.0)
        edges = s0 + LN2 * np.arange(self.K_MAX + 1)
        exact = np.diff([antiderivative(e) for e in edges])
        assert np.max(np.abs(pieces - exact)) <= tol / 10

        F = lambda s: float(omega.log_form(np.array([s]))[0]) ** 2
        oracle = []
        for a, b in zip(edges[:-1], edges[1:]):
            points = None
            if jump_spacing is not None:
                inside = jump_spacing * np.arange(math.ceil(a / jump_spacing),
                                                  math.floor(b / jump_spacing) + 1)
                points = [p for p in inside if a < p < b] or None
            oracle.append(sci_integrate.quad(F, a, b, epsabs=1e-14, epsrel=1e-14,
                                             limit=200, points=points)[0])
        assert np.max(np.abs(pieces - np.array(oracle))) <= tol / 10
        assert np.max(np.abs(np.array(oracle) - exact)) <= 1e-12

    def test_nonfinite_envelope_stops(self):
        # a piece that never settles ends with its estimate, not a hang
        ks, partials = criteria._dyadic_quad_partials(
            lambda s: np.full_like(s, np.nan), 0.0, 3, 1e-6)
        assert np.all(np.isnan(partials))


class TestCumulativeSimpson:
    """criteria._cumulative against scipy's cumulative_simpson."""

    @staticmethod
    def _data(M, shape):
        rng = np.random.default_rng(M)
        s = -math.log(0.3) + np.arange(M) * (LN2 / 32)
        trend = (2.0 + np.sin(3.0 * s)).reshape((M,) + (1,) * len(shape))
        return s, trend + 0.1 * rng.standard_normal((M,) + shape)

    @pytest.mark.parametrize("shape", [(), (3, 3)])
    @pytest.mark.parametrize("M", [3, 4, 640, 641, 1281])
    def test_matches_scipy(self, M, shape):
        s, vals = self._data(M, shape)
        got = criteria._cumulative(vals, s)
        want = sci_integrate.cumulative_simpson(vals, x=s, axis=0, initial=0)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("M", [640, 641])
    def test_even_nodes_are_simpson_pair_sums(self, M):
        s, f = self._data(M, ())
        h = s[1] - s[0]
        pairs = np.cumsum(h / 3 * (f[0:-2:2] + 4 * f[1:-1:2] + f[2::2]))
        np.testing.assert_allclose(criteria._cumulative(f, s)[2::2], pairs,
                                   rtol=1e-13, atol=0)

    def test_two_nodes_trapezoid(self):
        s = np.array([0.0, 0.5])
        got = criteria._cumulative(np.array([1.0, 3.0]), s)
        assert np.array_equal(got, [0.0, 1.0])


class TestCondition11:
    def test_identity_bounded_at_zero(self, identity_field):
        prof = criteria.build_radial_profile(identity_field)
        rep = criteria.check_condition_11(prof)
        assert rep.bounded and rep.K_hat == pytest.approx(0.0, abs=1e-13)

    def test_negative_log_profile_bounded(self):
        field = gs_log_field(-1.0, shift=2.0)
        prof = criteria.build_radial_profile(field)
        rep = criteria.check_condition_11(prof)
        assert rep.bounded
        assert rep.K_hat == pytest.approx(0.0, abs=1e-12)

    def test_positive_log_profile_unbounded(self):
        field = gs_log_field(1.0, shift=2.0)
        prof = criteria.build_radial_profile(field)
        rep = criteria.check_condition_11(prof)
        assert not rep.bounded
        # the sup sequence grows like log log (1/r): compare two depths
        assert rep.sup_values[-1] > rep.sup_values[len(rep.sup_values) // 2]

    def test_window_integral_against_closed_form(self):
        field = gs_log_field(-1.0, shift=2.0)
        # int mu d(rho)/rho = (1/2) int g d(rho)/rho = -(1/2) log((2-ln r1)/(2-ln r2))
        r1, r2 = 2.0 ** -7, 0.25
        want = -0.5 * math.log((2 - math.log(r1)) / (2 - math.log(r2)))
        prof = criteria.build_radial_profile(field)
        i1, i2 = prof.octave_idx[[1, 6]]       # eps = 1/2: octave edges 2^-2, 2^-7
        np.testing.assert_allclose(np.exp(-prof.s_nodes[[i1, i2]]), [r2, r1],
                                   rtol=1e-14)
        got = prof.cum_mu[i2] - prof.cum_mu[i1]
        assert got == pytest.approx(want, abs=1e-8)


class TestPvIntegral:
    def test_radial_field_zero(self, identity_field):
        prof = criteria.build_radial_profile(identity_field)
        ev = criteria.pv_integral_R(prof)
        assert ev.converges
        np.testing.assert_allclose(ev.limit, 0, atol=1e-13)

    def test_log_squared_value_vs_scalar_oracle(self):
        field = gs_log_field(1.0, power=2.0)
        prof = criteria.build_radial_profile(field)
        ev = criteria.pv_integral_R(prof)
        assert ev.converges
        # R = ((1-n)/n) g I; oracle integrates g in the log variable
        oracle = scalar_tail_oracle(lambda s: 1.0 / (1.0 + s) ** 2,
                                    -math.log(prof.eps))
        want = -0.5 * oracle * np.eye(2)
        np.testing.assert_allclose(ev.limit, want, atol=5e-6)

    def test_alternating_blocks_oscillate(self):
        # piecewise profile +-h on log-shells, non-decaying block sums;
        # jumps sit half a shell off the sampling lattice so every node is
        # strictly inside a plateau
        vals = 0.3 * (-1.0) ** np.arange(40)

        def g(r):
            r = np.maximum(np.asarray(r, float), 1e-300)
            k = np.clip(np.floor(-np.log2(r) + 0.5), 0, 39).astype(int)
            return vals[k]

        field = coeff.make_gilbarg_serrin(2, g, coeff.constant_modulus(0.3))
        prof = criteria.build_radial_profile(field)
        ev = criteria.pv_integral_R(prof)
        assert ev.verdict in (VERDICT_OSCILLATES, VERDICT_INCONCLUSIVE)
        assert ev.verdict != VERDICT_CONVERGES


class TestCondition12b:
    def test_radial_zero(self, identity_field):
        prof = criteria.build_radial_profile(identity_field)
        ev = criteria.l1_condition_12b(prof)
        assert ev.converges and abs(ev.limit_as_float()) < 1e-13

    def test_log_squared_value_vs_scalar_oracle(self):
        field = gs_log_field(1.0, power=2.0)
        prof = criteria.build_radial_profile(field, k_max=30)
        ev = criteria.l1_condition_12b(prof)
        assert ev.converges
        # scalar reduction: |R| = g/2 = (1+s)^-2 / 2, the inner ordered
        # integral up to radius e^-s is the tail (1+s)^-1 / 2, so the
        # integrand in the log variable is (1/4)(1+s)^-3
        s0 = -math.log(prof.eps)
        want = scalar_tail_oracle(lambda s: 0.25 / (1 + s) ** 3, s0)
        assert ev.limit_as_float() == pytest.approx(want, abs=5e-6)

    def test_log_envelope_inconclusive_on_divergent_inner(self):
        field = gs_log_field(1.0)
        prof = criteria.build_radial_profile(field)
        ev = criteria.l1_condition_12b(prof)
        assert ev.verdict == VERDICT_INCONCLUSIVE
        assert "inner" in ev.detail.get("reason", "")


class TestIterated:
    def test_radial_all_levels_zero(self, identity_field):
        prof = criteria.build_radial_profile(identity_field)
        rep = criteria.iterated_condition_13(prof)
        assert rep.level1_ordered.converges and rep.level1_l1.converges
        assert rep.level2_passes
        assert abs(rep.level2_ordered.limit).max() < 1e-13

    def test_log_squared_level2(self):
        field = gs_log_field(1.0, power=2.0)
        prof = criteria.build_radial_profile(field)
        rep = criteria.iterated_condition_13(prof)
        assert rep.level1_ordered.converges
        assert rep.level2_passes

    def test_divergent_inner_propagates(self):
        field = gs_log_field(1.0)
        prof = criteria.build_radial_profile(field)
        rep = criteria.iterated_condition_13(prof)
        assert rep.level2_ordered is None
        assert not rep.level2_passes


class TestDivergence15:
    def test_negative_log_sinks(self):
        field = gs_log_field(-1.0, shift=2.0)
        prof = criteria.build_radial_profile(field)
        ev = criteria.divergence_condition_15(prof)
        assert ev.verdict == VERDICT_DIVERGES
        assert ev.rate_tag == RATE_TO_MINUS_INF

    def test_positive_log_grows(self):
        field = gs_log_field(1.0, shift=2.0)
        prof = criteria.build_radial_profile(field)
        ev = criteria.divergence_condition_15(prof)
        assert not (ev.verdict == VERDICT_DIVERGES
                    and ev.rate_tag == RATE_TO_MINUS_INF)

    def test_identity_converges_to_zero(self, identity_field):
        prof = criteria.build_radial_profile(identity_field)
        ev = criteria.divergence_condition_15(prof)
        assert ev.converges and abs(ev.limit_as_float()) < 1e-13


class TestVolumeForm:
    @pytest.mark.parametrize("field_fn,label", [
        (lambda: gs_power_field(0.5), "gs-sqrt"),
        (lambda: gs_log_field(1.0, power=2.0), "gs-logsq"),
    ])
    def test_matches_scaled_ordered_integral(self, field_fn, label):
        field = field_fn()
        k_max = 18
        vol = volume_integral_partials(field, r=0.5, k_max=k_max)
        prof = criteria.build_radial_profile(field, k_max=k_max)
        _, partials = prof.octave_partials(prof.cum_R)
        np.testing.assert_allclose(vol, sphere_area(field.dim) * partials,
                                   atol=1e-8)

    def test_constant_field_zero(self):
        f = coeff.make_constant(2, np.diag([2.0, 1.0]))
        vol = volume_integral_partials(f, r=0.5, k_max=12)
        assert np.max(np.abs(vol)) < 1e-12

    def test_three_dimensional_radial(self):
        f = coeff.make_gilbarg_serrin(3, lambda r: 0.3 * np.asarray(r, float),
                                      power_modulus(1.0, 0.3))
        vol = volume_integral_partials(f, r=0.5, k_max=10)
        prof = criteria.build_radial_profile(f, k_max=10)
        _, partials = prof.octave_partials(prof.cum_R)
        np.testing.assert_allclose(vol, 4 * np.pi * partials, atol=1e-7)


class TestAMinusI:
    def test_power_envelope_converges(self):
        prof = criteria.build_radial_profile(gs_power_field(0.5))
        ev = criteria.condition_A_minus_I(prof)
        assert ev.converges

    def test_log_envelope_diverges(self):
        prof = criteria.build_radial_profile(gs_log_field(1.0))
        ev = criteria.condition_A_minus_I(prof)
        assert ev.verdict == VERDICT_DIVERGES and ev.rate_tag == RATE_LOG

    def test_identity_zero(self, identity_field):
        prof = criteria.build_radial_profile(identity_field)
        ev = criteria.condition_A_minus_I(prof)
        assert ev.converges and abs(ev.limit_as_float()) < 1e-13


PROFILE_FIELDS = [
    lambda: gs_log_field(-1.0, shift=2.0),
    lambda: gs_power_field(0.5),
    lambda: coeff.make_perturbed_radial(
        2, lambda r: (1.0 + r) * np.eye(2), modulus=power_modulus(1.0)),
    lambda: gs_log_field(-1.0, shift=2.0, n=3),
]


class TestProfileMatchesReference:
    """The profile and the deviation condition equal the one-sweep reference."""

    @pytest.mark.parametrize("field_fn", PROFILE_FIELDS)
    def test_profile_arrays_bit_equal(self, field_fn):
        field = field_fn()
        k_max = 8 if field.dim == 3 else 20
        prof = criteria.build_radial_profile(field, k_max=k_max)
        ref = reference_profile(field, k_max=k_max)
        for name in ("s_nodes", "R_nodes", "mu_nodes", "cum_R", "cum_mu",
                     "octave_idx"):
            assert np.array_equal(getattr(prof, name), getattr(ref, name)), name
        assert prof.grid.dim == field.dim

    @pytest.mark.parametrize("field_fn", PROFILE_FIELDS)
    def test_deviation_partials_bit_equal(self, field_fn):
        field = field_fn()
        k_max = 8 if field.dim == 3 else 20
        ev = criteria.condition_A_minus_I(
            criteria.build_radial_profile(field, k_max=k_max))
        ref = reference_profile(field, k_max=k_max)
        assert np.array_equal(ev.partial_values,
                              ref.cum_absdev[ref.octave_idx[1:]])

    @pytest.mark.parametrize("radii_per_chunk", [1, 7])
    @pytest.mark.parametrize("field_fn", PROFILE_FIELDS)
    def test_chunked_sweep_bit_equal(self, field_fn, radii_per_chunk,
                                     monkeypatch):
        # a 2-D profile is one chunk at the default size; chunks of one radius
        # and a size that leaves a ragged last chunk must not change a bit
        field = field_fn()
        k_max = 8 if field.dim == 3 else 20
        grid = sphmean.default_grid(field.dim)
        monkeypatch.setattr(sphmean, "_SWEEP_CHUNK_DOUBLES",
                            radii_per_chunk * grid.nodes.size * field.dim)
        prof = criteria.build_radial_profile(field, k_max=k_max)
        ref = reference_profile(field, k_max=k_max)
        for name in ("R_nodes", "mu_nodes", "cum_R", "cum_mu"):
            assert np.array_equal(getattr(prof, name), getattr(ref, name)), name
        ev = criteria.condition_A_minus_I(prof)
        assert np.array_equal(ev.partial_values,
                              ref.cum_absdev[ref.octave_idx[1:]])

    def test_profile_memory_does_not_grow_with_depth(self):
        field = gs_log_field(-1.0, shift=2.0, n=3)
        peaks = {}
        for k_max in (10, 40):
            tracemalloc.start()
            try:
                criteria.build_radial_profile(field, k_max=k_max)
                peaks[k_max] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[40] <= 1.1 * peaks[10]
        assert peaks[40] < 64e6

    def test_profile_keeps_its_grid(self):
        grid = sphmean.sphere_grid(2, 48)
        prof = criteria.build_radial_profile(gs_power_field(0.5), k_max=10,
                                             grid=grid)
        assert prof.grid is grid
        ref = reference_profile(gs_power_field(0.5), k_max=10, grid=grid)
        ev = criteria.condition_A_minus_I(prof)
        assert np.array_equal(ev.partial_values,
                              ref.cum_absdev[ref.octave_idx[1:]])

    def test_classify_3d_eigendecomposes_only_the_profile(self, monkeypatch):
        # the classifier never reads the deviation of A from I, so it must
        # not decompose the field samples: one S per profile node at most
        budget = criteria.Budget(k_max=10)
        M = budget.k_max * budget.nodes_per_octave + 1
        decomposed = []
        inner = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            decomposed.append(int(np.prod(np.shape(a)[:-2])))
            return inner(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        criteria.classify(gs_log_field(-1.0, shift=2.0, n=3), budget)
        assert 0 < sum(decomposed) <= 2 * M


class TestHierarchy:
    @pytest.mark.parametrize("field_fn", [
        lambda: coeff.make_constant(2, np.eye(2)),
        lambda: gs_power_field(0.5),
        lambda: gs_power_field(0.25, c=-0.5),
        lambda: gs_log_field(1.0, power=2.0),
        lambda: coeff.make_perturbed_radial(
            2, lambda r: (1.0 + r) * np.eye(2), modulus=power_modulus(1.0)),
    ])
    def test_entrywise_integrability_implies_refined_conditions(self, field_fn):
        field = field_fn()
        prof = criteria.build_radial_profile(field)
        if criteria.condition_A_minus_I(prof).converges:
            pv = criteria.pv_integral_R(prof)
            assert pv.converges
            assert criteria.l1_condition_12b(prof, pv=pv).converges


class TestClassify:
    def test_identity_differentiable(self, identity_field):
        v = criteria.classify(identity_field)
        assert v.classification == criteria.CLASS_DIFFERENTIABLE
        assert criteria.soundness_check(v)

    def test_negative_log_zero_gradient(self):
        field = gs_log_field(-1.0, shift=2.0)
        v = criteria.classify(field)
        assert v.classification == criteria.CLASS_ZERO_GRADIENT
        assert v.route == criteria.ROUTE_COR3
        assert v.evidence["condition_11"].bounded
        assert criteria.soundness_check(v)

    def test_positive_log_inconclusive_with_unstable_evidence(self):
        field = gs_log_field(1.0, shift=2.0)
        v = criteria.classify(field)
        assert v.classification == criteria.CLASS_INCONCLUSIVE
        stab = v.evidence["dynsys_stability"]
        assert stab.verdict_uniform_stability == dynsys.EVIDENCE_UNSTABLE

    def test_log_squared_differentiable_via_ordered_route(self):
        field = gs_log_field(1.0, power=2.0)
        v = criteria.classify(field)
        assert v.classification == criteria.CLASS_DIFFERENTIABLE
        assert v.route == criteria.ROUTE_COR2

    def test_non_normalized_rejected(self):
        f = coeff.make_constant(2, np.diag([2.0, 1.0]))
        with pytest.raises(coeff.FieldError, match="non-normalized"):
            criteria.classify(f)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="k_max"):
            criteria.classify(coeff.make_constant(2, np.eye(2)),
                              criteria.Budget(k_max=50))
        with pytest.raises(ValueError, match="positive"):
            criteria.Budget(tol=-1.0).validate()

    def test_monotone_refinement(self):
        # deepening the dyadic window never flips converges to diverges
        field = gs_log_field(1.0, power=2.0)
        verdicts = []
        for k_max in (10, 15, 20):
            prof = criteria.build_radial_profile(field, k_max=k_max)
            verdicts.append(criteria.pv_integral_R(prof).verdict)
        assert VERDICT_DIVERGES not in verdicts
        assert verdicts[-1] == VERDICT_CONVERGES

    def test_route_soundness_sweep(self):
        fields = [gs_power_field(0.5), gs_log_field(-1.0, shift=2.0),
                  gs_log_field(1.0, power=2.0)]
        for f in fields:
            assert criteria.soundness_check(criteria.classify(f))

    def test_three_dimensional_zero_gradient(self):
        field = gs_log_field(-1.0, shift=2.0, n=3)
        v = criteria.classify(field, criteria.Budget(k_max=25))
        assert v.classification == criteria.CLASS_ZERO_GRADIENT
        assert v.route == criteria.ROUTE_COR3
        assert criteria.soundness_check(v)

    def test_piecewise_envelope_field(self):
        vals = (0.6 * 0.7 ** np.arange(40)).tolist()
        field = coeff.make_perturbed_radial(
            2, lambda r: (1.0 + min(r, 1.0) * 0.3) * np.eye(2),
            modulus=coeff.piecewise_log_modulus(vals))
        v = criteria.classify(field, criteria.Budget(k_max=20))
        assert v.classification == criteria.CLASS_DIFFERENTIABLE

    def test_start_time_sensitivity_attached(self, identity_field):
        v = criteria.classify(identity_field)
        assert "dynsys_stability_2t0" in v.evidence
        assert (v.evidence["dynsys_stability_2t0"].verdict_uniform_stability
                == dynsys.EVIDENCE_STABLE)


# The benchmark's rank-one lab fields, g = c/log(e^K/r)^p or g = c r^a with
# omega = |g|, and the class the paper's criteria give each of them.
LAB_FIELDS = [
    (("log", -1.0, 2.0, 1.0), criteria.CLASS_ZERO_GRADIENT),
    (("log", 1.0, 2.0, 1.0), criteria.CLASS_INCONCLUSIVE),
    (("log", 1.0, 1.0, 2.0), criteria.CLASS_DIFFERENTIABLE),
    (("log", -0.5, 1.0, 2.0), criteria.CLASS_DIFFERENTIABLE),
    (("power", 1.0, 0.5), criteria.CLASS_DIFFERENTIABLE),
    (("power", -0.5, 0.5), criteria.CLASS_DIFFERENTIABLE),
]


def lab_field(spec, n):
    if spec[0] == "log":
        _, c, K, p = spec
        return gs_log_field(c, shift=K, n=n, power=p)
    _, c, a = spec
    return gs_power_field(a, c=c, n=n)


def closed_form_limits(spec, n, eps):
    """Exact square-Dini and ordered-R limits; the latter None if divergent.

    In s = -ln r the envelope is c/(K + s)^p or c e^(-a s), and for a
    rank-one field R = -nu g I with nu = (n - 1)/n, so both limits are
    elementary integrals from s0 = -ln eps.
    """
    s0 = -math.log(eps)
    nu = (n - 1) / n
    if spec[0] == "log":
        _, c, K, p = spec
        sq = c * c * (K + s0) ** (1 - 2 * p) / (2 * p - 1)
        g_int = c * (K + s0) ** (1 - p) / (p - 1) if p > 1 else None
    else:
        _, c, a = spec
        sq = c * c * eps ** (2 * a) / (2 * a)
        g_int = c * eps ** a / a
    return sq, None if g_int is None else -nu * g_int * np.eye(n)


class TestClosedFormOracle:
    """Lab-field verdicts against the exact rank-one reduction, by depth."""

    RUNS = ([(spec, want, 2, k) for spec, want in LAB_FIELDS
             for k in (20, 25, 30, 35, 40)]
            + [(*LAB_FIELDS[0], 3, 40)])

    @pytest.mark.parametrize("spec, want, n, k_max", RUNS, ids=[
        "-".join(map(str, (*spec, f"{n}d", f"k{k}"))) for spec, _, n, k in RUNS])
    def test_lab_field(self, spec, want, n, k_max):
        budget = criteria.Budget(k_max=k_max)
        v = criteria.classify(lab_field(spec, n), budget)
        assert v.classification == want
        ev = v.evidence
        items = [e for e in ev.values() if isinstance(e, IntegralEvidence)]
        if "iterated_13" in ev:
            items += [e for e in vars(ev["iterated_13"]).values() if e is not None]
        for e in items:
            if e.verdict == VERDICT_CONVERGES:
                assert e.residual <= 10 * budget.tol
        sq, pv = closed_form_limits(spec, n, budget.eps)
        assert ev["square_dini"].limit_as_float() == pytest.approx(
            sq, abs=10 * budget.tol)
        if pv is not None:
            assert ev["pv_12a"].converges
            np.testing.assert_allclose(ev["pv_12a"].limit, pv, rtol=0,
                                       atol=10 * budget.tol)

    @pytest.mark.parametrize("eps", [0.5, 0.25])
    def test_square_dini_reads_eps(self, eps):
        # omega = r^0.5: int_0^eps omega^2 dr/r = eps
        v = criteria.classify(gs_power_field(0.5), criteria.Budget(eps=eps))
        sq = v.evidence["square_dini"]
        assert sq.converges
        assert sq.limit_as_float() == pytest.approx(eps, abs=10 * v.budget.tol)


def rotated_rank_one_field(c=0.6, turn=0.6):
    """A = I + g e e^T, g = c/(2 - log r), e the radial direction turned by `turn`.

    Its mean matrix R is -g cos(turn) times the rotation by `turn`, so the
    log-time flow is a genuine 2x2 system, not a scalar one.
    """
    def batch(pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        r = np.linalg.norm(pts, axis=1)
        ang = np.arctan2(pts[:, 1], pts[:, 0]) + turn
        e = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        g = c / (2.0 - np.log(np.maximum(r, 1e-300)))
        out = np.eye(2) + g[:, None, None] * e[:, :, None] * e[:, None, :]
        out[r == 0] = np.eye(2)
        return out
    return coeff.make_custom(2, batch, inv_log_modulus(c=c, shift=2.0))


def adaptive_dynamics(field, budget):
    """The classifier's three dynamics items from RK45 solves on R(t)."""
    grid = budget.sphere_grid(field.dim)
    t0 = budget.dyn_t0
    t1 = -math.log(budget.eps) + budget.k_max * math.log(2.0)
    rfun = lambda t: sphmean.mean_matrix_R(field, math.exp(-t), grid)
    tg = np.linspace(t0, t1, 257)
    traj = rk45_integrate(rfun, t0, t1, np.eye(field.dim), budget.dyn_tol)
    Phi = traj.eval(tg)
    Phi[0] = np.eye(field.dim)
    tg2 = np.linspace(2 * t0, t1, 257)
    Phi2 = rk45_fundamental_matrix(rfun, tg2, budget.dyn_tol)
    return (dynsys.stability_constant(dynsys.FundamentalMatrixTrack(tg, Phi)),
            dynsys.stability_constant(dynsys.FundamentalMatrixTrack(tg2, Phi2)),
            dynsys.asymptotic_limit(lambda t: traj.eval(t)[:, :, 0], t0, t1,
                                    tol=budget.asi_tol))


class TestDynamicsSolves:
    @pytest.mark.parametrize("n, k_max", [(2, 30), (3, 15)])
    def test_classify_sweeps_only_the_profile(self, monkeypatch, n, k_max):
        # the flow steps the profile's own R samples: one sphere sweep, the
        # profile's, and no single-radius sphere quadrature
        sweeps, means = [], []
        inner_many, inner = criteria.mean_matrix_R_many, sphmean.mean_matrix_R

        def counted_many(*args, **kwargs):
            sweeps.append(args[1])
            return inner_many(*args, **kwargs)

        def counted(*args, **kwargs):
            means.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(criteria, "mean_matrix_R_many", counted_many)
        for module in (sphmean, criteria):
            monkeypatch.setattr(module, "mean_matrix_R", counted, raising=False)
        v = criteria.classify(gs_log_field(-1.0, shift=2.0, n=n),
                              criteria.Budget(k_max=k_max))
        assert len(sweeps) == 1 and means == []
        assert v.evidence["dynsys_asymptotic"].residual is not None

    @pytest.mark.parametrize("change, sweeps", [
        ({"eps": 0.25}, 2),              # the lattice reaches below the profile
        ({"dyn_t0": 1.0}, 1),            # a start off the lattice
        ({"nodes_per_octave": 4}, 3),    # the lattice is halved twice
        # 95 intervals: the flow starts one node below the profile
        ({"nodes_per_octave": 5, "k_max": 19}, 3),
        # 95 intervals from r = 1: the node below lies outside the unit
        # ball, so the flow ends one node deeper instead
        ({"nodes_per_octave": 5, "k_max": 18, "dyn_t0": 0.0}, 4),
    ])
    def test_lattice_flow_matches_adaptive_solve(self, monkeypatch, change, sweeps):
        field = rotated_rank_one_field()
        budget = criteria.Budget(**{"k_max": 20, **change})
        radii = []
        inner = criteria.mean_matrix_R_many

        def counted(*args, **kwargs):
            radii.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(criteria, "mean_matrix_R_many", counted)
        ev = criteria.classify(field, budget).evidence
        assert len(radii) == sweeps
        assert max(np.max(r) for r in radii) <= 1 + 1e-12
        stab, stab2, asym = adaptive_dynamics(field, budget)
        assert stab.K_hat > 1.1
        for key, want in (("dynsys_stability", stab), ("dynsys_stability_2t0", stab2)):
            got = ev[key]
            assert got.verdict_uniform_stability == want.verdict_uniform_stability
            assert got.K_hat == pytest.approx(want.K_hat, rel=1e-7)
        assert ev["dynsys_asymptotic"].verdict == asym.verdict

    def test_verify_independence_steps_no_flow(self, monkeypatch):
        # a scalar generator's flow is its closed form: no lattice is swept
        sweeps = []
        inner = dynsys.lattice_flow

        def counted(*args, **kwargs):
            sweeps.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(dynsys, "lattice_flow", counted)
        rep = gs.verify_independence(gs.WHITELIST["exp-decay"], 2, horizon=60.0)
        assert sweeps == []
        assert rep.asym_constant.limit[0] == pytest.approx(np.exp(0.5), rel=1e-12)

    def test_rebased_2t0_matches_fresh_start(self):
        field = rotated_rank_one_field()
        budget = criteria.Budget(k_max=20)
        stab2 = criteria.classify(field, budget).evidence["dynsys_stability_2t0"]
        grid = sphmean.default_grid(2)
        t1 = -math.log(budget.eps) + budget.k_max * math.log(2.0)
        rfun = lambda t: sphmean.mean_matrix_R(field, math.exp(-t), grid)
        tg = np.linspace(2 * budget.dyn_t0, t1, 257)
        fresh = dynsys.stability_constant(dynsys.FundamentalMatrixTrack(
            tg, rk45_fundamental_matrix(rfun, tg, budget.dyn_tol)))
        assert fresh.K_hat > 1.1
        assert stab2.verdict_uniform_stability == fresh.verdict_uniform_stability
        assert stab2.K_hat == pytest.approx(fresh.K_hat, rel=1e-7)
