import math

import numpy as np
import pytest
from scipy import integrate as sci_integrate

from ellipreg import coeff, criteria, dynsys, sphmean
from ellipreg import gilbarg_serrin as gs
from ellipreg.coeff import inv_log_modulus, power_modulus, zero_modulus
from ellipreg.dyadic import (RATE_LOG, RATE_TO_MINUS_INF, VERDICT_CONVERGES,
                             VERDICT_DIVERGES, VERDICT_INCONCLUSIVE,
                             VERDICT_OSCILLATES)

from conftest import count_solves, gs_log_field, gs_power_field
from profile_reference import reference_profile


def scalar_tail_oracle(gfun_log, s0, tol=1e-12):
    """High-accuracy quadrature of int_{s0}^inf g(e^-s) ds in the log variable."""
    val, err = sci_integrate.quad(gfun_log, s0, np.inf, epsabs=tol, epsrel=tol,
                                  limit=500)
    assert err < 100 * tol
    return val


class TestDini:
    def test_sqrt_envelope_value(self):
        ev = criteria.dini_integral(power_modulus(0.5), eps=1.0, tol=1e-8)
        assert ev.converges
        assert ev.limit_as_float() == pytest.approx(2.0, abs=1e-8)

    def test_log_envelope_diverges(self):
        ev = criteria.dini_integral(inv_log_modulus(), tol=1e-8)
        assert ev.verdict == VERDICT_DIVERGES
        assert ev.rate_tag == RATE_LOG

    def test_zero_envelope(self):
        ev = criteria.dini_integral(zero_modulus(), tol=1e-8)
        assert ev.converges and ev.limit_as_float() == 0.0

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            criteria.dini_integral(zero_modulus(), eps=2.0)


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

    def test_constant_envelope_diverges(self):
        ev = criteria.square_dini_integral(coeff.constant_modulus(0.5), tol=1e-8)
        assert ev.verdict == VERDICT_DIVERGES
        assert ev.rate_tag == RATE_LOG

    def test_piecewise_log_envelope(self):
        m = coeff.piecewise_log_modulus((0.5 ** np.arange(1, 30)).tolist())
        ev = criteria.square_dini_integral(m, tol=1e-6)
        assert ev.converges


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
        r1, r2 = 0.01, 0.25
        want = -0.5 * math.log((2 - math.log(r1)) / (2 - math.log(r2)))
        got = criteria.mu_window_integrals(field, r1, r2)
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
        vol = criteria.volume_integral_form(field, r=0.5, k_max=k_max)
        prof = criteria.build_radial_profile(field, k_max=k_max)
        _, partials = prof.octave_partials(prof.cum_R)
        scaled = criteria.sphere_area(field.dim) * partials
        np.testing.assert_allclose(np.asarray(vol.partial_values), scaled,
                                   atol=1e-8)

    def test_constant_field_zero(self):
        f = coeff.make_constant(2, np.diag([2.0, 1.0]))
        vol = criteria.volume_integral_form(f, r=0.5, k_max=12)
        assert np.max(np.abs(np.asarray(vol.partial_values))) < 1e-12

    def test_three_dimensional_radial(self):
        f = coeff.make_gilbarg_serrin(3, lambda r: 0.3 * np.asarray(r, float),
                                      power_modulus(1.0, 0.3))
        vol = criteria.volume_integral_form(f, r=0.5, k_max=10)
        prof = criteria.build_radial_profile(f, k_max=10)
        _, partials = prof.octave_partials(prof.cum_R)
        np.testing.assert_allclose(np.asarray(vol.partial_values),
                                   4 * np.pi * partials, atol=1e-7)


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


class TestDynamicsSolves:
    @pytest.mark.parametrize("n, k_max", [(2, 30), (3, 15)])
    def test_classify_makes_two_solves(self, monkeypatch, n, k_max):
        calls = count_solves(monkeypatch)
        v = criteria.classify(gs_log_field(-1.0, shift=2.0, n=n),
                              criteria.Budget(k_max=k_max))
        assert len(calls) == 2
        assert v.evidence["dynsys_asymptotic"].residual is not None

    def test_verify_independence_makes_two_solves(self, monkeypatch):
        calls = count_solves(monkeypatch)
        gs.verify_independence(gs.WHITELIST["exp-decay"], 2, horizon=60.0)
        assert len(calls) == 2

    def test_rebased_2t0_matches_fresh_start(self):
        field = rotated_rank_one_field()
        budget = criteria.Budget(k_max=20)
        stab2 = criteria.classify(field, budget).evidence["dynsys_stability_2t0"]
        grid = sphmean.default_grid(2)
        t1 = -math.log(budget.eps) + budget.k_max * math.log(2.0)
        rfun = lambda t: sphmean.mean_matrix_R(field, math.exp(-t), grid)
        fresh = dynsys.stability_constant(dynsys.fundamental_matrix(
            rfun, np.linspace(2 * budget.dyn_t0, t1, 257), budget.dyn_tol))
        assert fresh.K_hat > 1.1
        assert stab2.verdict_uniform_stability == fresh.verdict_uniform_stability
        assert stab2.K_hat == pytest.approx(fresh.K_hat, rel=1e-7)
