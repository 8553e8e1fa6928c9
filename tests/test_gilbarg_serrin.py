import math

import numpy as np
import pytest
from scipy.optimize import brentq

from ellipreg import appendix_system as apx
from ellipreg import dynsys, sphmean
from ellipreg import gilbarg_serrin as gs

from conftest import batched, gs_log_field, scalar_rfun
from mode_ode_reference import gs_mode_ode_solution
from rk45_reference import rk45_integrate


class TestClosedForm:
    def test_zero(self):
        gen = gs.WHITELIST["zero"]
        assert gs.closed_form_phi(gen, 2, 7.0, phi0=3.0) == 3.0

    def test_exp_decay_limit(self):
        gen = gs.WHITELIST["exp-decay"]
        val = gs.closed_form_phi(gen, 2, 50.0)
        assert val == pytest.approx(np.exp(0.5), rel=1e-14)

    def test_unbounded_growth(self):
        gen = gs.WHITELIST["one-over-1pt"]
        t = np.array([3.0, 8.0, 99.0])
        np.testing.assert_allclose(gs.closed_form_phi(gen, 2, t),
                                   (1 + t) ** 0.5, rtol=1e-13)


class TestOracleAgreement:
    @pytest.mark.parametrize("name", sorted(gs.WHITELIST))
    def test_integrator_matches_closed_form(self, name):
        # the lattice flow at its nodes, which include every point of tq
        gen = gs.WHITELIST[name]
        tol = 1e-9
        tq = np.linspace(0, 60, 301)
        flow = dynsys.refined_flow(batched(scalar_rfun(gen, 2)),
                                   np.linspace(0, 60, 601), tol, strict=True)
        want = gs.closed_form_phi(gen, 2, tq)
        got = flow.y[::(len(flow.t) - 1) // 300, 0, 0]
        assert np.max(np.abs(got - want)) < 10 * tol * max(1, np.max(np.abs(want)))


class TestCesariConstruction:
    def test_convergent_kind_postconditions(self):
        gen = gs.build_cesari_counterexample(gs.KIND_CONVERGENT_IMPROPER)
        b = gen.blocks
        # all postconditions asserted from the emitted data, not re-derived
        rises = b.block_integrals[:, 0]
        falls = b.block_integrals[:, 1]
        assert np.all(np.diff(rises) > 0)            # cumulative growth of rises
        assert np.all(rises + falls < 0)             # strict overshoot
        pair_ends = b.boundary_values[::2]
        tail = np.abs(np.diff(pair_ends))[-3:]
        assert np.all(np.diff(tail) < 0) and tail[-1] < 0.02   # Cauchy tail
        assert b.window_sup >= 5.0
        # envelope certified: |height| <= C t^-a at every plateau's right edge
        C, a = gen.envelope
        rights = b.plateau_times[1:]
        assert np.all(np.abs(b.plateau_heights) <= C * rights ** -a + 1e-12)
        # quiet tail occupies the last fifth of the horizon
        assert b.plateau_times[-1] <= 0.8 * gen.horizon

    def test_minus_infinity_kind_postconditions(self):
        gen = gs.build_cesari_counterexample(gs.KIND_MINUS_INFINITY)
        b = gen.blocks
        assert b.final_integral < -10.0
        assert b.window_sup >= 5.0
        pair_ends = b.boundary_values[::2]
        assert np.all(np.diff(pair_ends) < 0)        # monotone sinking

    @pytest.mark.parametrize("a", [0.55, 2.0 / 3.0, 0.75])
    @pytest.mark.parametrize("kind", [gs.KIND_CONVERGENT_IMPROPER,
                                      gs.KIND_MINUS_INFINITY])
    def test_schedule_edges_match_brentq(self, kind, a):
        gen = gs.build_cesari_counterexample(kind, a, horizon=1e5)
        C, _ = gen.envelope
        T = gen.blocks.plateau_times[0]
        want = [T]
        for rise, fall in gen.blocks.block_integrals:
            for mass in (rise, -fall):
                f = lambda w: C * w * (T + w) ** (-a) - mass
                hi = 8.0
                while f(hi) < 0:
                    hi *= 2
                T += brentq(f, 1e-12, hi, xtol=1e-12, rtol=8.9e-16)
                want.append(T)
        np.testing.assert_allclose(gen.blocks.plateau_times, want,
                                   rtol=1e-12, atol=0)

    def test_width_beyond_any_horizon_is_infinite(self):
        # C w^(1-a) grows too slowly to carry the mass before w = 1e12
        assert gs._plateau_width(1.5, 0.99, 1.0, 10.0) == math.inf

    def test_window_sup_grows_with_horizon(self):
        small = gs.build_cesari_counterexample(gs.KIND_CONVERGENT_IMPROPER,
                                               horizon=1e4)
        big = gs.build_cesari_counterexample(gs.KIND_CONVERGENT_IMPROPER,
                                             horizon=5e4)
        assert big.blocks.window_sup > small.blocks.window_sup

    def test_fast_decay_rejected_with_constraint(self):
        with pytest.raises(ValueError, match="binding constraint"):
            gs.build_cesari_counterexample(gs.KIND_CONVERGENT_IMPROPER,
                                           decay_exponent=0.9)

    def test_decay_exponent_range_enforced(self):
        for bad in (0.5, 1.0, 1.5):
            with pytest.raises(ValueError):
                gs.build_cesari_counterexample(gs.KIND_CONVERGENT_IMPROPER,
                                               decay_exponent=bad)

    def test_square_integrability_from_blocks(self):
        gen = gs.build_cesari_counterexample(gs.KIND_CONVERGENT_IMPROPER)
        sq = gen.blocks.sq_partials
        incs = np.diff(sq)
        assert np.all(incs > 0) and np.all(np.diff(incs)[2:] < 0)
        # increments shrink fast enough for a convergent verdict
        from ellipreg.dyadic import analyze_scalar_sequence
        v = analyze_scalar_sequence(np.arange(1, len(sq) + 1), sq, tol=1e-6)
        assert v.verdict == "converges"

    def test_cumulative_is_exact_piecewise_linear(self):
        gen = gs.build_cesari_counterexample(gs.KIND_MINUS_INFINITY)
        b = gen.blocks
        edges, heights = b.plateau_times, b.plateau_heights
        # per plateau the closed-form cumulative is exactly linear
        for i in range(len(heights)):
            a, c = edges[i], edges[i + 1]
            seg = gen.cumulative(np.array([a, (a + c) / 2, c]))
            assert seg[1] - seg[0] == pytest.approx(heights[i] * (c - a) / 2,
                                                    rel=1e-12, abs=1e-12)
            assert seg[2] - seg[0] == pytest.approx(heights[i] * (c - a),
                                                    rel=1e-12, abs=1e-12)
        # quiet before the first and after the last plateau
        assert gen.cumulative(np.array([0.5 * edges[0]]))[0] == 0.0
        assert gen.cumulative(np.array([gen.horizon]))[0] == pytest.approx(
            b.boundary_values[-1])


class TestVerifyIndependence:
    def test_smooth_stable_case(self):
        rep = gs.verify_independence(gs.WHITELIST["exp-decay"], 2, tol=1e-6,
                                     horizon=60.0)
        assert rep.asym_constant.verdict == dynsys.EVIDENCE_YES
        assert rep.uniformly_stable.verdict_uniform_stability == dynsys.EVIDENCE_STABLE

    def test_settled_square_partials_converge(self):
        # int g^2 of e^-t reaches its limit to rounding well before t = 100,
        # so the last square partials are equal and no Levin order applies
        rep = gs.verify_independence(gs.WHITELIST["exp-decay"], 2, horizon=100.0)
        assert np.diff(rep.square_partials)[-1] == 0.0
        assert rep.square_integrable_verdict == "converges"

    def test_convergent_improper_triple(self):
        gen = gs.build_cesari_counterexample(gs.KIND_CONVERGENT_IMPROPER)
        rep = gs.verify_independence(gen, 2, tol=1e-4)
        assert rep.asym_constant.verdict == dynsys.EVIDENCE_YES
        assert rep.asym_constant.residual <= 1e-4
        assert rep.uniformly_stable.verdict_uniform_stability == dynsys.EVIDENCE_UNSTABLE
        assert rep.square_integrable_verdict == "converges"

    def test_minus_infinity_unstable_while_sinking(self):
        gen = gs.build_cesari_counterexample(gs.KIND_MINUS_INFINITY)
        rep = gs.verify_independence(gen, 2, tol=1e-4)
        assert rep.running_integral_final < -10.0
        assert rep.uniformly_stable.verdict_uniform_stability == dynsys.EVIDENCE_UNSTABLE


class TestModeODE:
    def test_flat_profile_gives_constant_mode(self):
        ms = gs_mode_ode_solution(lambda r: 0.0, 2,
                                     [0.5, 0.25, 0.1, 0.02, 0.005], tol=1e-11)
        np.testing.assert_allclose(ms.v, 1.0, atol=1e-9)
        np.testing.assert_allclose(ms.rv_prime, 0.0, atol=1e-9)

    def test_power_profile_bounded_limit(self):
        rads = np.exp(-np.arange(1.0, 12.0))
        ms = gs_mode_ode_solution(lambda r: r, 2, rads, tol=1e-12)
        assert np.all(np.abs(ms.v) < 2.0)
        diffs = np.abs(np.diff(ms.v))
        assert np.all(np.diff(diffs) < 1e-12)      # settling to a finite limit
        assert 1.5 < ms.v[-1] < 1.7

    def test_log_profile_growth_rate(self):
        # slow envelope: v ~ (1 + log(1/r))^(1/2), r v'/v -> 0
        rads = np.exp(-np.arange(1.0, 10.0))
        ms = gs_mode_ode_solution(lambda r: 1 / (1 - np.log(r)), 2, rads,
                                     tol=1e-12)
        pred = (1 - np.log(ms.r)) ** 0.5
        ratio = ms.v / pred
        assert np.all(np.diff(np.abs(ms.v)) > 0)           # unbounded growth
        assert abs(ratio[-1] / ratio[-4] - 1) < 0.02       # rate matches
        assert abs(ms.rv_prime[-1] / ms.v[-1]) < 0.1       # log-derivative -> 0

    def test_minus_log_profile_decays(self):
        rads = np.exp(-np.arange(1.0, 10.0))
        ms = gs_mode_ode_solution(lambda r: -1 / (2 - np.log(r)), 2, rads,
                                     tol=1e-12)
        assert np.all(np.diff(ms.v) < 0) and ms.v[-1] > 0

    def test_tracks_reduced_system(self):
        # (phi, psi) from the mode must track the assembled 2n-system
        gfun = lambda r: 1 / (1 - np.log(np.maximum(np.asarray(r, float),
                                                    1e-300)))
        field = gs_log_field(1.0)
        n, grid = 2, sphmean.default_grid(2)
        J = apx.jordanizer(n)
        J_inv = np.linalg.inv(J)
        D = np.diag([0.0] * n + [-float(n)] * n)

        def generator(t):
            md = sphmean.appendix_moments(field, float(np.exp(-t)), grid)
            return D + J_inv @ apx.s1_matrix(md) @ J

        tol = 1e-10
        T = 4.0
        tg = np.linspace(0.0, T, 19)
        ms = gs_mode_ode_solution(gfun, 2, np.exp(-tg), tol=1e-12)
        # per-component scalar pair (v, Ftil) in the first coordinate of V
        pp = J_inv @ np.stack([ms.v, 0 * ms.v, ms.flux, 0 * ms.v])
        traj = rk45_integrate(generator, 0.0, T, pp[:, 0], tol)
        ys = traj.eval(tg)
        assert np.max(np.abs(pp[0] - ys[:, 0])) < 100 * tol
        assert np.max(np.abs(pp[2] - ys[:, 2])) < 100 * tol

    def test_grid_outside_unit_rejected(self):
        with pytest.raises(ValueError, match="r = 1"):
            gs_mode_ode_solution(lambda r: 0.0, 2, [1.5, 0.5])
