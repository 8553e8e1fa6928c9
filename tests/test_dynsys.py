import numpy as np
import pytest

from ellipreg import dynsys
from ellipreg import gilbarg_serrin as gs

from conftest import count_solves
from fundamental_reference import fundamental_matrix_by_columns


def rot(t):
    return np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestSpectralNorms:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_near_scalar_2x2_matches_svd(self, seed):
        # Phi ~ phi I for every rank-one field: the singular values nearly
        # coincide, where a discriminant form cancels down to sqrt(eps)
        rng = np.random.default_rng(seed)
        phi = np.exp(rng.uniform(-5, 5, size=500))
        mats = phi[:, None, None] * (np.eye(2)
                                     + 1e-9 * rng.normal(size=(500, 2, 2)))
        want = np.linalg.svd(mats, compute_uv=False)[:, 0]
        got = dynsys.spectral_norms(mats)
        assert np.max(np.abs(got - want) / want) <= 1e-14

    def test_general_2x2_matches_svd(self):
        rng = np.random.default_rng(7)
        mats = rng.normal(size=(1000, 2, 2))
        want = np.linalg.svd(mats, compute_uv=False)[:, 0]
        np.testing.assert_allclose(dynsys.spectral_norms(mats), want, rtol=1e-13)


class TestIntegrate:
    def test_zero_generator_constant(self):
        traj = dynsys.integrate_system(lambda t: np.zeros((2, 2)), 0, 20,
                                       [1.0, 0.0], 1e-10)
        np.testing.assert_allclose(traj.y, np.tile([1.0, 0.0], (len(traj.t), 1)),
                                   atol=1e-12)

    def test_scalar_closed_form(self):
        # d(phi)/dt = (1/2) e^-t phi: phi(inf) = e^(1/2)
        gen = gs.WHITELIST["exp-decay"]
        traj = dynsys.integrate_system(gs.scalar_rfun(gen, 2), 0, 40, [1.0], 1e-10)
        assert traj.y[-1, 0] == pytest.approx(np.exp(0.5), abs=1e-9)

    def test_rotation_preserves_norm(self):
        traj = dynsys.integrate_system(rot, 0, 25, [1.0, 0.0], 1e-10)
        norms = np.linalg.norm(traj.y, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-8)
        tq = np.linspace(0, 25, 100)
        ys = traj.eval(tq)
        np.testing.assert_allclose(ys[:, 0], np.cos(tq), atol=1e-8)

    def test_bad_span_rejected(self):
        with pytest.raises(ValueError):
            dynsys.integrate_system(rot, 1.0, 1.0, [1.0, 0.0])

    def test_breakpoints_respected(self):
        gen = gs.build_cesari_counterexample(gs.KIND_CONVERGENT_IMPROPER,
                                             horizon=1e4)
        rfun = gs.scalar_rfun(gen, 2)
        traj = dynsys.integrate_system(rfun, 0, 200, [1.0], 1e-10,
                                       breakpoints=gen.breakpoints)
        want = np.exp(0.5 * gen.cumulative(np.array([200.0]))[0])
        assert traj.y[-1, 0] == pytest.approx(want, rel=1e-8)


class TestFundamentalMatrix:
    def test_zero_generator_identity(self):
        tg = np.linspace(0, 10, 21)
        track = dynsys.fundamental_matrix(lambda t: np.zeros((2, 2)), tg, 1e-10)
        np.testing.assert_allclose(track.Phi,
                                   np.tile(np.eye(2), (21, 1, 1)), atol=1e-12)
        assert np.all(track.step_error < 1e-12)

    def test_scalar_closed_form(self):
        gen = gs.WHITELIST["one-over-1pt"]
        tg = np.linspace(0, 60, 61)
        track = dynsys.fundamental_matrix(gs.scalar_rfun(gen, 2), tg, 1e-10)
        want = (1 + tg) ** 0.5
        np.testing.assert_allclose(track.Phi[:, 0, 0], want, rtol=1e-8)

    def test_diagonal_decoupling(self):
        def gen(t):
            return np.diag([np.exp(-t), 2 * np.exp(-t)])
        tg = np.linspace(0, 30, 31)
        track = dynsys.fundamental_matrix(gen, tg, 1e-10)
        np.testing.assert_allclose(track.Phi[:, 0, 0],
                                   np.exp(-(1 - np.exp(-tg))), rtol=1e-8)
        np.testing.assert_allclose(track.Phi[:, 1, 1],
                                   np.exp(-2 * (1 - np.exp(-tg))), rtol=1e-8)
        np.testing.assert_allclose(track.Phi[:, 0, 1], 0, atol=1e-10)

    def test_determinant_never_vanishes(self):
        tg = np.linspace(0, 20, 41)
        track = dynsys.fundamental_matrix(rot, tg, 1e-9)
        dets = np.linalg.det(track.Phi)
        assert np.all(np.abs(dets) > 0.9)   # trace-free: |det| = 1

    def test_determinant_within_trace_bound(self):
        # |det Phi(t)| = exp(-int tr R) lies inside exp(+-int |tr R|)
        gen = lambda t: np.array([[0.3 * np.exp(-t), 0.7],
                                  [-0.7, -0.1 / (1 + t)]])
        tg = np.linspace(0, 12, 25)
        track = dynsys.fundamental_matrix(gen, tg, 1e-10)
        dets = np.abs(np.linalg.det(track.Phi))
        tr = lambda t: abs(0.3 * np.exp(-t)) + abs(0.1 / (1 + t))
        from scipy.integrate import quad
        for k, t in enumerate(tg):
            bound, _ = quad(tr, 0, t)
            assert np.exp(-bound) - 1e-8 <= dets[k] <= np.exp(bound) + 1e-8

    def test_stepper_failure_names_time(self):
        # coefficient blowing up at t = 1 along the growing direction
        # forces step-size underflow; the failure names the time
        blow = lambda t: np.array([[-1.0 / (1.0 - t) ** 2]])
        with pytest.raises(dynsys.IntegrationError, match="t = 0.99"):
            dynsys.integrate_system(blow, 0.0, 2.0, [1.0], 1e-10)

    def test_refinement_stability(self):
        gen = gs.WHITELIST["exp-decay"]
        tg = np.linspace(0, 30, 31)
        t1 = dynsys.fundamental_matrix(gs.scalar_rfun(gen, 2), tg, 1e-8)
        t2 = dynsys.fundamental_matrix(gs.scalar_rfun(gen, 2), tg, 0.5e-8)
        assert np.max(np.abs(t1.Phi - t2.Phi)) < 10 * 1e-8

    def test_semigroup_property(self):
        # Phi(t) Phi(s)^-1 equals the fundamental matrix restarted at s
        gen = lambda t: np.array([[0.3 * np.exp(-0.5 * t), 0.5],
                                  [-0.5, 0.1 / (1 + t)]])
        tg = np.linspace(0, 12, 25)
        track = dynsys.fundamental_matrix(gen, tg, 1e-10)
        rng = np.random.default_rng(3)
        for _ in range(10):
            i, j = sorted(rng.integers(0, 25, 2))
            if i == j:
                continue
            s, t = tg[i], tg[j]
            direct = track.Phi[j] @ np.linalg.inv(track.Phi[i])
            restart = dynsys.fundamental_matrix(gen, np.array([s, t]), 1e-10)
            np.testing.assert_allclose(direct, restart.Phi[-1], atol=100 * 1e-10)


def diag_gen(t):
    return np.diag([np.exp(-t), 2 * np.exp(-t)])


def mixed_gen(t):
    return np.array([[0.3 * np.exp(-t), 0.7], [-0.7, -0.1 / (1 + t)]])


class TestMatrixState:
    def test_matrix_state_shapes(self):
        traj = dynsys.integrate_system(rot, 0, 5, np.eye(2), 1e-9)
        assert traj.y.shape == (len(traj.t), 2, 2)
        assert traj.eval([1.0, 2.0]).shape == (2, 2, 2)
        with pytest.raises(ValueError, match="shape"):
            dynsys.integrate_system(rot, 0, 5, np.eye(3), 1e-9)

    @pytest.mark.parametrize("gen", [rot, diag_gen, mixed_gen],
                             ids=["rotation", "diagonal", "mixed"])
    def test_matches_column_reference(self, gen):
        tol = 1e-9
        tg = np.linspace(0, 20, 41)
        track = dynsys.fundamental_matrix(gen, tg, tol)
        ref = fundamental_matrix_by_columns(gen, tg, tol)
        assert np.max(np.abs(track.Phi - ref.Phi)) <= 10 * tol
        assert np.max(track.step_error) <= 10 * tol

    def test_two_solves_of_the_matrix_state(self, monkeypatch):
        calls = count_solves(monkeypatch)
        dynsys.fundamental_matrix(mixed_gen, np.linspace(0, 10, 21), 1e-9)
        assert len(calls) == 2
        assert all(np.shape(args[3]) == (2, 2) for args in calls)

    def test_column_is_the_trajectory(self):
        tol = 1e-9
        tg = np.linspace(0, 20, 41)
        track = dynsys.fundamental_matrix(mixed_gen, tg, tol)
        col = track.flow.column(0)
        np.testing.assert_array_equal(col.eval(tg[1:]), track.Phi[1:, :, 0])
        direct = dynsys.integrate_system(mixed_gen, 0, 20, [1.0, 0.0], tol)
        np.testing.assert_allclose(col.eval(tg), direct.eval(tg), atol=10 * tol)

    def test_resample_is_the_restarted_flow(self):
        tol = 1e-10
        track = dynsys.fundamental_matrix(mixed_gen, np.linspace(0, 12, 25), tol)
        tg = np.linspace(3.0, 12.0, 19)
        moved = track.resample(tg)
        fresh = dynsys.fundamental_matrix(mixed_gen, tg, tol)
        np.testing.assert_array_equal(moved.Phi[0], np.eye(2))
        np.testing.assert_allclose(moved.Phi, fresh.Phi, atol=100 * tol)
        assert np.max(moved.step_error) <= 100 * tol

    @pytest.mark.parametrize("window", [(-1.0, 5.0), (2.0, 13.0), (5.0, 5.0)])
    def test_resample_outside_window_rejected(self, window):
        track = dynsys.fundamental_matrix(rot, np.linspace(0, 12, 25), 1e-9)
        with pytest.raises(ValueError, match="window"):
            track.resample(np.linspace(*window, 5))


class TestStabilityConstant:
    def test_identity_track(self):
        tg = np.linspace(0, 20, 41)
        track = dynsys.fundamental_matrix(lambda t: np.zeros((1, 1)), tg, 1e-10)
        rep = dynsys.stability_constant(track)
        assert rep.K_hat == pytest.approx(1.0, abs=1e-9)
        assert rep.verdict_uniform_stability == dynsys.EVIDENCE_STABLE

    def test_decaying_scalar_K_is_one(self):
        gen = gs.WHITELIST["neg-one-over-1pt"]
        tg = np.linspace(0, 100, 401)
        track = dynsys.fundamental_matrix(gs.scalar_rfun(gen, 2), tg, 1e-10)
        rep = dynsys.stability_constant(track)
        assert rep.K_hat == pytest.approx(1.0, abs=1e-8)
        assert rep.verdict_uniform_stability == dynsys.EVIDENCE_STABLE

    def test_growing_scalar_unstable(self):
        gen = gs.WHITELIST["one-over-1pt"]
        tg = np.linspace(0, 2000, 2001)
        track = dynsys.fundamental_matrix(gs.scalar_rfun(gen, 2), tg, 1e-9)
        rep = dynsys.stability_constant(track)
        assert rep.verdict_uniform_stability == dynsys.EVIDENCE_UNSTABLE
        assert rep.growth_rate > 0

    def test_cesari_unstable(self):
        gen = gs.build_cesari_counterexample(gs.KIND_CONVERGENT_IMPROPER)
        rep = gs.verify_independence(gen, 2).uniformly_stable
        assert rep.verdict_uniform_stability == dynsys.EVIDENCE_UNSTABLE
        incs = np.diff(np.log(np.maximum(rep.K_trend, 1.0))) > 1e-9
        run = best = 0
        for v in incs:
            run = run + 1 if v else 0
            best = max(best, run)
        assert best >= 4

    def test_rebasing_invariance(self):
        # K is unchanged by Phi -> Phi M for fixed invertible M
        gen = lambda t: np.array([[0.2 * np.exp(-t), 0.4], [-0.4, 0.0]])
        tg = np.linspace(0, 15, 61)
        track = dynsys.fundamental_matrix(gen, tg, 1e-10)
        rep1 = dynsys.stability_constant(track)
        rng = np.random.default_rng(11)
        M = rng.normal(size=(2, 2)) + 3 * np.eye(2)
        rebased = dynsys.FundamentalMatrixTrack(
            tg, np.einsum("kij,jl->kil", track.Phi, M), track.step_error,
            track.tol)
        rep2 = dynsys.stability_constant(rebased)
        # exact invariance up to inversion roundoff on the rebased track
        assert rep2.K_hat == pytest.approx(rep1.K_hat, rel=1e-7, abs=1e-7)

    def test_running_K_curve_reported(self):
        tg = np.linspace(0, 15, 61)
        track = dynsys.fundamental_matrix(mixed_gen, tg, 1e-9)
        rep = dynsys.stability_constant(track)
        assert len(rep.K_running) == len(rep.K_running_t) == len(tg)
        np.testing.assert_array_equal(rep.K_running_t, tg)
        assert np.all(np.diff(rep.K_running) >= 0)
        assert rep.K_running[-1] == rep.K_hat

    def test_ill_conditioned_inconclusive(self):
        tg = np.linspace(0, 10, 11)
        Phi = np.tile(np.eye(2), (11, 1, 1))
        Phi[5] = np.array([[1.0, 0.0], [0.0, 1e-14]])
        track = dynsys.FundamentalMatrixTrack(tg, Phi, np.zeros(11), 1e-9)
        rep = dynsys.stability_constant(track)
        assert rep.verdict_uniform_stability == dynsys.INCONCLUSIVE
        assert "conditioning" in rep.diagnostics


class TestAsymptoticLimit:
    def test_zero_generator_exact(self):
        traj = dynsys.integrate_system(lambda t: np.zeros((2, 2)), 0, 20,
                                       [0.3, -0.2], 1e-10)
        rep = dynsys.asymptotic_limit(traj, 0.1, 1e-8)
        assert rep.verdict == dynsys.EVIDENCE_YES
        np.testing.assert_allclose(rep.limit, [0.3, -0.2], atol=1e-12)

    def test_scalar_limit_value(self):
        gen = gs.WHITELIST["exp-decay"]
        traj = dynsys.integrate_system(gs.scalar_rfun(gen, 2), 0, 40, [1.0], 1e-10)
        rep = dynsys.asymptotic_limit(traj, 0.1, 1e-6)
        assert rep.verdict == dynsys.EVIDENCE_YES
        assert rep.limit[0] == pytest.approx(np.exp(0.5), abs=1e-6)

    def test_rotation_not_constant(self):
        traj = dynsys.integrate_system(rot, 0, 40, [1.0, 0.0], 1e-9)
        rep = dynsys.asymptotic_limit(traj, 0.1, 1e-6)
        assert rep.verdict == dynsys.EVIDENCE_NO

    def test_short_window_rejected(self):
        traj = dynsys.integrate_system(rot, 0, 5, [1.0, 0.0], 1e-9)
        with pytest.raises(ValueError, match="10"):
            dynsys.asymptotic_limit(traj)


class TestGronwall:
    def test_zero_generator_ratio_one(self):
        traj = dynsys.integrate_system(lambda t: np.zeros((2, 2)), 0, 20,
                                       [1.0, 1.0], 1e-10)
        ratio = dynsys.gronwall_bound_check(traj, lambda t: 0.0,
                                            lambda t: np.zeros_like(t))
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_scalar_equality(self):
        gen = gs.WHITELIST["exp-decay"]
        nu = 0.5
        traj = dynsys.integrate_system(gs.scalar_rfun(gen, 2), 0, 50, [1.0], 1e-10)
        ratio = dynsys.gronwall_bound_check(
            traj, lambda t: nu * np.exp(-t),
            lambda t: nu * (1 - np.exp(-np.asarray(t, float))))
        assert ratio <= 1 + 1e-7
        assert ratio >= 1 - 1e-7   # equality for scalar flows

    def test_skew_generator(self):
        traj = dynsys.integrate_system(rot, 0, 30, [1.0, 0.0], 1e-10)
        ratio = dynsys.gronwall_bound_check(traj, lambda t: 0.0,
                                            lambda t: np.zeros_like(t))
        assert ratio <= 1 + 1e-7

    def test_quadrature_fallback_path(self):
        gen = gs.WHITELIST["one-over-1pt-sq"]
        traj = dynsys.integrate_system(gs.scalar_rfun(gen, 2), 0, 30, [1.0], 1e-10)
        ratio = dynsys.gronwall_bound_check(traj, lambda t: 0.5 / (1 + t) ** 2)
        assert ratio <= 1 + 1e-7

    @pytest.mark.parametrize("name", sorted(gs.WHITELIST))
    def test_ratio_within_ten_tol_on_smooth_generators(self, name):
        gen = gs.WHITELIST[name]
        tol = 1e-9
        traj = dynsys.integrate_system(gs.scalar_rfun(gen, 2), 0, 50, [1.0], tol)
        ratio = dynsys.gronwall_bound_check(
            traj, lambda t: 0.5 * float(gen.gtil(np.asarray(t, float))),
            lambda t: 0.5 * gen.cumulative(np.asarray(t, float)))
        assert ratio <= 1 + 10 * tol


class TestPerturbation:
    def test_identical_generators_factor_one(self):
        tg = np.linspace(0, 20, 101)
        rep = dynsys.perturbation_equivalence(rot, rot, tg)
        assert rep.realized_factor == pytest.approx(1.0, abs=1e-9)
        assert rep.l1_of_difference == pytest.approx(0.0, abs=1e-12)

    def test_integrable_perturbation_bounded(self):
        tg = np.linspace(0, 25, 101)
        pert = lambda t: rot(t) + np.exp(-t) * np.eye(2)
        rep = dynsys.perturbation_equivalence(rot, pert, tg)
        assert rep.bound_satisfied
        assert rep.l1_of_difference == pytest.approx(1.0, rel=1e-3)

    def test_non_integrable_rejected(self):
        tg = np.linspace(0, 25, 101)
        pert = lambda t: rot(t) + 1.0 / (1 + t) * np.eye(2)
        with pytest.raises(ValueError, match="non-integrable"):
            dynsys.perturbation_equivalence(rot, pert, tg)
