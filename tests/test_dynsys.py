import math
import warnings

import numpy as np
import pytest

from ellipreg import coeff, dynsys, sphmean
from ellipreg import gilbarg_serrin as gs

from conftest import batched, gs_log_field, scalar_rfun
from lattice_states_reference import lattice_states_sequential
from pairwise_K_reference import pairwise_K_all_pairs
from perturbation_reference import perturbation_equivalence
from rk45_reference import rk45_fundamental_matrix, rk45_integrate


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


def flow_on(rfun, t0, t1, tol, intervals=64):
    """``refined_flow`` of a per-time generator from a lattice on [t0, t1]."""
    return dynsys.refined_flow(batched(rfun), np.linspace(t0, t1, intervals + 1),
                               tol, strict=True)


def lattice_flow_on(rfun, t_grid, tol):
    """The flow on an equispaced t_grid, every grid point a flow node."""
    t_grid = np.asarray(t_grid, float)
    return flow_on(rfun, t_grid[0], t_grid[-1], tol, 2 * (len(t_grid) - 1))


def at_nodes(flow, tq):
    """The flow's states at the times tq, each of which must be a flow node."""
    i = np.clip(np.searchsorted(flow.t, tq), 1, len(flow.t) - 1)
    i -= np.abs(flow.t[i - 1] - tq) < np.abs(flow.t[i] - tq)
    np.testing.assert_allclose(flow.t[i], tq, rtol=0, atol=1e-9)
    return flow.y[i]


def lattice_phi(rfun, t_grid, tol):
    """Phi on an equispaced t_grid, Phi(t_grid[0]) = I."""
    return at_nodes(lattice_flow_on(rfun, t_grid, tol), t_grid)


def from_start(flow, t_grid):
    """Phi(t) Phi(t_grid[0])^-1 on t_grid, flow nodes of a flow that starts
    earlier."""
    Phi = at_nodes(flow, t_grid)
    Phi = Phi @ np.linalg.inv(Phi[0])
    Phi[0] = np.eye(Phi.shape[-1])
    return Phi


class TestRefinedFlow:
    def test_zero_generator_constant(self):
        flow = flow_on(lambda t: np.zeros((2, 2)), 0, 20, 1e-10)
        np.testing.assert_allclose(flow.y[:, :, 0],
                                   np.tile([1.0, 0.0], (len(flow.t), 1)),
                                   atol=1e-12)

    def test_scalar_closed_form(self):
        # d(phi)/dt = (1/2) e^-t phi: phi(inf) = e^(1/2)
        gen = gs.WHITELIST["exp-decay"]
        flow = flow_on(scalar_rfun(gen, 2), 0, 40, 1e-10)
        assert flow.y[-1, 0, 0] == pytest.approx(np.exp(0.5), abs=1e-9)

    def test_rotation_preserves_norm(self):
        flow = flow_on(rot, 0, 25, 1e-10)
        norms = np.linalg.norm(flow.y[:, :, 0], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-8)
        np.testing.assert_allclose(flow.y[:, 0, 0], np.cos(flow.t), atol=1e-8)

    def test_lattice_without_a_pair_rejected(self):
        with pytest.raises(ValueError, match="even"):
            dynsys.refined_flow(batched(rot), np.array([1.0, 1.0]), 1e-9)

    def test_each_halving_samples_only_the_midpoints(self):
        # the starting lattice is sampled once, then one call per halving
        # with exactly the new nodes; every starting node stays a flow node
        sweeps = []
        inner = batched(mixed_gen)

        def sample(ts):
            sweeps.append(np.array(ts))
            return inner(ts)

        t = np.linspace(0.0, 10.0, 21)
        flow = dynsys.refined_flow(sample, t, 1e-9)
        assert len(sweeps) >= 3
        assert [len(s) for s in sweeps[1:]] == [20 * 2 ** k
                                               for k in range(len(sweeps) - 1)]
        lattice = np.sort(np.concatenate(sweeps))
        assert len(np.unique(lattice)) == len(lattice)
        np.testing.assert_array_equal(lattice[::2], flow.t)
        assert np.all(np.isin(t, flow.t))


class TestFundamentalMatrix:
    def test_zero_generator_identity(self):
        tg = np.linspace(0, 10, 21)
        Phi = lattice_phi(lambda t: np.zeros((2, 2)), tg, 1e-10)
        np.testing.assert_allclose(Phi, np.tile(np.eye(2), (21, 1, 1)), atol=1e-12)

    def test_scalar_closed_form(self):
        gen = gs.WHITELIST["one-over-1pt"]
        tg = np.linspace(0, 60, 61)
        Phi = lattice_phi(scalar_rfun(gen, 2), tg, 1e-10)
        want = (1 + tg) ** 0.5
        np.testing.assert_allclose(Phi[:, 0, 0], want, rtol=1e-8)

    def test_diagonal_decoupling(self):
        def gen(t):
            return np.diag([np.exp(-t), 2 * np.exp(-t)])
        tg = np.linspace(0, 30, 31)
        Phi = lattice_phi(gen, tg, 1e-10)
        np.testing.assert_allclose(Phi[:, 0, 0],
                                   np.exp(-(1 - np.exp(-tg))), rtol=1e-8)
        np.testing.assert_allclose(Phi[:, 1, 1],
                                   np.exp(-2 * (1 - np.exp(-tg))), rtol=1e-8)
        np.testing.assert_allclose(Phi[:, 0, 1], 0, atol=1e-10)

    def test_determinant_never_vanishes(self):
        tg = np.linspace(0, 20, 41)
        dets = np.linalg.det(lattice_phi(rot, tg, 1e-9))
        assert np.all(np.abs(dets) > 0.9)   # trace-free: |det| = 1

    def test_determinant_within_trace_bound(self):
        # |det Phi(t)| = exp(-int tr R) lies inside exp(+-int |tr R|)
        gen = lambda t: np.array([[0.3 * np.exp(-t), 0.7],
                                  [-0.7, -0.1 / (1 + t)]])
        tg = np.linspace(0, 12, 25)
        dets = np.abs(np.linalg.det(lattice_phi(gen, tg, 1e-10)))
        tr = lambda t: abs(0.3 * np.exp(-t)) + abs(0.1 / (1 + t))
        from scipy.integrate import quad
        for k, t in enumerate(tg):
            bound, _ = quad(tr, 0, t)
            assert np.exp(-bound) - 1e-8 <= dets[k] <= np.exp(bound) + 1e-8

    def test_strict_failure_names_estimate_and_spacing(self):
        # no lattice meets a tolerance below the rounding of the flow
        gen = gs.WHITELIST["exp-decay"]
        with pytest.raises(dynsys.IntegrationError,
                           match="estimate .* finest spacing 0.00"):
            flow_on(scalar_rfun(gen, 2), 0.0, 2.0, 1e-18)
        # without strict the finest flow comes back
        flow = dynsys.refined_flow(batched(scalar_rfun(gen, 2)),
                                   np.linspace(0.0, 2.0, 65), 1e-18)
        assert (flow.t[1] - flow.t[0]) * 128 <= math.log(2.0)

    def test_refinement_stability(self):
        gen = gs.WHITELIST["exp-decay"]
        tg = np.linspace(0, 30, 31)
        Phi1 = lattice_phi(scalar_rfun(gen, 2), tg, 1e-8)
        Phi2 = lattice_phi(scalar_rfun(gen, 2), tg, 0.5e-8)
        assert np.max(np.abs(Phi1 - Phi2)) < 10 * 1e-8

    def test_semigroup_property(self):
        # Phi(t) Phi(s)^-1 equals the fundamental matrix restarted at s
        gen = lambda t: np.array([[0.3 * np.exp(-0.5 * t), 0.5],
                                  [-0.5, 0.1 / (1 + t)]])
        tg = np.linspace(0, 12, 25)
        Phi = lattice_phi(gen, tg, 1e-10)
        rng = np.random.default_rng(3)
        for _ in range(10):
            i, j = sorted(rng.integers(0, 25, 2))
            if i == j:
                continue
            s, t = tg[i], tg[j]
            direct = Phi[j] @ np.linalg.inv(Phi[i])
            restart = flow_on(gen, s, t, 1e-10).y[-1]
            np.testing.assert_allclose(direct, restart, atol=100 * 1e-10)


def diag_gen(t):
    return np.diag([np.exp(-t), 2 * np.exp(-t)])


def mixed_gen(t):
    return np.array([[0.3 * np.exp(-t), 0.7], [-0.7, -0.1 / (1 + t)]])


class TestMatrixState:
    def test_matrix_state_shapes(self):
        flow = flow_on(rot, 0, 5, 1e-9)
        assert flow.y.shape == (len(flow.t), 2, 2)

    @pytest.mark.parametrize("gen", [rot, diag_gen, mixed_gen],
                             ids=["rotation", "diagonal", "mixed"])
    def test_matches_column_reference(self, gen):
        # each column of Phi is the trajectory from a basis vector
        tol = 1e-9
        tg = np.linspace(0, 20, 41)
        Phi = lattice_phi(gen, tg, tol)

        def by_columns(tol):
            return np.stack([rk45_integrate(gen, 0.0, 20.0, e, tol).eval(tg)
                             for e in np.eye(2)], axis=2)

        assert np.max(np.abs(Phi - by_columns(tol))) <= 10 * tol
        assert np.max(np.abs(Phi - by_columns(tol / 5))) <= 10 * tol

    def test_column_is_the_trajectory(self):
        tol = 1e-9
        tg = np.linspace(0, 20, 41)
        flow = lattice_flow_on(mixed_gen, tg, tol)
        direct = rk45_integrate(mixed_gen, 0, 20, [1.0, 0.0], tol)
        np.testing.assert_allclose(flow.y[:, :, 0], direct.eval(flow.t),
                                   atol=10 * tol)

    def test_later_start_is_the_restarted_flow(self):
        tol = 1e-10
        flow = lattice_flow_on(mixed_gen, np.linspace(0, 12, 25), tol)
        tg = np.linspace(3.0, 12.0, 19)
        moved = from_start(flow, tg)
        fresh = lattice_phi(mixed_gen, tg, tol)
        np.testing.assert_allclose(moved, fresh, atol=100 * tol)
        tight = lattice_phi(mixed_gen, tg, tol / 5)
        np.testing.assert_allclose(moved, tight, atol=100 * tol)


CESARI_KINDS = [gs.KIND_CONVERGENT_IMPROPER, gs.KIND_MINUS_INFINITY]


class TestMagnusFlow:
    def test_expm_matches_scipy(self):
        from scipy.linalg import expm as scipy_expm
        rng = np.random.default_rng(5)
        for d in (2, 3):
            mats = rng.normal(size=(200, d, d)) * rng.uniform(1e-3, 30, (200, 1, 1))
            want = np.stack([scipy_expm(m) for m in mats])
            got = dynsys.expm(mats)
            size = np.max(np.abs(want), axis=(1, 2), keepdims=True)
            assert np.max(np.abs(got - want) / size) <= 1e-11

    @pytest.mark.parametrize("degree", [3, 5, 7, 9, 13])
    @pytest.mark.parametrize("d", [2, 3])
    def test_expm_every_pade_degree_matches_scipy(self, degree, d):
        # the batch's largest 1-norm sits just under theta_degree, above the
        # theta of the degree below, so that degree and no other runs
        from scipy.linalg import expm as scipy_expm
        thetas = {m: theta for m, theta, _ in dynsys._PADE}
        thetas[13] = dynsys._THETA13
        theta = thetas[degree]
        below = max((th for m, th in thetas.items() if m < degree), default=0.0)
        rng = np.random.default_rng(degree + 10 * d)
        mats = rng.normal(size=(50, d, d))
        mats /= np.max(np.sum(np.abs(mats), axis=1), axis=-1)[:, None, None]
        mats *= rng.uniform(0.1, 1.0, (50, 1, 1)) * theta
        mats[0] *= (1 - 1e-9) * theta / np.max(np.sum(np.abs(mats[0]), axis=0))
        mats[1] = 0.0
        top = np.max(np.sum(np.abs(mats), axis=1))
        assert below < top <= theta
        want = np.stack([scipy_expm(m) for m in mats])
        got = dynsys.expm(mats)
        size = np.max(np.abs(want), axis=(1, 2), keepdims=True)
        assert np.max(np.abs(got - want) / size) <= 1e-11
        np.testing.assert_array_equal(got[1], np.eye(d))

    def test_expm_of_a_rotation_generator(self):
        th = np.array([0.0, 1e-9, 0.3, 2.0, 40.0])
        mats = th[:, None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]])
        E = dynsys.expm(mats)
        np.testing.assert_allclose(E[:, 0, 0], np.cos(th), atol=1e-13)
        np.testing.assert_allclose(E[:, 0, 1], np.sin(th), atol=1e-13)
        np.testing.assert_array_equal(E[0], np.eye(2))

    @pytest.mark.parametrize("name", ["rotation", "diagonal", "mixed"]
                             + sorted(gs.WHITELIST) + CESARI_KINDS)
    def test_matches_rk45_reference(self, name):
        # matrix generators through the lattice flow; scalar ones through
        # the closed form the gs track reads
        tol = 1e-9
        breaks, T = (), 20.0
        if name in CESARI_KINDS:
            gen = gs.build_cesari_counterexample(name)
            breaks, T = gen.breakpoints, gen.horizon
        elif name in gs.WHITELIST:
            gen, T = gs.WHITELIST[name], 60.0
        else:
            rfun = {"rotation": rot, "diagonal": diag_gen, "mixed": mixed_gen}[name]
        tg = np.linspace(0.0, T, 101)
        if name in CESARI_KINDS or name in gs.WHITELIST:
            rfun = scalar_rfun(gen, 2)
            got = gs.closed_form_phi(gen, 2, tg)[:, None, None]
        else:
            got = lattice_phi(rfun, tg, tol)
        want = rk45_fundamental_matrix(rfun, tg, tol, breaks)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 10 * tol

    def test_lattice_flow_and_its_richardson_estimate(self):
        # fourth order on the lattice; the estimate from every other node
        # tracks the true error of the finer flow
        t_end, tol = 8.0, 1e-12
        want = rk45_fundamental_matrix(mixed_gen, [0.0, t_end], tol)[-1]
        errs, ests = [], []
        for n in (16, 32, 64):
            t = np.linspace(0.0, t_end, n + 1)
            R = np.stack([mixed_gen(s) for s in t])
            flow = dynsys.lattice_flow(t, R)
            errs.append(np.max(np.abs(flow.y[-1] - want)))
            ests.append(dynsys.lattice_flow_error(t, R, flow))
        rates = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all((rates > 3.5) & (rates < 4.5))
        for e, est in zip(errs, ests):
            assert 0.2 * e <= est <= 5 * e

    def test_lattice_flow_nodes_are_every_other_sample(self):
        t = np.linspace(0.0, 6.0, 13)
        R = np.stack([mixed_gen(s) for s in t])
        flow = dynsys.lattice_flow(t, R)
        np.testing.assert_array_equal(flow.t, t[::2])
        np.testing.assert_array_equal(flow.y[0], np.eye(2))
        with pytest.raises(ValueError, match="even"):
            dynsys.lattice_flow(t[:-1], R[:-1])


class TestStabilityConstant:
    def test_identity_track(self):
        tg = np.linspace(0, 20, 41)
        Phi = lattice_phi(lambda t: np.zeros((1, 1)), tg, 1e-10)
        rep = dynsys.stability_constant(tg, Phi)
        assert rep.K_hat == pytest.approx(1.0, abs=1e-9)
        assert rep.verdict == dynsys.EVIDENCE_STABLE

    def test_decaying_scalar_K_is_one(self):
        gen = gs.WHITELIST["neg-one-over-1pt"]
        tg = np.linspace(0, 100, 401)
        Phi = lattice_phi(scalar_rfun(gen, 2), tg, 1e-10)
        rep = dynsys.stability_constant(tg, Phi)
        assert rep.K_hat == pytest.approx(1.0, abs=1e-8)
        assert rep.verdict == dynsys.EVIDENCE_STABLE

    def test_growing_scalar_unstable(self):
        gen = gs.WHITELIST["one-over-1pt"]
        tg = np.linspace(0, 2000, 2001)
        Phi = lattice_phi(scalar_rfun(gen, 2), tg, 1e-9)
        rep = dynsys.stability_constant(tg, Phi)
        assert rep.verdict == dynsys.EVIDENCE_UNSTABLE
        assert rep.growth_rate > 0

    def test_cesari_unstable(self):
        gen = gs.build_cesari_counterexample(gs.KIND_CONVERGENT_IMPROPER)
        rep = gs.verify_independence(gen, 2).uniformly_stable
        assert rep.verdict == dynsys.EVIDENCE_UNSTABLE
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
        Phi = lattice_phi(gen, tg, 1e-10)
        rep1 = dynsys.stability_constant(tg, Phi)
        rng = np.random.default_rng(11)
        M = rng.normal(size=(2, 2)) + 3 * np.eye(2)
        rep2 = dynsys.stability_constant(tg, np.einsum("kij,jl->kil", Phi, M))
        # exact invariance up to inversion roundoff on the rebased track
        assert rep2.K_hat == pytest.approx(rep1.K_hat, rel=1e-7, abs=1e-7)

    def test_running_K_curve_reported(self):
        tg = np.linspace(0, 15, 61)
        rep = dynsys.stability_constant(tg, lattice_phi(mixed_gen, tg, 1e-9))
        assert len(rep.K_running) == len(tg)
        assert np.all(np.diff(rep.K_running) >= 0)
        assert rep.K_running[-1] == rep.K_hat

    def test_ill_conditioned_inconclusive(self):
        tg = np.linspace(0, 10, 11)
        Phi = np.tile(np.eye(2), (11, 1, 1))
        Phi[5] = np.array([[1.0, 0.0], [0.0, 1e-14]])
        rep = dynsys.stability_constant(tg, Phi)
        assert rep.verdict == dynsys.INCONCLUSIVE
        assert "conditioning" in rep.diagnostics

    @pytest.mark.parametrize("d, node, refused", [
        (d, node, refused) for d in (2, 3)
        for node, refused in (("condition 1.05e12", True),
                              ("condition 0.95e12", False), ("singular", True))
    ] + [(2, "zero", True)])
    def test_conditioning_refusal(self, d, node, refused):
        # 2x2 nodes take sigma_min = |det| / sigma_max in closed form, 3x3
        # ones the SVD: both refuse the same nodes.  A zero 2x2 node is
        # 0/0 there, and is refused with no NaN passed on and no warning
        c, s = math.cos(0.3), math.sin(0.3)
        Q = np.array([[c, -s], [s, c]])
        bad = {"condition 1.05e12": Q @ np.diag([1.0, 1 / 1.05e12]) @ Q.T,
               "condition 0.95e12": Q @ np.diag([1.0, 1 / 0.95e12]) @ Q.T,
               "singular": np.array([[1.0, 2.0], [2.0, 4.0]]),
               "zero": np.zeros((2, 2))}[node]
        tg = np.linspace(0, 10, 21)
        Phi = np.tile(np.eye(d), (21, 1, 1))
        Phi[:, :2, :2] = np.stack([np.cos(tg), np.sin(tg), -np.sin(tg), np.cos(tg)],
                                  axis=-1).reshape(21, 2, 2)
        Phi[7, :2, :2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = dynsys.stability_constant(tg, Phi)
        if refused:
            assert rep.verdict == dynsys.INCONCLUSIVE
            assert rep.diagnostics == "fundamental matrix conditioning exceeds 1e+12"
            assert rep.K_running is None and math.isnan(rep.K_hat)
        else:
            assert rep.diagnostics == ""
            assert np.all(np.isfinite(rep.K_running)) and rep.K_hat > 1e11


def turned_field(n, angle=0.7):
    """I + g(r) (Q theta)(Q theta)^T, g = 0.6/(2 - ln r), Q a fixed rotation.

    A rank-one field turned off the radial direction: R is no longer a
    multiple of I, so neither is Phi.
    """
    Q = np.eye(n)
    Q[:2, :2] = [[math.cos(angle), -math.sin(angle)],
                 [math.sin(angle), math.cos(angle)]]

    def batch(pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        r = np.linalg.norm(pts, axis=1)
        out = np.broadcast_to(np.eye(n), (len(pts), n, n)).copy()
        m = r > 0
        e = (pts[m] / r[m, None]) @ Q.T
        g = 0.6 / (2.0 - np.log(r[m]))
        out[m] += g[:, None, None] * e[:, :, None] * e[:, None, :]
        return out

    return coeff.make_custom(n, batch, coeff.inv_log_modulus(0.6, shift=2.0))


def profile_tracks(field):
    """Phi from t0 and from 2 t0 at every node of the classifier's flow at
    k_max = 30, each from the first node at or after its start."""
    sampler = sphmean.sphere_sampler(field.dim, sphmean.default_resolution(field.dim))
    t0, t1 = math.log(2.0), 31 * math.log(2.0)
    sample = lambda t: sphmean.mean_matrix_R_many(field, np.exp(-t), sampler)
    flow = dynsys.refined_flow(sample, np.linspace(t0, t1, 513), 1e-8)
    return tuple(from_start(flow, flow.t[flow.t >= ts - 1e-12])
                 for ts in (t0, 2 * t0))


RANK_ONE = [lambda n: gs_log_field(-1.0, shift=2.0, n=n),
            lambda n: gs_log_field(1.0, shift=2.0, n=n)]


class TestPairwiseKPruning:
    """The pruned K equals the all-pairs reference and norms few pairs."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("field_fn", RANK_ONE + [turned_field])
    def test_matches_all_pairs(self, field_fn, n):
        for Phi in profile_tracks(field_fn(n)):
            np.testing.assert_array_equal(dynsys._pairwise_K(Phi),
                                          pairwise_K_all_pairs(Phi))

    def test_matches_all_pairs_on_rebased_track(self):
        # a non-normal rebase: the bound is loose and many pairs need a norm
        tg = np.linspace(0, 15, 61)
        M = np.random.default_rng(11).normal(size=(2, 2)) + 3 * np.eye(2)
        Phi = np.einsum("kij,jl->kil", lattice_phi(mixed_gen, tg, 1e-9), M)
        np.testing.assert_array_equal(dynsys._pairwise_K(Phi),
                                      pairwise_K_all_pairs(Phi))

    def test_matches_all_pairs_when_most_rows_pass_the_screen(self):
        # S rot(0.05 k) S^-1 with cond(S) ~ 100: sigma_max(Phi(t)) times the
        # largest ||Phi(s)^-1|| so far reaches cond(S)^2 while no product
        # norms above cond(S), so nearly every end node is masked pair by pair
        S = np.array([[1.0, 10.0], [0.0, 1.0]])
        th = 0.05 * np.arange(300)
        turn = np.stack([np.cos(th), -np.sin(th), np.sin(th), np.cos(th)],
                        axis=-1).reshape(-1, 2, 2)
        Phi = S @ turn @ np.linalg.inv(S)
        K = pairwise_K_all_pairs(Phi)
        largest_bound = (dynsys.spectral_norms(Phi) * np.maximum.accumulate(
            dynsys.spectral_norms(np.linalg.inv(Phi))))
        # the floor is at most K, so these rows certainly pass the screen
        assert np.mean(largest_bound > K * (1 + 1e-12)) > 0.8
        np.testing.assert_array_equal(dynsys._pairwise_K(Phi), K)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("field_fn", RANK_ONE)
    def test_rank_one_norms_few_pairs(self, field_fn, n, monkeypatch):
        normed = []
        inner = dynsys.spectral_norms

        def counted(mats):
            normed.append(len(mats))
            return inner(mats)

        monkeypatch.setattr(dynsys, "spectral_norms", counted)
        for Phi in profile_tracks(field_fn(n)):
            normed.clear()
            dynsys._pairwise_K(Phi)
            k = len(Phi)
            assert sum(normed) < 0.02 * k * (k + 1) // 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_identity_flow_norms_no_block(self, n, monkeypatch):
        # R = 0 (radial and identity fields): every bound is exactly K = 1
        normed = []
        inner = dynsys.spectral_norms

        def counted(mats):
            normed.append(len(mats))
            return inner(mats)

        monkeypatch.setattr(dynsys, "spectral_norms", counted)
        K = dynsys._pairwise_K(np.broadcast_to(np.eye(n), (300, n, n)).copy())
        assert normed == [300]               # the floor's diagonal pairs only
        np.testing.assert_array_equal(K, np.ones(300))


LATTICE_T = np.linspace(math.log(2.0), 41 * math.log(2.0), 1281)


def lattice_R(name, d):
    """R on LATTICE_T (640 Magnus steps) with D = diag(1, 1/2, 1/4)[:d, :d]
    and 1/log(e^2/r) = 1/(2 + t): decaying D/(2 + t), growing -D/(2 + t),
    and turned cos(t) D/(2 + t) + J, J the rotation generator of the first
    plane (zero for d = 1), whose values at two times do not commute."""
    t = LATTICE_T[:, None, None]
    D = np.diag([1.0, 0.5, 0.25][:d])
    if name == "decaying":
        return D / (2 + t)
    if name == "growing":
        return -D / (2 + t)
    J = np.zeros((d, d))
    if d > 1:
        J[0, 1], J[1, 0] = 1.0, -1.0
    return np.cos(t) * D / (2 + t) + J


class TestLatticeStates:
    @pytest.mark.parametrize("steps", [1, 2, 3, 255, 256, 640])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", ["decaying", "growing", "turned"])
    def test_doubling_scan_matches_the_sequential_loop(self, name, d, steps):
        n = 2 * steps + 1
        E = dynsys._lattice_steps(LATTICE_T[:n], lattice_R(name, d)[:n])
        want = lattice_states_sequential(E)
        got = dynsys._lattice_states(E)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got[:2], want[:2])
        assert (np.max(np.abs(got - want))
                <= 1e-13 * max(1.0, float(np.max(np.abs(want)))))


class TestAsymptoticLimit:
    def test_zero_generator_exact(self):
        flow = flow_on(lambda t: np.zeros((2, 2)), 0, 20, 1e-10)
        rep = dynsys.asymptotic_limit(flow.t, flow.y @ np.array([0.3, -0.2]),
                                      tol=1e-8)
        assert rep.verdict == dynsys.EVIDENCE_YES
        np.testing.assert_allclose(rep.limit, [0.3, -0.2], atol=1e-12)

    def test_scalar_limit_value(self):
        gen = gs.WHITELIST["exp-decay"]
        flow = flow_on(scalar_rfun(gen, 2), 0, 40, 1e-10)
        rep = dynsys.asymptotic_limit(flow.t, flow.y[:, :, 0], tol=1e-6)
        assert rep.verdict == dynsys.EVIDENCE_YES
        assert rep.limit[0] == pytest.approx(np.exp(0.5), abs=1e-6)

    def test_rotation_not_constant(self):
        flow = flow_on(rot, 0, 40, 1e-9)
        rep = dynsys.asymptotic_limit(flow.t, flow.y[:, :, 0], tol=1e-6)
        assert rep.verdict == dynsys.EVIDENCE_NO

    def test_window_of_one_node_inconclusive(self):
        # nodes 2 apart on [0, 12]: each tail window of width 1.2 holds one
        t = np.arange(0.0, 13.0, 2.0)
        rep = dynsys.asymptotic_limit(t, np.ones((len(t), 2)))
        assert rep.verdict == dynsys.INCONCLUSIVE and rep.residual is None
        rep = dynsys.asymptotic_limit(np.arange(0.0, 12.5, 0.5), np.ones((25, 2)))
        assert rep.verdict == dynsys.EVIDENCE_YES

    def test_short_window_rejected(self):
        flow = flow_on(rot, 0, 5, 1e-9)
        with pytest.raises(ValueError, match="10"):
            dynsys.asymptotic_limit(flow.t, flow.y[:, :, 0])


def trajectory(rfun, t1, phi0, tol):
    """Node times and states of the lattice flow on [0, t1] from phi0."""
    flow = flow_on(rfun, 0.0, t1, tol)
    return flow.t, flow.y @ np.asarray(phi0, float)


class TestGronwall:
    def test_zero_generator_ratio_one(self):
        t, y = trajectory(lambda t: np.zeros((2, 2)), 20, [1.0, 1.0], 1e-10)
        ratio = dynsys.gronwall_bound_check(t, y, lambda t: np.zeros_like(t))
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_scalar_equality(self):
        gen = gs.WHITELIST["exp-decay"]
        nu = 0.5
        t, y = trajectory(scalar_rfun(gen, 2), 50, [1.0], 1e-10)
        ratio = dynsys.gronwall_bound_check(
            t, y, lambda t: nu * (1 - np.exp(-np.asarray(t, float))))
        assert ratio <= 1 + 1e-7
        assert ratio >= 1 - 1e-7   # equality for scalar flows

    def test_skew_generator(self):
        t, y = trajectory(rot, 30, [1.0, 0.0], 1e-10)
        ratio = dynsys.gronwall_bound_check(t, y, lambda t: np.zeros_like(t))
        assert ratio <= 1 + 1e-7

    @pytest.mark.parametrize("name", sorted(gs.WHITELIST))
    def test_ratio_within_ten_tol_on_smooth_generators(self, name):
        gen = gs.WHITELIST[name]
        tol = 1e-9
        t, y = trajectory(scalar_rfun(gen, 2), 50, [1.0], tol)
        ratio = dynsys.gronwall_bound_check(
            t, y, lambda t: 0.5 * gen.cumulative(np.asarray(t, float)))
        assert ratio <= 1 + 10 * tol


class TestPerturbation:
    def test_identical_generators_factor_one(self):
        tg = np.linspace(0, 20, 101)
        rep = perturbation_equivalence(rot, rot, tg)
        assert rep.realized_factor == pytest.approx(1.0, abs=1e-9)
        assert rep.l1_of_difference == pytest.approx(0.0, abs=1e-12)

    def test_integrable_perturbation_bounded(self):
        tg = np.linspace(0, 25, 101)
        pert = lambda t: rot(t) + np.exp(-t) * np.eye(2)
        rep = perturbation_equivalence(rot, pert, tg)
        assert rep.bound_satisfied
        assert rep.l1_of_difference == pytest.approx(1.0, rel=1e-3)

    def test_non_integrable_rejected(self):
        tg = np.linspace(0, 25, 101)
        pert = lambda t: rot(t) + 1.0 / (1 + t) * np.eye(2)
        with pytest.raises(ValueError, match="non-integrable"):
            perturbation_equivalence(rot, pert, tg)

    def test_uneven_grid_rejected(self):
        # the grid is read as every k-th flow node, so it must be equispaced
        tg = np.concatenate([np.linspace(0, 10, 41), np.linspace(10.5, 25, 30)])
        with pytest.raises(ValueError, match="equispaced"):
            perturbation_equivalence(rot, rot, tg)

    def test_unmet_tolerance_raises(self):
        # K_hat from a flow that misses tol would not bound anything
        tg = np.linspace(0, 25, 101)
        pert = lambda t: mixed_gen(t) + np.exp(-t) * np.eye(2)
        with pytest.raises(dynsys.IntegrationError, match="finest spacing"):
            perturbation_equivalence(mixed_gen, pert, tg, tol=1e-18)
