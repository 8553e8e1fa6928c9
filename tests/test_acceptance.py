"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one line:  [ACCEPT] <criterion> PASS (<elapsed>s < <limit>s).
Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import time

import numpy as np
import pytest

from ellipreg import appendix_system as apx
from ellipreg import coeff, criteria, dynsys, pde_verify, sphmean
from ellipreg import gilbarg_serrin as gs
from ellipreg.coeff import inv_log_modulus, power_modulus

from conftest import (batched, gs_log_field, gs_power_field, random_spd,
                      scalar_rfun)
from rk45_reference import rk45_integrate


class _Criterion:
    def __init__(self, name, limit_s):
        self.name, self.limit = name, limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[ACCEPT] {self.name} {status} ({elapsed:.2f}s < {self.limit:g}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"{self.name}: runtime {elapsed:.2f}s exceeds {self.limit:g}s")
        return False


def test_criterion_01_constant_and_radial_annihilation():
    with _Criterion("01 constant/radial annihilation", 5.0):
        rng = np.random.default_rng(1234)
        radii = 2.0 ** -np.arange(1, 21, dtype=float)
        for n in (2, 3):
            grid = sphmean.default_grid(n)
            fields = [coeff.make_constant(n, random_spd(rng, n))
                      for _ in range(10)]
            fields += [
                coeff.make_perturbed_radial(
                    n, lambda r, p=p: (1.0 + r ** p) * np.eye(n),
                    modulus=power_modulus(p))
                for p in (1.0, 0.5, 2.0)
            ]
            for f in fields:
                R = sphmean.mean_matrix_R_many(f, radii, grid)
                assert np.max(np.abs(R)) <= 1e-12


def test_criterion_02_closed_form_mean_matrix():
    with _Criterion("02 rank-one closed form", 5.0):
        radii = 2.0 ** -np.arange(1, 21, dtype=float)
        profiles = [
            (lambda r: 1.0 / (1.0 - np.log(r)), inv_log_modulus()),
            (lambda r: -0.5 / (2.0 - np.log(r)), inv_log_modulus(0.5, 1.0, 2.0)),
            (lambda r: np.sqrt(r), power_modulus(0.5)),
        ]
        for n in (2, 3):
            grid = sphmean.default_grid(n)
            for gf, om in profiles:
                field = coeff.make_gilbarg_serrin(n, gf, om)
                R = sphmean.mean_matrix_R_many(field, radii, grid)
                want = ((1.0 - n) / n * gf(radii))[:, None, None] * np.eye(n)
                assert np.max(np.abs(R - want)) <= 1e-10


def test_criterion_03_block_matrix_eigenstructure():
    with _Criterion("03 reduction eigenstructure", 1.0):
        for n in range(2, 7):
            M = apx.m_infinity(n)
            eigs = np.sort(np.linalg.eigvals(M).real)
            want = np.sort(np.concatenate([np.zeros(n), -float(n) * np.ones(n)]))
            assert np.max(np.abs(eigs - want)) <= 1e-12
            assert np.max(np.abs(np.linalg.eigvals(M).imag)) <= 1e-12
            D = np.linalg.inv(apx.jordanizer(n)) @ M @ apx.jordanizer(n)
            off = D - np.diag(np.diag(D))
            assert np.max(np.abs(off)) <= 1e-12
            np.testing.assert_allclose(np.sort(np.diag(D)), want, atol=1e-12)


def test_criterion_04_second_order_defect_slope():
    with _Criterion("04 second-order defect slope", 5.0):
        grid = sphmean.sphere_grid(2, 64)
        gvals = np.array([0.2, 0.1, 0.05, 0.025])
        defects = []
        for g0 in gvals:
            f = coeff.make_gilbarg_serrin(
                2, lambda r, g0=g0: g0 * np.ones_like(np.asarray(r, float)),
                coeff.constant_modulus(g0))
            md = sphmean.appendix_moments(f, 0.3, grid)
            defects.append(apx.r1_block_residual(md).residual)
        slope = np.polyfit(np.log(gvals), np.log(defects), 1)[0]
        assert 1.8 <= slope <= 2.2


def test_criterion_05_scalar_flow_oracle():
    with _Criterion("05 scalar flow oracle", 10.0):
        names = ["exp-decay", "neg-exp-decay", "one-over-1pt",
                 "neg-one-over-1pt", "one-over-1pt-sq"]
        tol = 1e-9
        tq = np.linspace(0.0, 100.0, 2001)
        for name in names:
            gen = gs.WHITELIST[name]
            # the lattice flow, read at its nodes: every point of tq is one
            flow = dynsys.refined_flow(batched(scalar_rfun(gen, 2)),
                                       np.linspace(0.0, 100.0, 4001), tol,
                                       strict=True)
            want = gs.closed_form_phi(gen, 2, tq)
            got = flow.y[::(len(flow.t) - 1) // 2000, 0, 0]
            assert np.max(np.abs(got - want)) <= 1e-7


def test_criterion_06_square_integral_values():
    with _Criterion("06 envelope integral values", 5.0):
        ev = criteria.square_dini_integral(inv_log_modulus(), tol=1e-8)
        assert ev.converges
        assert abs(ev.limit_as_float() - 1.0) <= 1e-6
        for a in (0.25, 0.5, 1.0):
            ev = criteria.square_dini_integral(power_modulus(a), tol=1e-9)
            assert ev.converges
            assert abs(ev.limit_as_float() - 1.0 / (2 * a)) <= 1e-8


def test_criterion_07_growth_bound_ratio():
    with _Criterion("07 growth bound ratio", 10.0):
        nu = 0.5   # (n-1)/n at n = 2
        cases = []
        for name, gen in sorted(gs.WHITELIST.items()):
            cases.append((scalar_rfun(gen, 2),
                          lambda t, g=gen: nu * float(g.gtil(np.asarray(t, float))),
                          lambda t, g=gen: nu * g.cumulative(np.asarray(t, float)),
                          (), 60.0))
        for kind in (gs.KIND_CONVERGENT_IMPROPER, gs.KIND_MINUS_INFINITY):
            gen = gs.build_cesari_counterexample(kind)
            cases.append((scalar_rfun(gen, 2),
                          lambda t, g=gen: nu * float(g.gtil(np.asarray(t, float))),
                          lambda t, g=gen: nu * g.cumulative(np.asarray(t, float)),
                          gen.breakpoints, gen.horizon))
        rot = lambda t: np.array([[0.0, 1.0], [-1.0, 0.0]])
        cases.append((rot, lambda t: 0.0,
                      lambda t: np.zeros_like(np.asarray(t, float)), (), 60.0))
        for rfun, mu, cum, breaks, horizon in cases:
            phi0 = np.ones(np.asarray(rfun(0.0)).shape[0] if np.asarray(
                rfun(0.0)).ndim else 1)
            traj = rk45_integrate(rfun, 0.0, horizon, phi0, 1e-9,
                                  breakpoints=breaks)
            ratio = dynsys.gronwall_bound_check(traj, mu, cum)
            assert ratio <= 1 + 1e-6


def test_criterion_08_independence_counterexample():
    with _Criterion("08 independence counterexample", 60.0):
        gen = gs.build_cesari_counterexample(gs.KIND_CONVERGENT_IMPROPER,
                                             horizon=1e4)
        rep = gs.verify_independence(gen, 2, tol=1e-4)
        assert rep.asym_constant.verdict == dynsys.EVIDENCE_YES
        assert rep.asym_constant.residual <= 1e-4
        stab = rep.uniformly_stable
        assert stab.verdict_uniform_stability == dynsys.EVIDENCE_UNSTABLE
        incs = np.diff(np.log(np.maximum(stab.K_trend, 1.0))) > 1e-9
        run = best = 0
        for v in incs:
            run = run + 1 if v else 0
            best = max(best, run)
        assert best >= 4
        assert rep.square_integrable_verdict == "converges"

        gen2 = gs.build_cesari_counterexample(gs.KIND_MINUS_INFINITY,
                                              horizon=1e4)
        rep2 = gs.verify_independence(gen2, 2, tol=1e-4)
        assert rep2.running_integral_final < -10.0
        assert (rep2.uniformly_stable.verdict_uniform_stability
                == dynsys.EVIDENCE_UNSTABLE)


def test_criterion_09_perturbation_equivalence():
    with _Criterion("09 perturbation equivalence", 30.0):
        nu = 0.5
        bases = [
            lambda t: np.zeros((2, 2)),
            lambda t: np.array([[0.0, 1.0], [-1.0, 0.0]]),
            lambda t: np.diag([nu * np.exp(-t), 2 * nu * np.exp(-t)]),
            lambda t: np.array([[-nu / (1 + t), 0.5], [-0.5, 0.0]]),
            lambda t: np.array([[-nu * np.exp(-t), 1.0], [-1.0, nu / (1 + t) ** 2]]),
        ]
        t_grid = np.linspace(0.0, 25.0, 201)
        scale = 0.0999 / (1 - np.exp(-25.0))
        for base in bases:
            pert = lambda t, b=base: b(t) + scale * np.exp(-t) * np.eye(2)
            rep = dynsys.perturbation_equivalence(base, pert, t_grid, tol=1e-9)
            assert rep.l1_of_difference <= 0.1 + 1e-9
            bound = np.exp(0.1 * rep.c_measured)
            assert rep.realized_factor <= bound * (1 + 1e-9)
            assert rep.bound_satisfied
            assert np.isfinite(rep.c_measured)


def test_criterion_10_manufactured_solutions(identity_field):
    with _Criterion("10 manufactured solutions", 120.0):
        x1 = lambda p: p[:, 0]
        quad = lambda p: p[:, 0] ** 2 - p[:, 1] ** 2

        sol = pde_verify.solve_dirichlet(identity_field, x1, 256, tol=1e-13)
        X, _ = np.meshgrid(sol.cell_coords, sol.cell_coords, indexing="ij")
        assert np.max(np.abs(sol.u - X)) <= 1e-10

        errs = []
        for N in (64, 128, 256, 512):
            s = pde_verify.solve_dirichlet(identity_field, quad, N, tol=1e-12)
            XX, YY = np.meshgrid(s.cell_coords, s.cell_coords, indexing="ij")
            errs.append(np.max(np.abs(s.u - (XX ** 2 - YY ** 2))))
            if N == 512:
                dec = pde_verify.spectral_decompose(
                    s, [0.5, 0.25, 0.125, 0.0625])
                assert max(dec.w_means.max(), dec.w_moments.max()) <= 1e-8
        slope = -np.polyfit(np.log([64, 128, 256, 512]), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2

        grad = pde_verify.gradient_at_origin(
            pde_verify.spectral_decompose(sol, [0.5, 0.25, 0.125, 0.0625]))
        assert np.max(np.abs(grad.limit - np.array([1.0, 0.0]))) <= 1e-10


def test_criterion_11_cross_validation():
    with _Criterion("11 cross-validation", 180.0):
        radii = [0.5, 0.25, 0.125, 0.0625, 0.03125]
        x1 = lambda p: p[:, 0]

        minus = gs_log_field(-1.0, shift=2.0)
        v_minus = criteria.classify(minus)
        assert v_minus.classification == criteria.CLASS_ZERO_GRADIENT
        assert v_minus.route == criteria.ROUTE_COR3
        sol_m = pde_verify.solve_dirichlet(minus, x1, 512, tol=1e-12)
        grad = pde_verify.gradient_at_origin(
            pde_verify.spectral_decompose(sol_m, radii))
        mags = np.linalg.norm(grad.v, axis=1)
        assert len(mags) >= 5 and np.all(np.diff(mags) < 0)

        plus = gs_log_field(1.0, shift=2.0)
        v_plus = criteria.classify(plus)
        assert v_plus.classification == criteria.CLASS_INCONCLUSIVE
        assert (v_plus.evidence["dynsys_stability"].verdict_uniform_stability
                == dynsys.EVIDENCE_UNSTABLE)
        sol_p = pde_verify.solve_dirichlet(plus, x1, 512, tol=1e-12)
        quo = pde_verify.lipschitz_quotient(sol_p, radii)
        assert np.sum(np.diff(quo.Q) > 0) >= 3
        assert np.all(np.diff(quo.Q)[-3:] > 0)


def test_criterion_12_criteria_hierarchy():
    with _Criterion("12 criteria hierarchy", 30.0):
        whitelist = [
            coeff.make_constant(2, np.eye(2)),
            gs_power_field(0.5),
            gs_power_field(0.25, c=-0.5),
            gs_power_field(1.0, c=0.4, n=3),
            gs_log_field(1.0, power=2.0),
            coeff.make_perturbed_radial(2, lambda r: (1.0 + r) * np.eye(2),
                                        modulus=power_modulus(1.0)),
        ]
        checked = 0
        for field in whitelist:
            prof = criteria.build_radial_profile(field, k_max=25)
            if criteria.condition_A_minus_I(prof).converges:
                pv = criteria.pv_integral_R(prof)
                l1 = criteria.l1_condition_12b(prof, pv=pv)
                assert pv.converges, field.family_tag
                assert l1.converges, field.family_tag
                checked += 1
        assert checked >= 5   # the hierarchy must actually bite
