import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellipreg import cli, coeff, pde_verify

from assembly_reference import reference_assemble
from conftest import gs_log_field
from sa_reference import (WholeGridSineSolver, nine_plane_apply, nine_planes,
                          sa_solve, stencil_to_csr)


X1 = lambda p: p[:, 0]
QUAD = lambda p: p[:, 0] ** 2 - p[:, 1] ** 2
SIN_X1_PLUS_X2 = lambda p: np.sin(p[:, 0]) + p[:, 1]

GRID_FIELDS = {
    "gs-plus": lambda: gs_log_field(1.0, shift=2.0),
    "gs-minus": lambda: gs_log_field(-1.0, shift=2.0),
    "anisotropic": lambda: coeff.make_constant(
        2, np.array([[2.0, 0.5], [0.5, 1.0]])),
}


@pytest.fixture(scope="module")
def identity_x1_sol(identity_field):
    return pde_verify.solve_dirichlet(identity_field, X1, 128, tol=1e-13)


@pytest.fixture(scope="module")
def identity_quad_sol(identity_field):
    return pde_verify.solve_dirichlet(identity_field, QUAD, 128, tol=1e-12)


class TestAssembly:
    def test_matrix_symmetric_and_pd(self):
        field = gs_log_field(1.0, shift=2.0)
        S, b, _ = pde_verify.assemble(field, X1, 48)
        K = stencil_to_csr(S)
        assert abs(K - K.T).max() == 0.0
        w = np.linalg.eigvalsh(K.toarray())
        assert w[0] > 0

    def test_constant_tensor_reproduces_linear(self):
        f = coeff.make_constant(2, np.array([[2.0, 0.5], [0.5, 1.0]]))
        sol = pde_verify.solve_dirichlet(f, X1, 64, tol=1e-13)
        X, Y = np.meshgrid(sol.cell_coords, sol.cell_coords, indexing="ij")
        assert np.max(np.abs(sol.u - X)) < 1e-10

    @pytest.mark.parametrize("name", sorted(GRID_FIELDS))
    @pytest.mark.parametrize("N", [8, 9, 48, 97])
    def test_matches_operator_product_reference(self, N, name):
        field = GRID_FIELDS[name]()
        for g in (X1, QUAD, SIN_X1_PLUS_X2):
            S, b, _ = pde_verify.assemble(field, g, N)
            K = stencil_to_csr(S)
            K_ref, b_ref = reference_assemble(field, g, N)
            assert abs(K - K_ref).max() <= 1e-13 * abs(K_ref).max()
            assert np.abs(b - b_ref).max() <= 1e-13 * np.abs(b_ref).max()

    def test_bad_N_rejected(self, identity_field):
        with pytest.raises(ValueError):
            pde_verify.solve_dirichlet(identity_field, X1, 4)


def _bump_field(l1, l2, angle, c, r0, width):
    """A = C + g(|x|) theta theta^T: C the constant SPD tensor with
    eigenvalues l1, l2 >= 1 along the angle, g = c exp(-((r - r0)/width)^2)
    with c > -1, so 1 + g > 0 keeps A positive definite; theta = 0 at the
    origin."""
    Q = np.array([[np.cos(angle), -np.sin(angle)],
                  [np.sin(angle), np.cos(angle)]])
    C = Q @ np.diag([l1, l2]) @ Q.T

    def batch(pts):
        r = np.linalg.norm(pts, axis=1)
        th = pts / np.where(r > 0, r, 1.0)[:, None]
        g = c * np.exp(-((r - r0) / width) ** 2)
        return C + g[:, None, None] * th[:, :, None] * th[:, None, :]
    return dataclasses.replace(coeff.make_constant(2, C), eval_batch=batch)


class TestAssemblyProperty:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(l1=st.floats(1.0, 3.0), l2=st.floats(1.0, 3.0),
           angle=st.floats(0.0, np.pi), c=st.floats(-0.9, 2.0),
           r0=st.floats(0.0, 1.2), width=st.floats(0.1, 1.0),
           N=st.integers(8, 40),
           boundary=st.sampled_from(sorted(cli._BOUNDARY_FUNS)))
    def test_matches_reference_and_stores_couplings_once(
            self, l1, l2, angle, c, r0, width, N, boundary):
        field = _bump_field(l1, l2, angle, c, r0, width)
        gfun = cli._BOUNDARY_FUNS[boundary]
        S, b, _ = pde_verify.assemble(field, gfun, N)
        K_ref, b_ref = reference_assemble(field, gfun, N)
        K = stencil_to_csr(S)
        assert abs(K - K_ref).max() <= 1e-12 * abs(K_ref).max()
        assert np.abs(b - b_ref).max() <= 1e-12 * np.abs(b_ref).max()
        # each coupling is one number, read by the rows of both its cells
        assert abs(K - K.T).max() == 0
        # the pad of every plane is 0.0, and so is every coupling to a cell
        # beyond the wall
        assert S.shape == (5, N + 2, N + 2)
        pad = np.ones((N + 2, N + 2), bool)
        pad[1:N + 1, 1:N + 1] = False
        assert not S[:, pad].any()
        S9 = nine_planes(S)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                inside = np.zeros((N, N), bool)
                inside[max(0, -di):N - max(0, di),
                       max(0, -dj):N - max(0, dj)] = True
                assert not S9[1 + di, 1 + dj][~inside].any()


class TestStencil:
    @pytest.mark.parametrize("N", [8, 9, 64, 255])
    def test_apply_matches_nine_plane_sum_bit_for_bit(self, N):
        # the five planes summed in the nine-offset order give the very same
        # floats as the nine-plane stencil, on random planes and on the
        # assembled operator of the benchmark's field
        rng = np.random.default_rng(N)
        S_rand = np.zeros((5, N + 2, N + 2))
        S_rand[:, 1:N + 1, 1:N + 1] = rng.standard_normal((5, N, N))
        S_field, _, _ = pde_verify.assemble(gs_log_field(-1.0, shift=2.0),
                                            X1, N)
        for S in (S_rand, S_field):
            K = pde_verify._Stencil(S)
            for x in rng.standard_normal((2, N, N)):
                want = nine_plane_apply(S, x)
                assert np.array_equal(K(x), want)
                out = np.empty_like(x)
                assert K(x, out=out) is out
                assert np.array_equal(out, want)


class TestManufactured:
    def test_identity_linear_exact(self, identity_x1_sol):
        X, _ = np.meshgrid(identity_x1_sol.cell_coords,
                           identity_x1_sol.cell_coords, indexing="ij")
        assert np.max(np.abs(identity_x1_sol.u - X)) < 1e-10

    def test_harmonic_quadratic_second_order(self, identity_field):
        errs = []
        for N in (32, 64, 128):
            sol = pde_verify.solve_dirichlet(identity_field, QUAD, N, tol=1e-12)
            X, Y = np.meshgrid(sol.cell_coords, sol.cell_coords, indexing="ij")
            errs.append(np.max(np.abs(sol.u - (X ** 2 - Y ** 2))))
        slope = np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)[0]
        assert -2.2 <= slope <= -1.8

    def test_discrete_maximum_principle(self, identity_quad_sol):
        u = identity_quad_sol.u
        xc = identity_quad_sol.cell_coords
        bvals = QUAD(np.stack([np.concatenate([xc, xc, np.full_like(xc, -1),
                                               np.full_like(xc, 1)]),
                               np.concatenate([np.full_like(xc, -1),
                                               np.full_like(xc, 1), xc, xc])],
                              axis=1))
        assert u.min() >= bvals.min() - 1e-10
        assert u.max() <= bvals.max() + 1e-10

    @pytest.mark.parametrize("name", sorted(GRID_FIELDS))
    @pytest.mark.parametrize("N", [64, 97, 128, 256, 512])
    def test_multigrid_iterations_independent_of_N(self, N, name):
        sol = pde_verify.solve_dirichlet(GRID_FIELDS[name](), X1, N)
        assert sol.iterations <= 20
        assert sol.residual_norm <= 1e-11

    def test_gs_field_solver_selfcheck(self):
        field = gs_log_field(1.0, shift=2.0)
        sol = pde_verify.solve_dirichlet(field, X1, 96, tol=1e-11)
        assert sol.residual_norm <= 1e-10


class TestMultigrid:
    @pytest.mark.parametrize("name", sorted(GRID_FIELDS))
    @pytest.mark.parametrize("N", [64, 97, 256])
    def test_matches_smoothed_aggregation_reference(self, N, name):
        field = GRID_FIELDS[name]()
        sol = pde_verify.solve_dirichlet(field, SIN_X1_PLUS_X2, N)
        u_ref = sa_solve(field, SIN_X1_PLUS_X2, N)
        assert np.abs(sol.u - u_ref).max() <= 1e-9 * np.abs(u_ref).max()

    @pytest.mark.parametrize("N", [8, 9, 64, 97])
    def test_sine_solve_inverts_identity_operator(self, identity_field, N):
        S, _, _ = pde_verify.assemble(identity_field, X1, N)
        K = stencil_to_csr(S)
        solve = pde_verify._SineSolver(N)
        r = np.random.default_rng(N).standard_normal((N, N))
        x = solve(r)
        assert np.linalg.norm(K @ x.ravel() - r.ravel()) <= (
            1e-13 * np.linalg.norm(r))

    @pytest.mark.parametrize("N", [8, 9, 64, 97, 255, 256, 1024])
    def test_sine_solve_matches_dense_products(self, N):
        # the dense form of the same solve: V ((V^T r V) * inv) V^T with the
        # orthonormal DST-II basis V; even N has the Nyquist term k = N/2
        k = np.arange(1, N + 1)
        V = np.sqrt(2.0 / N) * np.sin(np.pi / N * np.outer(np.arange(N) + 0.5, k))
        V[:, -1] *= np.sqrt(0.5)
        lam = 4.0 * np.sin(0.5 * np.pi / N * k) ** 2
        inv = 1.0 / (lam[:, None] + lam)
        r = np.random.default_rng(N).standard_normal((N, N))
        dense = V @ ((V.T @ r @ V) * inv) @ V.T
        fast = pde_verify._SineSolver(N)(r)
        assert np.linalg.norm(fast - dense) <= 1e-13 * np.linalg.norm(dense)

    @pytest.mark.parametrize("N", [8, 9, 64, 97, 255, 256, 1024])
    def test_blocked_sine_solve_matches_whole_grid_bit_for_bit(self, N):
        # the same arithmetic per entry, through blocks of lines: the very
        # same floats as the whole-grid transforms and scale
        rng = np.random.default_rng(N)
        solve, whole = pde_verify._SineSolver(N), WholeGridSineSolver(N)
        for r in rng.standard_normal((2, N, N)):
            want = whole(r)
            assert np.array_equal(solve(r), want)
            out = np.empty_like(r)
            assert solve(r, out=out) is out
            assert np.array_equal(out, want)

    @pytest.mark.parametrize("N", [32, 33, 96, 97])
    def test_sine_solve_symmetric_and_positive(self, N):
        solve = pde_verify._SineSolver(N)
        rng = np.random.default_rng(N)
        for _ in range(5):
            v, w = rng.standard_normal((2, N, N))
            Bv, Bw = solve(v), solve(w)
            assert abs(np.vdot(v, Bw) - np.vdot(w, Bv)) <= (
                1e-12 * np.linalg.norm(v) * np.linalg.norm(Bw))
            assert np.vdot(v, Bv) > 0

    def test_true_residual_from_the_wall_lines_is_b_minus_K_u(self):
        # b is zero off the cells next to a wall, so -K u plus b's four
        # wall lines gives the very float of the dense |b - K u| / |b|
        field, N = gs_log_field(-1.0, shift=2.0), 64
        sol = pde_verify.solve_dirichlet(field, SIN_X1_PLUS_X2, N)
        S, b, _ = pde_verify.assemble(field, SIN_X1_PLUS_X2, N)
        b = b.reshape(N, N)
        inner = np.zeros((N, N), bool)
        inner[1:N - 1, 1:N - 1] = True
        assert not b[inner].any()
        K = pde_verify._Stencil(S)
        assert sol.residual_norm == (np.linalg.norm(b - K(sol.u))
                                     / np.linalg.norm(b))

    def test_exact_start_takes_no_iteration(self, identity_field):
        sol = pde_verify.solve_dirichlet(identity_field, X1, 64, tol=1e-13)
        assert sol.iterations == 0
        assert sol.start_residual == sol.residual_tail[-1] <= 1e-13
        assert sol.residual_norm <= 1e-13

    def test_strongly_anisotropic_field_converges(self):
        # g = -0.9 from the unit circle outward: the ellipticity ratio 10
        # costs iterations, not convergence
        field = coeff.make_gilbarg_serrin(
            2, lambda r: -0.9 * np.minimum(r, 1.0), coeff.power_modulus(1.0, 0.9))
        sol = pde_verify.solve_dirichlet(field, SIN_X1_PLUS_X2, 128)
        assert sol.iterations < pde_verify._MAXITER
        u_ref = sa_solve(field, SIN_X1_PLUS_X2, 128)
        assert np.abs(sol.u - u_ref).max() <= 1e-9 * np.abs(u_ref).max()

    @pytest.mark.parametrize("N", [256, 512])
    def test_gs_minus_log_field_within_14_iterations(self, N):
        sol = pde_verify.solve_dirichlet(gs_log_field(-1.0, shift=2.0), X1, N)
        assert sol.iterations <= 14
        assert len(sol.residual_tail) == 5
        assert sol.residual_tail[-1] <= 1e-12


class TestMemory:
    def _peak_grids(self, run, N):
        run()                                   # numpy's one-time set-up
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (N * N * 8)

    def test_solve_holds_at_most_12_grids(self):
        # the benchmark's verify field, -1/log(e^2/r), at n = 256: the
        # stencil is 5 of the N x N arrays of doubles, the padded copy its
        # product reads, the iterate and CG's three vectors most of the
        # rest; the load is dropped before CG starts
        field, N = gs_log_field(-1.0, shift=2.0), 256
        assert self._peak_grids(
            lambda: pde_verify.solve_dirichlet(field, X1, N), N) <= 12

    def test_assembly_holds_at_most_11_grids(self):
        # the five planes, both face families' coefficients, the load and
        # the shares of one block of rows
        field, N = gs_log_field(-1.0, shift=2.0), 256
        assert self._peak_grids(
            lambda: pde_verify.assemble(field, X1, N), N) <= 11

    def test_cg_work_is_three_grids(self):
        # r, p and q, whatever the iteration count: beside the start
        # residual r it is given, CG allocates p and q, and an iteration
        # allocates no grid of its own
        N = 256
        S, b, _ = pde_verify.assemble(gs_log_field(-1.0, shift=2.0), X1, N)
        K, b = pde_verify._Stencil(S), b.reshape(N, N)
        precond, x = pde_verify._SineSolver(N), np.zeros((N, N))
        r = b - K(x)
        tracemalloc.start()
        try:
            _, history = pde_verify._pcg(K, r, np.linalg.norm(b), precond,
                                         1e-30, 5, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(history) == 6
        assert peak < 3 * N * N * 8

    @pytest.mark.parametrize("N", [511, 512, 1024])
    def test_preconditioner_holds_under_one_grid(self, N):
        # one block of lines in a real and a complex buffer, the scale
        # formed per block; the whole-grid solver held three grids
        tracemalloc.start()
        try:
            pde_verify._SineSolver(N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < N * N * 8

    @pytest.mark.parametrize("N", [255, 256])
    def test_preconditioner_into_buffers_allocates_under_one_grid(self, N):
        solve = pde_verify._SineSolver(N)
        r = np.random.default_rng(N).standard_normal((N, N))
        z = np.empty_like(r)
        solve(r, out=z)
        tracemalloc.start()
        try:
            assert solve(r, out=z) is z
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < N * N * 8
        assert np.array_equal(z, solve(r))


class TestSpline:
    @pytest.mark.parametrize("N", [8, 9, 64, 97, 256])
    def test_matches_rect_bivariate_spline(self, N):
        from scipy.interpolate import RectBivariateSpline
        xc = -1 + (np.arange(N) + 0.5) * (2.0 / N)
        X, Y = np.meshgrid(xc, xc, indexing="ij")
        u = np.sin(3 * X) * np.cos(2 * Y) + 0.1 * np.random.default_rng(N) \
            .standard_normal((N, N))
        th = 2 * np.pi * np.arange(384) / 384
        pts = np.concatenate([r * np.stack([np.cos(th), np.sin(th)], axis=1)
                              for r in (0.75, 0.5, 0.25, 0.125, 0.0625)])
        want = RectBivariateSpline(xc, xc, u, kx=3, ky=3, s=0)(
            pts[:, 0], pts[:, 1], grid=False)
        got = pde_verify._Spline(xc, u)(pts)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_reproduces_cubic_polynomials(self):
        xc = -1 + (np.arange(16) + 0.5) * (2.0 / 16)
        X, Y = np.meshgrid(xc, xc, indexing="ij")
        cubic = lambda x, y: x ** 3 - 2 * x * y ** 2 + y ** 3 * x ** 2 + 0.5 * y
        pts = np.random.default_rng(3).uniform(-0.9, 0.9, (200, 2))
        got = pde_verify._Spline(xc, cubic(X, Y))(pts)
        np.testing.assert_allclose(got, cubic(pts[:, 0], pts[:, 1]), atol=1e-13)


class TestSpectralDecomposition:
    def test_pure_first_moment(self, identity_x1_sol):
        dec = pde_verify.spectral_decompose(identity_x1_sol,
                                            [0.5, 0.25, 0.125])
        np.testing.assert_allclose(dec.u0, 0, atol=1e-10)
        np.testing.assert_allclose(dec.v, [[1, 0]] * 3, atol=1e-9)
        assert dec.w_means.max() < 1e-9
        assert dec.w_moments.max() < 1e-9

    def test_quadratic_plus_constant(self, identity_field):
        sol = pde_verify.solve_dirichlet(identity_field,
                                         lambda p: 1.0 + QUAD(p), 128,
                                         tol=1e-12)
        dec = pde_verify.spectral_decompose(sol, [0.5, 0.25])
        np.testing.assert_allclose(dec.u0, 1.0, atol=1e-7)
        np.testing.assert_allclose(dec.v, 0, atol=1e-7)
        # the remainder r^2 cos(2 theta) has zero mean and first moments
        assert dec.w_means.max() < 1e-8
        assert dec.w_moments.max() < 1e-8

    def test_radial_function_decomposes_to_mean(self):
        # decomposition applies to any grid function, solution or not
        N = 128
        h = 2.0 / N
        xc = -1 + (np.arange(N) + 0.5) * h
        X, Y = np.meshgrid(xc, xc, indexing="ij")
        sol = pde_verify.GridSolution(N, xc, X ** 2 + Y ** 2, 0.0, 0)
        dec = pde_verify.spectral_decompose(sol, [0.5, 0.25])
        np.testing.assert_allclose(dec.u0, [0.25, 0.0625], atol=1e-8)
        np.testing.assert_allclose(dec.v, 0, atol=1e-8)
        assert dec.w_means.max() < 1e-9

    def test_radius_below_floor_rejected(self, identity_x1_sol):
        with pytest.raises(ValueError, match="floor"):
            pde_verify.spectral_decompose(identity_x1_sol, [0.01])


class TestLipschitzQuotient:
    def test_linear_solution_quotient_one(self, identity_x1_sol):
        rep = pde_verify.spectral_decompose(identity_x1_sol,
                                            [0.5, 0.25, 0.125, 0.0625])
        np.testing.assert_allclose(rep.Q, 1.0, atol=1e-8)
        assert rep.bounded_evidence
        assert abs(rep.u_origin) < 1e-10

    def test_harmonic_polynomial_bounded(self, identity_quad_sol):
        rep = pde_verify.spectral_decompose(identity_quad_sol,
                                            [0.4, 0.2, 0.1, 0.05])
        # Q(r) ~ r for a quadratic: decreasing, hence bounded evidence
        assert np.all(np.diff(rep.Q) < 0)

    def test_growing_quotient_flagged(self):
        field = gs_log_field(1.0, shift=2.0)
        sol = pde_verify.solve_dirichlet(field, X1, 256, tol=1e-12)
        radii = [0.5, 0.25, 0.125, 0.0625, 0.03125]
        rep = pde_verify.spectral_decompose(sol, radii)
        assert np.all(np.diff(rep.Q) > 0)
        assert not rep.bounded_evidence

    @pytest.mark.parametrize("radii", [[0.5], [0.5, 0.25]])
    def test_fewer_than_three_circles_give_no_bounded_evidence(
            self, identity_x1_sol, radii):
        # Q = 1 on every circle, yet one or two circles show no saturation
        rep = pde_verify.spectral_decompose(identity_x1_sol, radii)
        np.testing.assert_allclose(rep.Q, 1.0, atol=1e-8)
        assert not rep.bounded_evidence

    @pytest.mark.parametrize("radii", [[0.5, 0.5, 0.5], [0.5, 0.25, 0.5]])
    def test_repeated_radius_rejected(self, identity_x1_sol, radii):
        # one circle read three times would show a plateau of Q
        with pytest.raises(ValueError, match="distinct"):
            pde_verify.spectral_decompose(identity_x1_sol, radii)

    @pytest.mark.parametrize("radius", [0.01, 0.99])
    def test_radius_outside_trusted_band_rejected(self, identity_x1_sol,
                                                  radius):
        with pytest.raises(ValueError, match="floor|unit disk"):
            pde_verify.spectral_decompose(identity_x1_sol, [0.5, radius])

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_non_finite_radius_rejected(self, identity_x1_sol, radius):
        with pytest.raises(ValueError, match="finite"):
            pde_verify.spectral_decompose(identity_x1_sol, [0.5, radius, 0.25])


class TestGradientAtOrigin:
    def test_linear_exact(self, identity_x1_sol):
        rep = pde_verify.spectral_decompose(
            identity_x1_sol, [0.5, 0.25, 0.125, 0.0625])
        np.testing.assert_allclose(rep.v, [[1, 0]] * 4, atol=1e-9)
        np.testing.assert_allclose(rep.limit, [1, 0], atol=1e-9)

    def test_smooth_boundary_vs_fine_grid_oracle(self, identity_field):
        # frozen from a one-off N = 1024 run of this solver: d/dx at the
        # origin of the harmonic extension of sin(x1) boundary data
        oracle = 0.8576792030
        sol = pde_verify.solve_dirichlet(identity_field,
                                         lambda p: np.sin(p[:, 0]), 256,
                                         tol=1e-12)
        rep = pde_verify.spectral_decompose(sol, [0.4, 0.2, 0.1, 0.05])
        assert rep.limit[0] == pytest.approx(oracle, abs=5e-6)
        assert abs(rep.limit[1]) < 1e-8
        assert rep.converged_evidence

    def test_zero_gradient_case_decreasing(self):
        field = gs_log_field(-1.0, shift=2.0)
        sol = pde_verify.solve_dirichlet(field, X1, 256, tol=1e-12)
        rep = pde_verify.spectral_decompose(
            sol, [0.5, 0.25, 0.125, 0.0625, 0.03125])
        mags = np.linalg.norm(rep.v, axis=1)
        assert np.all(np.diff(mags) < 0)
