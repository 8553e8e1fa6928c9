import numpy as np
import pytest

from ellipreg import coeff, sphmean

from conftest import gs_log_field, gs_power_field, random_spd


def aniso_field(gfun, n=2):
    """a_11 = 1 + g(r) theta_1^2, all other entries Kronecker."""
    def batch(pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        r = np.linalg.norm(pts, axis=1)
        out = np.broadcast_to(np.eye(n), (len(pts), n, n)).copy()
        m = r > 0
        th1sq = np.zeros(len(pts))
        th1sq[m] = (pts[m, 0] / r[m]) ** 2
        out[:, 0, 0] += np.where(m, gfun(np.maximum(r, 1e-300)), 0.0) * th1sq
        return out
    return coeff.make_custom(n, batch, coeff.power_modulus(1.0, 2.0),
                             ellipticity=(0.5, 3.0))


class TestGrids:
    def test_weights_sum_to_one(self, grid2, grid3):
        for g in (grid2, grid3):
            assert abs(g.weights.sum() - 1.0) < 1e-14

    def test_second_moment_exactness(self, grid2, grid3):
        for g in (grid2, grid3):
            n = g.dim
            M = np.einsum("m,mi,mj->ij", g.weights, g.nodes, g.nodes)
            np.testing.assert_allclose(M, np.eye(n) / n, atol=1e-13)

    def test_2d_equal_weights(self):
        g = sphmean.sphere_grid(2, 16)
        assert len(g.weights) == 16
        assert np.all(g.weights == 1 / 16)

    def test_2d_degree_two_small_grid(self):
        g = sphmean.sphere_grid(2, 8)
        assert abs(np.sum(g.weights * g.nodes[:, 0] ** 2) - 0.5) < 1e-14

    def test_3d_odd_moment_vanishes(self):
        g = sphmean.sphere_grid(3, 24)
        assert abs(np.sum(g.weights * g.nodes[:, 0] * g.nodes[:, 1])) < 1e-13

    @pytest.mark.parametrize("n,pairs", [
        (2, [((2, 0), 0.5), ((4, 0), 3 / 8), ((2, 2), 1 / 8)]),
        (3, [((2, 0), 1 / 3), ((4, 0), 1 / 5), ((2, 2), 1 / 15)]),
    ])
    def test_degree_four_table(self, n, pairs, grid2, grid3):
        g = grid2 if n == 2 else grid3
        for (p, q), want in pairs:
            val = np.sum(g.weights * g.nodes[:, 0] ** p * g.nodes[:, 1] ** q)
            assert abs(val - want) < 1e-13

    def test_3d_degree_four_exact_at_minimum_resolution(self):
        g = sphmean.sphere_grid(3, 12)
        for (p, q), want in [((2, 0), 1 / 3), ((4, 0), 1 / 5), ((2, 2), 1 / 15)]:
            val = np.sum(g.weights * g.nodes[:, 0] ** p * g.nodes[:, 1] ** q)
            assert abs(val - want) < 1e-13

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            sphmean.sphere_grid(4, 16)
        with pytest.raises(ValueError, match="resolution"):
            sphmean.sphere_grid(2, 4)


class TestMeanMatrixR:
    def test_constant_fields_annihilate(self):
        rng = np.random.default_rng(7)
        for n in (2, 3):
            grid = sphmean.default_grid(n)
            for _ in range(10):
                f = coeff.make_constant(n, random_spd(rng, n))
                for r in 2.0 ** -np.arange(1, 21):
                    assert np.max(np.abs(sphmean.mean_matrix_R(f, r, grid))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_gs_closed_form(self, n):
        grid = sphmean.default_grid(n)
        f = gs_log_field(1.0, n=n)
        for r in 2.0 ** -np.arange(1, 21):
            gval = 1.0 / (1.0 - np.log(r))
            want = (1.0 - n) / n * gval * np.eye(n)
            R = sphmean.mean_matrix_R(f, r, grid)
            assert np.max(np.abs(R - want)) < 1e-10

    def test_gs_constant_profile_value(self, grid2):
        # n = 2, g(0.25) = 0.3: R = ((1-n)/n) g I = -0.15 I
        f = coeff.make_gilbarg_serrin(
            2, lambda r: 0.3 * np.ones_like(np.asarray(r, float)),
            coeff.constant_modulus(0.3))
        R = sphmean.mean_matrix_R(f, 0.25, grid2)
        np.testing.assert_allclose(R, -0.15 * np.eye(2), atol=1e-14)

    def test_anisotropic_hand_value(self, grid2):
        # mean of (A - 2 A theta x theta) for a_11 = 1 + g theta_1^2 is
        # diag(-g/4, 0): frozen from the degree-four moment table
        f = aniso_field(lambda r: 0.4 * np.ones_like(r))
        R = sphmean.mean_matrix_R(f, 0.5, grid2)
        np.testing.assert_allclose(R, np.diag([-0.1, 0.0]), atol=1e-14)

    def test_anisotropic_dense_quadrature_oracle(self):
        f = aniso_field(lambda r: 0.4 * r)
        dense = sphmean.sphere_grid(2, 4096)
        for r in (0.5, 0.1):
            R_def = sphmean.mean_matrix_R(f, r)
            R_orc = sphmean.mean_matrix_R(f, r, dense)
            np.testing.assert_allclose(R_def, R_orc, atol=1e-13)

    def test_resolution_convergence(self):
        for f in (gs_log_field(1.0), aniso_field(lambda r: 0.3 * r)):
            a = sphmean.mean_matrix_R(f, 0.3, sphmean.sphere_grid(2, 64))
            b = sphmean.mean_matrix_R(f, 0.3, sphmean.sphere_grid(2, 128))
            assert np.max(np.abs(a - b)) < 1e-10

    def test_oscillation_ratio_bounded(self, grid2):
        # |R(r)| <= c omega(r): report/check the empirical ratio on built-ins
        f = gs_log_field(1.0)
        for r in 2.0 ** -np.arange(1, 15):
            R = sphmean.mean_matrix_R(f, r, grid2)
            om = float(f.modulus(np.array([r]))[0])
            assert np.max(np.abs(R)) <= 1.0 * om + 1e-15

    def test_many_radii_path_matches(self, grid2):
        f = gs_power_field(0.5)
        radii = 2.0 ** -np.arange(1, 8, dtype=float)
        many = sphmean.mean_matrix_R_many(f, radii, grid2)
        for i, r in enumerate(radii):
            np.testing.assert_allclose(many[i],
                                       sphmean.mean_matrix_R(f, r, grid2),
                                       atol=1e-15)


class TestSphereSweep:
    @pytest.mark.parametrize("n", [2, 3])
    def test_chunks_cover_radii_in_order_within_the_cap(self, n, monkeypatch):
        f = gs_log_field(-1.0, shift=2.0, n=n)
        grid = sphmean.sphere_grid(n, 16)
        per_radius = grid.nodes.size * n
        monkeypatch.setattr(sphmean, "_SWEEP_CHUNK_DOUBLES", 5 * per_radius + 3)
        radii = 2.0 ** -np.linspace(1, 20, 23)
        seen = []
        for sl, A in sphmean.sphere_sweep(f, radii, grid):
            assert A.shape == (sl.stop - sl.start, len(grid.weights), n, n)
            pts = (radii[sl, None, None] * grid.nodes).reshape(-1, n)
            np.testing.assert_array_equal(A.reshape(-1, n, n), f.eval_batch(pts))
            seen.append((sl.start, sl.stop))
        assert seen == [(0, 5), (5, 10), (10, 15), (15, 20), (20, 23)]

    def test_chunk_holds_at_least_one_radius(self, monkeypatch):
        monkeypatch.setattr(sphmean, "_SWEEP_CHUNK_DOUBLES", 1)
        radii = np.array([0.5, 0.25, 0.125])
        sizes = [sl.stop - sl.start for sl, _ in sphmean.sphere_sweep(
            gs_power_field(0.5), radii, sphmean.sphere_grid(2, 8))]
        assert sizes == [1, 1, 1]


class TestSymmetrization:
    def test_zero(self):
        assert np.all(sphmean.symmetrized_S(np.zeros((2, 2))) == 0)
        assert sphmean.mu_max(np.zeros((2, 2))) == 0

    def test_gs_sign_convention(self):
        # R = ((1-n)/n) g I with g = 0.3, n = 2: S = 0.15 I, mu = 0.15
        R = -0.15 * np.eye(2)
        S = sphmean.symmetrized_S(R)
        np.testing.assert_allclose(S, 0.15 * np.eye(2))
        assert sphmean.mu_max(S) == pytest.approx(0.15)

    def test_antisymmetric_part_drops(self):
        R = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.all(sphmean.symmetrized_S(R) == 0)
        assert sphmean.mu_max(sphmean.symmetrized_S(R)) == 0


class TestAppendixMoments:
    def test_identity_moments(self, identity_field, grid2):
        md = sphmean.appendix_moments(identity_field, 0.3, grid2)
        assert md.alpha == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(md.beta, 0, atol=1e-15)
        np.testing.assert_allclose(md.gamma, 0, atol=1e-15)
        np.testing.assert_allclose(md.Amat, np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(md.Bmat, np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(md.Cmat, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(md.R, 0, atol=1e-14)
        assert md.mu == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gs_closed_form_moments(self, n):
        g0 = 0.3
        f = coeff.make_gilbarg_serrin(
            n, lambda r: g0 * np.ones_like(np.asarray(r, float)),
            coeff.constant_modulus(g0))
        md = sphmean.appendix_moments(f, 0.25, sphmean.default_grid(n))
        assert md.alpha == pytest.approx(1 + g0, abs=1e-13)
        np.testing.assert_allclose(md.Amat, (1 + g0) / n * np.eye(n), atol=1e-13)
        np.testing.assert_allclose(md.Bmat, (1 + g0) / n * np.eye(n), atol=1e-13)
        np.testing.assert_allclose(md.Cmat, (1 + g0 / n) * np.eye(n), atol=1e-13)
        assert md.mu == pytest.approx((1 - 1 / n) * g0, abs=1e-13)

    def test_anisotropic_hand_moments(self, grid2):
        g0 = 0.4
        f = aniso_field(lambda r: g0 * np.ones_like(r))
        md = sphmean.appendix_moments(f, 0.5, grid2)
        assert md.alpha == pytest.approx(1 + 3 * g0 / 8, abs=1e-14)
        np.testing.assert_allclose(
            md.Amat, np.diag([0.5 + 5 * g0 / 16, 0.5 + g0 / 16]), atol=1e-14)
        np.testing.assert_allclose(
            md.Bmat, np.diag([0.5 + 3 * g0 / 8, 0.5]), atol=1e-14)
        np.testing.assert_allclose(
            md.Cmat, np.diag([1 + g0 / 2, 1.0]), atol=1e-14)

    def test_anisotropic_dense_oracle(self):
        f = aniso_field(lambda r: 0.4 * r)
        dense = sphmean.sphere_grid(2, 4096)
        md = sphmean.appendix_moments(f, 0.3)
        mo = sphmean.appendix_moments(f, 0.3, dense)
        for attr in ("alpha", "mu"):
            assert getattr(md, attr) == pytest.approx(getattr(mo, attr), abs=1e-13)
        for attr in ("beta", "gamma", "Amat", "Bmat", "Cmat", "R", "S"):
            np.testing.assert_allclose(getattr(md, attr), getattr(mo, attr),
                                       atol=1e-13)

    def test_invariants_hold(self, grid2):
        f = gs_log_field(-1.0, shift=2.0)
        md = sphmean.appendix_moments(f, 0.1, grid2)
        np.testing.assert_allclose(md.S, -(md.R + md.R.T) / 2, atol=1e-13)
        assert md.mu == pytest.approx(np.linalg.eigvalsh(md.S)[-1])
        np.testing.assert_allclose(md.R, md.Cmat - 2 * md.Bmat, atol=1e-12)
