import numpy as np
import pytest

from ellipreg import appendix_system as apx
from ellipreg import coeff, sphmean

from conftest import gs_log_field


def gs_constant_moments(g0, n=2, r=0.3):
    f = coeff.make_gilbarg_serrin(
        n, lambda r_: g0 * np.ones_like(np.asarray(r_, float)),
        coeff.constant_modulus(abs(g0)))
    return sphmean.appendix_moments(f, r, sphmean.default_grid(n))


class TestMInfinity:
    def test_n2_explicit(self):
        M = apx.m_infinity(2)
        want = np.array([[-1, 0, 2, 0], [0, -1, 0, 2],
                         [0.5, 0, -1, 0], [0, 0.5, 0, -1]], float)
        np.testing.assert_allclose(M, want)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_eigenstructure(self, n):
        M = apx.m_infinity(n)
        eigs = np.sort(np.linalg.eigvals(M).real)
        want = np.sort(np.concatenate([np.zeros(n), -n * np.ones(n)]))
        np.testing.assert_allclose(eigs, want, atol=1e-12)
        assert np.max(np.abs(np.linalg.eigvals(M).imag)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_jordanizer_diagonalizes(self, n):
        M, J = apx.m_infinity(n), apx.jordanizer(n)
        D = np.linalg.inv(J) @ M @ J
        want = np.diag(np.concatenate([np.zeros(n), -n * np.ones(n)]))
        np.testing.assert_allclose(D, want, atol=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            apx.m_infinity(1)


class TestS1:
    def test_identity_moments_vanish(self, identity_field, grid2):
        md = sphmean.appendix_moments(identity_field, 0.4, grid2)
        assert np.max(np.abs(apx.s1_matrix(md))) < 1e-14

    def test_gs_hand_blocks(self):
        # g = 0.1, n = 2: A = B = 0.55 I, C = 1.05 I
        S1 = apx.s1_matrix(gs_constant_moments(0.1))
        np.testing.assert_allclose(S1[:2, :2], 0, atol=1e-14)
        np.testing.assert_allclose(S1[:2, 2:], (1 / 0.55 - 2) * np.eye(2),
                                   atol=1e-13)
        np.testing.assert_allclose(S1[2:, :2], 0, atol=1e-14)
        np.testing.assert_allclose(S1[2:, 2:], 0, atol=1e-14)

    def test_first_order_scaling(self):
        # halving g halves ||S1|| to first order
        norms = {g: np.linalg.norm(apx.s1_matrix(gs_constant_moments(g)), 2)
                 for g in (0.1, 0.05)}
        assert norms[0.1] / norms[0.05] == pytest.approx(2.0, rel=0.06)

    def test_s1_bounded_by_envelope(self, grid2):
        field = gs_log_field(1.0)
        for t in (1.0, 3.0, 6.0, 10.0):
            md = sphmean.appendix_moments(field, float(np.exp(-t)), grid2)
            eps_t = float(field.modulus(np.array([np.exp(-t)]))[0])
            assert np.linalg.norm(apx.s1_matrix(md), 2) <= 3.0 * eps_t

    def test_near_singular_rejected(self):
        md = gs_constant_moments(0.1)
        bad = sphmean.MomentData(
            r=md.r, alpha=md.alpha, beta=md.beta, gamma=md.gamma,
            Amat=np.diag([1.0, 1e-12]), Bmat=md.Bmat, Cmat=md.Cmat,
            R=md.R, S=md.S, mu=md.mu)
        with pytest.raises(ValueError, match="near-singular"):
            apx.s1_matrix(bad)


class TestR1Residual:
    def test_identity_zero(self, identity_field, grid2):
        md = sphmean.appendix_moments(identity_field, 0.4, grid2)
        res = apx.r1_block_residual(md)
        assert res.residual < 1e-14
        assert res.quadrature_residual < 1e-14

    def test_gs_exact_defect(self):
        # frozen closed form: R1 - (C - nB) = g^2 (n-1) / (n (1+g)) I
        for g0 in (0.2, 0.1):
            res = apx.r1_block_residual(gs_constant_moments(g0))
            want = g0 ** 2 / (2 * (1 + g0))
            assert res.residual == pytest.approx(want, rel=1e-10)

    def test_second_order_slope(self):
        gvals = np.array([0.2, 0.1, 0.05, 0.025])
        defects = [apx.r1_block_residual(gs_constant_moments(g)).residual
                   for g in gvals]
        slope = np.polyfit(np.log(gvals), np.log(defects), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_c_minus_nb_matches_quadrature_R(self):
        # two independent accumulations of the same mean value, 20 radii
        rng = np.random.default_rng(2)
        fields = [gs_log_field(1.0), gs_log_field(-1.0, shift=2.0),
                  gs_log_field(0.5, n=3)]
        for f in fields:
            grid = sphmean.default_grid(f.dim)
            for r in rng.uniform(0.02, 0.9, 20):
                md = sphmean.appendix_moments(f, float(r), grid)
                assert apx.r1_block_residual(md).quadrature_residual < 1e-12


class TestReducedSystem:
    def test_reduction_and_defect_curve(self):
        # the calls ``ellipreg appendix`` makes: M_inf and J for the
        # dimension, then the moments along log-time on the sampler's grid
        field = gs_log_field(1.0)
        n, grid = field.dim, sphmean.default_grid(field.dim)
        M_inf, J = apx.m_infinity(n), apx.jordanizer(n)
        assert M_inf.shape == J.shape == (4, 4)
        for t in (1.0, 4.0):
            md = sphmean.appendix_moments(field, float(np.exp(-t)), grid)
            assert md.r == pytest.approx(np.exp(-t))
            assert apx.r1_block_residual(md).residual >= 0
