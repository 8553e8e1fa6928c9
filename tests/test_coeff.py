import math

import numpy as np
import pytest

from ellipreg import coeff, sphmean
from ellipreg.coeff import FieldError

from conftest import gs_log_field, gs_power_field, mean_R, random_spd


class TestMakeConstant:
    def test_identity(self):
        f = coeff.make_constant(2, np.eye(2))
        assert f.normalized
        assert np.allclose(f.eval([0.3, -0.1]), np.eye(2))
        assert float(f.modulus(np.array([0.5]))[0]) == 0.0

    def test_non_normalized_flagged(self):
        f = coeff.make_constant(2, np.diag([2.0, 1.0]))
        assert not f.normalized
        assert np.allclose(f.eval([0.1, 0.2]), np.diag([2.0, 1.0]))

    def test_indefinite_rejected_with_eigenvalue(self):
        A = np.diag([1.0, 1.0, -0.1])
        with pytest.raises(FieldError, match="-0.1"):
            coeff.make_constant(3, A)

    def test_nonsymmetric_rejected(self):
        with pytest.raises(FieldError, match="symmetric"):
            coeff.make_constant(2, np.array([[1.0, 0.2], [0.0, 1.0]]))


class TestGilbargSerrin:
    def test_zero_profile_is_identity(self, grid2):
        f = coeff.make_gilbarg_serrin(2, lambda r: 0.0 * np.asarray(r),
                                      coeff.zero_modulus())
        assert np.allclose(f.eval_batch(0.3 * grid2.nodes), np.eye(2))

    def test_rank_one_structure(self, grid2):
        f = gs_log_field(sign=1.0)
        r = 0.25
        gval = 1.0 / (1.0 - np.log(r))
        A = f.eval_batch(r * grid2.nodes)
        expected = np.eye(2) + gval * grid2.nodes[:, :, None] * grid2.nodes[:, None, :]
        np.testing.assert_allclose(A, expected, atol=1e-15)

    def test_envelope_violation_names_radius(self):
        with pytest.raises(FieldError, match="r ="):
            coeff.make_gilbarg_serrin(2, lambda r: np.asarray(r) ** 0.25,
                                      coeff.power_modulus(0.5))

    def test_ellipticity_rejection(self):
        with pytest.raises(FieldError, match="ellipticity"):
            coeff.make_gilbarg_serrin(
                2, lambda r: -2.0 + 0.0 * np.asarray(r),
                coeff.constant_modulus(2.0))

    def test_origin_evaluates_to_identity(self):
        f = gs_power_field(0.5)
        assert np.allclose(f.eval([0.0, 0.0]), np.eye(2))

    def test_mixed_batch_with_origin_rows(self, grid2):
        # a g that raises at r = 0 is never read at the origin
        def g(r):
            if np.any(r == 0):
                raise ZeroDivisionError("g read at the origin")
            return 1 / (1 - np.log(r))

        f = coeff.make_gilbarg_serrin(2, g, coeff.inv_log_modulus())
        pts = np.concatenate([np.zeros((2, 2)), 0.3 * grid2.nodes[:5],
                              np.zeros((1, 2)), 0.01 * grid2.nodes[5:9]])
        origin = np.all(pts == 0, axis=1)
        A = f.eval_batch(pts)
        assert np.all(A[origin] == np.eye(2))
        for x, Ax in zip(pts[~origin], A[~origin]):
            np.testing.assert_array_equal(Ax, f.eval(x))


class TestPerturbedRadial:
    def test_pure_radial(self):
        f = coeff.make_perturbed_radial(
            2, lambda r: (1.0 + r)[:, None, None] * np.eye(2),
            modulus=coeff.power_modulus(1.0))
        assert np.allclose(f.eval([0.3, 0.0]), 1.3 * np.eye(2))

    def test_radial_field_has_zero_R(self, grid2):
        f = coeff.make_perturbed_radial(
            2, lambda r: (1.0 + np.sqrt(r))[:, None, None] * np.eye(2),
            modulus=coeff.power_modulus(0.5))
        for r in 2.0 ** -np.arange(1, 12):
            assert np.max(np.abs(mean_R(f, r, grid2))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_spheres_read_a0_once_per_radius(self, n):
        calls = []

        def a0(r):
            # an array of radii, or the one radius the assertion reads
            calls.extend(np.atleast_1d(r))
            return (1.0 + np.sqrt(r))[..., None, None] * np.eye(n)

        f = coeff.make_perturbed_radial(n, a0, modulus=coeff.power_modulus(0.5))
        calls.clear()
        radii = np.array([0.5, 0.25, 1e-300, 0.0])
        grid = sphmean.default_grid(n)
        A = f.on_spheres(radii, grid)
        assert calls == list(radii)
        np.testing.assert_array_equal(A[:, 0], np.stack([a0(r) for r in radii[:-1]]
                                                        + [np.eye(n)]))
        np.testing.assert_array_equal(A, np.broadcast_to(A[:, :1], A.shape))

    def test_gs_term_reduces_to_gs_field(self, grid2):
        gsf = gs_power_field(1.0, c=0.5)
        f = coeff.make_perturbed_radial(
            2, lambda r: np.broadcast_to(np.eye(2), (len(r), 2, 2)), gsf,
            modulus=coeff.power_modulus(1.0, 0.5))
        pts = 0.4 * grid2.nodes
        np.testing.assert_allclose(f.eval_batch(pts), gsf.eval_batch(pts),
                                   atol=1e-14)

    def test_R_determined_by_perturbation_alone(self, grid2):
        # radial part (1 + sqrt(r)) I plus a small anisotropic term
        eps = 0.1

        def a1(pts):
            pts = np.atleast_2d(np.asarray(pts, float))
            r = np.linalg.norm(pts, axis=1)
            th1sq = np.zeros(len(pts))
            m = r > 0
            th1sq[m] = (pts[m, 0] / r[m]) ** 2
            out = np.zeros((len(pts), 2, 2))
            out[:, 0, 0] = eps * r * th1sq
            return out

        combined = coeff.make_perturbed_radial(
            2, lambda r: (1.0 + np.sqrt(r))[:, None, None] * np.eye(2), a1,
            modulus=coeff.power_modulus(0.5, 2.0))
        alone = coeff.make_custom(2, lambda p: np.eye(2) + a1(p),
                                  coeff.power_modulus(1.0, eps))
        for r in (0.5, 0.25, 0.1):
            R1 = mean_R(combined, r, grid2)
            R2 = mean_R(alone, r, grid2)
            np.testing.assert_allclose(R1, R2, atol=1e-13)

    def test_non_normalized_center_rejected(self):
        with pytest.raises(FieldError, match="identity"):
            coeff.make_perturbed_radial(
                2, lambda r: (2.0 + r)[:, None, None] * np.eye(2),
                modulus=coeff.power_modulus(1.0))


class TestMakeCustom:
    @staticmethod
    def skewed(pts):
        """I plus an off-diagonal entry on one side only."""
        out = np.broadcast_to(np.eye(2), (len(pts), 2, 2)).copy()
        out[:, 0, 1] += 0.1 * np.linalg.norm(pts, axis=1)
        return out

    @pytest.mark.parametrize("ellipticity", [None, (0.5, 2.0)])
    def test_non_symmetric_evaluator_rejected(self, ellipticity):
        # the R kernel reads each sample transposed, so a given ellipticity
        # must not skip the symmetry probe
        with pytest.raises(FieldError, match="non-symmetric"):
            coeff.make_custom(2, self.skewed, coeff.power_modulus(1.0),
                              ellipticity=ellipticity)

    def test_given_ellipticity_is_kept(self):
        f = coeff.make_custom(2, lambda p: np.broadcast_to(np.eye(2), (len(p), 2, 2)),
                              coeff.power_modulus(1.0), ellipticity=(0.5, 2.0))
        assert f.ellipticity == (0.5, 2.0)


class TestEnvelopeInvariant:
    @pytest.mark.parametrize("field_fn", [
        lambda: gs_log_field(1.0),
        lambda: gs_log_field(-1.0, shift=2.0),
        lambda: gs_power_field(0.5),
        lambda: gs_power_field(1.0, c=0.3, n=3),
    ])
    def test_dyadic_envelope(self, field_fn):
        f = field_fn()
        grid = sphmean.default_grid(f.dim)
        for k in range(0, 20):
            r = 2.0 ** -k
            est = np.max(np.abs(f.eval_batch(r * grid.nodes) - np.eye(f.dim)))
            assert est <= float(f.modulus(np.array([r]))[0]) * (1 + 1e-10)

    def test_ellipticity_sampling(self, grid2):
        rng = np.random.default_rng(5)
        f = gs_log_field(-1.0, shift=2.0)
        lo, hi = f.ellipticity
        for _ in range(50):
            x = rng.uniform(-0.7, 0.7, 2)
            xi = rng.normal(size=2)
            q = xi @ f.eval(x) @ xi
            assert lo * xi @ xi - 1e-12 <= q <= hi * xi @ xi + 1e-12


class TestModulus:
    def test_log_channel_matches_at_moderate_s(self):
        for m in (coeff.inv_log_modulus(0.7, 2.0, 2.0),
                  coeff.power_modulus(0.25, 1.3),
                  coeff.piecewise_log_modulus([0.5, 0.25, 0.125])):
            s = np.linspace(0.1, 40.0, 23)
            np.testing.assert_allclose(m.log_form(s), m(np.exp(-s)),
                                       rtol=1e-13, atol=1e-300)

    def test_log_channel_survives_underflow(self):
        m = coeff.inv_log_modulus()
        assert m.log_form(np.array([2000.0]))[0] == pytest.approx(1 / 2001.0)

    @pytest.mark.parametrize("m", [
        coeff.zero_modulus(), coeff.power_modulus(0.5, 2.0),
        coeff.inv_log_modulus(0.7, 2.0, 2.0),
        coeff.parse_modulus_expr("r^0.5 + 1/log(e^2/r)")])
    def test_radius_reads_the_log_form_and_the_origin_is_zero(self, m):
        r = 2.0 ** -np.arange(0, 31, dtype=float)
        np.testing.assert_array_equal(m(r), m.log_form(-np.log(r)))
        assert m(np.array([0.0]))[0] == 0.0

    def test_rank_one_envelope_check_reads_the_shells(self):
        # g = 0.5 on every shell: inside the table's first value, outside
        # its second, which the shell (1/4, 1/2] carries
        table = coeff.piecewise_log_modulus([0.5, 0.25])
        with pytest.raises(FieldError, match="r = 0.5 "):
            coeff.make_gilbarg_serrin(2, lambda r: np.full_like(r, 0.5), table)


class TestArrayCallables:
    """g and a0 are read once per array of radii; a callable that takes one
    radius at a time is refused, naming the shape it must return."""

    @pytest.mark.parametrize("g", [lambda r: math.exp(-r), lambda r: 0.5],
                             ids=["scalar-only", "scalar-valued"])
    def test_g_not_mapping_arrays_refused(self, g):
        with pytest.raises(FieldError, match=r"^g must map .* shape \(k,\)"):
            coeff.make_gilbarg_serrin(2, g, coeff.constant_modulus(1.0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_a0_not_mapping_arrays_refused(self, n):
        with pytest.raises(FieldError,
                           match=rf"^a0 must map .* shape \(k, n, n\), here \(1, {n}, {n}\)"):
            coeff.make_perturbed_radial(n, lambda r: np.eye(n),
                                        modulus=coeff.power_modulus(1.0))


class TestExpressionWhitelist:
    @pytest.mark.parametrize("expr,r,val", [
        ("r^0.5", 0.25, 0.5),
        ("2*r^1", 0.25, 0.5),
        ("1/log(e/r)", np.exp(-1), 0.5),
        ("0.5/(log(e^2/r))^2", 1.0, 0.125),
        ("r^1 + 1/log(e/r)", np.exp(-1), np.exp(-1) + 0.5),
        ("-1/log(e^2/r)", 1.0, -0.5),
        ("1e-1*r^1", 0.5, 0.05),
        ("2.5e-2/log(e/r)", np.exp(-1), 0.0125),
    ])
    def test_terms(self, expr, r, val):
        f = coeff.parse_radial_expr(expr)
        assert float(f(np.array([r]))[0]) == pytest.approx(val, rel=1e-12)

    @pytest.mark.parametrize("expr", [
        "__import__('os')", "r**2", "exp(r)", "sin(r)", "r^a", ""])
    def test_rejects_off_whitelist(self, expr):
        with pytest.raises(FieldError):
            coeff.parse_radial_expr(expr)

    def test_modulus_expr_log_channel(self):
        m = coeff.parse_modulus_expr("1/log(e^2/r)")
        assert m.log_form(np.array([3.0]))[0] == pytest.approx(0.2)
        m2 = coeff.parse_modulus_expr("r^0.5")
        assert m2.log_form(np.array([2.0]))[0] == pytest.approx(np.exp(-1.0))


class TestRandomConstantFields:
    def test_spd_fields_accepted(self):
        rng = np.random.default_rng(42)
        for n in (2, 3):
            for _ in range(5):
                A0 = random_spd(rng, n)
                f = coeff.make_constant(n, A0)
                assert f.ellipticity[0] > 0
                np.testing.assert_allclose(f.eval(np.full(n, 0.2)), A0)
