import dataclasses
import math

import numpy as np
import pytest

from ellipreg import coeff, sphmean

from conftest import (LAB_SPECS, gs_log_field, gs_power_field, lab_field, mean_R,
                      random_spd, sampled, sampler_on)
from mean_R_reference import reference_mean_R
from sphere_grid_reference import sphere_grid_by_latitude


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

    @pytest.mark.parametrize("res", [8, 12, 16, 32, 40, 241])
    def test_3d_grid_matches_the_latitude_loop_bit_for_bit(self, res):
        got, want = sphmean.sphere_grid(3, res), sphere_grid_by_latitude(res)
        for key in ("nodes", "weights", "R_weights"):
            a, b = getattr(got, key), getattr(want, key)
            assert a.shape == b.shape
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

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
                    assert np.max(np.abs(mean_R(f, r, grid))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_gs_closed_form(self, n):
        grid = sphmean.default_grid(n)
        f = gs_log_field(1.0, n=n)
        for r in 2.0 ** -np.arange(1, 21):
            gval = 1.0 / (1.0 - np.log(r))
            want = (1.0 - n) / n * gval * np.eye(n)
            R = mean_R(f, r, grid)
            assert np.max(np.abs(R - want)) < 1e-10

    def test_gs_constant_profile_value(self, grid2):
        # n = 2, g(0.25) = 0.3: R = ((1-n)/n) g I = -0.15 I
        f = coeff.make_gilbarg_serrin(
            2, lambda r: 0.3 * np.ones_like(np.asarray(r, float)),
            coeff.constant_modulus(0.3))
        R = mean_R(f, 0.25, grid2)
        np.testing.assert_allclose(R, -0.15 * np.eye(2), atol=1e-14)

    def test_anisotropic_hand_value(self, grid2):
        # mean of (A - 2 A theta x theta) for a_11 = 1 + g theta_1^2 is
        # diag(-g/4, 0): frozen from the degree-four moment table
        f = aniso_field(lambda r: 0.4 * np.ones_like(r))
        R = mean_R(f, 0.5, grid2)
        np.testing.assert_allclose(R, np.diag([-0.1, 0.0]), atol=1e-14)

    def test_anisotropic_dense_quadrature_oracle(self):
        f = aniso_field(lambda r: 0.4 * r)
        dense = sphmean.sphere_grid(2, 4096)
        for r in (0.5, 0.1):
            R_def = mean_R(f, r)
            R_orc = mean_R(f, r, dense)
            np.testing.assert_allclose(R_def, R_orc, atol=1e-13)

    def test_resolution_convergence(self):
        for f in (gs_log_field(1.0), aniso_field(lambda r: 0.3 * r)):
            a = mean_R(f, 0.3, sphmean.sphere_grid(2, 64))
            b = mean_R(f, 0.3, sphmean.sphere_grid(2, 128))
            assert np.max(np.abs(a - b)) < 1e-10

    def test_oscillation_ratio_bounded(self, grid2):
        # |R(r)| <= c omega(r): report/check the empirical ratio on built-ins
        f = gs_log_field(1.0)
        for r in 2.0 ** -np.arange(1, 15):
            R = mean_R(f, r, grid2)
            om = float(f.modulus(np.array([r]))[0])
            assert np.max(np.abs(R)) <= 1.0 * om + 1e-15

    def test_many_radii_path_matches(self, grid2):
        f = gs_power_field(0.5)
        radii = 2.0 ** -np.arange(1, 8, dtype=float)
        many = sphmean.mean_matrix_R_many(f, radii, sampler_on(grid2))
        for i, r in enumerate(radii):
            np.testing.assert_allclose(many[i],
                                       mean_R(f, r, grid2),
                                       atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("make", ["gilbarg_serrin", "perturbed_radial"])
    def test_gs_closed_form_below_square_underflow(self, n, make):
        # |x| < 1e-154 squares to 0: the radius must not, nor map the point
        # to I.  Swept on spheres, the identity part of A cancels in R only
        # to the grid's rounding, about 5e-15 in 3-D, so the perturbed field
        # carries that floor in 3-D; the rank-one field's separable parts
        # leave the identity out of R
        f = coeff.make_gilbarg_serrin(n, coeff.parse_radial_expr("-1/log(e^2/r)"),
                                      coeff.parse_modulus_expr("1/log(e^2/r)"))
        floor = 0.0
        if make == "perturbed_radial":
            f = coeff.make_perturbed_radial(
                n, lambda r: np.broadcast_to(np.eye(n), (len(r), n, n)), f,
                modulus=f.modulus)
            floor = 0.0 if n == 2 else 1e-14
        for t in (360.0, 400.0, 700.0):
            want = (1.0 - n) / n * (-1.0 / (2.0 + t))
            radii = np.array([math.exp(-t)])
            R = sphmean.mean_matrix_R_many(f, radii, sphmean.sphere_sampler(n))[0]
            assert np.max(np.abs(R - want * np.eye(n))) <= 1e-12 * abs(want) + floor


def angular_perturbed_field(n, m):
    """(1 + r) I plus a1 = 0.2 r^0.5 cos(m phi) I, phi the azimuth in the
    x1 x2 plane: a field without a form."""
    def a1(pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        amp = 0.2 * np.sqrt(np.linalg.norm(pts, axis=1))
        amp *= np.cos(m * np.arctan2(pts[:, 1], pts[:, 0]))
        return amp[:, None, None] * np.eye(n)
    return coeff.make_perturbed_radial(
        n, lambda r: (1.0 + r)[:, None, None] * np.eye(n), a1,
        modulus=coeff.power_modulus(0.5, 2.0))


def cos20_custom_field(n):
    """I + g (theta theta^T + cos(20 theta_1) I / 2), g = 0.5 r^0.5: a
    rank-one field plus a term of broad angular spectrum."""
    def batch(pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        r = np.linalg.norm(pts, axis=1)
        th = pts / np.where(r > 0, r, 1.0)[:, None]
        g = 0.5 * np.sqrt(r)
        out = np.eye(n) + g[:, None, None] * th[:, :, None] * th[:, None, :]
        return out + (0.5 * g * np.cos(20.0 * th[:, 0]))[:, None, None] * np.eye(n)
    return coeff.make_custom(n, batch, coeff.power_modulus(0.5))


class TestSphereSampler:
    RADII = 2.0 ** -np.linspace(1.0, 30.0, 59)

    @pytest.mark.parametrize("n", [2, 3])
    def test_unset_resolution_is_the_default_grid(self, n):
        sampler, grid = sphmean.sphere_sampler(n), sphmean.default_grid(n)
        assert sampler.resolution == sphmean.default_resolution(n)
        np.testing.assert_array_equal(sampler.grid.nodes, grid.nodes)
        np.testing.assert_array_equal(sampler.grid.weights, grid.weights)
        assert sphmean.sphere_sampler(n, 40).resolution == 40

    def test_max_resolution(self):
        assert sphmean.max_resolution(2) == 2 ** 18
        # 2 R^2 nodes of 9 doubles: 241 fits 2^20 doubles, 242 does not
        assert sphmean.max_resolution(3) == 241

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("field_fn", [
        lambda n: gs_log_field(-1.0, shift=2.0, n=n),
        lambda n: gs_log_field(0.5, power=2.0, n=n),
        lambda n: gs_power_field(0.5, c=-0.5, n=n),
    ])
    @pytest.mark.parametrize("path", ["separable", "sampled"])
    def test_rank_one_fields_read_the_default_grid_once(self, n, field_fn, path):
        # the separable path reads g once per radius; the sampled one the
        # whole default sphere per radius, in chunks
        f = field_fn(n) if path == "separable" else sampled(field_fn(n))
        sampler = sphmean.sphere_sampler(n)
        R = sphmean.mean_matrix_R_many(f, self.RADII, sampler)
        rec = sampler.record()
        grid = sphmean.default_grid(n)
        m = len(grid.weights)
        assert rec["resolution"] == sphmean.default_resolution(n)
        if path == "separable":
            assert rec["field_evaluations"] == len(self.RADII)
            assert rec["chunks"] == 0
            assert rec["separable_parts"] == 1
        else:
            per_chunk = max(1, sphmean._SWEEP_CHUNK_DOUBLES // (m * n * n))
            assert rec["field_evaluations"] == m * len(self.RADII)
            assert rec["chunks"] == -(-len(self.RADII) // per_chunk)
            assert "separable_parts" not in rec
        ref = sphmean.mean_matrix_R_many(sampled(f), self.RADII, sampler_on(grid))
        # the rules' own rounding: the 3-D default grid's second moments
        # are off by up to 3e-14
        np.testing.assert_allclose(R, ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("field_fn, n", [
        (lambda n: angular_perturbed_field(n, 6), 2),
        (lambda n: angular_perturbed_field(n, 14), 2),
        (lambda n: angular_perturbed_field(n, 14), 3),
        (cos20_custom_field, 2), (cos20_custom_field, 3),
    ], ids=["perturbed-cos6-2d", "perturbed-cos14-2d", "perturbed-cos14-3d",
            "custom-cos20-2d", "custom-cos20-3d"])
    def test_angular_fields_are_resolved_by_the_default_grid(self, field_fn, n):
        # the R integrand of cos(m phi) has frequencies m - 2 .. m + 2, so
        # resolution 8 aliases every one of these fields; the default grid
        # agrees with one twice as fine
        f = field_fn(n)
        R = sphmean.mean_matrix_R_many(f, self.RADII, sphmean.sphere_sampler(n))
        np.testing.assert_array_equal(R, sphmean.mean_matrix_R_many(
            f, self.RADII, sampler_on(sphmean.default_grid(n))))
        fine, coarse = (sphmean.mean_matrix_R_many(
            f, self.RADII, sphmean.sphere_sampler(n, res))
            for res in (2 * sphmean.default_resolution(n), 8))
        scale = np.maximum(1.0, np.max(np.abs(fine), axis=(1, 2)))
        assert np.all(np.max(np.abs(R - fine), axis=(1, 2)) <= 1e-12 * scale)
        assert np.max(np.max(np.abs(coarse - fine), axis=(1, 2)) / scale) > 1e-6

    @pytest.mark.parametrize("n, res", [(2, 24), (3, 12)])
    def test_explicit_resolution_sweeps_exactly_that_grid(self, n, res,
                                                          monkeypatch):
        sizes = []
        inner = sphmean.mean_R_kernel

        def spy(A, grid):
            sizes.append(len(grid.weights))
            return inner(A, grid)

        f = cos20_custom_field(n)
        sampler = sphmean.sphere_sampler(n, res)
        monkeypatch.setattr(sphmean, "mean_R_kernel", spy)
        R = sphmean.mean_matrix_R_many(f, self.RADII, sampler)
        grid = sphmean.sphere_grid(n, res)
        assert set(sizes) == {len(grid.weights)}
        rec = sampler.record()
        assert rec.pop("sweep_s") >= 0.0
        # all 59 radii fit one chunk
        assert rec == {
            "resolution": res,
            "field_evaluations": len(grid.weights) * len(self.RADII),
            "chunks": 1}
        np.testing.assert_array_equal(
            R, inner(f.on_spheres(self.RADII, grid), grid))

    @pytest.mark.parametrize("n", [2, 3])
    def test_samples_held_at_once_fit_the_chunk(self, n, monkeypatch):
        # three spheres of the default grid: a chunk holds at least one
        top = sphmean.default_grid(n).nodes.size * n
        cap = 3 * top + 5
        monkeypatch.setattr(sphmean, "_SWEEP_CHUNK_DOUBLES", cap)
        held = []
        f = cos20_custom_field(n)
        inner = f.eval_batch
        counted = dataclasses.replace(
            f, eval_batch=lambda pts: held.append(len(pts) * n * n) or inner(pts))
        sampler = sphmean.sphere_sampler(n)
        R = sphmean.mean_matrix_R_many(counted, self.RADII, sampler)
        assert max(held) <= cap
        assert sum(held) == sampler.field_evals * n * n
        np.testing.assert_array_equal(
            R, sphmean.mean_matrix_R_many(f, self.RADII, sphmean.sphere_sampler(n)))


def two_part_field(n):
    """I + g1(r) theta theta^T + g2(r) e e^T, e = theta turned by 0.4 in the
    x1 x2 plane, g1 = 0.3 r^0.5 and g2 = -0.2/(2 - ln r): a custom field
    given J = 2 separable parts by hand."""
    c, s = math.cos(0.4), math.sin(0.4)
    turn = np.eye(n)
    turn[:2, :2] = [[c, -s], [s, c]]

    def factors(radii):
        r = np.maximum(radii, 1e-300)
        return np.where(radii[:, None] > 0, np.stack(
            [0.3 * np.sqrt(r), -0.2 / (2.0 - np.log(r))], axis=1), 0.0)

    def angular(theta):
        e = theta @ turn.T
        return np.stack([theta[:, :, None] * theta[:, None, :],
                         e[:, :, None] * e[:, None, :]])

    def batch(pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        r = coeff._radii(pts)
        th = pts / np.where(r > 0, r, 1.0)[:, None]
        e = th @ turn.T
        g = factors(r)
        return (np.eye(n) + g[:, 0, None, None] * th[:, :, None] * th[:, None, :]
                + g[:, 1, None, None] * e[:, :, None] * e[:, None, :])

    f = coeff.make_custom(n, batch, coeff.power_modulus(0.5))
    base = lambda radii: np.broadcast_to(np.eye(n), (len(radii), n, n))
    return dataclasses.replace(
        f, separable=coeff.SeparableParts(base, factors, angular))


class TestSeparableR:
    """R from a field's separable parts against R from its sphere sweeps."""

    RADII = np.concatenate([[1.0], 2.0 ** -np.linspace(1.0, 30.0, 59),
                            [math.exp(-700.0), 1e-140, 1e-300, 0.0]])
    FIELDS = [lambda n, spec=spec: lab_field(spec, n) for spec in LAB_SPECS]
    FIELDS.append(two_part_field)
    IDS = ["-".join(map(str, spec)) for spec in LAB_SPECS] + ["two-part"]
    SAMPLERS = {"default": lambda n: sphmean.sphere_sampler(n),
                "coarse": lambda n: sphmean.sphere_sampler(n, 24 if n == 2 else 12)}

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("field_fn", FIELDS, ids=IDS)
    @pytest.mark.parametrize("grid", list(SAMPLERS))
    def test_agrees_with_the_sweep(self, n, field_fn, grid):
        f = field_fn(n)
        fast, slow = self.SAMPLERS[grid](n), self.SAMPLERS[grid](n)
        R = sphmean.mean_matrix_R_many(f, self.RADII, fast)
        ref = sphmean.mean_matrix_R_many(sampled(f), self.RADII, slow)
        g = f.separable.factors(self.RADII)
        bound = 64 * np.finfo(float).eps * (1.0 + np.max(np.abs(g)))
        assert np.max(np.abs(R - ref)) <= bound
        assert fast.field_evals == g.size
        # the origin: every factor is 0, so is R, with no identity residue
        np.testing.assert_array_equal(R[-1], np.zeros((n, n)))
        assert fast.record()["separable_parts"] == g.shape[1]
        assert "separable_parts" not in slow.record()

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_kernel_call_and_no_sphere_sampled(self, n, monkeypatch):
        calls = []
        inner = sphmean.mean_R_kernel

        def spy(A, grid):
            calls.append((A.shape, len(grid.weights)))
            return inner(A, grid)

        def no_points(pts):
            raise AssertionError("a separable field was sampled at points")

        f = dataclasses.replace(two_part_field(n), eval_batch=no_points)
        sampler = sphmean.sphere_sampler(n)
        monkeypatch.setattr(sphmean, "mean_R_kernel", spy)
        sphmean.mean_matrix_R_many(f, self.RADII, sampler)
        m = len(sampler.grid.weights)
        assert calls == [((2, m, n, n), m)]
        assert sampler.record()["field_evaluations"] == 2 * len(self.RADII)


def assert_samples_agree(got, want):
    """Field samples equal to 1e-15 max(1, |A|), the rounding of theta."""
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-15 * scale


def radial_a0(n):
    """(1 + 0.5 r^0.5) I, read once per array of radii."""
    return lambda radii: (1.0 + 0.5 * np.sqrt(radii))[:, None, None] * np.eye(n)


def radial_a0_parsed(n):
    """``radial_a0`` with its scale from the expression whitelist, as the
    CLI's radial family builds it."""
    scale = coeff.parse_radial_expr("0.5*r^0.5")
    return lambda radii: (1.0 + scale(radii))[:, None, None] * np.eye(n)


# every factory, as (field, part count J of its form or None without one);
# the perturbed radial field with a field that has a form as a1, and with a
# bare evaluator (no form: read at points)
SAMPLED_FAMILIES = {
    "gs-log": (lambda n: lab_field(LAB_SPECS[0], n), 1),
    "gs-power": (lambda n: lab_field(LAB_SPECS[4], n), 1),
    "identity": (lambda n: coeff.make_constant(n, np.eye(n)), 0),
    "constant": (lambda n: coeff.make_constant(
        n, random_spd(np.random.default_rng(5), n)), 0),
    "radial": (lambda n: coeff.make_perturbed_radial(
        n, radial_a0(n), modulus=coeff.power_modulus(0.5, 0.5)), 0),
    "radial-arrays": (lambda n: coeff.make_perturbed_radial(
        n, radial_a0_parsed(n), modulus=coeff.power_modulus(0.5, 0.5)), 0),
    "perturbed-gs": (lambda n: coeff.make_perturbed_radial(
        n, radial_a0(n), lab_field(LAB_SPECS[1], n),
        modulus=coeff.power_modulus(0.5)), 1),
    "perturbed-two-part": (lambda n: coeff.make_perturbed_radial(
        n, radial_a0_parsed(n), two_part_field(n),
        modulus=coeff.power_modulus(0.5)), 2),
    "perturbed-cos6": (lambda n: angular_perturbed_field(n, 6), None),
    "custom-cos20": (cos20_custom_field, None),
}


class TestOnSpheres:
    """Each field on whole spheres against eval_batch at radii x nodes: a
    form's two layouts, or the points of a field without one."""

    RADII = np.concatenate([[1.0], 2.0 ** -np.arange(1.0, 31.0),
                            [1e-140, 1e-300, 0.0]])

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("family", list(SAMPLED_FAMILIES))
    def test_matches_eval_batch_at_the_points(self, n, family):
        make, parts = SAMPLED_FAMILIES[family]
        f = make(n)
        assert (None if f.separable is None else
                f.separable.factors(self.RADII).shape[1]) == parts
        for res in (8, 13, sphmean.default_resolution(n)):
            grid = sphmean.sphere_grid(n, res)
            got = f.on_spheres(self.RADII, grid)
            m = len(grid.weights)
            assert got.shape == (len(self.RADII), m, n, n)
            pts = (self.RADII[:, None, None] * grid.nodes).reshape(-1, n)
            assert_samples_agree(got.reshape(-1, n, n), f.eval_batch(pts))
            if f.normalized:    # radius 0 is the origin: A = I
                np.testing.assert_array_equal(
                    got[-1], np.broadcast_to(np.eye(n), (m, n, n)))


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
            np.testing.assert_array_equal(A, f.on_spheres(radii[sl], grid))
            # theta from the nodes, not x/|x|: equal to the rounding
            pts = (radii[sl, None, None] * grid.nodes).reshape(-1, n)
            assert_samples_agree(A.reshape(-1, n, n), f.eval_batch(pts))
            seen.append((sl.start, sl.stop))
        assert seen == [(0, 5), (5, 10), (10, 15), (15, 20), (20, 23)]

    def test_chunk_holds_at_least_one_radius(self, monkeypatch):
        monkeypatch.setattr(sphmean, "_SWEEP_CHUNK_DOUBLES", 1)
        radii = np.array([0.5, 0.25, 0.125])
        sizes = [sl.stop - sl.start for sl, _ in sphmean.sphere_sweep(
            gs_power_field(0.5), radii, sphmean.sphere_grid(2, 8))]
        assert sizes == [1, 1, 1]


class TestKernelOracle:
    """mean_R_kernel against the three-pass reference formula."""

    RADII = 2.0 ** -np.linspace(1.0, 30.0, 8)
    FIELDS = [lambda n, spec=spec: lab_field(spec, n) for spec in LAB_SPECS]
    FIELDS.append(cos20_custom_field)
    IDS = ["-".join(map(str, spec)) for spec in LAB_SPECS] + ["custom-cos20"]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("field_fn", FIELDS, ids=IDS)
    def test_every_grid_matches_the_reference(self, n, field_fn):
        f = field_fn(n)
        for res in (8, 16, 13, sphmean.default_resolution(n)):
            grid = sphmean.sphere_grid(n, res)
            m = len(grid.weights)
            pts = (self.RADII[:, None, None] * grid.nodes).reshape(-1, n)
            A = f.eval_batch(pts).reshape(len(self.RADII), m, n, n)
            R = sphmean.mean_R_kernel(A, grid)
            assert R.shape == (len(self.RADII), n, n)
            tol = 1e-14 * max(1.0, float(np.max(np.abs(A))))
            assert np.max(np.abs(R - reference_mean_R(A, grid))) <= tol
            # a radius is its own product: alone, as appendix_moments passes
            # it, or in a batch of any shape, its R is the same to the bit
            for i in range(len(self.RADII)):
                np.testing.assert_array_equal(sphmean.mean_R_kernel(A[i], grid), R[i])
            np.testing.assert_array_equal(
                sphmean.mean_R_kernel(A.reshape(2, -1, m, n, n), grid),
                R.reshape(2, -1, n, n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_finest_grid_sweeps_one_sphere_per_chunk(self, n):
        # the finest sphere outgrows a chunk but not the one-sphere cap
        grid = sphmean.sphere_grid(n, sphmean.max_resolution(n))
        per_sphere = grid.nodes.size * n
        assert sphmean._SWEEP_CHUNK_DOUBLES < per_sphere <= sphmean._SPHERE_CAP_DOUBLES
        radii = np.array([0.5, 0.25, 0.125])
        chunks = [(sl.start, sl.stop, A.size) for sl, A in
                  sphmean.sphere_sweep(gs_power_field(0.5, n=n), radii, grid)]
        assert chunks == [(i, i + 1, per_sphere) for i in range(len(radii))]


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
