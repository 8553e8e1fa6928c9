import csv
import json
import os
import re

import pytest

import numpy as np

from ellipreg import cli, dynsys, pde_verify, sphmean

from rk45_reference import rk45_fundamental_matrix


def write_cfg(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BASE = """
[run]
dim = 2

[field]
family = gilbarg-serrin
g = -1/log(e^2/r)
omega = 1/log(e^2/r)

[budget]
k_max = 20

[output]
dir = {out}
"""


IDENTITY = """
[run]
dim = 2

[field]
family = identity

[budget]
k_max = 15

[output]
dir = {out}
"""


class TestConfig:
    def test_malformed_tolerance_exits_2(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, """
[run]
dim = 2

[budget]
tol = -1e-6
""", name="bad.ini")
        rc = cli.main(["classify", bad])
        assert rc == cli.EXIT_CONFIG
        assert "positive" in capsys.readouterr().err

    def test_unknown_family_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "[field]\nfamily = weird\n")
        assert cli.main(["classify", cfg]) == cli.EXIT_CONFIG

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["classify", str(tmp_path / "nope.ini")]) == cli.EXIT_CONFIG

    def test_bad_dim_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "[run]\ndim = 5\n")
        assert cli.main(["classify", cfg]) == cli.EXIT_CONFIG

    def test_horizon_cap(self, tmp_path):
        cfg = write_cfg(tmp_path, "[gs]\nhorizon = 1e7\n")
        assert cli.main(["gs", cfg]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("subcommand, text, name", [
        ("gs", "[gs]\nhorizon = abc\n", "[gs] horizon"),
        ("gs", "[gs]\nexample = cesari-convergent\ndecay_exponent = abc\n",
         "[gs] decay_exponent"),
        ("gs", "[gs]\ntol = abc\n", "[gs] tol"),
        ("verify", "[pde]\nn = abc\n", "[pde] n"),
        ("verify", "[pde]\nn = 64\nradii = 0.5, x\n", "[pde] radii"),
        ("verify", "[pde]\nn = 64\ntol = abc\n", "[pde] tol"),
        ("integrate", "[integrate]\nt0 = abc\n", "[integrate] t0"),
        ("integrate", "[integrate]\nt1 = abc\n", "[integrate] t1"),
        ("integrate", "[integrate]\ntol = abc\n", "[integrate] tol"),
        ("integrate", "[integrate]\nt0 = 5\nt1 = 1\n", "[integrate] t1"),
        ("moments", "[moments]\nk_max = abc\n", "[moments] k_max"),
        ("classify", "[field]\nfamily = constant\ndiag = 1, x\n", "[field] diag"),
    ])
    def test_malformed_option_exits_2(self, tmp_path, capsys, subcommand,
                                      text, name):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, text + f"\n[output]\ndir = {out}\n")
        assert cli.main([subcommand, cfg]) == cli.EXIT_CONFIG
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, text, name", [
        ("classify", "[budget]\ndyn_tol = nan\n", "[budget] dyn_tol"),
        ("classify", "[budget]\ntol = nan\n", "[budget] tol"),
        ("classify", "[budget]\ntol = inf\n", "[budget] tol"),
        ("classify", "[budget]\nasi_tol = -1\n", "[budget] asi_tol"),
        ("classify", "[budget]\nk_max = 0\n", "[budget] k_max"),
        ("classify", "[budget]\nk_max = 1\n", "[budget] dyn_t0"),
        ("classify", "[budget]\nnodes_per_octave = 0\n",
         "[budget] nodes_per_octave"),
        ("classify", "[budget]\nnodes_per_octave = -4\n",
         "[budget] nodes_per_octave"),
        ("classify", "[budget]\neps = 0\n", "[budget] eps"),
        ("classify", "[budget]\neps = -1\n", "[budget] eps"),
        ("classify", "[budget]\neps = 1.5\n", "[budget] eps"),
        ("classify", "[budget]\ngrid_resolution = 4\n",
         "[budget] grid_resolution"),
        ("classify", "[budget]\ndyn_t0 = -1\n", "[budget] dyn_t0"),
        ("classify", "[budget]\ndyn_t0 = nan\n", "[budget] dyn_t0"),
        ("verify", "[pde]\nn = 64\ntol = -1\n", "[pde] tol"),
        ("integrate", "[integrate]\ntol = nan\n", "[integrate] tol"),
        # r = e^-t0 would lie outside the unit ball
        ("integrate", "[integrate]\nt0 = -2.5\nt1 = 5\n", "[integrate] t0"),
        # e^-t underflows past t = 745, where R would read 0
        ("integrate", "[integrate]\nt1 = 1e4\n", "[integrate] t1"),
        ("gs", "[gs]\ntol = 0\n", "[gs] tol"),
        ("gs", "[gs]\nhorizon = nan\n", "[gs] horizon"),
        ("gs", "[gs]\nhorizon = -5\n", "[gs] horizon"),
        ("gs", "[gs]\nhorizon = 9.5\n", "[gs] horizon"),
        ("gs", "[gs]\nexample = cesari-convergent\nhorizon = 100\n",
         "[gs] horizon"),
        ("gs", "[gs]\nexample = cesari-convergent\ndecay_exponent = 0.4\n",
         "[gs] decay_exponent"),
        ("moments", "[moments]\nk_max = 0\n", "[moments] k_max"),
        ("moments", "[moments]\nk_max = -3\n", "[moments] k_max"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, subcommand,
                                        text, name):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, text + f"\n[output]\ndir = {out}\n")
        # rejected while loading, before any solve could start on it
        with pytest.raises(cli.ConfigError, match=re.escape(name)):
            cli.load_config(cfg, subcommand)
        assert cli.main([subcommand, cfg]) == cli.EXIT_CONFIG
        assert name in capsys.readouterr().err

    def test_t1_bound_is_for_the_field_only(self, tmp_path):
        # a named generator never evaluates e^-t: its closed form runs on
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, IDENTITY.format(out=out) + """
[integrate]
generator = neg-exp-decay
t1 = 1e4
""")
        assert cli.main(["integrate", cfg]) == cli.EXIT_OK
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert rows[-1, 0] == 1e4
        assert rows[-1, 1] == pytest.approx(np.exp(-0.5), rel=1e-14)

    def test_expression_whitelist_enforced(self, tmp_path):
        cfg = write_cfg(tmp_path, """
[field]
family = gilbarg-serrin
g = __import__('os').system('true')
""")
        assert cli.main(["classify", cfg]) == cli.EXIT_CONFIG


class TestClassifyRuns:
    def test_identity_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, IDENTITY.format(out=out))
        assert cli.main(["classify", cfg]) == cli.EXIT_OK
        report = json.load(open(out / "report.json"))
        assert report["payload"]["classification"] == "differentiable-at-origin"
        assert report["payload"]["sound"] is True
        assert not cli.validate_report(report)

    def test_gs_minus_zero_gradient_with_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BASE.format(out=out))
        assert cli.main(["classify", cfg, "--emit-csv"]) == cli.EXIT_OK
        report = json.load(open(out / "report.json"))
        assert report["payload"]["classification"] == "differentiable-zero-gradient"
        csvs = [f for f in os.listdir(out) if f.startswith("condition_")]
        assert "condition_square_dini.csv" in csvs
        with open(out / "condition_square_dini.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "k" and len(rows) > 10

    def test_determinism_modulo_volatile_block(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_cfg(tmp_path, IDENTITY.format(out=out1), "a.ini")
        cfg2 = write_cfg(tmp_path, IDENTITY.format(out=out2), "b.ini")
        # identical configs except output dir: hash differs, so compare the
        # same config run twice instead
        assert cli.main(["classify", cfg1]) == cli.EXIT_OK
        r1 = json.load(open(out1 / "report.json"))
        assert cli.main(["classify", cfg1]) == cli.EXIT_OK
        r2 = json.load(open(out1 / "report.json"))
        r1.pop("provenance_volatile")
        r2.pop("provenance_volatile")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


class TestOtherSubcommands:
    def test_moments_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BASE.format(out=out))
        assert cli.main(["moments", cfg]) == cli.EXIT_OK
        with open(out / "moments.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["r", "alpha"]
        assert len(rows) == 21

    def test_integrate_named_generator(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, IDENTITY.format(out=out) + """
[integrate]
generator = exp-decay
t0 = 0
t1 = 30
""")
        assert cli.main(["integrate", cfg]) == cli.EXIT_OK
        report = json.load(open(out / "report.json"))
        assert report["payload"]["verdict"] == "evidence-stable"
        assert (out / "trajectory.csv").exists()

    def test_integrate_field_generator(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BASE.format(out=out) + """
[integrate]
generator = field
t0 = 0.7
t1 = 20
""")
        sweeps = []
        inner = sphmean.mean_matrix_R_many

        def counted(*args, **kwargs):
            sweeps.append(len(args[1]))
            return inner(*args, **kwargs)

        monkeypatch.setattr(sphmean, "mean_matrix_R_many", counted)
        assert cli.main(["integrate", cfg]) == cli.EXIT_OK
        # one sweep of the 1025-node starting lattice meets the default tol
        assert sweeps == [1025]
        report = json.load(open(out / "report.json"))
        # contracting profile: the flow never grows
        assert report["payload"]["K_hat"] == pytest.approx(1.0, abs=1e-6)
        assert report["payload"]["verdict"] == "evidence-stable"
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "phi_1", "phi_2", "Phi_norm", "K_running"]
        assert [float(v) for v in rows[1][1:3]] == [1.0, 0.0]
        assert float(rows[-1][4]) == report["payload"]["K_hat"]

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    @pytest.mark.filterwarnings("ignore:At least one element of `rtol`")
    def test_integrate_field_rows_within_tol(self, tmp_path, tol):
        # every row against RK45 at 1e-13: the rows are flow nodes, where
        # the flow's error estimate holds
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BASE.format(out=out) + f"""
[integrate]
generator = field
t1 = 30
tol = {tol}
""")
        assert cli.main(["integrate", cfg]) == cli.EXIT_OK
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        t = rows[:, 0]
        np.testing.assert_array_equal(t, np.linspace(0.0, 30.0, 513))
        grid = sphmean.default_grid(2)
        field = cli.build_field(cli.load_config(cfg, "integrate"))
        rfun = lambda s: sphmean.mean_matrix_R(field, np.exp(-s), grid)
        Phi = rk45_fundamental_matrix(rfun, t, 1e-13)
        K = dynsys.stability_constant(dynsys.FundamentalMatrixTrack(t, Phi))
        want = np.column_stack([Phi[:, :, 0],
                                np.linalg.norm(Phi.reshape(len(t), -1), axis=1),
                                K.K_running])
        assert np.max(np.abs(rows[:, 1:] - want)) <= tol

    @pytest.mark.parametrize("subcommand, csv_name", [
        ("integrate", "trajectory.csv"),
        ("moments", "moments.csv"),
        ("appendix", "reduction.csv"),
    ])
    def test_grid_resolution_reaches_every_sphere_mean(
            self, tmp_path, monkeypatch, subcommand, csv_name):
        # every R in the package goes through the kernel: record its grid
        sizes = []
        inner = sphmean.mean_R_kernel

        def spy(A, grid):
            sizes.append(len(grid.weights))
            return inner(A, grid)

        monkeypatch.setattr(sphmean, "mean_R_kernel", spy)
        csvs, grids = {}, {}
        for res in (None, 16):
            out = tmp_path / f"out{res}"
            text = BASE.format(out=out)
            if res is not None:
                text = text.replace("k_max = 20", f"k_max = 20\ngrid_resolution = {res}")
            cfg = write_cfg(tmp_path, text, name=f"run{res}.ini")
            for sub in (subcommand, "classify"):
                sizes.clear()
                assert cli.main([sub, cfg]) == cli.EXIT_OK
                grids[sub, res] = set(sizes)
            csvs[res] = (out / csv_name).read_text()
        assert csvs[16] != csvs[None]
        assert grids[subcommand, None] == grids["classify", None] == {64}
        assert grids[subcommand, 16] == grids["classify", 16] == {16}

    def test_appendix_dump(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BASE.format(out=out))
        assert cli.main(["appendix", cfg]) == cli.EXIT_OK
        report = json.load(open(out / "report.json"))
        eigs = report["payload"]["M_inf_eigenvalues"]
        assert eigs == pytest.approx([-2, -2, 0, 0], abs=1e-12)

    def test_gs_cesari_convergent(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, IDENTITY.format(out=out) + """
[gs]
example = cesari-convergent
horizon = 1e4
""")
        assert cli.main(["gs", cfg]) == cli.EXIT_OK
        report = json.load(open(out / "report.json"))
        pl = report["payload"]
        assert pl["asym_constant"]["verdict"] == "evidence-yes"
        assert pl["uniformly_stable"]["verdict"] == "evidence-unstable"
        assert pl["square_integrable"] == "converges"
        assert pl["window_sup"] >= 5

    def test_verify_small_grid(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, IDENTITY.format(out=out) + """
[pde]
n = 64
boundary = x1
radii = 0.5, 0.25, 0.125
""")
        assert cli.main(["verify", cfg]) == cli.EXIT_OK
        report = json.load(open(out / "report.json"))
        assert report["payload"]["gradient_limit"][0] == pytest.approx(1.0, abs=1e-9)
        assert (out / "circle_tables.csv").exists()

    def test_verify_builds_one_spline(self, tmp_path, monkeypatch):
        # the circle decomposition and the quotients share one interpolant
        built = []
        inner = pde_verify.RectBivariateSpline

        def counted(*args, **kwargs):
            built.append(args[2].shape)
            return inner(*args, **kwargs)

        monkeypatch.setattr(pde_verify, "RectBivariateSpline", counted)
        cfg = write_cfg(tmp_path, IDENTITY.format(out=tmp_path / "out") + """
[pde]
n = 64
boundary = harmonic-quadratic
radii = 0.5, 0.25, 0.125
""")
        assert cli.main(["verify", cfg]) == cli.EXIT_OK
        assert built == [(64, 64)]

    def test_verify_finest_grid(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("ELLIPREG_OUTDIR", str(out))
        cfg = write_cfg(tmp_path, BASE.format(out=tmp_path / "unused") + """
[pde]
n = 1024
boundary = x1
""")
        assert cli.main(["verify", cfg]) == cli.EXIT_OK
        payload = json.load(open(out / "report.json"))["payload"]
        assert payload["N"] == 1024
        assert payload["residual_norm"] <= 1e-11
        assert payload["iterations"] <= 20

    def test_report_combined(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, IDENTITY.format(out=out) + """
[pde]
n = 64
boundary = x1
radii = 0.5, 0.25, 0.125
""")
        assert cli.main(["report", cfg]) == cli.EXIT_OK
        report = json.load(open(out / "report.json"))
        assert "classification" in report["payload"]
        assert "pde" in report["payload"]

    def test_numerical_failure_exits_1(self, tmp_path):
        out = tmp_path / "out"
        # no lattice meets a tolerance below the rounding of the flow
        cfg = write_cfg(tmp_path, BASE.format(out=out) + """
[integrate]
t0 = 0
t1 = 5
tol = 1e-18
""")
        assert cli.main(["integrate", cfg]) == cli.EXIT_NUMERICAL
        partial = json.load(open(out / "report_partial.json"))
        error = partial["payload"]["error"]
        assert partial["payload"]["error_type"] == "IntegrationError"
        assert re.search(r"Richardson estimate \S+ at the finest spacing "
                         r"0\.00\d+", error), error


    def test_solver_failure_exits_1(self, tmp_path):
        out = tmp_path / "out"
        # CG stalls at rounding, far above a 1e-30 target
        cfg = write_cfg(tmp_path, IDENTITY.format(out=out) + """
[pde]
n = 64
tol = 1e-30
""")
        assert cli.main(["verify", cfg]) == cli.EXIT_NUMERICAL
        partial = json.load(open(out / "report_partial.json"))
        assert partial["payload"]["error_type"] == "SolveError"


class TestSchema:
    def test_schema_ships_and_validates(self):
        schema = cli.load_schema()
        assert schema["type"] == "object"
        bad = {"schema_version": "1"}
        problems = cli.validate_report(bad, schema)
        assert problems
