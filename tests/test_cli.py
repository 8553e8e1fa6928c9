import csv
import dataclasses
import io
import json
import os
import re
import types

import pytest

import numpy as np

from ellipreg import cli, criteria, dyadic, dynsys, pde_verify, sphmean

from conftest import mean_R
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
        # a key that the run would not read beside another
        ("classify", "[field]\nfamily = gilbarg-serrin\ng = -1/log(e^2/r)\n"
         "omega = banana\nomega_piecewise = 0.5, 0.4, 0.3\n", "[field] omega"),
        # read as written: a '%' is not the start of an interpolation
        ("verify", "[pde]\nn = 5%\n", "[pde] n"),
    ])
    def test_malformed_option_exits_2(self, tmp_path, capsys, subcommand,
                                      text, name):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, text + f"\n[output]\ndir = {out}\n")
        assert cli.main([subcommand, cfg]) == cli.EXIT_CONFIG
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("text, name, message", [
        ("family = constant\ndiag = 1, -1\n", "[field] diag",
         "not positive definite"),
        ("family = radial\nscale = -2*r^1\n", "[field] scale",
         "loses ellipticity"),
        ("family = radial\nscale = 1/log(e^2/r)\n", "[field] scale",
         "a0(0) must equal the identity"),
        ("family = gilbarg-serrin\ng = -2*r^1\nomega = 2*r^1\n", "[field]",
         "ellipticity lost"),
    ])
    def test_field_error_exits_2_naming_the_field(self, tmp_path, capsys,
                                                  text, name, message):
        # the family's constructor refuses the field: a config error, with
        # no partial report, whichever family it is
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, f"[field]\n{text}\n[output]\ndir = {out}\n")
        assert cli.main(["classify", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {name}" in err and message in err, err
        assert not (out / "report_partial.json").exists()

    @pytest.mark.parametrize("subcommand, text, name", [
        ("classify", "[budget]\ndyn_tol = nan\n", "[budget] dyn_tol"),
        ("classify", "[budget]\ntol = nan\n", "[budget] tol"),
        ("classify", "[budget]\ntol = inf\n", "[budget] tol"),
        ("classify", "[budget]\nasi_tol = -1\n", "[budget] asi_tol"),
        # below the floor the adaptive quadrature's pieces stop settling
        # and are split level after level
        ("classify", "[budget]\ntol = 1e-300\n",
         "[budget] tol: must be at least the floor 1e-14"),
        ("classify", "[budget]\ndyn_tol = 1e-15\n",
         "[budget] dyn_tol: must be at least the floor 1e-14"),
        ("classify", "[budget]\nasi_tol = 5e-324\n",
         "[budget] asi_tol: must be at least the floor 1e-14"),
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
        # one sphere of field samples must fit a sweep chunk of 2^20 doubles
        ("classify", "[run]\ndim = 3\n[budget]\ngrid_resolution = 242\n",
         "[budget] grid_resolution"),
        ("moments", "[budget]\ngrid_resolution = 262145\n",
         "[budget] grid_resolution"),
        ("classify", "[budget]\ndyn_t0 = -1\n", "[budget] dyn_t0"),
        ("classify", "[budget]\ndyn_t0 = nan\n", "[budget] dyn_t0"),
        ("verify", "[pde]\nn = 64\ntol = -1\n", "[pde] tol"),
        # a solve tolerance below the floor ran CG to its iteration cap
        ("verify", "[pde]\nn = 64\ntol = 1e-300\n",
         "[pde] tol: must be finite and at least the floor 1e-14"),
        ("integrate", "[integrate]\ntol = 9.99e-15\n",
         "[integrate] tol: must be finite and at least the floor 1e-14"),
        ("verify", "[pde]\nn = 32\n", "[pde] n"),
        ("verify", "[pde]\nn = 2048\n", "[pde] n"),
        # circles must stay in [2h, 1 - 2h], h = 2/n
        ("verify", "[pde]\nn = 64\nradii = 0.5, nan, 0.25\n", "[pde] radii"),
        ("verify", "[pde]\nn = 64\nradii = 0.5, inf\n", "[pde] radii"),
        ("verify", "[pde]\nn = 64\nradii = 0.5, 0.001\n", "[pde] radii"),
        ("verify", "[pde]\nn = 64\nradii = 0.99, 0.5\n", "[pde] radii"),
        # one circle given three times is still one circle
        ("verify", "[pde]\nn = 64\nradii = 0.5, 0.5, 0.5\n", "[pde] radii"),
        ("verify", "[pde]\nn = 64\nradii = 0.5, 0.25, 0.50\n", "[pde] radii"),
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
        # a section or key that no run reads
        ("classify", "[budget]\nk_maxx = 12\n", "[budget] k_maxx"),
        ("classify", "[pdee]\nn = 64\n", "[pdee]"),
        ("classify", "[DEFAULT]\nk_max = 12\n", "[DEFAULT]"),
        ("classify", "[run]\ndims = 3\n", "[run] dims"),
        ("classify", "[field]\nfamily = identity\ng = r^1\n", "[field] g"),
        ("classify", "[field]\nfamily = radial\ndiag = 1, 2\n", "[field] diag"),
        ("verify", "[pde]\nn = 64\nradius = 0.5\n", "[pde] radius"),
        ("integrate", "[integrate]\nt_1 = 5\n", "[integrate] t_1"),
        ("gs", "[gs]\nexampel = cesari-convergent\n", "[gs] exampel"),
        ("moments", "[moments]\nkmax = 3\n", "[moments] kmax"),
        ("gs", "[gs]\nexample = exp-decay\ndecay_exponent = 0.6\n",
         "[gs] decay_exponent"),
        # checked while loading, whichever subcommand runs
        ("report", "[pde]\nboundary = bogus\n", "[pde] boundary"),
        ("classify", "[integrate]\ngenerator = bogus\n",
         "[integrate] generator"),
        ("integrate", "[integrate]\nt0 = 5\nt1 = 1\n", "[integrate] t1"),
        ("classify", "[gs]\nexample = bogus\n", "[gs] example"),
        ("classify", "[field]\nfamily = weird\n", "[field] family"),
        ("verify", "[run]\ndim = 3\n", "[run] dim"),
        # a named generator at t1 = inf wrote K_hat = NaN
        ("integrate", "[integrate]\ngenerator = exp-decay\nt1 = inf\n",
         "[integrate] t1"),
        ("integrate", "[integrate]\nt0 = nan\n", "[integrate] t0"),
        ("integrate", "[integrate]\nt0 = inf\n", "[integrate] t0"),
        # the effort caps: k_max = 1e8 and nodes_per_octave = 1e7 ended in
        # a MemoryError
        ("moments", "[moments]\nk_max = 100000000\n", "[moments] k_max"),
        ("moments", "[moments]\nk_max = 41\n", "[moments] k_max"),
        ("classify", "[budget]\nnodes_per_octave = 10000000\n",
         "[budget] nodes_per_octave"),
        ("classify", "[budget]\nnodes_per_octave = 4097\n",
         "[budget] nodes_per_octave"),
        # the profile reaches below the underflow of r = e^-t: every radius
        # past the first read 0.0
        ("classify", "[budget]\neps = 5e-324\n", "[budget] eps"),
        ("moments", "[budget]\neps = 1e-300\nk_max = 40\n", "[budget] eps"),
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

    def test_readme_lists_every_option_with_its_default(self):
        # a fixed default is the first literal of its row's default cell; a
        # default set from another key is described in words
        with open(os.path.join(os.path.dirname(__file__), "..",
                               "README.md")) as fh:
            cells = {(s, k): d for s, k, d in re.findall(
                r"^\| `\[(\w+)\] (\w+)` \| ([^|]*) \|", fh.read(), re.M)}
        for section, key, cast, default, *_ in cli._OPTIONS:
            literal = re.match(r"`([^`]*)`", cells[section, key])
            if default is None:
                assert literal is None, (section, key)
            else:
                assert cast(literal.group(1)) == default, (section, key)

    def test_budget_tolerance_at_floor_accepted(self, tmp_path):
        cfg = write_cfg(tmp_path, "[budget]\ntol = 1e-14\ndyn_tol = 1e-14\n"
                        "asi_tol = 1e-14\n")
        budget = cli.load_config(cfg, "classify").budget
        assert budget.tol == budget.dyn_tol == budget.asi_tol == (
            criteria.TOL_FLOOR)

    def test_solve_tolerances_at_floor_accepted(self, tmp_path):
        cfg = write_cfg(tmp_path, "[pde]\ntol = 1e-14\n[integrate]\ntol = 1e-14\n")
        opts = cli.load_config(cfg, "integrate").options
        assert opts["pde"]["tol"] == opts["integrate"]["tol"] == criteria.TOL_FLOOR

    def test_generator_names_are_the_whitelist(self):
        # the option table names the generators without loading their module
        from ellipreg import gilbarg_serrin as gs
        assert cli._GS_EXAMPLES == tuple(gs.WHITELIST)

    @pytest.mark.parametrize("text, section, key, value", [
        ("[moments]\nk_max = 40\n", "moments", "k_max", 40),
        ("[budget]\nnodes_per_octave = 4096\n", "budget", "nodes_per_octave",
         4096),
        # depth -ln(eps) + ln 2 = 699.99, just under the cap of 700
        ("[budget]\neps = 2e-304\nk_max = 1\n", "budget", "eps", 2e-304),
    ])
    def test_caps_accepted(self, tmp_path, text, section, key, value):
        cfg = cli.load_config(write_cfg(tmp_path, text), "classify")
        assert cfg.options[section][key] == value

    @pytest.mark.parametrize("dim, res", [(3, 241), (2, 262144)])
    def test_finest_accepted_grid_resolution(self, tmp_path, dim, res):
        # loaded only: a sphere this fine is never allocated here
        cfg = write_cfg(tmp_path, f"[run]\ndim = {dim}\n[budget]\n"
                        f"grid_resolution = {res}\n")
        assert cli.load_config(cfg, "classify").budget.grid_resolution == res

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

    @pytest.mark.parametrize("res", [None, 16])
    def test_report_records_the_sphere_quadrature(self, tmp_path, res):
        out = tmp_path / "out"
        text = BASE.format(out=out)
        if res is not None:
            text = text.replace("k_max = 20", f"k_max = 20\ngrid_resolution = {res}")
        assert cli.main(["classify", write_cfg(tmp_path, text)]) == cli.EXIT_OK
        rec = json.load(open(out / "report.json"))["provenance_volatile"][
            "sphere_quadrature"]
        M = 20 * 32 + 1       # the profile's radii; its flow sweeps no other
        # rank-one: g read once per radius, no sphere of samples swept
        assert rec.pop("sweep_s") >= 0.0
        assert rec == {"resolution": 64 if res is None else res,
                       "field_evaluations": M, "chunks": 0,
                       "separable_parts": 1}

    @pytest.mark.parametrize("family", [
        "family = radial\nscale = 0.5*r^0.5", "family = identity"])
    def test_radial_family_evaluates_no_field_sample(self, tmp_path, family):
        # (1 + scale(r)) I and I are forms with no part: R is 0, with no
        # sphere sampled and no factor read
        out = tmp_path / "out"
        text = BASE.format(out=out).replace(
            "family = gilbarg-serrin\ng = -1/log(e^2/r)\nomega = 1/log(e^2/r)",
            family)
        assert cli.main(["classify", write_cfg(tmp_path, text)]) == cli.EXIT_OK
        report = json.load(open(out / "report.json"))
        rec = report["provenance_volatile"]["sphere_quadrature"]
        assert rec["separable_parts"] == 0
        assert rec["field_evaluations"] == 0 and rec["chunks"] == 0
        partials = report["payload"]["evidence"]["pv_12a"]["partial_values"]
        assert len(partials) == 20
        assert np.all(np.asarray(partials) == 0.0)

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

    def test_integrate_field_deep_in_log_time(self, tmp_path):
        # r = e^-700 lies far below where |x|^2 underflows (t ~ 354); R must
        # keep its closed form there, or the flow misses tol and exits 1
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BASE.format(out=out) + """
[integrate]
generator = field
t1 = 700
""")
        assert cli.main(["integrate", cfg]) == cli.EXIT_OK
        report = json.load(open(out / "report.json"))
        assert report["payload"]["verdict"] == "evidence-stable"
        rec = report["provenance_volatile"]["sphere_quadrature"]
        assert rec["resolution"] == 64 and rec["separable_parts"] == 1

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
        rfun = lambda s: mean_R(field, np.exp(-s), grid)
        Phi = rk45_fundamental_matrix(rfun, t, 1e-13)
        K = dynsys.stability_constant(t, Phi)
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
        # every R in the package goes through the kernel: record its grid.
        # An explicit resolution reaches every sphere mean; unset, every
        # one reads the default grid
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

    @pytest.mark.parametrize("res", [None, 16])
    @pytest.mark.parametrize("subcommand, radii", [("moments", 20), ("appendix", 41)])
    def test_moment_tables_record_the_sphere_quadrature(
            self, tmp_path, monkeypatch, subcommand, radii, res):
        # one whole sphere per radius: field_evaluations is radii x nodes
        sizes = []
        inner = sphmean.mean_R_kernel

        def spy(A, grid):
            sizes.append(len(grid.weights))
            return inner(A, grid)

        monkeypatch.setattr(sphmean, "mean_R_kernel", spy)
        out = tmp_path / "out"
        text = BASE.format(out=out)
        if res is not None:
            text = text.replace("k_max = 20", f"k_max = 20\ngrid_resolution = {res}")
        assert cli.main([subcommand, write_cfg(tmp_path, text)]) == cli.EXIT_OK
        rec = json.load(open(out / "report.json"))["provenance_volatile"][
            "sphere_quadrature"]
        nodes = 64 if res is None else res
        assert sizes == [nodes] * radii
        assert rec == {"resolution": nodes, "field_evaluations": radii * nodes}

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

    @pytest.mark.parametrize("example", cli._GS_EXAMPLES + cli._CESARI)
    def test_gs_square_integrable_from_the_envelope(self, tmp_path, example):
        # every named and Cesari envelope decays faster than t^-1/2
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, f"[gs]\nexample = {example}\n\n"
                                  f"[output]\ndir = {out}\n")
        assert cli.main(["gs", cfg]) == cli.EXIT_OK
        report = json.load(open(out / "report.json"))
        assert report["payload"]["square_integrable"] == "converges"

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
        # the circle decomposition, the quotients and the gradient read one
        # interpolant: at the origin, then each circle on the equispaced and
        # the offset rule
        built, calls = [], []

        class Counted(pde_verify._Spline):
            def __init__(self, x, u):
                built.append(u.shape)
                super().__init__(x, u)

            def __call__(self, pts):
                calls.append(len(pts))
                return super().__call__(pts)

        monkeypatch.setattr(pde_verify, "_Spline", Counted)
        cfg = write_cfg(tmp_path, IDENTITY.format(out=tmp_path / "out") + """
[pde]
n = 64
boundary = harmonic-quadratic
radii = 0.5, 0.25, 0.125
""")
        assert cli.main(["verify", cfg]) == cli.EXIT_OK
        assert built == [(64, 64)]
        assert calls == [1] + [256, 384] * 3

    def test_verify_records_the_grid_solve(self, tmp_path):
        out = tmp_path / "out"
        # x1^2 - x2^2 is not a solution of the scheme, so CG iterates
        cfg = write_cfg(tmp_path, IDENTITY.format(out=out) + """
[pde]
n = 64
boundary = harmonic-quadratic
radii = 0.5, 0.25, 0.125
""")
        assert cli.main(["verify", cfg]) == cli.EXIT_OK
        report = json.load(open(out / "report.json"))
        rec = report["provenance_volatile"]["grid_solve"]
        assert rec["preconditioner"] == "sine-transform Laplacian"
        assert rec["iterations"] == report["payload"]["iterations"] >= 1
        assert rec["rel_residual"] == report["payload"]["residual_norm"]
        assert len(rec["residual_tail"]) == min(5, rec["iterations"] + 1)
        assert rec["residual_tail"][-1] <= 1e-12 < rec["start_residual"]
        # which grid layer took the time: assembly, the solve, the circles;
        # together they fit in the run's wall time (rounded to 1 ms)
        layers = [rec[k] for k in ("assemble_s", "solve_s", "circles_s")]
        assert all(t > 0 for t in layers)
        assert sum(layers) <= report["provenance_volatile"]["wall_time_s"] + 5e-4

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

    def test_numerical_failure_exits_1(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        # a tolerance at the floor, with the lattice not allowed below its
        # starting spacing: the flow cannot meet it
        cfg = write_cfg(tmp_path, BASE.format(out=out) + """
[integrate]
t0 = 0
t1 = 5
tol = 1e-14
""")
        monkeypatch.setattr(dynsys, "_FLOW_MAX_NODES_PER_OCTAVE", 1)
        assert cli.main(["integrate", cfg]) == cli.EXIT_NUMERICAL
        partial = json.load(open(out / "report_partial.json"))
        error = partial["payload"]["error"]
        assert partial["payload"]["error_type"] == "IntegrationError"
        assert re.search(r"Richardson estimate \S+ at the finest spacing "
                         r"0\.00\d+", error), error


    def test_solver_failure_exits_1(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        # CG allowed one iteration, far short of the default 1e-12 on a
        # rank-one field (on the identity the sine-transform preconditioner
        # is the exact inverse, and one iteration solves it).  The default
        # radii reach below 2h at n = 64, so the config names its own
        cfg = write_cfg(tmp_path, BASE.format(out=out) + """
[pde]
n = 64
radii = 0.5, 0.25, 0.125
""")
        monkeypatch.setattr(pde_verify, "_MAXITER", 1)
        assert cli.main(["verify", cfg]) == cli.EXIT_NUMERICAL
        partial = json.load(open(out / "report_partial.json"))
        assert partial["payload"]["error_type"] == "SolveError"


def _records():
    """One record of each evidence type, as the pipeline builds them."""
    ks = np.arange(1.0, 9.0)
    integral = dyadic.evidence_from_partials(ks, 1.0 - 2.0 ** -ks, 1e-6)
    t = np.linspace(0.0, 20.0, 201)
    Phi = np.exp(-np.exp(-t))[:, None, None] * np.eye(2)
    return [
        integral,
        criteria.WindowBoundReport(ks, ks, True, 8.0),
        criteria.IteratedReport(integral, integral, integral, None),
        dynsys.stability_constant(t, Phi),
        dynsys.asymptotic_limit(t, Phi[:, :, 0]),
    ]


class TestEvidenceRecords:
    @pytest.mark.parametrize("rec", _records(), ids=lambda r: r.kind)
    def test_payload_is_kind_plus_shown_fields(self, rec):
        d = cli._evidence_dict(rec)
        shown = {f.name for f in dataclasses.fields(rec) if f.repr}
        assert set(d) == {"kind"} | shown
        assert d["kind"] == type(rec).kind
        assert "K_running" not in d

    def test_nested_records_serialize_alike(self):
        rec = _records()[2]
        d = cli._evidence_dict(rec)
        for name in ("level1_ordered", "level1_l1", "level2_ordered"):
            assert d[name] == cli._evidence_dict(getattr(rec, name))
            assert d[name]["kind"] == "integral"
        assert d["level2_l1"] is None


class TestJsonable:
    @pytest.mark.parametrize("arr", [
        np.array([[-0.0, 1.5], [np.nan, -np.inf]]),
        np.array([0.0, -0.0, 1e-300, -2.5], dtype=np.float32),
        np.arange(-3, 3),
        np.array([True, False]),
        np.zeros((0, 2)),
    ])
    def test_array_matches_the_scalar_path(self, arr):
        # one tolist() per array gives the bytes of one _jsonable per item:
        # -0.0 normalized, ints and bools kept as such (JSON tells 0, 0.0,
        # -0.0 and false apart)
        got = cli._jsonable(arr)
        assert json.dumps(got) == json.dumps(cli._jsonable(arr.tolist()))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_not_finite_is_null(self, value):
        # strict JSON (RFC 8259) has no NaN or infinity tokens
        assert cli._jsonable(value) is None
        assert cli._jsonable(np.float64(value)) is None
        assert cli._jsonable(np.array([[1.5, value], [-0.0, 2.0]])) == [
            [1.5, None], [0.0, 2.0]]
        assert cli._jsonable({"K_hat": value, "v": [value, 1.0]}) == {
            "K_hat": None, "v": [None, 1.0]}

    def test_report_is_strict_json(self, tmp_path):
        cfg = cli.load_config(write_cfg(tmp_path, IDENTITY.format(out=tmp_path)),
                              "classify")
        path = cli.write_report(cfg, {"partials": np.array([0.5, np.nan]),
                                      "K_hat": np.inf}, 0.0)

        def refuse(token):
            raise ValueError(f"bare {token} token")

        report = json.loads(open(path).read(), parse_constant=refuse)
        assert report["payload"] == {"partials": [0.5, None], "K_hat": None}


class TestWriteCsv:
    VALUES = [-0.0, 0.1, 1e-300, 1e16, 3.0, np.nan, np.inf, -np.inf]

    def reference(self, header, rows):
        """The bytes of csv rows with each cell written as repr(float(v))."""
        out = io.StringIO(newline="")
        wr = csv.writer(out)
        wr.writerow(header)
        for row in rows:
            wr.writerow([repr(float(v)) for v in row])
        return out.getvalue().encode()

    @pytest.mark.parametrize("form", ["rows", "columns"])
    def test_bytes_are_repr_of_each_float(self, tmp_path, form):
        rows = [self.VALUES[:4], self.VALUES[4:]]
        table = rows if form == "rows" else np.column_stack(
            [np.array([r[j] for r in rows]) for j in range(4)])
        cfg = types.SimpleNamespace(output_dir=str(tmp_path))
        header = ["a", "b", "c", "d"]
        path = cli.write_csv(cfg, "table.csv", header, table)
        assert open(path, "rb").read() == self.reference(header, rows)


class TestSchema:
    def test_schema_parsed_once_per_process(self):
        assert cli.load_schema() is cli.load_schema()

    def test_schema_ships_and_validates(self):
        schema = cli.load_schema()
        assert schema["type"] == "object"
        bad = {"schema_version": "1"}
        problems = cli.validate_report(bad, schema)
        assert problems

    def test_array_and_integer_types_checked(self):
        report = {"schema_version": "1", "tool_version": "0", "subcommand": "verify",
                  "config_hash": "0", "payload": {},
                  "provenance_volatile": {
                      "timestamp_utc": "now", "wall_time_s": 0.1,
                      "grid_solve": {"preconditioner": "sine-transform Laplacian",
                                     "start_residual": 1e-4,
                                     "iterations": "x", "rel_residual": 1e-13,
                                     "residual_tail": "oops"}}}
        problems = cli.validate_report(report)
        assert len(problems) == 2
        assert any("grid_solve.residual_tail: expected array" in p for p in problems)
        assert any("grid_solve.iterations: expected integer" in p for p in problems)
        # items are checked, and a bool is neither an integer nor a number
        solve = report["provenance_volatile"]["grid_solve"]
        solve.update(residual_tail=[1e-4, True], iterations=True,
                     rel_residual=False)
        assert sorted(cli.validate_report(report)) == [
            "$.provenance_volatile.grid_solve.iterations: expected integer",
            "$.provenance_volatile.grid_solve.rel_residual: expected number",
            "$.provenance_volatile.grid_solve.residual_tail[1]: expected number"]
