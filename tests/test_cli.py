import csv
import json
import os

import pytest

from ellipreg import cli, pde_verify

from conftest import count_solves


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
        calls = count_solves(monkeypatch)
        assert cli.main(["integrate", cfg]) == cli.EXIT_OK
        assert len(calls) == 2
        report = json.load(open(out / "report.json"))
        # contracting profile: the flow never grows
        assert report["payload"]["K_hat"] == pytest.approx(1.0, abs=1e-6)
        assert report["payload"]["verdict"] == "evidence-stable"
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "phi_1", "phi_2", "Phi_norm", "K_running"]
        assert [float(v) for v in rows[1][1:3]] == [1.0, 0.0]
        assert float(rows[-1][4]) == report["payload"]["K_hat"]

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
        # infeasible counterexample construction -> numerical failure
        cfg = write_cfg(tmp_path, IDENTITY.format(out=out) + """
[gs]
example = cesari-convergent
decay_exponent = 0.9
""")
        assert cli.main(["gs", cfg]) == cli.EXIT_NUMERICAL
        partial = json.load(open(out / "report_partial.json"))
        assert "binding constraint" in partial["payload"]["error"]


class TestSchema:
    def test_schema_ships_and_validates(self):
        schema = cli.load_schema()
        assert schema["type"] == "object"
        bad = {"schema_version": "1"}
        problems = cli.validate_report(bad, schema)
        assert problems
