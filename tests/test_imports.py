"""Only the grid verifier loads scipy.

Each check runs in a fresh interpreter, since this test session has
imported scipy long before.
"""

import configparser
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

SCRIPT = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import ellipreg
assert not scipy_modules(), ("import ellipreg", scipy_modules())
import ellipreg.cli as cli
assert not scipy_modules(), ("import ellipreg.cli", scipy_modules())
for argv in RUNS:
    assert cli.main(argv) == cli.EXIT_OK, argv
    assert not scipy_modules(), (argv, scipy_modules())
assert cli.main(["verify", VERIFY_CONFIG]) == cli.EXIT_OK
assert "scipy.sparse" in sys.modules
"""


def test_only_verify_loads_scipy(tmp_path):
    gs_log = str(CONFIGS / "gs_minus_log.ini")
    # report runs verify too when the config has a [pde] section
    no_pde = configparser.ConfigParser()
    no_pde.read(gs_log)
    no_pde.remove_section("pde")
    report_cfg = tmp_path / "no_pde.ini"
    with open(report_cfg, "w") as fh:
        no_pde.write(fh)
    runs = [["classify", gs_log], ["gs", str(CONFIGS / "cesari.ini")],
            ["report", str(report_cfg)], ["moments", gs_log],
            ["integrate", gs_log], ["appendix", gs_log]]
    code = (f"RUNS = {runs!r}\nVERIFY_CONFIG = {str(CONFIGS / 'identity.ini')!r}\n"
            + SCRIPT)
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "")
                                  .split(os.pathsep) if p]
    env = dict(os.environ, ELLIPREG_OUTDIR=str(tmp_path / "out"),
               PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
