"""No subcommand loads scipy; it is a test-only dependency.  The CLI's
import loads no module that only some subcommands read.

Each check runs in a fresh interpreter, since this test session has
imported scipy long before.
"""

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
# gs and integrate read the generators, appendix the reduction, and only
# the envelope quadrature and the sphere grids call numpy.polynomial
deferred = [m for m in ("ellipreg.gilbarg_serrin", "ellipreg.appendix_system",
                        "numpy.polynomial") if m in sys.modules]
assert not deferred, ("import ellipreg.cli", deferred)
for argv in RUNS:
    assert cli.main(argv) == cli.EXIT_OK, argv
    assert not scipy_modules(), (argv, scipy_modules())
"""


def test_no_subcommand_loads_scipy(tmp_path):
    gs_log = str(CONFIGS / "gs_minus_log.ini")
    # report runs verify too: the config has a [pde] section
    runs = [[sub, gs_log] for sub in ("classify", "report", "moments",
                                      "integrate", "appendix", "verify")]
    runs.append(["gs", str(CONFIGS / "cesari.ini")])
    code = f"RUNS = {runs!r}\n" + SCRIPT
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "")
                                  .split(os.pathsep) if p]
    env = dict(os.environ, ELLIPREG_OUTDIR=str(tmp_path / "out"),
               PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
