"""Import graph: a default logse run loads numpy and no scipy module at all.

The solvers' LAPACK routines come from the LAPACK that numpy has already
loaded, through ctypes (logse.numerics._lapack); scipy's f2py extension is
the fallback only where numpy's library does not export them.  The test
asserts that numpy's backend is the one in use here, so it cannot pass by
the fallback's absence of scipy.linalg alone.  scipy.integrate (log-grid
Simpson, the acceptance suite's quad oracle) and scipy.optimize pull in most
of scipy; numpy.f2py, numpy.testing (with unittest) and numpy.random are what
the scipy.linalg package's __init__ loads.  The q = 1 root (a bisection over
the module's own erfcx) is run away from its k = 0 closure point.  Checked in
a fresh interpreter, since the test process itself imports scipy.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NOT_AT_START_UP = ("numpy.f2py", "numpy.testing", "numpy.random", "unittest")

SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
import logse, logse.cli
for command in ("groundstate", "evolve", "field"):
    assert logse.cli.main([command, "--out", {out!r}]) == 0, command
assert logse.cli.main(["analytic", "--case", "q1", "--N", "2", "--out", {out!r}]) == 0
assert logse.numerics._lapack.BACKEND == "numpy"
print(json.dumps(sorted(name for name in sys.modules
                        if name in {names!r} or name.split(".")[0] == "scipy")))
"""


def test_default_runs_load_no_scipy(tmp_path):
    script = SCRIPT.format(src=str(SRC), out=str(tmp_path), names=NOT_AT_START_UP)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == []
