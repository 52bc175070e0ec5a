"""Import graph: a logse process loads numpy and scipy.linalg, no other scipy.

scipy.integrate (log-grid Simpson, the acceptance suite's quad oracle) and
scipy.optimize pull in most of scipy, and scipy.special several MB of its
own; none may load at import time or in the default solver runs.  The q = 1
root (a bisection over the module's own erfcx) is run away from its k = 0
closure point.  Checked in a fresh interpreter, since the test process
itself imports them.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# scipy subpackages that scipy.integrate and scipy.optimize bring in, and
# scipy.special
NOT_AT_START_UP = ("scipy.integrate", "scipy.optimize", "scipy.sparse",
                   "scipy.spatial", "scipy.fft", "scipy.constants", "scipy.special")

SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
import logse, logse.cli
for command in ("groundstate", "evolve", "field"):
    assert logse.cli.main([command, "--out", {out!r}]) == 0, command
assert logse.cli.main(["analytic", "--case", "q1", "--N", "2", "--out", {out!r}]) == 0
print(json.dumps(sorted(set({names!r}) & set(sys.modules))))
"""


def test_default_runs_load_only_numpy_and_scipy_linalg(tmp_path):
    script = SCRIPT.format(src=str(SRC), out=str(tmp_path), names=NOT_AT_START_UP)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == []
