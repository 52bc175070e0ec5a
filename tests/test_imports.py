"""Import graph: a logse process loads numpy, scipy.linalg and scipy.special.

scipy.integrate (log-grid Simpson, the acceptance suite's quad oracle) and
scipy.optimize pull in most of scipy; neither may load at import time or in
the default solver runs.  Checked in a fresh interpreter, since the test
process itself imports them.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# scipy subpackages that scipy.integrate and scipy.optimize bring in
NOT_AT_START_UP = ("scipy.integrate", "scipy.optimize", "scipy.sparse",
                   "scipy.spatial", "scipy.fft", "scipy.constants")

SCRIPT = """
import json, math, sys
sys.path.insert(0, {src!r})
import logse, logse.cli
for command in ("groundstate", "evolve", "field"):
    assert logse.cli.main([command, "--out", {out!r}]) == 0, command
logse.case_q1(2, math.pi)
print(json.dumps(sorted(set({names!r}) & set(sys.modules))))
"""


def test_default_runs_load_no_integrate_optimize_sparse_or_spatial(tmp_path):
    script = SCRIPT.format(src=str(SRC), out=str(tmp_path), names=NOT_AT_START_UP)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == []
