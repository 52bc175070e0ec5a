"""Import graph: a default logse run loads numpy and no scipy module at all.

The solvers' LAPACK routines come from the LAPACK that numpy has already
loaded, through ctypes (logse.numerics._lapack); scipy's f2py extension is
the fallback only where numpy's library does not export them.  The test
asserts that numpy's backend is the one in use here, so it cannot pass by
the fallback's absence of scipy.linalg alone.  scipy.integrate (the
acceptance suite's quad oracle) and scipy.optimize pull in most of scipy;
numpy.f2py, numpy.testing (with unittest) and numpy.random are what the
scipy.linalg package's __init__ loads.  The q = 1 root (a bisection over
the module's own erfcx) is run away from its k = 0 closure point.  Checked in
a fresh interpreter, since the test process itself imports scipy.

A source scan keeps scipy.integrate out of the package but for
acceptance.py, where criterion 3's quad oracle lives: every grid is uniform,
so Simpson is one dot product (grids.simpson) and the cumulative trapezoid
one cumsum (numerics.poisson).  The sources are parsed, so docstrings and
comments that name the module do not count.
"""

import ast
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


def _integrate_imports(source: str) -> list[int]:
    """Line of every import of scipy.integrate or of a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.integrate" or name.startswith("scipy.integrate.")
               for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_scanner_finds_each_form_of_import():
    source = '''
"""import scipy.integrate in a docstring is not an import."""
import scipy.integrate
import scipy.integrate as si
from scipy import integrate
from scipy.integrate import quad
from scipy.integrate._quadrature import simpson
def f():
    from scipy.integrate import simpson
import scipy.linalg
from scipy import linalg
'''
    assert _integrate_imports(source) == [3, 4, 5, 6, 7, 9]


def test_scipy_integrate_only_in_acceptance():
    package = SRC / "logse"
    found = [f"{path.relative_to(package)}:{line}"
             for path in sorted(package.rglob("*.py"))
             for line in _integrate_imports(path.read_text(encoding="utf-8"))]
    assert [entry for entry in found if not entry.startswith("acceptance.py:")] == []
