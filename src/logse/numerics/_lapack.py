"""scipy's LAPACK extension, loaded without running the scipy.linalg package.

`import scipy.linalg` runs the package's __init__, and through
scipy._lib._util and array_api_compat that loads numpy.f2py, numpy.testing,
numpy.random and numpy.ma: about 0.28 s, 28 MB and 300 modules in every
process.  The solvers need seven routines of the f2py extension
scipy.linalg._flapack and nothing else from it.  After `import scipy` (the
top-level package is cheap and does the platform's library set-up) the
extension is loaded here from its file in scipy/linalg/ and registered in
sys.modules under its own name, so a later `import scipy.linalg` reuses this
module object: one copy of the extension per process.

eigh_tridiagonal_lowest and solve_banded make the LAPACK calls that scipy's
eigh_tridiagonal(d, e, select="i", select_range=(0, 0)) and
solve_banded(l_and_u, ab, b, check_finite=False) make for the solvers'
arguments, so their results are bit-identical.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    spec = PathFinder.find_spec(_NAME, [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
    if spec is None:  # another layout: the same module, with the package's start-up
        from scipy.linalg import _flapack
        return _flapack
    module = module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
# attributes, not `from scipy.linalg._flapack import ...`: that would run the package
dgbsv, dgtsv, dptsv = _flapack.dgbsv, _flapack.dgtsv, _flapack.dptsv
dstebz, dstein = _flapack.dstebz, _flapack.dstein
zgttrf, zgttrs = _flapack.zgttrf, _flapack.zgttrs


def eigh_tridiagonal_lowest(d, e):
    """(lowest eigenvalue, its unit eigenvector) of the real symmetric
    tridiagonal matrix with diagonal d and off-diagonal e, d.size > 1.

    Bisection for the first eigenvalue (dstebz, range by index 1..1, the
    default absolute tolerance, block order), then inverse iteration for its
    vector (dstein).  Raises np.linalg.LinAlgError if either reports a
    non-zero info.
    """
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        v, info = dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"the tridiagonal eigensolve failed (LAPACK info={info})")
    return w[0], v[:, 0]


def solve_banded(l_and_u, ab, b):
    """x with A x = b, A banded with l sub- and u superdiagonals stored as
    ab[u + i - j, j] = A[i, j] (scipy.linalg.solve_banded's layout).

    One dgbsv call on a copy of ab below l zero rows (LAPACK's room for the
    pivoting's fill-in), as scipy's for every (l, u) but (1, 1), where scipy
    calls gtsv; b may be overwritten.  Raises np.linalg.LinAlgError if A is
    singular.
    """
    lower, upper = l_and_u
    lu = np.zeros((2 * lower + upper + 1, ab.shape[1]))
    lu[lower:] = ab
    _, _, x, info = dgbsv(lower, upper, lu, b, overwrite_ab=True, overwrite_b=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular banded matrix (LAPACK dgbsv info={info})")
    return x
