"""The solvers' seven LAPACK routines, from the LAPACK that numpy has loaded.

numpy's linalg extension links an OpenBLAS that exports LAPACKE's `_work`
entry points with 64-bit integers (scipy_LAPACKE_<name>_work64_ in the
numpy 2 wheels).  They are bound with ctypes through the extension's own
handle, whose symbol lookup also searches the libraries it depends on, so no
library path is guessed; the `_work` calls take their char arguments without
Fortran's hidden lengths, and column-major arrays as they are.  Where numpy's
library does not export them (numpy < 2, conda builds, the Accelerate wheels
on macOS), scipy's f2py extension scipy.linalg._flapack serves the same
routines: after `import scipy` (cheap; it does the platform's library
set-up) it is loaded from its file in scipy/linalg/ without running the
scipy.linalg package, whose __init__ loads numpy.f2py, numpy.testing,
numpy.random and numpy.ma, and registered under its own name, so a later
`import scipy.linalg` reuses it.  The choice is made once, at import, from
what the platform exports; BACKEND is the one in use.

Both backends take only arrays this module made, of the routine's dtype,
contiguous (Fortran order for right-hand-side blocks) and of the lengths it
passes.  The public functions and classes copy or check what they are given
and raise ValueError for a shape that does not fit.  The systems that live
across a solve own their buffers and bind their call once, so each solve
passes pointers looked up at construction: the flow step's
(SPDTridiagonalSystem, ptsv), the Newton step's (TridiagonalSystem, gtsv)
and the Crank-Nicolson factors (TridiagonalLU, gttrf then gttrs).

eigh_tridiagonal_lowest and solve_banded make the LAPACK calls that scipy's
eigh_tridiagonal(d, e, select="i", select_range=(0, 0)) and
solve_banded(l_and_u, ab, b, check_finite=False) make for the solvers'
arguments, so their results are bit-identical.
"""

from __future__ import annotations

import ctypes
import operator
import os
import sys

import numpy as np

_I, _P, _D, _C = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double, ctypes.c_char
_COLUMN_MAJOR = 102  # LAPACK_COL_MAJOR; the calls that take a layout get this one

# LAPACKE_<name>_work's arguments (lapack_int is 64-bit), in order
_PROTOTYPES = {
    "dptsv": (ctypes.c_int, _I, _I, _P, _P, _P, _I),
    "dgtsv": (ctypes.c_int, _I, _I, _P, _P, _P, _P, _I),
    "dgbsv": (ctypes.c_int, _I, _I, _I, _I, _P, _I, _P, _P, _I),
    "dstebz": (_C, _C, _I, _D, _D, _I, _I, _D, _P, _P, _P, _P, _P, _P, _P, _P, _P),
    "dstein": (ctypes.c_int, _I, _P, _P, _I, _P, _P, _P, _P, _I, _P, _P, _P),
    "zgttrf": (_I, _P, _P, _P, _P, _P),
    "zgttrs": (ctypes.c_int, _C, _I, _I, _P, _P, _P, _P, _P, _P, _I),
}


_BYTES = ctypes.c_char * 0


def _address(a):
    """The data pointer of a writable array in C or Fortran order (ctypes'
    from_buffer checks both; it is 3x faster than a.ctypes.data)."""
    return ctypes.addressof(_BYTES.from_buffer(a if a.flags.c_contiguous else a.T))


def _arguments(values):
    return [_address(v) if isinstance(v, np.ndarray) else v for v in values]


def _call(function, *values):
    """function(*values), an array passed as its data pointer."""
    return function(*_arguments(values))


def _bind(function, *values):
    """function(*values) as a call without arguments: every value converted
    once to the ctypes type of its argument, an array to its data pointer.
    The call keeps the arrays alive."""
    args = tuple(kind(v) for kind, v in zip(function.argtypes, _arguments(values), strict=True))

    def call():
        return function(*args)

    call.arrays = values
    return call


def _columns(b):
    return b.shape[1] if b.ndim == 2 else 1


def _indices(n):
    return np.zeros(n, dtype=np.int64)


class NumpyLapack:
    """The routines of numpy's LAPACK through ctypes."""

    name = "numpy"

    def __init__(self, functions):
        self._f = functions

    @classmethod
    def load(cls):
        """The backend, or None where numpy's library lacks a routine."""
        try:
            from numpy.linalg import _umath_linalg
            library = ctypes.CDLL(_umath_linalg.__file__)
            functions = {}
            for name, argtypes in _PROTOTYPES.items():
                function = getattr(library, f"scipy_LAPACKE_{name}_work64_")
                function.argtypes, function.restype = argtypes, ctypes.c_int64
                functions[name] = function
        except (ImportError, OSError, AttributeError):
            return None
        return cls(functions)

    def ptsv(self, d, e, b):
        return _bind(self._f["dptsv"], _COLUMN_MAJOR, d.size, _columns(b), d, e, b, d.size)

    def gttrs(self, dl, d, du, du2, ipiv):
        x = np.zeros(d.size, dtype=complex)
        call = _bind(self._f["zgttrs"], _COLUMN_MAJOR, b"N", d.size, 1, dl, d, du, du2, ipiv,
                     x, d.size)

        def solve(b):
            np.copyto(x, b)
            call()
            return x
        return solve

    def gtsv(self, dl, d, du, b):
        return _bind(self._f["dgtsv"], _COLUMN_MAJOR, d.size, _columns(b), dl, d, du, b,
                     d.size)

    def gbsv(self, lower, upper, ab, b):
        n = ab.shape[1]
        return _call(self._f["dgbsv"], _COLUMN_MAJOR, n, lower, upper, _columns(b), ab,
                     ab.shape[0], _indices(n), b, n)

    def stebz_lowest(self, d, e):
        n = d.size
        m, nsplit = _indices(1), _indices(1)
        w, iblock, isplit = np.zeros(n), _indices(n), _indices(n)
        info = _call(self._f["dstebz"], b"I", b"B", n, 0.0, 1.0, 1, 1, 0.0, d, e, m,
                     nsplit, w, iblock, isplit, np.zeros(4 * n), _indices(3 * n))
        return w[:m[0]], iblock, isplit, info

    def stein(self, d, e, w, iblock, isplit):
        n, m = d.size, w.size
        z = np.zeros((n, m), order="F")
        info = _call(self._f["dstein"], _COLUMN_MAJOR, n, d, e, m, w, iblock, isplit, z, n,
                     np.zeros(5 * n), _indices(n), _indices(m))
        return z, info

    def gttrf(self, dl, d, du):
        du2, ipiv = np.zeros(d.size - 2, dtype=complex), _indices(d.size)
        info = _call(self._f["zgttrf"], d.size, dl, d, du, du2, ipiv)
        return du2, ipiv, info


class ScipyFlapack:
    """The same routines from scipy's f2py extension scipy.linalg._flapack.
    With the overwrite flags, on this module's arrays, it works in place."""

    name = "scipy"

    def __init__(self, module):
        self._m = module

    @classmethod
    def load(cls):
        return cls(_load_flapack())

    def ptsv(self, d, e, b):
        dptsv = self._m.dptsv
        return lambda: dptsv(d, e, b, overwrite_d=1, overwrite_e=1, overwrite_b=1)[3]

    def gttrs(self, dl, d, du, du2, ipiv):
        zgttrs = self._m.zgttrs
        x = np.zeros(d.size, dtype=complex)

        def solve(b):
            np.copyto(x, b)
            return zgttrs(dl, d, du, du2, ipiv, x, "N", 1)[0]  # overwrite_b
        return solve

    def gtsv(self, dl, d, du, b):
        dgtsv = self._m.dgtsv
        return lambda: dgtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                             overwrite_b=1)[4]

    def gbsv(self, lower, upper, ab, b):
        return self._m.dgbsv(lower, upper, ab, b, overwrite_ab=1, overwrite_b=1)[3]

    def stebz_lowest(self, d, e):
        m, w, iblock, isplit, info = self._m.dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
        return w[:m], iblock, isplit, info

    def stein(self, d, e, w, iblock, isplit):
        return self._m.dstein(d, e, w, iblock, isplit)

    def gttrf(self, dl, d, du):
        return self._m.zgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)[3:]


_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    import scipy
    from importlib.machinery import PathFinder
    from importlib.util import module_from_spec
    spec = PathFinder.find_spec(_FLAPACK, [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
    if spec is None:  # another layout: the same module, with the package's start-up
        from scipy.linalg import _flapack
        return _flapack
    module = module_from_spec(spec)
    sys.modules[_FLAPACK] = module
    spec.loader.exec_module(module)
    return module


_backend = NumpyLapack.load() or ScipyFlapack.load()
BACKEND = _backend.name


def _checked(a, dtype, shape, name):
    """a as an array; ValueError unless it has the given shape (None
    matches any length) and casts safely to dtype."""
    a = np.asarray(a)
    if a.shape != shape and (a.ndim != len(shape) or any(
            s is not None and s != t for s, t in zip(shape, a.shape))):
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    if a.dtype != dtype and not np.can_cast(a.dtype, dtype):
        raise ValueError(f"{name} of dtype {a.dtype} does not cast safely to {np.dtype(dtype)}")
    return a


def _owned(a, dtype, shape, name, order="C"):
    """A fresh copy of a, checked by _checked, in dtype and order."""
    return np.array(_checked(a, dtype, shape, name), dtype=dtype, order=order)


def _order(n, least, what="order"):
    """n, an integer of at least least; ValueError if smaller.  scipy's f2py
    wrappers reject a tridiagonal order below 2, and zgttrf's below 3."""
    n = operator.index(n)
    if n < least:
        raise ValueError(f"a system's {what} is {n}; it must be at least {least}")
    return n


class SPDTridiagonalSystem:
    """A symmetric positive definite tridiagonal system of order n, in
    buffers of its own: diagonal d, off-diagonal e, right-hand side b.

    solve() runs ptsv on them: b becomes the solution, d and e its factors;
    it returns ptsv's info (k > 0: the leading minor of order k is not
    positive definite).  The buffers are fixed for the object's life, so the
    call's pointers are looked up once.
    """

    def __init__(self, n):
        n = _order(n, 2)
        self._d, self._e, self._b = np.zeros(n), np.zeros(n - 1), np.zeros(n)
        self.solve = _backend.ptsv(self._d, self._e, self._b)

    d = property(lambda self: self._d)
    e = property(lambda self: self._e)
    b = property(lambda self: self._b)


class TridiagonalSystem:
    """A real tridiagonal system of order n with k right-hand sides, in
    buffers of its own: sub-, main and superdiagonals dl, d, du and the
    (n, k) block b.

    solve() runs gtsv (LU with partial pivoting) on them: b becomes the
    solution; it returns gtsv's info (k > 0: A is singular, its U(k, k) is
    exactly zero).  Bound once, as SPDTridiagonalSystem.
    """

    def __init__(self, n, k):
        n, k = _order(n, 2), _order(k, 1, "number of right-hand sides")
        self._dl, self._d, self._du = np.zeros(n - 1), np.zeros(n), np.zeros(n - 1)
        self._b = np.zeros((n, k), order="F")
        self.solve = _backend.gtsv(self._dl, self._d, self._du, self._b)

    dl = property(lambda self: self._dl)
    d = property(lambda self: self._d)
    du = property(lambda self: self._du)
    b = property(lambda self: self._b)


class TridiagonalLU:
    """The LU factors (gttrf) of the complex tridiagonal matrix with sub-,
    main and superdiagonals dl, d, du; raises np.linalg.LinAlgError if it is
    singular.  solve(b) copies b into one buffer owned by the factors,
    back-substitutes (gttrs) there and returns that buffer, which the next
    solve overwrites.  gttrs reports only illegal arguments, which the checks
    here rule out, so solve raises nothing from LAPACK."""

    def __init__(self, dl, d, du):
        d = _owned(d, np.complex128, (None,), "d")
        n = _order(d.size, 3)
        dl, du = (_owned(a, np.complex128, (n - 1,), name) for a, name in ((dl, "dl"), (du, "du")))
        du2, ipiv, info = _backend.gttrf(dl, d, du)
        if info != 0:
            raise np.linalg.LinAlgError(f"singular tridiagonal matrix (LAPACK gttrf info={info})")
        self._shape = (n,)
        self._solve = _backend.gttrs(dl, d, du, du2, ipiv)

    def solve(self, b):
        return self._solve(_checked(b, np.complex128, self._shape, "b"))


def eigh_tridiagonal_lowest(d, e):
    """(lowest eigenvalue, its unit eigenvector) of the real symmetric
    tridiagonal matrix with diagonal d and off-diagonal e.

    Bisection for the first eigenvalue (dstebz, range by index 1..1, the
    default absolute tolerance, block order), then inverse iteration for its
    vector (dstein).  Raises np.linalg.LinAlgError if either reports a
    non-zero info.
    """
    d = _owned(d, np.float64, (None,), "d")
    e = _owned(e, np.float64, (_order(d.size, 2) - 1,), "e")
    w, iblock, isplit, info = _backend.stebz_lowest(d, e)
    if info == 0:
        v, info = _backend.stein(d, e, w, iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"the tridiagonal eigensolve failed (LAPACK info={info})")
    return w[0], v[:, 0]


def solve_banded(l_and_u, ab, b):
    """x with A x = b, A banded with l sub- and u superdiagonals stored as
    ab[u + i - j, j] = A[i, j] (scipy.linalg.solve_banded's layout); b is
    (n,) or (n, k).

    One dgbsv call on a copy of ab below l zero rows (LAPACK's room for the
    pivoting's fill-in), as scipy's for every (l, u) but (1, 1), where scipy
    calls gtsv.  Raises np.linalg.LinAlgError if A is singular.
    """
    lower, upper = (operator.index(k) for k in l_and_u)
    if lower < 0 or upper < 0:
        raise ValueError(f"bandwidths ({lower}, {upper}) must be non-negative")
    ab = _checked(ab, np.float64, (lower + upper + 1, None), "ab")
    n = _order(ab.shape[1], 1)
    lu = np.zeros((2 * lower + upper + 1, n), order="F")
    lu[lower:] = ab
    if np.ndim(b) not in (1, 2):
        raise ValueError(f"b has shape {np.shape(b)}, expected ({n},) or ({n}, k)")
    x = _owned(b, np.float64, (n, None)[:np.ndim(b)], "b", order="F")
    info = _backend.gbsv(lower, upper, lu, x)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular banded matrix (LAPACK dgbsv info={info})")
    return x
