"""The LAPACK module: scipy's results, one result from either backend, and
argument checks before any pointer is passed."""

import contextlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from logse.numerics import _lapack
from logse.numerics._lapack import (
    TridiagonalLU,
    TridiagonalSystem,
    eigh_tridiagonal_lowest,
    solve_banded,
)

SRC = Path(__file__).resolve().parents[1] / "src"
BACKENDS = {"numpy": _lapack.NumpyLapack.load(), "scipy": _lapack.ScipyFlapack.load()}


@contextlib.contextmanager
def backend(name):
    """The module's routines from the named backend while the block runs."""
    saved, _lapack._backend = _lapack._backend, BACKENDS[name]
    try:
        yield
    finally:
        _lapack._backend = saved


def on_both(call, *args):
    """call(*args) on the numpy and the scipy backend, each on fresh copies."""
    results = []
    for name in BACKENDS:
        with backend(name):
            results.append(call(*(np.copy(a) if isinstance(a, np.ndarray) else a
                                  for a in args)))
    return results


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_numpys_lapack_is_found_here():
    # the numpy 2 wheels for Linux export the LAPACKE symbols; the primary backend is in use
    assert BACKENDS["numpy"] is not None
    assert _lapack.BACKEND == "numpy"


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 700), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e4]))
def test_lowest_eigenpair_is_scipys_bit_for_bit(n, seed, scale):
    rng = np.random.default_rng(seed)
    d = scale * rng.standard_normal(n)
    e = scale * rng.standard_normal(n - 1)
    w, v = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    omega, u = eigh_tridiagonal_lowest(d, e)
    assert omega == w[0]
    assert np.array_equal(u, v[:, 0])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 700), seed=st.integers(0, 2**32 - 1))
def test_banded_solve_is_scipys_bit_for_bit(n, seed):
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((6, n))
    b = rng.standard_normal((n, 2))
    expected = scipy.linalg.solve_banded((3, 2), ab.copy(), b.copy())
    assert np.array_equal(solve_banded((3, 2), ab.copy(), b.copy()), expected)


def test_singular_band_raises_linalg_error():
    ab = np.ones((6, 8))
    ab[:, 3] = 0.0  # a zero column
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded((3, 2), ab, np.ones((8, 1)))


# ---- the two backends, bit for bit ------------------------------------------

SIZES = st.integers(2, 400)
SEEDS = st.integers(0, 2**32 - 1)


def gtsv_outcome(dl, d, du, b):
    system = TridiagonalSystem(d.size, b.shape[1])
    system.dl[:], system.d[:], system.du[:], system.b[:] = dl, d, du, b
    info = system.solve()
    return info, system.b.copy()


@settings(max_examples=40, deadline=None)
@given(n=SIZES, seed=SEEDS, k=st.integers(1, 3))
def test_backends_agree_on_gtsv(n, seed, k):
    rng = np.random.default_rng(seed)
    dl, d, du = rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1)
    (info, x), (info2, x2) = on_both(gtsv_outcome, dl, d, du, rng.standard_normal((n, k)))
    assert info == info2 and same_bits(x, x2)


def test_backends_agree_on_gtsv_and_gttrf_info_of_a_singular_matrix():
    # the last column is zero: the elimination's last pivot is exactly 0
    dl, d, du = np.ones(3), np.array([2.0, 2.0, 2.0, 0.0]), np.array([1.0, 1.0, 0.0])
    infos = [outcome[0] for outcome in on_both(gtsv_outcome, dl, d, du, np.ones((4, 2)))]
    assert infos == [4, 4]
    for name in BACKENDS:
        with backend(name), pytest.raises(np.linalg.LinAlgError, match="gttrf info=4"):
            TridiagonalLU(dl, d, du)


@settings(max_examples=40, deadline=None)
@given(n=SIZES, seed=SEEDS, lower=st.integers(0, 3), upper=st.integers(0, 3),
       columns=st.sampled_from([None, 2]))
def test_backends_agree_on_gbsv(n, seed, lower, upper, columns):
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((lower + upper + 1, n))
    b = rng.standard_normal(n if columns is None else (n, columns))
    x, x2 = on_both(solve_banded, (lower, upper), ab, b)
    assert same_bits(x, x2) and x.shape == b.shape


@settings(max_examples=40, deadline=None)
@given(n=SIZES, seed=SEEDS, scale=st.sampled_from([1e-3, 1.0, 1e4]))
def test_backends_agree_on_stebz_and_stein(n, seed, scale):
    rng = np.random.default_rng(seed)
    d, e = scale * rng.standard_normal(n), scale * rng.standard_normal(n - 1)
    (w, v), (w2, v2) = on_both(eigh_tridiagonal_lowest, d, e)
    assert same_bits(np.float64(w), np.float64(w2)) and same_bits(v, v2)


def lu_solves(dl, d, du, rhs):
    lu = TridiagonalLU(dl, d, du)
    return [lu.solve(b).copy() for b in rhs]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 400), seed=SEEDS)
def test_backends_agree_on_gttrf_and_gttrs(n, seed):
    rng = np.random.default_rng(seed)

    def z(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    dl, d, du = z(n - 1), z(n), z(n - 1)
    rhs = [z(n), rng.standard_normal(n), z(n)]  # a real one is cast
    xs, xs2 = on_both(lu_solves, dl, d, du, rhs)
    assert all(same_bits(x, y) for x, y in zip(xs, xs2))


@pytest.mark.parametrize("name", BACKENDS)
def test_lu_solve_returns_one_buffer_that_the_next_solve_overwrites(name):
    n = 20
    off, d = np.full(n - 1, -0.25 + 0j), np.full(n, 1.5 + 0j)
    b1, b2 = np.ones(n, dtype=complex), np.arange(n, dtype=complex)
    with backend(name):
        lu = TridiagonalLU(off, d, off)
        x1 = lu.solve(b1)
        first = x1.copy()
        x2 = lu.solve(b2)
        assert x2 is x1 and not same_bits(x1, first)
        assert same_bits(x2, TridiagonalLU(off, d, off).solve(b2))
        assert same_bits(lu.solve(b1), first)


def test_lu_solve_matches_scipys_zgttrs():
    n = 50
    lam = 0.5j * 1e-4 / (8.0 / n) ** 2
    off, d = np.full(n - 1, -0.5 * lam), np.full(n, 0.5 + lam)
    u = np.exp(-np.linspace(0.0, 4.0, n) ** 2).astype(complex)
    flapack = _lapack._load_flapack()
    factors = flapack.zgttrf(off, d, off)[:5]
    expected, _ = flapack.zgttrs(*factors, u)
    for name in BACKENDS:
        with backend(name):
            assert same_bits(TridiagonalLU(off, d, off).solve(u), expected)


# ---- argument checks: a copy of the right kind, or ValueError -----------------

def strided(a):
    """a as a view with stride 2 into a larger array."""
    spread = np.zeros((2 * a.shape[0],) + a.shape[1:], dtype=a.dtype)
    spread[::2] = a
    return spread[::2]


RNG = np.random.default_rng(7)
N = 9
DL, D, DU = RNG.standard_normal(N - 1), 4.0 + RNG.standard_normal(N), RNG.standard_normal(N - 1)
B2 = RNG.standard_normal((N, 2))


@pytest.mark.parametrize("name", list(BACKENDS))
def test_strided_and_integer_arguments_give_the_contiguous_float64_result(name):
    ints = [np.arange(1, N), np.arange(N) + 5, np.arange(N - 1) % 3]
    with backend(name):
        ab = RNG.standard_normal((4, N))
        expected = solve_banded((1, 2), ab, B2)
        assert same_bits(solve_banded((1, 2), strided(ab.T).T, strided(B2)), expected)
        assert same_bits(solve_banded((1, 2), np.asfortranarray(ab), B2), expected)
        abi = np.arange(4 * N).reshape(4, N) % 7 + 1
        assert same_bits(solve_banded((1, 2), abi, B2), solve_banded((1, 2), abi * 1.0, B2))
        assert same_bits(solve_banded((1, 2), ab, np.arange(N)),
                         solve_banded((1, 2), ab, np.arange(N, dtype=float)))

        omega, v = eigh_tridiagonal_lowest(D, DL)
        omega2, v2 = eigh_tridiagonal_lowest(strided(D), strided(DL))
        assert omega == omega2 and same_bits(v, v2)
        assert same_bits(eigh_tridiagonal_lowest(ints[1], ints[0])[1],
                         eigh_tridiagonal_lowest(ints[1] * 1.0, ints[0] * 1.0)[1])

        lu = TridiagonalLU(strided(DL), strided(D), strided(DU))
        expected = TridiagonalLU(DL, D, DU).solve(B2[:, 0]).copy()
        assert same_bits(lu.solve(B2[:, 0]).copy(), expected)
        assert same_bits(lu.solve(B2[:, 0].copy()).copy(), expected)
        assert same_bits(TridiagonalLU(*ints).solve(np.arange(N)),
                         TridiagonalLU(*(a * 1.0 for a in ints)).solve(np.arange(N) * 1.0))


def test_inputs_are_not_overwritten():
    dl, d, du, b = DL.copy(), D.copy(), DU.copy(), B2.copy()
    TridiagonalLU(dl, d, du).solve(b[:, 0])
    eigh_tridiagonal_lowest(d, dl)
    ab = np.vstack(([0.0] + du.tolist(), d, dl.tolist() + [0.0]))
    ab0 = ab.copy()
    solve_banded((1, 1), ab, b)
    assert all(np.array_equal(x, y) for x, y in
               ((dl, DL), (d, D), (du, DU), (b, B2), (ab, ab0)))


@pytest.mark.parametrize("call", [
    lambda: solve_banded((1, 2), np.ones((3, N)), B2),   # rows != l + u + 1
    lambda: solve_banded((-1, 2), np.ones((2, N)), B2),
    lambda: solve_banded((1, 2), np.ones((4, N)), np.ones(N + 1)),
    lambda: solve_banded((1, 2), np.ones(4 * N), B2),
    lambda: solve_banded((1, 2), np.ones((4, N)), B2[:-1]),   # b one row short
    lambda: solve_banded((1, 2), np.ones((4, N)), np.ones((N, 2, 1))),
    lambda: solve_banded((1, 2), np.ones((4, N)), 1.0),
    lambda: solve_banded((1, 2), np.ones((4, N)), B2 + 1j),  # complex into a real routine
    lambda: solve_banded((1, 2), np.ones((4, N)), B2.astype(object)),
    lambda: solve_banded((1, 2), np.ones((4, N)) + 0j, B2),
    lambda: solve_banded((0, 0), np.ones((1, 0)), np.ones(0)),  # order 0
    lambda: eigh_tridiagonal_lowest(D, DL[:-1]),
    lambda: eigh_tridiagonal_lowest(D, D),
    lambda: eigh_tridiagonal_lowest(np.ones((N, 1)), DL),
    lambda: eigh_tridiagonal_lowest(D.reshape(3, 3), DL),
    lambda: eigh_tridiagonal_lowest([1.0], []),          # order 1
    lambda: TridiagonalLU(DL[:-1], D, DU),               # dl one short
    lambda: TridiagonalLU(DL, D, np.append(DU, 1.0)),
    lambda: TridiagonalLU([1.0], [1.0, 2.0], [1.0]),     # order 2
    lambda: TridiagonalLU(DL, D, DU[:-1]),
    lambda: TridiagonalLU(DL, D, DU).solve(np.ones(N + 1)),
    lambda: TridiagonalLU(DL, D, DU).solve(np.ones(N - 1)),
    lambda: TridiagonalLU(DL, D, DU).solve(np.ones((N, 1))),
    lambda: TridiagonalLU(DL, D, DU).solve(np.ones(1)),   # would broadcast
    lambda: TridiagonalSystem(1, 2),
    lambda: TridiagonalSystem(4, 0),
])
def test_shapes_that_do_not_fit_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_the_bound_buffers_cannot_be_replaced():
    system = TridiagonalSystem(4, 2)
    for name in ("dl", "d", "du", "b"):
        with pytest.raises(AttributeError):
            setattr(system, name, np.zeros(100))
    assert [a.shape for a in (system.dl, system.d, system.du, system.b)] == [
        (3,), (4,), (3,), (4, 2)]
    assert system.b.flags.f_contiguous


# ---- the two backends, routine for routine ------------------------------------

def routine_methods(backend_class):
    """The names of a backend's routine methods (its plain public functions)."""
    return {name for name, value in vars(backend_class).items()
            if inspect.isfunction(value) and not name.startswith("_")}


def test_backends_define_the_same_routines():
    assert routine_methods(_lapack.NumpyLapack) == routine_methods(_lapack.ScipyFlapack)


def test_every_prototype_is_bound_by_a_numpy_routine():
    bound = set()
    for name in routine_methods(_lapack.NumpyLapack):
        source = inspect.getsource(getattr(_lapack.NumpyLapack, name))
        bound.update(re.findall(r'self\._f\["(\w+)"\]', source))
    assert bound == set(_lapack._PROTOTYPES)


# ---- the fallback's loader ------------------------------------------------------

LOAD = "from logse.numerics._lapack import _load_flapack; flapack = _load_flapack()"
IDENTITY = """
import sys
sys.path.insert(0, {src!r})
{first}
{second}
import scipy.linalg.lapack
assert flapack.dgtsv is scipy.linalg.lapack.dgtsv
assert sys.modules["scipy.linalg._flapack"] is flapack
"""


@pytest.mark.parametrize("first, second", [
    (LOAD + "; assert 'scipy.linalg' not in sys.modules", "import scipy.linalg"),
    ("import scipy.linalg", LOAD),
], ids=["logse-first", "scipy-linalg-first"])
def test_one_copy_of_the_extension_in_either_import_order(first, second):
    script = IDENTITY.format(src=str(SRC), first=first, second=second)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
