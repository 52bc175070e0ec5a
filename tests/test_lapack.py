"""The LAPACK module: the same extension as scipy.linalg's, the same results."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from logse.numerics._lapack import eigh_tridiagonal_lowest, solve_banded

SRC = Path(__file__).resolve().parents[1] / "src"


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


IDENTITY = """
import sys
sys.path.insert(0, {src!r})
{first}
{second}
import scipy.linalg.lapack
assert logse.numerics._lapack.dptsv is scipy.linalg.lapack.dptsv
assert sys.modules["scipy.linalg._flapack"] is logse.numerics._lapack._flapack
"""


@pytest.mark.parametrize("first, second", [
    ("import logse.numerics._lapack", "import scipy.linalg"),
    ("import scipy.linalg", "import logse.numerics._lapack"),
], ids=["logse-first", "scipy-linalg-first"])
def test_one_copy_of_the_extension_in_either_import_order(first, second):
    script = IDENTITY.format(src=str(SRC), first=first, second=second)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
