"""CSV writer: the numpy encoder writes the bytes of one '%.17g' per value."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logse.cli import main
from logse.output import _BLOCK_ROWS, CSV_FORMAT, write_csv


def _per_value_csv(path, header, columns):
    """Reference writer: one '%.17g' per value, joined row by row."""
    arrays = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(arrays[0].size):
            fh.write(",".join(CSV_FORMAT % a[i] for a in arrays) + "\n")


def _assert_matches_reference(tmp_path, columns):
    header = [f"c{j}" for j in range(len(columns))]
    write_csv(tmp_path / "rows.csv", header, columns)
    _per_value_csv(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_bytes_match_per_value_writer(tmp_path):
    n = 64
    wide = np.logspace(-300, 300, n) * np.where(np.arange(n) % 2, -1.0, 1.0)
    wide[[3, 10, 20]] = [np.nan, np.inf, -np.inf]
    columns = [
        wide,
        np.arange(n, dtype=np.int64) * 123_456_789_012 - 7,
        np.linspace(-1.0, 1.0, n, dtype=np.float32) / 3,
        np.random.default_rng(5).standard_normal(n),
    ]
    header = ["wide", "int64", "float32", "normal"]
    write_csv(tmp_path / "rows.csv", header, columns)
    _per_value_csv(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.binary(max_size=8 * 160), st.lists(st.floats(), max_size=40))
def test_any_float64_bytes_match_per_value_writer(tmp_path_factory, ncols, raw, floats):
    # raw bytes are arbitrary 64-bit patterns: NaN payloads, inf, subnormals, -0.0
    values = np.concatenate([np.frombuffer(raw[:len(raw) // 8 * 8], dtype="<f8"),
                             np.array(floats, dtype=np.float64)])
    columns = values[:values.size // ncols * ncols].reshape(-1, ncols).T
    _assert_matches_reference(tmp_path_factory.mktemp("csv"), list(columns))


def test_edge_values_match_per_value_writer(tmp_path):
    # powers of ten and their neighbours; some are stored below 10^m but
    # round up to it in 17 digits (1e-14, 1e+98), which is the carry case
    powers = np.array([float(f"1e{e}") for e in range(-320, 309)])
    edges = np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [0.0, 5e-324, 2.0**53 - 1, 2.0**53 + 2, 2.0**62,
         1e16, 1e17, np.nextafter(1e16, 0.0), np.nextafter(1e17, 0.0),
         np.nextafter(1e17, np.inf),
         9.9999999999999999e-5, np.nextafter(1e-4, 0.0),  # fixed/scientific switch
         0.5, 1.0 / 3.0],
    ])
    edges = np.concatenate([edges, -edges])
    _assert_matches_reference(tmp_path, [edges])
    ints = np.array([2**53 - 1, 2**53 + 1, 2**62 + 1, -(2**62) - 3, 0], dtype=np.int64)
    _assert_matches_reference(tmp_path, [ints, ints.astype(np.float32)])


@pytest.mark.parametrize("rows", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_block_boundary_matches_per_value_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    _assert_matches_reference(tmp_path, [rng.standard_normal(rows),
                                         np.exp(rng.uniform(-700, 700, rows))])


def test_write_csv_rejects_columns_that_are_not_1d_or_not_real(tmp_path):
    with pytest.raises(ValueError, match="1-D"):
        write_csv(tmp_path / "rows.csv", ["a", "b"], [np.zeros(4), np.zeros((4, 2))])
    with pytest.raises(TypeError):
        write_csv(tmp_path / "rows.csv", ["a"], [np.zeros(4, dtype=complex)])


def _reference_rewrite_matches(tmp_path, path):
    """Parse a written CSV (17 digits round-trip) and rewrite it per value."""
    lines = path.read_text().splitlines()
    columns = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
    _per_value_csv(tmp_path / "ref.csv", lines[0].split(","), list(columns))
    return (tmp_path / "ref.csv").read_bytes() == path.read_bytes()


def test_default_evolve_trajectory_matches_per_value_writer(tmp_path):
    assert main(["evolve", "--out", str(tmp_path)]) == 0
    assert _reference_rewrite_matches(tmp_path, tmp_path / "evolve_trajectory.csv")


# the default inverse_square grid truncates the entropy density (UserWarning)
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", ["constant", "general", "q1", "inverse_square"])
def test_analytic_profiles_match_per_value_writer(tmp_path, case):
    assert main(["analytic", "--case", case, "--out", str(tmp_path)]) == 0
    assert _reference_rewrite_matches(tmp_path, tmp_path / "analytic_profiles.csv")
