"""CSV writer: the row-formatted writer keeps the per-value bytes."""

import numpy as np

from logse.output import CSV_FORMAT, write_csv


def _per_value_csv(path, header, columns):
    """Reference writer: one '%.17g' per value, joined row by row."""
    arrays = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(arrays[0].size):
            fh.write(",".join(CSV_FORMAT % a[i] for a in arrays) + "\n")


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
