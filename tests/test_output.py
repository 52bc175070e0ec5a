"""CSV writer: the numpy encoder writes the bytes of one '%.17g' per value; JSON writer;
every writer rewrites a file over its old bytes and cuts it to the new length."""

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logse.analytic import case_constant
from logse.cli import main
from logse.grids import RadialGrid
from logse.numerics import evolve_real_time
from logse.output import (
    CSV_FORMAT,
    _block_rows,
    parse_config_file,
    save_config_file,
    write_csv,
    write_json,
)


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
@given(st.integers(1, 7), st.binary(max_size=8 * 160), st.lists(st.floats(), max_size=40))
# more than one block of 7 columns, every value a random 64-bit pattern
@example(7, np.random.default_rng(7).bytes(8 * 7 * (_block_rows(7) + 3)), [])
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


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["minus1", "equal", "plus1"])
@pytest.mark.parametrize("ncols", range(1, 8))
def test_block_boundary_matches_per_value_writer(tmp_path, ncols, offset):
    rows = _block_rows(ncols) + offset
    rng = np.random.default_rng(rows)
    _assert_matches_reference(tmp_path, [
        rng.standard_normal(rows) if j % 2 else np.exp(rng.uniform(-700, 700, rows))
        for j in range(ncols)])


@pytest.mark.parametrize("sizes", [[0], [4, 0, 7], [_block_rows(5) + 1, 1, 2 * _block_rows(5)]])
def test_groups_match_concatenated_write(tmp_path, sizes):
    rng = np.random.default_rng(len(sizes))
    groups = [list(rng.standard_normal((5, size)) * 10.0 ** rng.integers(-20, 20, (5, 1)))
              for size in sizes]
    header = [f"c{j}" for j in range(5)]
    write_csv(tmp_path / "groups.csv", header, groups[0], iter(groups[1:]))
    write_csv(tmp_path / "whole.csv", header, [np.concatenate(c) for c in zip(*groups)])
    assert (tmp_path / "groups.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    with pytest.raises(ValueError, match="counts differ"):
        write_csv(tmp_path / "groups.csv", header, groups[0], iter([groups[0][:4]]))


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


def test_evolve_trajectory_matches_concatenated_write(tmp_path):
    # the CLI writes one group per snapshot; the same rows as one table
    assert main(["evolve", "--n", "500", "--steps", "200", "--stride", "50",
                 "--out", str(tmp_path)]) == 0
    sol = case_constant(1.0, np.pi)
    grid = RadialGrid.uniform_from_origin(10.0, 500)
    result = evolve_real_time(sol.sample(grid), sol.profile, dt=1e-4,
                              n_steps=200, snapshot_stride=50, keep_snapshots=True)
    columns = [[np.full_like(grid.r, t), grid.r, v.real, v.imag, np.abs(v) ** 2]
               for t, v in result.snapshots]
    write_csv(tmp_path / "whole.csv", ["t[tau]", "r[a]", "psi_re", "psi_im", "density"],
              [np.concatenate(c) for c in zip(*columns)])
    assert (tmp_path / "whole.csv").read_bytes() == (
        tmp_path / "evolve_trajectory.csv").read_bytes()


# the default inverse_square grid truncates the entropy density (UserWarning)
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", ["constant", "general", "q1", "inverse_square"])
def test_analytic_profiles_match_per_value_writer(tmp_path, case):
    assert main(["analytic", "--case", case, "--out", str(tmp_path)]) == 0
    assert _reference_rewrite_matches(tmp_path, tmp_path / "analytic_profiles.csv")


def test_write_json_matches_json_dump(tmp_path):
    edges = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             0.1, 1 / 3, 1e16, 1e-7, float("nan"), float("inf"), -float("inf")]
    payload = {"floats": edges, "nested": {"a": [1, [2.5, {"b": None}]], "flag": True,
                                           "empty": {}, "none": [], "text": "ψ ρ \"q\""},
               "int": 2**70, "config": {"b0": np.pi, "q": -1.0}}
    write_json(tmp_path / "one_call.json", payload)
    with open(tmp_path / "dump.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    assert (tmp_path / "one_call.json").read_bytes() == (tmp_path / "dump.json").read_bytes()


def _write(kind, path, rows):
    """A CSV, result JSON or saved config whose length grows with rows."""
    if kind == "csv":
        write_csv(path, ["a", "b"], [np.arange(rows, dtype=float), np.ones(rows) / 3])
    elif kind == "json":
        write_json(path, {"values": list(range(rows))})
    else:
        save_config_file(path, {f"key_{j}": j / 7 for j in range(rows)})


@pytest.mark.parametrize("kind", ["csv", "json", "config"])
def test_shorter_rerun_leaves_exactly_the_new_bytes(tmp_path, kind):
    _write(kind, tmp_path / "rerun", 2000)
    long_size = (tmp_path / "rerun").stat().st_size
    _write(kind, tmp_path / "rerun", 3)
    _write(kind, tmp_path / "fresh", 3)
    rerun = (tmp_path / "rerun").read_bytes()
    assert rerun == (tmp_path / "fresh").read_bytes()
    assert len(rerun) < long_size / 10


def test_json_and_config_text_is_utf8(tmp_path):
    write_json(tmp_path / "r.json", {"text": "ψ"})
    assert (tmp_path / "r.json").read_bytes() == b'{\n  "text": "\\u03c8"\n}\n'
    save_config_file(tmp_path / "r.cfg", {"label": "ψ ρ", "q": -1.0, "skip": None})
    assert (tmp_path / "r.cfg").read_bytes() == "label = ψ ρ\nq = -1.0\n".encode("utf-8")
    assert parse_config_file(tmp_path / "r.cfg") == {"label": "ψ ρ", "q": -1.0}


def test_failing_group_leaves_earlier_rows_and_cuts_the_old_tail(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ["a", "b"], [np.arange(4000.0), np.arange(4000.0)])
    first, second = [np.arange(3.0), np.ones(3)], [np.full(2, 0.5), np.full(2, 2.0)]

    def more():
        yield second
        raise RuntimeError("snapshot failed")

    with pytest.raises(RuntimeError, match="snapshot failed"):
        write_csv(path, ["a", "b"], first, more())
    write_csv(tmp_path / "two_groups.csv", ["a", "b"], first, [second])
    assert path.read_bytes() == (tmp_path / "two_groups.csv").read_bytes()


def test_rerun_keeps_the_inode_links_and_permissions(tmp_path):
    path = tmp_path / "result.json"
    write_json(path, {"values": list(range(100))})
    os.chmod(path, 0o640)
    os.link(path, tmp_path / "hard.json")
    os.symlink(path, tmp_path / "soft.json")
    inode = path.stat().st_ino
    write_json(path, {"values": [1]})
    write_json(tmp_path / "soft.json", {"values": [2]})
    assert path.stat().st_ino == inode
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert (tmp_path / "soft.json").is_symlink()
    assert (tmp_path / "hard.json").read_bytes() == path.read_bytes() == (
        b'{\n  "values": [\n    2\n  ]\n}\n')


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
def test_new_file_gets_the_mode_of_open_wb(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "reference", "wb"):
            pass
        write_csv(tmp_path / "rows.csv", ["a"], [np.zeros(2)])
        write_json(tmp_path / "r.json", {})
        save_config_file(tmp_path / "r.cfg", {})
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    for name in ("rows.csv", "r.json", "r.cfg"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name
