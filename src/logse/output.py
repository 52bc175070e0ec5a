"""Deterministic CSV/JSON writers and flat key=value config handling.

Output files contain no timestamps or environment-dependent fields, so a
saved configuration re-run produces byte-identical results.  CSV numbers are
written with 17 significant digits; JSON floats use Python's shortest
round-trip representation, which reconstructs the exact double.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DomainError

CSV_FORMAT = "%.17g"


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write aligned columns under a unit-annotated header row."""
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    arrays = [np.asarray(c) for c in columns]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("columns must have equal length")
    row_format = ",".join([CSV_FORMAT] * len(arrays)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(row_format.__mod__, zip(*arrays)))


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def parse_config_file(path) -> dict:
    """Read a flat key=value file; '#' starts a comment, blank lines ignored.

    Values are parsed as bool/int/float when they look like one, else kept
    as strings.  Keys use the same names as the CLI flags with '-' replaced
    by '_'.
    """
    out = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = _coerce(value)
    return out


def save_config_file(path, config: dict) -> None:
    lines = []
    for key, value in config.items():
        if value is None:
            continue
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")


def _coerce(value: str):
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value
