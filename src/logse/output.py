"""Deterministic CSV/JSON writers and flat key=value config handling.

Output files contain no timestamps or environment-dependent fields, so a
saved configuration re-run produces byte-identical results.  CSV numbers are
written with 17 significant digits; JSON floats use Python's shortest
round-trip representation, which reconstructs the exact double.  JSON and
config text is UTF-8.

Every file is written by _write_over: over the old file's bytes, then cut to
the length written, never truncated to 0 first.  A rerun usually rewrites a
file of the same size.  Truncating it (``open(path, "wb")``) frees its
blocks, and on ext4 (auto_da_alloc) and XFS the close after a truncate
starts write-back, which the next rerun's truncate waits on; writing over
the blocks does neither.  The inode, its links and its permissions are kept.

Every CSV value is written as ``CSV_FORMAT % float(value)`` would write it,
but encoded by numpy a block of about 3,584 values at a time (512 rows of a
7-column table, 716 of a 5-column one), so every block has the same scratch
whatever the table's width:

* digits: with k = floor(log10 |x|), the 17-digit integer
  N = round(|x| 10^(16 - k)) comes from a double-double product (Dekker's
  exact product with a (hi, lo) table of 10^(16 - k) built from exact
  integer ratios), with k corrected where the product falls outside
  [1e16, 1e17) and a carry where N rounds to 10^17;
* layout: each value fills a fixed 48-byte slot of ASCII words (4-digit
  lookup tables), and one keep-mask row per %g layout (fixed notation for
  -4 <= k < 17, else d.ddde+XX; trailing zeros and a bare '.' dropped; sign)
  selects its bytes.  The layout depends on k alone, so its part of the row
  index comes from a table by k; the row's 0x00/0xFF bytes are ANDed onto
  the slot;
* compaction: every kept byte is printable ASCII and the AND leaves every
  dropped one NUL, so deleting the NULs of the block's bytes
  (``bytes.translate``) gives the file's bytes without an index array.

A value goes through CSV_FORMAT itself only where the fast path cannot
prove its digits: it is not finite, |x| lies outside [1e-280, 1e280] (where
the table's low parts or Dekker's split would leave the normal doubles), or
the scaled remainder lies within 1e-6 of one half (a possible tie; the
product's error is below 1e-14).
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

import numpy as np

from .errors import DomainError

CSV_FORMAT = "%.17g"

# values encoded per numpy pass (512 rows of the widest table the CLI writes,
# 7 columns); the scratch arrays hold about 250 bytes per value, so this
# bounds the writer's memory while keeping numpy's per-call overhead small
# next to the work
_BLOCK_VALUES = 3584

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_K_MIN, _K_MAX = -282, 282  # k over the fast range, one off either way
_TIE_WINDOW = 1e-6
_SPLIT = 134217729.0  # 2^27 + 1


def _split(v):
    """Dekker's split: v = high + low, each with at most 26 significant bits."""
    t = _SPLIT * v
    high = t - (t - v)
    return high, v - high


def _power_table():
    """10^(16 - k) for k from _K_MAX down to _K_MIN: hi, hi's split, lo."""
    hi, lo = [], []
    for e in range(16 - _K_MAX, 16 - _K_MIN + 1):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        hi.append(num / den)  # int / int rounds correctly
        hi_num, hi_den = hi[-1].as_integer_ratio()
        lo.append((num * hi_den - hi_num * den) / (den * hi_den))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


_POW_HI, _POW_HI_HI, _POW_HI_LO, _POW_LO = _power_table()


def _scaled(a, k):
    """a * 10^(16 - k) as a double-double (hi, lo), hi + lo exact to ~1e-14."""
    i = _K_MAX - k
    hi = a * _POW_HI[i]
    ah, al = _split(a)
    bh, bl = _POW_HI_HI[i], _POW_HI_LO[i]
    return hi, (((ah * bh - hi) + ah * bl) + al * bh) + al * bl + a * _POW_LO[i]


# A value's slot, six 8-byte words:
#   "-0.000" d0 "."  |  d1 "." d2 "." d3 "." d4 "."  | ... d16 "."  |  "e+308" 0 0 sep
_SLOT = 48


def _words(rows) -> np.ndarray:
    """Rows of 8m bytes as rows of m uint64 words."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint64)


def _group_tables():
    """Per 4-digit group g: its word "d.d.d.d.", and where its last nonzero digit ends."""
    g = np.arange(10_000, dtype=np.int16)
    digits = (g[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.uint8)
    pairs = np.full((g.size, 8), ord("."), dtype=np.uint8)
    pairs[:, ::2] = digits + ord("0")
    nonzero = digits != 0
    last = (nonzero.any(axis=1) * (4 - np.argmax(nonzero[:, ::-1], axis=1))).astype(np.uint8)
    # significant digits of the value if group j (digits 4j+1..4j+4) ends it
    ends = (last > 0) * (np.arange(1, 17, 4, dtype=np.uint8)[:, None] + last)
    return _words(pairs).ravel(), ends


def _keep_row(neg: int, nd: int, form: int) -> bytes:
    """The slot bytes %g keeps (0xFF) for a value with nd significant digits.

    form 0..16: fixed notation, k = form; 17..20: fixed, k = 16 - form, so
    "0." and -k - 1 zeros come first; 21, 22: d.ddd with a two- or
    three-digit exponent.
    """
    keep = bytearray(_SLOT)
    keep[0] = 0xFF * neg
    if form <= 16:  # the integer part's zeros stay
        digits, dot = max(nd, form + 1), form
    elif form <= 20:
        keep[1:form - 14] = b"\xff" * (form - 15)
        digits, dot = nd, None
    else:
        keep[40:45] = bytes([0xFF, 0xFF, 0xFF * (form == 22), 0xFF, 0xFF])
        digits, dot = nd, 0
    keep[6:6 + 2 * digits:2] = b"\xff" * digits
    if dot is not None and nd > dot + 1:
        keep[7 + 2 * dot] = 0xFF
    keep[-1] = 0xFF
    return bytes(keep)


_PAIRS, _SIGNIFICANT_END = _group_tables()
_HEAD = _words([list(b"-0.000%d." % d) for d in range(10)]).ravel()
_EXPONENT = _words([list(b"e%+04d\0\0\0" % k) for k in range(_K_MIN, _K_MAX + 1)]).ravel()
# row neg + 2 * (nd - 1) + 34 * form
_KEEP = _words(np.frombuffer(b"".join(
    _keep_row(neg, nd, form) for form in range(23) for nd in range(1, 18) for neg in (0, 1)),
    dtype=np.uint8).reshape(-1, _SLOT))


def _form(k: int) -> int:
    """_keep_row's layout for exponent k."""
    if -4 <= k <= 16:
        return k if k >= 0 else 16 - k
    return 21 + (abs(k) >= 100)


# 34 * form - 2 by k - _K_MIN, so that a value's _KEEP row is neg + 2 * nd + this
_FORM_ROW = np.array([34 * _form(k) - 2 for k in range(_K_MIN, _K_MAX + 1)])


def _digits(values: np.ndarray):
    """17-digit N and exponent k with |x| = N 10^(k - 16), and where the fast path fails.

    Zeros give N = 0, k = 0; values the fast path cannot prove are
    computed as 1.0 and flagged.
    """
    a = np.abs(values)
    zero = a == 0.0
    fast = zero | ((a >= _FAST_MIN) & (a <= _FAST_MAX))
    a = np.where(fast & ~zero, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, k)
    # log10 can put k one off near powers of ten: redo the product where it
    # falls outside [1e16, 1e17)
    near = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if near.size:
        near_hi, near_lo = hi[near], lo[near]
        shift = ((near_hi > 1e17) | ((near_hi == 1e17) & (near_lo >= 0))).astype(np.int64)
        shift -= (near_hi < 1e16) | ((near_hi == 1e16) & (near_lo < 0))
        near = near[shift != 0]
        k[near] += shift[shift != 0]
        hi[near], lo[near] = _scaled(a[near], k[near])
    whole = np.floor(lo)
    frac = lo - whole
    n = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = n == 10**17  # rounded up to the next power of ten
    n[carry] = 10**16
    k[carry] += 1
    n[zero] = 0
    k[zero] = 0
    return n, k, ~fast | (np.abs(frac - 0.5) < _TIE_WINDOW)


def _encode(block: np.ndarray, separators: np.ndarray) -> bytes:
    """ASCII bytes of a (rows, columns) float64 block, one separator word per column."""
    values = block.ravel()
    n, k, exact = _digits(values)
    d0 = n // 10**16
    n -= d0 * 10**16
    top = n // 10**8
    n -= top * 10**8
    g1, g3 = top // 10**4, n // 10**4
    groups = (g1, top - g1 * 10**4, g3, n - g3 * 10**4)
    nd = np.ones_like(n)
    for ends, g in zip(_SIGNIFICANT_END, groups):
        np.maximum(nd, ends[g], out=nd)

    k_index = k - _K_MIN
    words = np.empty((values.size, _SLOT // 8), dtype=np.uint64)
    words[:, 0] = _HEAD[d0]
    for w, g in enumerate(groups, 1):
        words[:, w] = _PAIRS[g]
    words[:, 5] = (_EXPONENT[k_index].reshape(block.shape) | separators).ravel()
    # every kept byte is printable ASCII, so zeroing the dropped ones and
    # deleting the NULs compacts the slots
    words &= _KEEP.take(2 * nd + _FORM_ROW[k_index] + np.signbit(values), axis=0)

    chars = words.view(np.uint8)
    for i in np.flatnonzero(exact):
        text = (CSV_FORMAT % values[i]).encode()
        chars[i, :-1] = 0
        chars[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return words.tobytes().translate(None, b"\0")


def _float_columns(header: list[str], columns) -> list[np.ndarray]:
    """One group's columns as float64 arrays, checked against the header."""
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    arrays = [np.asarray(c).astype(np.float64, casting="same_kind", copy=False)
              for c in columns]
    if any(a.ndim != 1 for a in arrays):
        raise ValueError("columns must be 1-D")
    if any(a.size != arrays[0].size for a in arrays):
        raise ValueError("columns must have equal length")
    return arrays


def _block_rows(columns: int) -> int:
    """Rows of a table with this many columns that one _encode call takes."""
    return max(1, _BLOCK_VALUES // columns)


def write_csv(path, header: list[str], columns, more=()) -> None:
    """Write aligned columns under a unit-annotated header row.

    Every value is written as CSV_FORMAT % float(value) writes it.  Columns
    are cast to float64 (a complex or non-numeric column is a TypeError) and
    must be 1-D and of equal length.  ``more`` yields further groups of
    columns like ``columns``; each is written below the rows before it as it
    arrives, so a table made a group at a time is never held whole.  A group
    that fails the checks raises after the rows before it are written.
    """
    groups = itertools.chain([_float_columns(header, columns)],
                             (_float_columns(header, group) for group in more))
    separators = _words([[0] * 7 + [ord(",")]] * (len(header) - 1)
                        + [[0] * 7 + [ord("\n")]]).T
    rows = _block_rows(len(header))

    def chunks():
        yield (",".join(header) + "\n").encode()
        for arrays in groups:
            for start in range(0, arrays[0].size, rows):
                block = np.stack([a[start:start + rows] for a in arrays], axis=1)
                yield _encode(block, separators)

    _write_over(path, chunks())


def write_json(path, payload: dict) -> None:
    _write_over(path, [(json.dumps(payload, indent=2) + "\n").encode("utf-8")])


def parse_config_file(path) -> dict:
    """Read a flat key=value file; '#' starts a comment, blank lines ignored.

    Values are parsed as bool/int/float when they look like one, else kept
    as strings.  Keys use the same names as the CLI flags with '-' replaced
    by '_'.
    """
    out = {}
    text = Path(path).read_text(encoding="utf-8")
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
    _write_over(path, [("\n".join(lines) + "\n").encode("utf-8")])


def _write_over(path, chunks) -> None:
    """Write the byte chunks to path over its old bytes, then cut it there.

    The file is created with open()'s mode (0o666 under the umask) if it
    is missing.  The cut runs also when a chunk raises, so the file holds
    exactly the bytes written before it.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        try:
            for chunk in chunks:
                fh.write(chunk)
        finally:
            fh.truncate()


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
