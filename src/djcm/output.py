"""Deterministic CSV and JSON emission, and the one writer of every file.

Floats are printed with 17 significant digits (round-trip exact for
IEEE doubles), newlines are Unix, key order is sorted: re-running a
command with the same inputs reproduces every output byte for byte.

write_chunks writes a file from an iterable of chunks (str or bytes), each
written as soon as it is made: a file's whole text is never held in memory.

format_cells turns float64 values into cells, one row of CELL_WIDTH (24)
bytes of ASCII a value (the text of ``"%.17g" % v``, with spaces anywhere
in the row) in a uint8 array, in blocks of CSV_BLOCK_ROWS values and
NumPy integer arithmetic, after the manner of Ryu printf (Adams, "Ryu
revisited: printf floating point conversion", OOPSLA 2019).  A value in
the exact range 1e-11 <= |v| < 2**53 is made as follows:

- its 53-bit mantissa m and binary exponent come from its bits;
- its decimal exponent E comes from log10 and is then set exactly against
  a table of the least double at or above each power of ten;
- 2m * 5**(16 - E) is formed as a 128-bit product of 32-bit limbs (5**27 <
  2**64 bounds the range below), shifted right by the binary exponent and
  rounded half to even on the exact remainder: its 17 digits;
- the digits, as the ASCII of 4-digit groups, fill the cell's three 64-bit
  words, and copies of them are moved one byte down and three up;
- tables keyed on the sign, E and the digits left once trailing zeros go
  mask what %g's layout keeps of each copy and add the rest of the text.

Every other value (+-0, subnormals, inf, nan and the magnitudes outside the
range) goes through one ``%`` call per block.  csv_rows joins cell arrays
into CSV rows as bytes: cells, commas and newlines, with the spaces
dropped.  write_csv formats and joins its columns in blocks of
CSV_BLOCK_ROWS rows.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

__all__ = [
    "CSV_BLOCK_ROWS",
    "CELL_WIDTH",
    "write_chunks",
    "format_cells",
    "csv_rows",
    "write_csv",
    "write_json",
]

# rows per chunk of write_csv: enough to amortise the per-chunk calls, few
# enough (~0.5 MB of text at 4 columns) that no chunk weighs in memory
CSV_BLOCK_ROWS = 4096
# the longest %.17g text, "-2.2250738585072014e-308"
CELL_WIDTH = 24


def write_chunks(path, chunks) -> None:
    """Write the chunks (an iterable of str or bytes; str as UTF-8) in order
    to path, in an existing directory; each chunk is formatted only when the
    file takes it."""
    with open(path, "wb") as fh:
        fh.writelines(chunk.encode() if isinstance(chunk, str) else chunk for chunk in chunks)


_U64 = np.uint64
_LOW_E = -11  # the exact range's lowest decimal exponent: |v| >= 1e-11


def _decades() -> np.ndarray:
    """The least double >= 10**E for E = _LOW_E - 1..16: |v| >= 10**E
    exactly when |v| >= this double."""
    floors = []
    for e in range(_LOW_E - 1, 17):
        d = float(f"1e{e}")  # correctly rounded, so at most one step below 10**e
        num, den = d.as_integer_ratio()
        floors.append(math.nextafter(d, math.inf) if num * 10 ** max(-e, 0) < den * 10 ** max(e, 0) else d)
    return np.array(floors)


_DECADES = _decades()
# 5**k = _POW5_HIGH[k] * 2**32 + _POW5_LOW[k], k = 0..27
_POW5_HIGH = np.array([5**k >> 32 for k in range(28)], dtype=_U64)
_POW5_LOW = np.array([5**k & 2**32 - 1 for k in range(28)], dtype=_U64)

# the decimal digits of the 4-digit groups 0000..9999
_GROUPS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
# a group's ASCII as one 32-bit half of a word; a cell is three 64-bit
# words, its byte k at bits 8k..8k + 7 of word k // 8
_DIGITS = np.ascontiguousarray(_GROUPS + np.uint8(48)).view("<u4").ravel()
_WORD = np.dtype("<u8")
# a group's digits up to its last nonzero one (0001 -> 4, 1200 -> 2), far below 0 for 0000
_GROUP_DIGITS = np.where(_GROUPS > 0, np.arange(1, 5, dtype=np.int8), np.int8(-20)).max(axis=1)
# the digits of the 17 before each group ("000d" starts three before the first)
_GROUP_STARTS = np.arange(-3, 18, 4, dtype=np.int8)[:, None]


def _tables() -> np.ndarray:
    """The four cells of each layout key (sign, E = -11..15, significant
    digits s = 1..17), as (4, 3, keys) words: the masks H, T and G of the
    bytes taken from the digits at byte 2 (before the point), at byte 3
    (after it) and at byte 6 (after "0.000"), and the fill F of the rest."""
    layouts = []
    for sign, e, s in itertools.product(" -", range(_LOW_E, 16), range(1, 18)):
        if e >= 0:  # E + 1 digits, then a point if more follow
            layout = " " + "H" * (e + 1) + ("." + "T" * (s - e - 1)) * (s > e + 1)
        elif e >= -4:  # "0." and -1 - E zeros, right-aligned before byte 6
            layout = "0." + ("0" * (-1 - e)).rjust(3) + "G" * s
        else:  # one digit, a point if more follow, and "e-XX" in the last four bytes
            layout = (" H" + ("." + "T" * (s - 1)) * (s > 1)).ljust(19) + "e-%02d" % -e
        layouts.append((sign + layout).ljust(CELL_WIDTH).encode())
    cells = b"".join(layouts)
    tables = [cells.translate(bytes(255 * (i == mark) for i in range(256))) for mark in b"HTG"]
    tables.append(cells.translate(bytes(i * (i not in b"HTG") for i in range(256))))
    return np.frombuffer(b"".join(tables), dtype=_WORD).reshape(4, -1, 3).transpose(0, 2, 1).copy()


_TABLES = _tables()


def format_cells(values) -> np.ndarray:
    """``%.17g`` of every float64 value, in C order, as (n, CELL_WIDTH)
    uint8 cells: row i is ``"%.17g" % v[i]`` with spaces anywhere in it."""
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    cells = np.empty((flat.size, CELL_WIDTH), dtype=np.uint8)
    for start in range(0, flat.size, CSV_BLOCK_ROWS):
        block = slice(start, start + CSV_BLOCK_ROWS)
        _format_block(flat[block], cells[block])
    return cells


def _format_block(values: np.ndarray, cells: np.ndarray) -> None:
    """format_cells of one block, into cells."""
    magnitude = np.abs(values)
    (others,) = np.nonzero(~((magnitude >= _DECADES[1]) & (magnitude < 2.0**53)))
    magnitude[others] = 1.0  # formatted by % below
    text, key = _digit_text(*_decimal_digits(magnitude), np.signbit(values))
    # the digits moved one byte down and three up
    down, up = text >> _U64(8), text << _U64(24)
    down[:-1] |= text[1:] << _U64(56)
    up[1:] |= text[:-1] >> _U64(40)
    h, t, g, f = np.take(_TABLES, key, axis=2)
    cells.view(_WORD)[:] = ((down & h) | (text & t) | (up & g) | f).T
    if others.size:
        rest = values[others]
        padded = ("%-24.17g" * rest.size % tuple(rest.tolist())).encode()
        cells[others] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, CELL_WIDTH)


def _decimal_digits(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits of each magnitude in the exact range, as a
    uint64 in [10**16, 10**17), and its decimal exponent E as E - _LOW_E + 1."""
    # E from log10 (off by at most one), then set exactly
    e = (np.log10(magnitude) + (1 - _LOW_E)).astype(np.intp)
    e -= magnitude < _DECADES[e]
    e += magnitude >= _DECADES[e + 1]
    # |v| = m * 2**(b - 1075), so its 17 digits are 2m * 5**(16 - E) >> shift, rounded
    bits = magnitude.view(_U64)
    twice_m = ((bits & _U64(2**52 - 1)) | _U64(2**52)) << _U64(1)
    shift = (e + (1075 + _LOW_E - 16)).astype(_U64) - (bits >> _U64(52))  # 0..63
    # the product high * 2**64 + low, from 32-bit limbs; the cross terms sum below 2**64
    a1, a0 = twice_m >> _U64(32), twice_m & _U64(2**32 - 1)
    b1, b0 = _POW5_HIGH[17 - _LOW_E - e], _POW5_LOW[17 - _LOW_E - e]
    cross = a0 * b1 + a1 * b0
    low = a0 * b0 + (cross << _U64(32))
    high = a1 * b1 + (cross >> _U64(32)) + (low < (cross << _U64(32)))  # and the carry out of low
    digits = (low >> shift) | ((high << (_U64(63) - shift)) << _U64(1))
    # half to even: up when the rest, plus one for an odd last digit, passes
    # half; never up to 10**17, since a double below 10**(E + 1) lies at least
    # 5e-17 of it away, ten times the half-unit of a 17th digit
    unit = _U64(1) << shift
    digits += (low & (unit - _U64(1))) + (digits & _U64(1)) > (unit >> _U64(1))
    return digits, e


def _digit_text(digits: np.ndarray, e: np.ndarray, negative: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ASCII of 17 digits (_decimal_digits) as a cell's three words, one
    row a word, the digits at bytes 3..19; and each value's key in _TABLES."""
    # six groups: the first digit as "000d", four of 4 digits, and "0000"
    groups = np.zeros((6, len(digits)), dtype=_U64)
    groups[0] = digits // _U64(10**16)
    digits -= groups[0] * _U64(10**16)
    groups[2] = digits // _U64(10**8)
    groups[4] = digits - groups[2] * _U64(10**8)
    np.floor_divide(groups[2:5:2], _U64(10**4), out=groups[1:4:2])
    groups[2:5:2] -= groups[1:4:2] * _U64(10**4)
    # the digits up to the last nonzero group's last nonzero one
    significant = (np.take(_GROUP_DIGITS, groups) + _GROUP_STARTS).max(axis=0)
    key = negative * (27 * 17) + e * 17 + significant - 18
    halves = np.take(_DIGITS, groups)
    # dtype: NumPy 1 would keep a uint32 shifted by a scalar as uint32
    return np.left_shift(halves[1::2], _U64(32), dtype=_U64) | halves[0::2], key


def csv_rows(columns: list[np.ndarray]) -> bytes:
    """The CSV rows of cell arrays (format_cells): each row's cells joined by
    commas, and a newline after each row.  columns[0] sets the row count; a
    one-cell column, shape (CELL_WIDTH,), repeats on every row."""
    rows = np.empty((len(columns[0]), len(columns), CELL_WIDTH + 1), dtype=np.uint8)
    for j, cells in enumerate(columns):
        rows[:, j, :CELL_WIDTH] = cells
    rows[:, :-1, CELL_WIDTH] = ord(",")
    rows[:, -1, CELL_WIDTH] = ord("\n")
    # a cell's text holds no space: dropping the spaces joins the row
    return rows.tobytes().translate(None, b" ")


def write_csv(path, header: list[str], columns: list) -> None:
    """Comma-separated file with a header row; one entry per column.

    A column is a 1-D array of values, each printed as the ``%.17g`` of its
    float64 value, or a 2-D uint8 array of cells (format_cells).  The body
    is formatted and written in blocks of CSV_BLOCK_ROWS rows; an array
    given as more than one column is formatted once per block.
    """
    if len(header) != len(columns):
        raise ValueError("header and columns must have equal length")
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("all columns must have equal length")
    # each column's first occurrence: an array given more than once is formatted once
    first = [next(j for j, other in enumerate(columns) if other is col) for col in columns]
    columns = [col if np.ndim(col) == 2 else np.asarray(col, dtype=np.float64) for col in columns]
    arrays = [j for j in dict.fromkeys(first) if columns[j].ndim == 1]

    def body():
        for start in range(0, n, CSV_BLOCK_ROWS):
            rows = slice(start, start + CSV_BLOCK_ROWS)
            cells = {j: columns[j][rows] for j in first}
            if arrays:
                # the block's arrays side by side, formatted in one call
                formatted = format_cells(np.stack([cells[j] for j in arrays], axis=1))
                for k, j in enumerate(arrays):
                    cells[j] = formatted[k :: len(arrays)]
            yield csv_rows([cells[j] for j in first])

    write_chunks(path, itertools.chain([(",".join(header) + "\n").encode()], body()))


def write_json(path, doc) -> None:
    write_chunks(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])
