"""Deterministic CSV and JSON emission, and the one writer of every file.

Floats are printed with 17 significant digits (round-trip exact for
IEEE doubles), newlines are Unix, key order is sorted: re-running a
command with the same inputs reproduces every output byte for byte.

write_chunks writes a file from an iterable of chunks (str or bytes), each
written as soon as it is made: a file's whole text is never held in memory.

format_cells turns float64 values into cells, one row of CELL_WIDTH (24)
bytes of ASCII a value (the text of ``"%-24.17g" % v``) in a uint8
array, in blocks of CSV_BLOCK_ROWS values and NumPy integer arithmetic,
after the manner of Ryu printf (Adams, "Ryu revisited: printf floating
point conversion", OOPSLA 2019).  A value in the exact range
1e-11 <= |v| < 2**53 is made as follows:

- its 53-bit mantissa m and binary exponent come from its bits;
- its decimal exponent E comes from log10 and is then set exactly against
  a table of the least double at or above each power of ten;
- 2m * 5**(16 - E) is formed as a 128-bit product of 32-bit limbs (5**27 <
  2**64 bounds the range below), shifted right by the binary exponent and
  rounded half to even on the exact remainder: its 17 digits;
- the digits come from a table of 4-digit groups, and one gather, keyed on
  the sign, E and the digits left once trailing zeros go, lays out the
  cell (point, leading zeros, exponent, padding).

Every other value (+-0, subnormals, inf, nan and the magnitudes outside the
range) goes through one ``%`` call per block.  csv_rows joins cell arrays
into CSV rows as bytes: cells, commas and newlines, with the padding
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

# A cell is gathered from its source row of six 4-byte words (text order):
# ". 0" and the first digit, four groups of 4 digits, then "e-" and the
# two digits of -E (E < -4).  _WORDS holds every such word.
_DOT, _PAD, _ZERO, _DIGIT0, _E, _MINUS = 0, 1, 2, 3, 20, 21
_SOURCE = 24
# the 4-digit groups 0000..9999 as ASCII
_DIGITS = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
for _k in range(4):
    _DIGITS[..., _k] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - _k))
_FIRST_WORDS, _E_WORDS = 10_000, 10_010  # _WORDS offsets of the first digit's words and of E's
_WORDS = np.concatenate(
    [
        _DIGITS.reshape(-1),
        np.frombuffer(b"".join(b". 0%d" % d for d in range(10)), dtype=np.uint8),
        np.frombuffer(b"".join(b"e-%02d" % abs(e) for e in range(_LOW_E, 16)), dtype=np.uint8),
    ]
).view(np.uint32)
# a group's digits up to its last nonzero one (0001 -> 4, 1200 -> 2), far below 0 for 0000
_ZERO_DIGIT = np.arange(10) == 0
_GROUP_DIGITS = 4 - _ZERO_DIGIT * (1 + _ZERO_DIGIT[:, None] * (1 + _ZERO_DIGIT[:, None, None]))
_GROUP_DIGITS = np.tile(_GROUP_DIGITS.ravel(), 10).astype(np.int8)
_GROUP_DIGITS[0] = -20


def _layouts() -> np.ndarray:
    """The gather of every cell layout: the source byte of each of
    CELL_WIDTH positions, per (sign, E = -11..15, significant digits s =
    1..17) as one key."""
    x = np.arange(_LOW_E, 16, dtype=np.int8)[:, None, None]
    s = np.arange(1, 18, dtype=np.int8)[:, None]
    j = np.arange(CELL_WIDTH, dtype=np.int8) - np.arange(2, dtype=np.int8)[:, None, None, None]  # after a sign
    # a prefix ("0.000" for -4 <= E < 0), `before` digits, a point when
    # `after` digits follow, then "e-XX" for E < -4; padding elsewhere
    scientific, fractional = x < -4, (x >= -4) & (x < 0)
    prefix = np.where(fractional, 1 - x, 0)
    before = np.where(scientific, 1, np.where(fractional, s, x + 1))
    after = np.maximum(s - before, 0)
    point = prefix + before
    end = point + (after > 0) + after
    layout = np.full(np.broadcast(j, x, s).shape, _PAD, dtype=np.int8)
    np.copyto(layout, _E + j - end, where=scientific & (j >= end) & (j < end + 4))
    np.copyto(layout, _DIGIT0 + j - prefix - (j > point), where=(j >= prefix) & (j < end))
    np.copyto(layout, _DOT, where=(j == point) & (after > 0))  # over the digits' span
    np.copyto(layout, _ZERO, where=(j >= 0) & (j < prefix))
    np.copyto(layout, _DOT, where=(j == 1) & (prefix > 0))
    np.copyto(layout, _MINUS, where=j < 0)
    return layout.reshape(-1, CELL_WIDTH).astype(np.uint8)


_LAYOUT = _layouts()


def format_cells(values) -> np.ndarray:
    """``%.17g`` of every float64 value, in C order, as (n, CELL_WIDTH)
    uint8 cells: row i is the text of ``"%-24.17g" % v[i]``."""
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
    source, key = _source_rows(*_decimal_digits(magnitude), np.signbit(values))
    row_starts = np.arange(0, len(values) * _SOURCE, _SOURCE)
    np.take(source, np.take(_LAYOUT, key, axis=0) + row_starts[:, None], out=cells, mode="clip")
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


def _source_rows(digits: np.ndarray, e: np.ndarray, negative: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's source row, all rows as one flat uint8 array, and its
    layout key (_LAYOUT)."""
    words = np.empty((len(digits), _SOURCE // 4), dtype=np.uint32)
    high, low = np.divmod(digits, _U64(10**8))
    np.divmod(low, _U64(10**4), out=(words[:, 3], words[:, 4]))
    high, low = np.divmod(high, _U64(10**8))
    np.divmod(low, _U64(10**4), out=(words[:, 1], words[:, 2]))
    np.add(high, _FIRST_WORDS, out=words[:, 0], casting="unsafe")
    np.add(e, _E_WORDS - 1, out=words[:, 5], casting="unsafe")
    # the digits up to the last nonzero group's last nonzero one
    significant = 13 + _GROUP_DIGITS[words[:, 4]]
    (short,) = np.nonzero(words[:, 4] == 0)
    significant[short] = np.maximum((_GROUP_DIGITS[words[short, 1:4]] + np.array([1, 5, 9], np.int8)).max(axis=1), 1)
    key = negative * (27 * 17) + e * 17 + significant - 18
    return np.take(_WORDS, words).view(np.uint8).reshape(-1), key


def csv_rows(columns: list[np.ndarray]) -> bytes:
    """The CSV rows of cell arrays (format_cells): each row's cells joined by
    commas, and a newline after each row.  columns[0] sets the row count; a
    one-cell column, shape (CELL_WIDTH,), repeats on every row."""
    rows = np.empty((len(columns[0]), len(columns), CELL_WIDTH + 1), dtype=np.uint8)
    for j, cells in enumerate(columns):
        rows[:, j, :CELL_WIDTH] = cells
    rows[:, :-1, CELL_WIDTH] = ord(",")
    rows[:, -1, CELL_WIDTH] = ord("\n")
    # a cell's text holds no space: dropping the padding joins the row
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
