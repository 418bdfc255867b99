"""Deterministic CSV and JSON emission.

Floats are printed with 17 significant digits (round-trip exact for
IEEE doubles), newlines are Unix, key order is sorted: re-running a
command with the same inputs reproduces every output byte for byte.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

__all__ = ["write_text", "format_cells", "write_csv", "write_json"]


def write_text(path, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def format_cells(values) -> list[str]:
    """``%.17g`` of every float64 value, in order; each distinct bit pattern
    is formatted once (so -0.0 and 0.0 stay distinct), which pays off on
    columns that repeat a few values many times."""
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    texts = ["%.17g" % v for v in bits.view(np.float64).tolist()]
    return [texts[i] for i in inverse.tolist()]


def write_csv(path, header: list[str], columns: list) -> None:
    """Comma-separated file with a header row; one entry per column.

    An array column prints the float64 value of each entry as ``%.17g``;
    a list column holds the cell texts themselves (format_cells).  The
    whole body is formatted by one ``%`` call.
    """
    if len(header) != len(columns):
        raise ValueError("header and columns must have equal length")
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("all columns must have equal length")
    lists = [col if isinstance(col, list) else np.asarray(col, dtype=np.float64).tolist() for col in columns]
    cells = list(itertools.chain.from_iterable(zip(*lists)))
    row_template = ",".join("%s" if isinstance(col, list) else "%.17g" for col in columns) + "\n"
    write_text(path, ",".join(header) + "\n" + (row_template * n) % tuple(cells))


def write_json(path, doc) -> None:
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
