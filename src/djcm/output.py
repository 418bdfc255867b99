"""Deterministic CSV and JSON emission.

Floats are printed with 17 significant digits (round-trip exact for
IEEE doubles), newlines are Unix, key order is sorted: re-running a
command with the same inputs reproduces every output byte for byte.
"""

from __future__ import annotations

import json
import os

import numpy as np

__all__ = ["write_text", "write_csv", "write_json"]


def write_text(path, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Comma-separated file with a header row; one array per column.

    Every cell is the float64 value of its column entry printed as
    ``%.17g``; the whole body is formatted by one ``%`` call.
    """
    if len(header) != len(columns):
        raise ValueError("header and columns must have equal length")
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("all columns must have equal length")
    cells = np.column_stack(columns).astype(np.float64, copy=False).ravel().tolist()
    row_template = ",".join(["%.17g"] * len(columns)) + "\n"
    write_text(path, ",".join(header) + "\n" + (row_template * n) % tuple(cells))


def write_json(path, doc) -> None:
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
