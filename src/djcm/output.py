"""Deterministic CSV and JSON emission, and the one writer of every file.

Floats are printed with 17 significant digits (round-trip exact for
IEEE doubles), newlines are Unix, key order is sorted: re-running a
command with the same inputs reproduces every output byte for byte.

write_chunks writes a file from an iterable of text chunks, each written
as soon as it is made: a file's whole text is never held in memory.
format_cells formats every value it is given: it does not deduplicate.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

__all__ = ["CSV_BLOCK_ROWS", "write_chunks", "format_cells", "write_csv", "write_json"]

# rows per chunk of write_csv: enough to amortise the per-chunk calls, few
# enough (~0.5 MB of text at 4 columns) that no chunk weighs in memory
CSV_BLOCK_ROWS = 4096


def write_chunks(path, chunks) -> None:
    """Write the text chunks (an iterable of str) in order to path, creating
    its directory; each chunk is formatted only when the file takes it."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def format_cells(values) -> list[str]:
    """``%.17g`` of every float64 value, in order, from one ``%`` call."""
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    return (("%.17g\n" * flat.size) % tuple(flat.tolist())).splitlines()


def write_csv(path, header: list[str], columns: list) -> None:
    """Comma-separated file with a header row; one entry per column.

    An array column prints the float64 value of each entry as ``%.17g``;
    a list column holds the cell texts themselves (format_cells).  The body
    is formatted and written in blocks of CSV_BLOCK_ROWS rows, one ``%``
    call each; an array given as more than one column is formatted once
    per block and its texts reused.
    """
    if len(header) != len(columns):
        raise ValueError("header and columns must have equal length")
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("all columns must have equal length")
    # each column's first occurrence: an array repeated there is formatted to texts once
    first = [next(j for j, other in enumerate(columns) if other is col) for col in columns]
    shared = {j for j in first if first.count(j) > 1 and not isinstance(columns[j], list)}
    columns = [col if isinstance(col, list) else np.asarray(col, dtype=np.float64) for col in columns]
    row_template = (
        ",".join("%s" if isinstance(col, list) or j in shared else "%.17g" for col, j in zip(columns, first)) + "\n"
    )

    def body():
        for start in range(0, n, CSV_BLOCK_ROWS):
            block = [col[start : start + CSV_BLOCK_ROWS] for col in columns]
            rows = len(block[0])
            for j in shared:
                block[j] = format_cells(block[j])
            lists = [cells if isinstance(cells, list) else cells.tolist() for cells in (block[j] for j in first)]
            yield (row_template * rows) % tuple(itertools.chain.from_iterable(zip(*lists)))

    write_chunks(path, itertools.chain([",".join(header) + "\n"], body()))


def write_json(path, doc) -> None:
    write_chunks(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])
