"""Deterministic CSV and JSON writing shared by datasets and run exports.

Floats are written with 17 significant digits so that float64 values
round-trip bit-exactly; line endings are LF regardless of platform.
JSON files have sorted keys, two-space indents and a trailing newline.
"""
from __future__ import annotations

import json

import numpy as np


FLOAT_FORMAT = "%.17g"


def format_float(v: float) -> str:
    return FLOAT_FORMAT % v


def write_csv(path, header: list[str], rows: np.ndarray) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size and rows.shape[1] != len(header):
        raise ValueError(f"{path}: header has {len(header)} fields, rows have {rows.shape[1]}")
    # one %-format for all rows, each field exactly format_float's text
    line = ",".join([FLOAT_FORMAT] * rows.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def write_json(path, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv(path, n_cols: int) -> np.ndarray:
    """The data rows of a ``write_csv`` file as an (rows, n_cols) array."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    data = []
    for line in lines[1:]:
        if n_cols == 0:
            data.append([])
        elif line:
            data.append([float(tok) for tok in line.split(",")])
    return np.asarray(data, dtype=float).reshape(len(data), n_cols)
