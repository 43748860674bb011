"""CSV helpers shared by the pipeline stages.

Floats are written with 17 significant digits so that a written file parses
back to bit-identical values and a verify run on a saved potential matches
the fused in-process pipeline exactly.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class InputFormatError(Exception):
    """Malformed tabular input; message carries the offending row number."""


def format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def read_float_columns(path, expected_header: Sequence[str], max_rows: int) -> list[np.ndarray]:
    """Read a CSV with the given header into float column arrays; a file of more
    than `max_rows` data rows stops at the first row past them, unparsed."""
    columns: list[list[float]] = [[] for _ in expected_header]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFormatError(f"{path}: empty file") from None
        if [h.strip() for h in header] != list(expected_header):
            raise InputFormatError(
                f"{path}: row 1: expected header {','.join(expected_header)}, got {','.join(header)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(columns[0]) == max_rows:
                raise InputFormatError(f"{path}: row {line_no}: more than the limit of {max_rows} data rows")
            if len(row) != len(expected_header):
                raise InputFormatError(f"{path}: row {line_no}: expected {len(expected_header)} fields")
            try:
                parsed = [float(v) for v in row]
            except ValueError:
                raise InputFormatError(f"{path}: row {line_no}: non-numeric value") from None
            for col, v in zip(columns, parsed):
                col.append(v)
    return [np.array(col) for col in columns]
