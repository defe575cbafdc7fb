"""Paired samples, the one-sided Kolmogorov-Smirnov type statistic for weak
joint stochastic dominance, and the CSV and JSON readers and writers.

The statistic for a paired sample {(x_i, y_i)} is

    sqrt(n) * sup_{t >= 0} ( Fbar_n(t) - Gbar_n(t) ),

where Fbar_n and Gbar_n are the empirical survival functions of the
difference samples {x_i - y_i} and {y_i - x_i}. Both are right-continuous
step functions, so the supremum is attained on the finite candidate set
{0} union {z in Z : z >= 0}, Z being the combined difference multiset.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence, TextIO

import numpy as np

from .errors import CsvFormatError, ParameterError

__all__ = [
    "PairedSample",
    "statistic_and_t_star",
    "read_paired_csv",
    "write_paired_csv",
]


@dataclass(frozen=True, eq=False)
class PairedSample:
    """n index-aligned observations of a dependent pair (X, Y)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1:
            raise ParameterError("x and y must be one-dimensional")
        if len(x) != len(y):
            raise ParameterError(f"length mismatch: {len(x)} vs {len(y)}")
        if len(x) == 0:
            raise ParameterError("a paired sample needs at least one pair")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ParameterError("sample values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return len(self.x)

    def swap(self) -> "PairedSample":
        """The sample with the roles of X and Y exchanged."""
        return PairedSample(self.y.copy(), self.x.copy())


def statistic_and_t_star(s: PairedSample) -> tuple[float, float]:
    """The statistic sqrt(n) * sup_{t>=0}(Fbar_n - Gbar_n) and t_star.

    t_star is the smallest t >= 0 at which the gap reaches its supremum.
    Both are taken on the candidate set {0} union nonnegative realized
    differences: the gap is a right-continuous step function that changes
    only at those points, so t_star is one of them. t_star is located on
    the exact integer gap counts, so candidates whose float gaps differ
    only by rounding are not told apart.
    """
    d = s.x - s.y
    n = len(d)
    sd = np.sort(d)
    candidates = np.concatenate(([0.0], np.abs(d)))
    above_f = n - np.searchsorted(sd, candidates, side="right")
    # -d exceeds c exactly where d < -c, so the one sort serves both counts
    above_g = np.searchsorted(sd, -candidates, side="left")
    gap = above_f / n - above_g / n
    count_gap = above_f - above_g
    t_star = float(candidates[count_gap == count_gap.max()].min())
    return float(np.sqrt(n) * gap.max()), t_star


def write_columns_csv(header: str, columns: Sequence, dest: str | Path | TextIO) -> None:
    """Write float columns as CSV with LF newlines and exact reprs.

    header names the columns, comma-separated, one per array in columns.
    dest is a file path or an open text stream, which is left open.
    """
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            write_columns_csv(header, columns, fh)
        return
    dest.write(header + "\n")
    for row in zip(*columns):
        dest.write(",".join([repr(float(v)) for v in row]) + "\n")


def _rows_after_header(
    path: str | Path, header: str
) -> tuple[list[list[str]], Exception | None]:
    """Every row of a CSV after its header line, blank rows included, and
    the error that stopped the reading before the end, if one did (a field
    over csv's size limit, or bytes that are not UTF-8). The caller raises
    that error only when the rows before it hold none, so the first error
    in file order wins. A header other than ``header`` is a
    CsvFormatError on line 1."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != header.split(","):
            raise CsvFormatError(1, f"expected header '{header}'")
        rows: list[list[str]] = []
        try:
            rows.extend(reader)  # keeps the rows read before an error
        except (csv.Error, UnicodeDecodeError) as exc:
            return rows, exc
        return rows, None


def read_columns_csv(
    path: str | Path, header: str, parse_row: Callable[[list[str]], tuple]
) -> list[tuple]:
    """Parse each data row of a CSV whose header is ``header``.

    Blank rows are skipped. A wrong header is an error on line 1; a row
    with the wrong number of fields, or one parse_row rejects with a
    ValueError, is an error on its own line; no data rows is an error on
    line 2. Every error is a CsvFormatError.
    """
    width = len(header.split(","))
    lines, late = _rows_after_header(path, header)
    rows: list[tuple] = []
    for lineno, row in enumerate(lines, start=2):
        if not row:
            continue
        if len(row) != width:
            raise CsvFormatError(lineno, f"expected {width} fields, got {len(row)}")
        try:
            rows.append(parse_row(row))
        except ValueError as exc:
            raise CsvFormatError(lineno, str(exc)) from exc
    if late is not None:
        raise late
    if not rows:
        raise CsvFormatError(2, "no data rows")
    return rows


def read_float_csv(path: str | Path, header: str) -> np.ndarray:
    """The data rows of a CSV whose header is ``header`` as a float array,
    one row per data row.

    The same rows, values and errors as read_columns_csv with float
    fields, a field float() rejects being "not a number", in one pass: the
    widths are checked together, then every field up to the first row of
    the wrong width is parsed with one float() sweep, so the first error in
    file order is the one raised.
    """
    width = len(header.split(","))
    rows, late = _rows_after_header(path, header)
    kept = list(filter(None, rows))  # blank rows are []

    def line_of(i: int) -> int:
        """The line of kept row i: the header, then every row, blank or not."""
        return [j for j, row in enumerate(rows, start=2) if row][i]

    widths = list(map(len, kept))
    wrong = len(kept)  # the first kept row of the wrong width
    if widths.count(width) != len(kept):
        wrong = next(i for i, w in enumerate(widths) if w != width)
    values: list[float] = []
    try:
        values.extend(map(float, chain.from_iterable(kept[:wrong])))
    except ValueError as exc:
        raise CsvFormatError(line_of(len(values) // width), f"not a number: {exc}") from exc
    if wrong < len(kept):
        raise CsvFormatError(line_of(wrong), f"expected {width} fields, got {widths[wrong]}")
    if late is not None:
        raise late
    if not kept:
        raise CsvFormatError(2, "no data rows")
    return np.array(values).reshape(-1, width)


def write_json(payload: dict, dest: str | Path | TextIO) -> None:
    """Write payload as JSON, indented by 2, plus a newline, to a path or stream."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            write_json(payload, fh)
        return
    json.dump(payload, dest, indent=2)
    dest.write("\n")


def write_paired_csv(s: PairedSample, dest: str | Path | TextIO) -> None:
    """Write a paired sample as CSV with header ``x,y`` to a path or stream."""
    write_columns_csv("x,y", (s.x, s.y), dest)


def read_paired_csv(path: str | Path) -> PairedSample:
    """Read a paired sample from CSV with header ``x,y``."""
    x, y = read_float_csv(path, "x,y").T.copy()
    return PairedSample(x, y)
