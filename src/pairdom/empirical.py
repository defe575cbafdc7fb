"""Paired samples, difference samples, empirical survival functions and the
one-sided Kolmogorov-Smirnov type statistic for weak joint stochastic
dominance.

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
from pathlib import Path
from typing import Callable, Sequence, TextIO

import numpy as np

from .errors import CsvFormatError, ParameterError

__all__ = [
    "PairedSample",
    "EmpiricalSurvival",
    "differences",
    "survival_at",
    "statistic_stwj",
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


@dataclass(frozen=True, eq=False)
class EmpiricalSurvival:
    """Empirical survival function of a difference sample.

    survival_at counts strict exceedances, so the function is
    right-continuous, nonincreasing and takes values in {0, 1/n, ..., 1}.
    """

    sorted_values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.sorted_values, dtype=float)
        if v.ndim != 1 or len(v) == 0:
            raise ParameterError("need a nonempty one-dimensional value array")
        if not np.isfinite(v).all():
            raise ParameterError("values must be finite")
        if np.any(np.diff(v) < 0):
            raise ParameterError("values must be nondecreasing")
        object.__setattr__(self, "sorted_values", v)

    @classmethod
    def from_values(cls, values) -> "EmpiricalSurvival":
        return cls(np.sort(np.asarray(values, dtype=float)))


def differences(s: PairedSample) -> tuple[np.ndarray, np.ndarray]:
    """Difference samples (x_i - y_i) and (y_i - x_i), index aligned."""
    d = s.x - s.y
    return d, -d


def survival_at(e: EmpiricalSurvival, t):
    """Fraction of values strictly greater than t.

    Accepts a scalar or an array of evaluation points.
    """
    v = e.sorted_values
    n = len(v)
    idx = np.searchsorted(v, t, side="right")
    out = (n - idx) / n
    if np.isscalar(t):
        return float(out)
    return out


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
    f = EmpiricalSurvival.from_values(d)
    g = EmpiricalSurvival.from_values(-d)
    candidates = np.concatenate(([0.0], d[d >= 0], -d[d <= 0]))
    above_f = n - np.searchsorted(f.sorted_values, candidates, side="right")
    above_g = n - np.searchsorted(g.sorted_values, candidates, side="right")
    gap = above_f / n - above_g / n
    count_gap = above_f - above_g
    t_star = float(candidates[count_gap == count_gap.max()].min())
    return float(np.sqrt(n) * gap.max()), t_star


def statistic_stwj(s: PairedSample) -> float:
    """One-sided KS-type statistic sqrt(n) * sup_{t>=0}(Fbar_n - Gbar_n).

    Evaluated exactly on the candidate set {0} union nonnegative realized
    differences. Negative realized differences correspond to t < 0 and lie
    outside the supremum's domain. The maximum is returned unclamped.
    """
    return statistic_and_t_star(s)[0]


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


def read_columns_csv(
    path: str | Path, header: str, parse_row: Callable[[list[str]], tuple]
) -> list[tuple]:
    """Parse each data row of a CSV whose header is ``header``.

    Blank rows are skipped. A wrong header is an error on line 1; a row
    with the wrong number of fields, or one parse_row rejects with a
    ValueError, is an error on its own line; no data rows is an error on
    line 2. Every error is a CsvFormatError.
    """
    names = header.split(",")
    rows: list[tuple] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != names:
            raise CsvFormatError(1, f"expected header '{header}'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise CsvFormatError(lineno, f"expected {len(names)} fields, got {len(row)}")
            try:
                rows.append(parse_row(row))
            except ValueError as exc:
                raise CsvFormatError(lineno, str(exc)) from exc
    if not rows:
        raise CsvFormatError(2, "no data rows")
    return rows


def float_fields(row: list[str]) -> tuple[float, ...]:
    """A CSV row's fields as floats, for read_columns_csv."""
    try:
        return tuple(map(float, row))
    except ValueError as exc:
        raise ValueError(f"not a number: {exc}") from exc


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
    x, y = zip(*read_columns_csv(path, "x,y", float_fields))
    return PairedSample(np.array(x), np.array(y))
