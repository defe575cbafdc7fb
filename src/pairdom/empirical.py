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
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import CsvFormatError, ParameterError

__all__ = [
    "PairedSample",
    "EmpiricalSurvival",
    "differences",
    "survival_at",
    "statistic_stwj",
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


def statistic_stwj(s: PairedSample) -> float:
    """One-sided KS-type statistic sqrt(n) * sup_{t>=0}(Fbar_n - Gbar_n).

    Evaluated exactly on the candidate set {0} union nonnegative realized
    differences. Negative realized differences correspond to t < 0 and lie
    outside the supremum's domain. The maximum is returned unclamped.
    """
    d = s.x - s.y
    n = len(d)
    f = EmpiricalSurvival.from_values(d)
    g = EmpiricalSurvival.from_values(-d)
    candidates = np.concatenate(([0.0], d[d >= 0], -d[d <= 0]))
    gap = survival_at(f, candidates) - survival_at(g, candidates)
    return float(np.sqrt(n) * gap.max())


def write_paired_csv(s: PairedSample, dest: str | Path | TextIO) -> None:
    """Write a paired sample as CSV with header ``x,y`` and LF newlines.

    dest is a file path or an open text stream, which is left open.
    """
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            write_paired_csv(s, fh)
        return
    dest.write("x,y\n")
    for xi, yi in zip(s.x, s.y):
        dest.write(f"{float(xi)!r},{float(yi)!r}\n")


def read_paired_csv(path: str | Path) -> PairedSample:
    """Read a paired sample from CSV with header ``x,y``."""
    xs: list[float] = []
    ys: list[float] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x", "y"]:
            raise CsvFormatError(1, "expected header 'x,y'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise CsvFormatError(lineno, f"expected 2 fields, got {len(row)}")
            try:
                xs.append(float(row[0]))
                ys.append(float(row[1]))
            except ValueError as exc:
                raise CsvFormatError(lineno, f"not a number: {exc}") from exc
    if not xs:
        raise CsvFormatError(2, "no data rows")
    return PairedSample(np.array(xs), np.array(ys))
