"""Price-to-return conversion, paired alignment, portfolio composition,
Q-Q exports and the analyze-pair workflow.

Returns are simple arithmetic returns, (c_t - c_{t-1}) / c_{t-1}. That
choice is load-bearing: portfolio returns then combine linearly, which
the composition identities P2 - P1 = (1 - alpha) * (Y - X) and
P2 - P1 = (alpha2 - alpha1) * (Y - X) require exactly.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Literal, TextIO

import numpy as np

from . import gptest
from .baselines import BaselineResult, paired_t_test
from .empirical import PairedSample, read_columns_csv, write_columns_csv
from .errors import (
    AlignmentError,
    CsvFormatError,
    InsufficientDataError,
    ParameterError,
)
from .gptest import TestResult
from .seeding import derive_seed

__all__ = [
    "PriceSeries",
    "ReturnSeries",
    "QQData",
    "AnalysisReport",
    "weekly_returns",
    "align",
    "portfolio_returns",
    "qq_export",
    "analyze_pair",
    "read_price_csv",
    "write_qq_csv",
    "fixture_path",
]

# level of every test decision in analyze_pair
_LEVEL = 0.05


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Dated closing prices, strictly increasing dates, positive closes."""

    dates: tuple[dt.date, ...]
    closes: np.ndarray

    def __post_init__(self):
        closes = np.asarray(self.closes, dtype=float)
        if len(self.dates) != len(closes) or len(closes) == 0:
            raise ParameterError("dates and closes must be nonempty and parallel")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ParameterError("dates must be strictly increasing")
        if not np.isfinite(closes).all() or np.any(closes <= 0):
            raise ParameterError("closes must be finite and positive")
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "closes", closes)


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Dated returns; one entry fewer than the source price series."""

    dates: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if len(self.dates) != len(values) or len(values) == 0:
            raise ParameterError("dates and values must be nonempty and parallel")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ParameterError("dates must be strictly increasing")
        if not np.isfinite(values).all():
            raise ParameterError("returns must be finite")
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class QQData:
    """Matched order statistics of two equal-length samples."""

    qa: np.ndarray
    qb: np.ndarray

    def __post_init__(self):
        qa = np.asarray(self.qa, dtype=float)
        qb = np.asarray(self.qb, dtype=float)
        if qa.shape != qb.shape or qa.ndim != 1 or len(qa) == 0:
            raise ParameterError("need two nonempty equal-length coordinate lists")
        if np.any(np.diff(qa) < 0) or np.any(np.diff(qb) < 0):
            raise ParameterError("both coordinates must be nondecreasing")
        object.__setattr__(self, "qa", qa)
        object.__setattr__(self, "qb", qb)


def weekly_returns(p: PriceSeries) -> ReturnSeries:
    """Simple arithmetic returns, dated at the later observation."""
    if len(p.closes) < 2:
        raise InsufficientDataError("need at least two prices to form a return")
    values = np.diff(p.closes) / p.closes[:-1]
    return ReturnSeries(p.dates[1:], values)


def _inner_join(a: ReturnSeries, b: ReturnSeries) -> tuple[list[dt.date], np.ndarray, np.ndarray]:
    common = sorted(set(a.dates) & set(b.dates))
    if not common:
        raise AlignmentError("the two series share no dates")
    ia = {d: i for i, d in enumerate(a.dates)}
    ib = {d: i for i, d in enumerate(b.dates)}
    av = np.array([a.values[ia[d]] for d in common])
    bv = np.array([b.values[ib[d]] for d in common])
    return common, av, bv


def align(a: ReturnSeries, b: ReturnSeries) -> PairedSample:
    """Strict inner join on date, ordered by date. No forward-fill."""
    _, av, bv = _inner_join(a, b)
    return PairedSample(av, bv)


def portfolio_returns(alpha: float, base: ReturnSeries, other: ReturnSeries) -> ReturnSeries:
    """Per-date return (1 - alpha) * base + alpha * other on shared dates."""
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0, 1], got {alpha}")
    dates, bv, ov = _inner_join(base, other)
    return ReturnSeries(tuple(dates), (1.0 - alpha) * bv + alpha * ov)


def qq_export(s: PairedSample, mode: Literal["marginals", "differences"]) -> QQData:
    """Q-Q data: sorted x against sorted y, or sorted x-y against sorted y-x."""
    if mode == "marginals":
        return QQData(np.sort(s.x), np.sort(s.y))
    if mode == "differences":
        d = s.x - s.y
        return QQData(np.sort(d), np.sort(-d))
    raise ParameterError(f"mode must be 'marginals' or 'differences', got {mode!r}")


@dataclass(frozen=True)
class AnalysisReport:
    """Both-direction dominance tests, the mean comparison and a verdict."""

    stwj_forward: TestResult
    stwj_reverse: TestResult
    t_test: BaselineResult
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "stwj_forward": self.stwj_forward.to_json_dict(),
            "stwj_reverse": self.stwj_reverse.to_json_dict(),
            "t_test": self.t_test.to_json_dict(),
            "verdict": self.verdict,
        }


def analyze_pair(
    s: PairedSample,
    k: int = gptest.DEFAULT_GRID_POINTS,
    n_sims: int = gptest.DEFAULT_N_SIMS,
    *,
    seed: int,
) -> AnalysisReport:
    """Run the dominance test in both directions plus the strictness check.

    Every decision is taken at level 0.05. Verdicts, in order of precedence:

    - evidence_against_forward: the test rejects 'X dominated by Y'.
    - strict_dominance_consistent: the forward order is retained and the
      means differ significantly with mean(Y - X) > 0.
    - evidence_against_reverse: only the reverse direction is rejected,
      while the means are statistically indistinguishable.
    - possibly_equal_differences: neither direction is rejected and the
      means are indistinguishable, so the two differences may share one
      law.
    """
    if s.n < 2:
        raise ParameterError("the analysis needs at least two pairs")
    forward = gptest.test_st_wj(s, k, n_sims, seed=derive_seed(seed, 0))
    reverse = gptest.test_st_wj(s.swap(), k, n_sims, seed=derive_seed(seed, 1))
    t_res = paired_t_test(s)
    # two-sided mean-difference p from the one-sided result
    p_two_sided = 2.0 * min(t_res.p_value, 1.0 - t_res.p_value)
    means_differ = p_two_sided < _LEVEL
    mean_gap_positive = float(np.mean(s.y - s.x)) > 0.0
    if forward.reject_at(_LEVEL):
        verdict = "evidence_against_forward"
    elif means_differ and mean_gap_positive:
        verdict = "strict_dominance_consistent"
    elif reverse.reject_at(_LEVEL):
        verdict = "evidence_against_reverse"
    else:
        verdict = "possibly_equal_differences"
    return AnalysisReport(stwj_forward=forward, stwj_reverse=reverse, t_test=t_res, verdict=verdict)


def _price_row(row: list[str]) -> tuple[dt.date, float]:
    return dt.date.fromisoformat(row[0].strip()), float(row[1])


def read_price_csv(path: str | Path) -> PriceSeries:
    """Read a price series from CSV with header ``date,close``, ISO dates."""
    dates, closes = zip(*read_columns_csv(path, "date,close", _price_row))
    try:
        return PriceSeries(dates, np.array(closes))
    except ParameterError as exc:
        raise CsvFormatError(2, str(exc)) from exc


def write_qq_csv(q: QQData, dest: str | Path | TextIO) -> None:
    """Write Q-Q data as CSV with header ``qa,qb`` to a path or stream."""
    write_columns_csv("qa,qb", (q.qa, q.qb), dest)


def fixture_path(name: str) -> Path:
    """Path of a bundled weekly-close fixture CSV (asset_x/y/z.csv)."""
    return Path(str(resources.files("pairdom.data").joinpath(name)))
