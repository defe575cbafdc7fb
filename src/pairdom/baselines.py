"""Classical one-sided paired tests used as benchmarks.

Both tests treat "X smaller than Y" as the null hypothesis: small
p-values are evidence that Y - X is centered below zero.

The Wilcoxon test is the one-sample signed-rank test on the differences
Y - X (the standard paired form): zero differences are dropped, ties in
the absolute differences get midranks, and the one-sided p-value for the
"less" alternative is P(W+ <= observed). When at most ``exact_threshold``
differences remain it is exact: the null law of W+ over all 2^m sign
patterns is counted by dynamic programming over the doubled midranks,
which are integers. Otherwise it is the normal approximation with a
tie-corrected variance and a continuity correction of 0.5.

Row-wise form. paired_t_rows and wilcoxon_rows run a test on every row
of an (R, n) array of differences y - x at once, and the one-sample
functions paired_t_test and wilcoxon_signed_rank call them on one row,
so there is one code path. Each row's result depends only on that row:
its mean and standard deviation are row reductions, which equal the 1-D
ones bit for bit; its midranks come from the runs of equal |d| along the
sorted row, with the row's zeros sorted first and their count subtracted;
and its exact null law is built once per distinct pattern of doubled
midranks in the array, so untied rows of equal m share one law. A row
that the one-sample test would reject as degenerate is flagged in
``failed`` instead: zero standard deviation for t, no nonzero difference
or no variance left after the tie correction for Wilcoxon.

scipy.special is imported inside the two functions that call it, so
importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .empirical import PairedSample
from .errors import CapacityError, DegenerateSampleError, ParameterError

__all__ = [
    "BaselineResult",
    "BaselineRows",
    "paired_t_rows",
    "paired_t_test",
    "wilcoxon_rows",
    "wilcoxon_signed_rank",
]

EXACT_ENUMERATION_THRESHOLD = 12
# The 2^m sign patterns are counted in int64, so m may be at most 62.
EXACT_MAX_DIFFERENCES = 62


@dataclass(frozen=True)
class BaselineResult:
    statistic: float
    p_value: float
    method: Literal["students_t", "wilcoxon"]
    n_effective: int

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "n_effective": self.n_effective,
        }


@dataclass(frozen=True, eq=False)
class BaselineRows:
    """One test's results on each row of an (R, n) array of differences.

    statistic and p_value are NaN where failed is set.
    """

    statistic: np.ndarray
    p_value: np.ndarray
    n_effective: np.ndarray
    failed: np.ndarray

    def first(self, method: Literal["students_t", "wilcoxon"]) -> BaselineResult:
        """Row 0 as a one-sample result."""
        return BaselineResult(
            statistic=float(self.statistic[0]),
            p_value=float(self.p_value[0]),
            method=method,
            n_effective=int(self.n_effective[0]),
        )


def paired_t_rows(d: np.ndarray) -> BaselineRows:
    """One-sided paired Student's t on each row of differences d = y - x.

    t = mean(d) / (sd(d) / sqrt(n)) with the n-1 denominator in the
    sample standard deviation; p = P(T_{n-1} <= t), small when the mean of
    Y - X is negative. Rows with zero standard deviation fail.
    """
    rows, n = d.shape
    if n < 2:
        raise ParameterError("the t test needs at least two pairs")
    sd = np.std(d, axis=1, ddof=1)
    failed = sd == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_obs = np.mean(d, axis=1) / (sd / np.sqrt(n))
    t_obs[failed] = np.nan
    from scipy.special import stdtr

    return BaselineRows(t_obs, stdtr(n - 1, t_obs), np.full(rows, n), failed)


def paired_t_test(s: PairedSample) -> BaselineResult:
    """One-sided paired Student's t test on Y - X (see paired_t_rows)."""
    rows = paired_t_rows((s.y - s.x)[None, :])
    if rows.failed[0]:
        raise DegenerateSampleError("differences have zero variance")
    return rows.first("students_t")


def _run_bounds(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop (exclusive) positions of each value's run of equal
    values, along every row of a row-sorted 2-D array."""
    n = a.shape[1]
    pos = np.arange(n)
    new_run = np.ones(a.shape, dtype=bool)
    np.not_equal(a[:, 1:], a[:, :-1], out=new_run[:, 1:])
    start = np.maximum.accumulate(np.where(new_run, pos, 0), axis=1)
    run_end = np.ones(a.shape, dtype=bool)
    run_end[:, :-1] = new_run[:, 1:]
    stop = np.minimum.accumulate(np.where(run_end, pos + 1, n)[:, ::-1], axis=1)[:, ::-1]
    return start, stop


def _exact_wplus_cdf(ranks: np.ndarray, w_obs):
    """P(W+ <= w) over all 2^m equally likely sign patterns, for w in w_obs.

    w_obs is a value or an array of values. counts[s] is the number of
    patterns whose doubled W+ equals s; adding one rank r (doubled) shifts
    a copy of the counts by r.
    """
    m = len(ranks)
    if m > EXACT_MAX_DIFFERENCES:
        raise CapacityError(
            f"exact Wilcoxon counts overflow past {EXACT_MAX_DIFFERENCES} differences, got {m}"
        )
    # midranks are multiples of 1/2, so doubling them is exact
    counts = np.zeros(m * (m + 1) + 1, dtype=np.int64)
    counts[0] = 1
    for r in (2.0 * ranks).astype(np.int64).tolist():
        counts[r:] += counts[:-r]
    # the counts are below 2^62 and 2^m is a power of two, so the float
    # quotient is the correctly rounded count / 2^m
    below = np.cumsum(counts)[(2.0 * np.asarray(w_obs)).astype(np.int64)]
    return below / float(1 << m)


def wilcoxon_rows(
    d: np.ndarray, exact_threshold: int = EXACT_ENUMERATION_THRESHOLD
) -> BaselineRows:
    """One-sided Wilcoxon signed-rank test on each row of differences d = y - x.

    Rows with no nonzero difference, or with no variance left after the
    tie correction, fail.
    """
    rows, n = d.shape
    a = np.abs(d)
    order = np.argsort(a, axis=1)
    a = np.take_along_axis(a, order, axis=1)
    positive = np.take_along_axis(d, order, axis=1) > 0.0
    zeros = np.count_nonzero(a == 0.0, axis=1)
    m = n - zeros
    start, stop = _run_bounds(a)
    # doubled midrank among the row's nonzero values, which follow its zeros
    doubled = start + stop + 1 - 2 * zeros[:, None]
    w_plus = 0.5 * np.where(positive, doubled, 0).sum(axis=1)
    mf = m.astype(float)
    length = stop - start
    # each run of t tied nonzero values adds t^3 - t, t^2 - 1 per member
    ties = np.where(a > 0.0, length * length - 1, 0).sum(axis=1)
    var_w = mf * (mf + 1) * (2 * mf + 1) / 24.0 - ties / 48.0
    exact = m <= exact_threshold
    failed = (m == 0) | (~exact & (var_w <= 0))
    p = np.full(rows, np.nan)

    laws: dict[bytes, list[int]] = {}
    for i in np.flatnonzero(exact & ~failed).tolist():
        laws.setdefault(doubled[i, zeros[i]:].tobytes(), []).append(i)
    for same in laws.values():
        i = same[0]
        p[same] = _exact_wplus_cdf(0.5 * doubled[i, zeros[i]:], w_plus[same])

    normal = ~exact & ~failed
    if normal.any():
        from scipy.special import ndtr

        mean_w = mf * (mf + 1) / 4.0
        p[normal] = ndtr((w_plus - mean_w + 0.5)[normal] / np.sqrt(var_w[normal]))
    w_plus[failed] = np.nan
    return BaselineRows(w_plus, p, m, failed)


def wilcoxon_signed_rank(
    s: PairedSample, exact_threshold: int = EXACT_ENUMERATION_THRESHOLD
) -> BaselineResult:
    """One-sided Wilcoxon signed-rank test on Y - X ("less" alternative)."""
    rows = wilcoxon_rows((s.y - s.x)[None, :], exact_threshold)
    if rows.failed[0]:
        if rows.n_effective[0] == 0:
            raise DegenerateSampleError("all differences are zero")
        raise DegenerateSampleError("tie correction removed all variance")
    return rows.first("wilcoxon")
