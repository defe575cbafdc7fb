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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.special import ndtr, stdtr
from scipy.stats import rankdata

from .empirical import PairedSample
from .errors import CapacityError, DegenerateSampleError, ParameterError

__all__ = ["BaselineResult", "paired_t_test", "wilcoxon_signed_rank"]

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


def paired_t_test(s: PairedSample) -> BaselineResult:
    """One-sided paired Student's t test.

    t = mean(y - x) / (sd(y - x) / sqrt(n)) with the n-1 denominator in
    the sample standard deviation; p = P(T_{n-1} <= t), small when the
    mean of Y - X is negative.
    """
    if s.n < 2:
        raise ParameterError("the t test needs at least two pairs")
    d = s.y - s.x
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        raise DegenerateSampleError("differences have zero variance")
    t_obs = float(np.mean(d) / (sd / np.sqrt(s.n)))
    p = float(stdtr(s.n - 1, t_obs))
    return BaselineResult(statistic=t_obs, p_value=p, method="students_t", n_effective=s.n)


def _exact_wplus_cdf(ranks: np.ndarray, w_obs: float) -> float:
    """P(W+ <= w_obs) over all 2^m equally likely sign patterns.

    counts[s] is the number of patterns whose doubled W+ equals s; adding
    one rank r (doubled) shifts a copy of the counts by r.
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
    return int(counts[: int(2.0 * w_obs) + 1].sum()) / (1 << m)


def wilcoxon_signed_rank(
    s: PairedSample, exact_threshold: int = EXACT_ENUMERATION_THRESHOLD
) -> BaselineResult:
    """One-sided Wilcoxon signed-rank test on Y - X ("less" alternative)."""
    d = s.y - s.x
    nz = d[d != 0.0]
    m = len(nz)
    if m == 0:
        raise DegenerateSampleError("all differences are zero")
    ranks = rankdata(np.abs(nz))
    w_plus = float(ranks[nz > 0].sum())
    if m <= exact_threshold:
        p = _exact_wplus_cdf(ranks, w_plus)
    else:
        mean_w = m * (m + 1) / 4.0
        var_w = m * (m + 1) * (2 * m + 1) / 24.0
        _, counts = np.unique(np.abs(nz), return_counts=True)
        var_w -= float(((counts**3 - counts).sum())) / 48.0
        if var_w <= 0:
            raise DegenerateSampleError("tie correction removed all variance")
        p = float(ndtr((w_plus - mean_w + 0.5) / np.sqrt(var_w)))
    return BaselineResult(statistic=w_plus, p_value=p, method="wilcoxon", n_effective=m)
