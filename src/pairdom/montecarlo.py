"""Scenario generators and the rejection-rate replication harness.

Eight fixed scenarios drive the power study. C1-C3 are bivariate normal
with covariance [[2, 1.5], [1.5, 1.5]] and mean vectors (2, 4), (3, 1)
and (2, 2.01). C4-C8 couple Pareto or Weibull marginals through a
Clayton copula with theta = 0.5:

    C4  X ~ Pareto(2, 1)      Y ~ Pareto(1.5, 1)     (order holds)
    C5  X ~ Pareto(5, 4)      Y ~ Pareto(1.5, 1)     (order fails)
    C6  X ~ Weibull(6, 2)     Y ~ Weibull(1.5, 1.5)  (order fails)
    C7  X ~ Weibull(0.75, 4)  Y ~ Weibull(0.25, 1.5) (order fails)
    C8  X ~ Weibull(0.5, 2)   Y ~ Weibull(0.9, 1.5)  (order fails)

Each replication r of an experiment derives its own seeds from
(master_seed, r), so results are independent of execution order and of
any parallelism in the caller.

Replications run in chunks. Per replication, the harness draws the
sample with seed (master_seed, r, 0), runs the dominance test on it with
seed (master_seed, r, 1) (derived only when "stwj" is among the tests)
and stores its differences y - x as one row of the chunk. Per chunk, each
baseline (t, Wilcoxon) runs once over all the rows through
baselines.paired_t_rows / wilcoxon_rows, whose row results equal the
one-sample functions' bit for bit, with degenerate rows counted as
failures. A chunk holds at most _CHUNK_BYTES of differences, and at
least one row, so memory is bounded for any replications x n. Counting is
commutative, so the report does not depend on the chunk size.

A replication asks the dominance test only whether p1 < level for each
configured level, so the harness calls gptest.test_st_wj with
stop_at = max(levels). Once the running mid-p count reaches that level,
the full p1 can only be larger and no level rejects, so the remaining
draws are skipped. The decisions, and hence every rate, are the same as
from the full test.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import gptest
from .baselines import paired_t_rows, wilcoxon_rows
from .distributions import (
    BivariateNormalParams,
    MarginalDist,
    Pareto,
    Weibull,
    sample_bivariate_normal,
    sample_clayton_bivariate,
)
from .empirical import PairedSample
from .errors import DegenerateSampleError, ParameterError
from .seeding import derive_seed

__all__ = [
    "ScenarioSpec",
    "ExperimentConfig",
    "RejectionReport",
    "scenario",
    "generate_scenario",
    "run_rejection_experiment",
    "SCENARIOS",
    "ALL_TESTS",
]

ALL_TESTS = ("stwj", "t", "wilcoxon")
# Two-sided 95% standard normal quantile, for the Wilson intervals.
_Z95 = 1.959963984540054
# Differences held per chunk of replications for the row-wise baselines:
# 32 KiB, e.g. 20 rows at n=200 and all of 200 rows at n=10. The Wilcoxon
# ranking makes several arrays of the chunk's size, and twice the budget
# raised the benchmark's peak RSS by ~2% for no measured speed.
_CHUNK_BYTES = 32 << 10


@dataclass(frozen=True)
class ScenarioSpec:
    """One of the fixed simulation scenarios (or a custom one)."""

    case_id: str
    normal: Optional[BivariateNormalParams] = None
    theta: Optional[float] = None
    marginal_x: Optional[MarginalDist] = None
    marginal_y: Optional[MarginalDist] = None

    def __post_init__(self):
        is_normal = self.normal is not None
        is_clayton = (
            self.theta is not None
            and self.marginal_x is not None
            and self.marginal_y is not None
        )
        if is_normal == is_clayton:
            raise ParameterError(
                "a scenario is either bivariate normal or Clayton-coupled marginals"
            )


_NORMAL_COV = np.array([[2.0, 1.5], [1.5, 1.5]])

SCENARIOS: dict[str, ScenarioSpec] = {
    "C1": ScenarioSpec("C1", normal=BivariateNormalParams(np.array([2.0, 4.0]), _NORMAL_COV)),
    "C2": ScenarioSpec("C2", normal=BivariateNormalParams(np.array([3.0, 1.0]), _NORMAL_COV)),
    "C3": ScenarioSpec("C3", normal=BivariateNormalParams(np.array([2.0, 2.01]), _NORMAL_COV)),
    "C4": ScenarioSpec("C4", theta=0.5, marginal_x=Pareto(2.0, 1.0), marginal_y=Pareto(1.5, 1.0)),
    "C5": ScenarioSpec("C5", theta=0.5, marginal_x=Pareto(5.0, 4.0), marginal_y=Pareto(1.5, 1.0)),
    "C6": ScenarioSpec("C6", theta=0.5, marginal_x=Weibull(6.0, 2.0), marginal_y=Weibull(1.5, 1.5)),
    "C7": ScenarioSpec("C7", theta=0.5, marginal_x=Weibull(0.75, 4.0), marginal_y=Weibull(0.25, 1.5)),
    "C8": ScenarioSpec("C8", theta=0.5, marginal_x=Weibull(0.5, 2.0), marginal_y=Weibull(0.9, 1.5)),
}


def scenario(case_id: str) -> ScenarioSpec:
    try:
        return SCENARIOS[case_id]
    except KeyError:
        raise ParameterError(f"unknown case {case_id!r}; expected C1..C8") from None


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioSpec
    n: int
    replications: int
    master_seed: int
    k: int = 100
    n_sims: int = 2000
    levels: tuple[float, ...] = (0.05, 0.01)
    tests: tuple[str, ...] = ("stwj",)

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"n must be >= 2, got {self.n}")
        if self.replications < 1:
            raise ParameterError("replications must be >= 1")
        if not self.levels or any(not (0.0 < lv < 1.0) for lv in self.levels):
            raise ParameterError("levels must lie in (0, 1)")
        unknown = set(self.tests) - set(ALL_TESTS)
        if unknown or not self.tests:
            raise ParameterError(f"tests must be a nonempty subset of {ALL_TESTS}")


@dataclass(eq=False)
class RejectionReport:
    """Rejection rates per (test, level), with failure counts.

    A replication whose test raises a degenerate-sample error counts as a
    failure for that test and as a non-rejection in the rate; failures are
    reported separately, never silently dropped. interval() gives the 95%
    Wilson interval of a rate, which the JSON form carries as wilson95.
    wall_time is informative only and is excluded from the serialized
    forms so that identical configurations produce byte-identical
    artifacts.
    """

    case_id: str
    n: int
    replications: int
    master_seed: int
    k: int
    n_sims: int
    levels: tuple[float, ...]
    tests: tuple[str, ...]
    rates: dict[tuple[str, float], float] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0

    def rate(self, test: str, level: float) -> float:
        return self.rates[(test, level)]

    def interval(self, test: str, level: float) -> tuple[float, float]:
        """95% Wilson score interval for a rate over the replications."""
        p = self.rates[(test, level)]
        n = self.replications
        z2 = _Z95 * _Z95
        centre = (p + z2 / (2 * n)) / (1 + z2 / n)
        half = _Z95 / (1 + z2 / n) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
        return max(0.0, centre - half), min(1.0, centre + half)

    def to_csv_text(self) -> str:
        lines = ["case,n,test,level,rate,failures"]
        for test in self.tests:
            for level in self.levels:
                lines.append(
                    f"{self.case_id},{self.n},{test},{level!r},"
                    f"{self.rates[(test, level)]!r},{self.failures[test]}"
                )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "case": self.case_id,
            "n": self.n,
            "replications": self.replications,
            "master_seed": self.master_seed,
            "k": self.k,
            "n_sims": self.n_sims,
            "levels": list(self.levels),
            "tests": list(self.tests),
            "rates": [
                {
                    "test": test,
                    "level": level,
                    "rate": self.rates[(test, level)],
                    "wilson95": list(self.interval(test, level)),
                    "failures": self.failures[test],
                }
                for test in self.tests
                for level in self.levels
            ],
        }

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())


def generate_scenario(spec: ScenarioSpec, n: int, seed: int) -> PairedSample:
    """Draw a paired sample from a scenario; deterministic per seed."""
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if spec.normal is not None:
        return sample_bivariate_normal(spec.normal, n, seed)
    return sample_clayton_bivariate(spec.theta, spec.marginal_x, spec.marginal_y, n, seed)


def run_rejection_experiment(cfg: ExperimentConfig) -> RejectionReport:
    """Run the replication loop and aggregate rejection rates.

    Replication r draws its sample with seed (master_seed, r, 0) and runs
    the dominance test with seed (master_seed, r, 1); the baselines run
    once per chunk of replications on the stacked differences.
    Aggregation is commutative counting, so any execution order and any
    chunk size give the same report.
    """
    started = time.perf_counter()
    counts = {(test, level): 0 for test in cfg.tests for level in cfg.levels}
    failures = {test: 0 for test in cfg.tests}
    stwj = "stwj" in cfg.tests
    baselines = [test for test in cfg.tests if test != "stwj"]
    chunk = max(1, _CHUNK_BYTES // (8 * cfg.n))
    for first in range(0, cfg.replications, chunk):
        last = min(first + chunk, cfg.replications)
        diffs = np.empty((last - first, cfg.n))
        for r in range(first, last):
            sample = generate_scenario(cfg.scenario, cfg.n, derive_seed(cfg.master_seed, r, 0))
            np.subtract(sample.y, sample.x, out=diffs[r - first])
            if not stwj:
                continue
            try:
                result = gptest.test_st_wj(
                    sample, cfg.k, cfg.n_sims,
                    seed=derive_seed(cfg.master_seed, r, 1), stop_at=max(cfg.levels),
                )
            except DegenerateSampleError:
                failures["stwj"] += 1
                continue
            for level in cfg.levels:
                counts[("stwj", level)] += result.reject_at(level)
        for test in baselines:
            rows = paired_t_rows(diffs) if test == "t" else wilcoxon_rows(diffs)
            failures[test] += int(np.count_nonzero(rows.failed))
            for level in cfg.levels:
                counts[(test, level)] += int(np.count_nonzero(~rows.failed & (rows.p_value < level)))
    rates = {key: counts[key] / cfg.replications for key in counts}
    return RejectionReport(
        case_id=cfg.scenario.case_id,
        n=cfg.n,
        replications=cfg.replications,
        master_seed=cfg.master_seed,
        k=cfg.k,
        n_sims=cfg.n_sims,
        levels=cfg.levels,
        tests=cfg.tests,
        rates=rates,
        failures=failures,
        wall_time=time.perf_counter() - started,
    )
