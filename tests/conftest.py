"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import pairdom
from pairdom import gptest
from pairdom.baselines import _run_bounds
from pairdom.empirical import PairedSample
from pairdom.errors import ParameterError
from pairdom.gptest import GpCovariance
from pairdom.oracle import DiscreteBivariate, survival_of_difference

# The six-atom discrete fixture: equal weight on each point, built so that
# P(X > Y) = P(Y > X) = 0.5, the weak joint dominance holds, and the
# marginal survival functions cross (marginals incomparable).
SIX_ATOM_POINTS = [(1, 3), (2, 5), (3, 7), (3, 2), (5, 4), (9, 6)]


@pytest.fixture
def six_atom_law() -> DiscreteBivariate:
    return DiscreteBivariate.uniform(SIX_ATOM_POINTS)


def random_discrete_bivariate(rng: np.random.Generator, max_atoms: int = 8) -> DiscreteBivariate:
    """Small random law with half-integer coordinates (to provoke ties)
    and rational probabilities."""
    m = int(rng.integers(1, max_atoms + 1))
    x = rng.integers(-3, 4, m) + rng.choice([0.0, 0.5], m)
    y = rng.integers(-3, 4, m) + rng.choice([0.0, 0.5], m)
    w = rng.integers(1, 6, m).astype(float)
    return DiscreteBivariate(x.astype(float), y, w / w.sum())


def random_ordered_discrete_bivariate(rng: np.random.Generator, max_atoms: int = 8) -> DiscreteBivariate:
    """Random law guaranteed to satisfy the weak joint order: every atom
    has y >= x, so X - Y is nonpositive with probability one."""
    m = int(rng.integers(1, max_atoms + 1))
    x = rng.integers(-3, 4, m).astype(float)
    gap = rng.integers(0, 4, m).astype(float)
    w = rng.integers(1, 6, m).astype(float)
    return DiscreteBivariate(x, x + gap, w / w.sum())


def stwj_holds_dense_scan(d: DiscreteBivariate, fill: int = 4001) -> bool:
    """Independent check of the defining inequality on a dense t-grid.

    The grid is a uniform fill of the padded support range, augmented with
    every support point and the midpoints between consecutive points, so
    that each constancy interval of the two step functions is visited.
    """
    diffs = np.concatenate([d.x - d.y, d.y - d.x])
    lo, hi = diffs.min() - 1.0, diffs.max() + 1.0
    support = np.unique(diffs)
    mids = (support[:-1] + support[1:]) / 2.0 if len(support) > 1 else np.array([])
    grid = np.unique(np.concatenate([np.linspace(lo, hi, fill), support, mids]))
    for t in grid:
        if survival_of_difference(d, "x-y", float(t)) > survival_of_difference(
            d, "y-x", float(t)
        ) + 1e-12:
            return False
    return True


def random_paired_sample(rng: np.random.Generator, n_max: int = 40) -> PairedSample:
    n = int(rng.integers(2, n_max + 1))
    x = rng.normal(0.0, 1.0, n)
    y = x * rng.uniform(0.2, 1.0) + rng.normal(0.2, 1.0, n)
    return PairedSample(x, y)


SRC = str(Path(pairdom.__file__).resolve().parent.parent)


def run_fresh(code: str, script: Path | None = None, timeout: float = 120,
              cwd: Path | None = None) -> str:
    """Run code in a fresh interpreter with pairdom importable; return stdout.

    With script, the code is written to that file and run from it as the
    main module, whose path it can read from sys.argv[0]. With cwd, the
    interpreter runs in that directory.
    """
    env = dict(os.environ)
    # no empty entry: it would put the working directory on the path
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if script is None:
        argv = [sys.executable, "-c", code]
    else:
        script.write_text(code, encoding="utf-8")
        argv = [sys.executable, str(script)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


def may_use_two_cpus(monkeypatch, on: bool) -> None:
    """Set whether this process may use two CPUs: the rule, gptest._two_cpus,
    that starts the harness's helper process."""
    monkeypatch.setattr(gptest, "_two_cpus", lambda: on)


def record_thread_starts(monkeypatch) -> list[threading.Thread]:
    """Record every thread started from now on, in the returned list, and
    start it as usual."""
    started = []
    start = threading.Thread.start

    def recording_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


@dataclass(frozen=True, eq=False)
class EmpiricalSurvival:
    """Empirical survival function of a difference sample, an independent
    reference for the statistic and the covariance.

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


def survival_at(e: EmpiricalSurvival, t):
    """Fraction of values strictly greater than t, at a scalar or an array."""
    v = e.sorted_values
    n = len(v)
    idx = np.searchsorted(v, t, side="right")
    out = (n - idx) / n
    if np.isscalar(t):
        return float(out)
    return out


def dense_covariance(cov: GpCovariance) -> np.ndarray:
    """The n_points x n_points covariance A (diag r - q q^T) A^T of a cell form."""
    a = (cov.cell[None, :] > np.arange(cov.n_points)[:, None]).astype(float)
    gap = a @ cov.q
    return (a * cov.r) @ a.T - np.outer(gap, gap)


def midranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n of a, each run of equal values given the mean of its ranks,
    from the run bounds the Wilcoxon test ranks with."""
    order = np.argsort(a, kind="stable")
    start, stop = _run_bounds(a[order][None, :])
    ranks = np.empty(len(a))
    ranks[order] = 0.5 * (start[0] + stop[0] + 1)
    return ranks
