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

Replication r of an experiment draws its sample with seed
(master_seed, r, 0) and tests it for dominance with seed
(master_seed, r, 1), so results are independent of execution order, of
which process runs a replication and of any parallelism in the caller.

Each test fills one tally, [rejections per level..., failures], in one
of two passes. The baseline pass draws the replications in chunks of at
most _CHUNK_BYTES of differences y - x, and at least one row, so memory
is bounded for any replications x n. Each chunk is drawn with one call
of the scenario's row-wise sampler (distributions.sample_bivariate_normal_rows
or sample_clayton_rows), whose row r is drawn from seed
(master_seed, r, 0) alone and equals generate_scenario's sample bit for
bit, so every stream is unchanged. Each baseline (t, Wilcoxon) runs
once per chunk through baselines.paired_t_rows / wilcoxon_rows, whose
row results equal the one-sample functions' bit for bit, with degenerate
rows counted as failures. The dominance-test pass walks the same chunks
and runs each replication through one routine, _stwj_tally, on the
chunk's rows in this process or in the helper below, so this process
draws each sample once. Counting is commutative, so the report depends
neither on the chunk size nor on which process ran a replication.

The dominance test is nearly all of the cost, so its pass shares
replications with a helper process where this process may use two CPUs.
The helper is a fresh interpreter running _serve() below with this
process's import path, started when the first dominance-test pass
begins and kept for later calls; it never imports the caller's main
module, so scripts need no ``__main__`` guard. A call never waits for
the helper to start. Once it is ready, it takes every other replication
still to run and returns its tally; if it dies, its share runs here.
Cells without "stwj" never touch the helper. The helper is terminated
and reaped when the interpreter exits.

A replication asks the dominance test only whether p1 < level for each
configured level, so the harness calls gptest.test_st_wj with
stop_at = max(levels) and lowest_level = min(levels) in place of the
defaults. The draws are the same as in any other run; once their running
sum reaches max(levels), the full p1 can only be larger and no level
rejects, so the remaining draws are skipped. Before any draw,
gptest.pvalue_bounds may settle the replication from the cell form: at
statistic 0, where every draw adds at least 1/2, exactly; or by the
union bound on the null tail (a rejection, overturned by the full p1
with probability at most 1e-3 by Markov's inequality) or by the largest
one-point tail (a keep, overturned with probability at most 1e-3 by
Hoeffding's inequality). So the decisions are the full test's where the
simulation stops and at statistic 0, and elsewhere each differs from
the full test's with probability at most 1e-3 (gptest._SETTLE_RISK, a
fixed constant).

An ExperimentConfig lists each test and each level at most once. A
RejectionReport keeps the ExperimentConfig it ran as config; its CSV and
JSON forms and its Wilson intervals read the settings from there.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import sys
import threading
import time
from dataclasses import dataclass
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
    check_size,
    sample_bivariate_normal_rows,
    sample_clayton_rows,
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
# raised the benchmark's peak RSS by ~2% for no measured speed. A chunk
# holds at most max(4096, n) values, inside distributions.MAX_VALUES.
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


def _check_n(n: int) -> None:
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    check_size(n)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioSpec
    n: int
    replications: int
    master_seed: int
    k: int = gptest.DEFAULT_GRID_POINTS
    n_sims: int = 2000
    levels: tuple[float, ...] = (0.05, 0.01)
    tests: tuple[str, ...] = ("stwj",)

    def __post_init__(self):
        _check_n(self.n)
        if self.replications < 1:
            raise ParameterError("replications must be >= 1")
        if not self.levels or any(not (0.0 < lv < 1.0) for lv in self.levels):
            raise ParameterError("levels must lie in (0, 1)")
        unknown = set(self.tests) - set(ALL_TESTS)
        if unknown or not self.tests:
            raise ParameterError(f"tests must be a nonempty subset of {ALL_TESTS}")
        if len(set(self.tests)) < len(self.tests) or len(set(self.levels)) < len(self.levels):
            raise ParameterError("tests and levels must not repeat an entry")


@dataclass(eq=False)
class RejectionReport:
    """Rejection rates per (test, level) of one ExperimentConfig, with failure counts.

    A replication whose test raises a degenerate-sample error counts as a
    failure for that test and as a non-rejection in the rate; failures are
    reported separately, never silently dropped. interval() gives the 95%
    Wilson interval of a rate, which the JSON form carries as wilson95.
    wall_time is informative only and is excluded from the serialized
    forms so that identical configurations produce byte-identical
    artifacts.
    """

    config: ExperimentConfig
    rates: dict[tuple[str, float], float]
    failures: dict[str, int]
    wall_time: float = 0.0

    def rate(self, test: str, level: float) -> float:
        return self.rates[(test, level)]

    def interval(self, test: str, level: float) -> tuple[float, float]:
        """95% Wilson score interval for a rate over the replications."""
        p = self.rates[(test, level)]
        n = self.config.replications
        z2 = _Z95 * _Z95
        centre = (p + z2 / (2 * n)) / (1 + z2 / n)
        half = _Z95 / (1 + z2 / n) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
        return max(0.0, centre - half), min(1.0, centre + half)

    def to_csv_text(self) -> str:
        cfg = self.config
        lines = ["case,n,test,level,rate,failures"]
        for test in cfg.tests:
            for level in cfg.levels:
                lines.append(
                    f"{cfg.scenario.case_id},{cfg.n},{test},{level!r},"
                    f"{self.rates[(test, level)]!r},{self.failures[test]}"
                )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "case": cfg.scenario.case_id,
            "n": cfg.n,
            "replications": cfg.replications,
            "master_seed": cfg.master_seed,
            "k": cfg.k,
            "n_sims": cfg.n_sims,
            "levels": list(cfg.levels),
            "tests": list(cfg.tests),
            "rates": [
                {
                    "test": test,
                    "level": level,
                    "rate": self.rates[(test, level)],
                    "wilson95": list(self.interval(test, level)),
                    "failures": self.failures[test],
                }
                for test in cfg.tests
                for level in cfg.levels
            ],
        }

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())


def generate_scenario(spec: ScenarioSpec, n: int, seed: int) -> PairedSample:
    """Draw a paired sample from a scenario; deterministic per seed.

    n > distributions.MAX_VALUES (2**23, 64 MiB per coordinate) raises
    CapacityError before anything is drawn.
    """
    x, y = _draw(spec, n, [seed])
    return PairedSample(x[0], y[0])


def _draw(spec: ScenarioSpec, n: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """x and y of shape (len(seeds), n), row i drawn from a scenario with
    seed seeds[i] as generate_scenario draws it; n is checked first."""
    _check_n(n)
    if spec.normal is not None:
        return sample_bivariate_normal_rows(spec.normal, n, seeds)
    return sample_clayton_rows(spec.theta, spec.marginal_x, spec.marginal_y, n, seeds)


def run_rejection_experiment(cfg: ExperimentConfig) -> RejectionReport:
    """Run the replications and aggregate rejection rates: the baseline
    pass fills each baseline's tally, chunk by chunk, and the
    dominance-test pass, walking those chunks, the tally of "stwj"."""
    started = time.perf_counter()
    tallies = {test: [0] * (len(cfg.levels) + 1) for test in cfg.tests}
    chunks = _baseline_pass(cfg, {test: tallies[test] for test in cfg.tests if test != "stwj"})
    if "stwj" in tallies:
        _dominance_pass(cfg, chunks, tallies["stwj"])
    else:
        for _ in chunks:  # the baseline pass runs as its chunks are taken
            pass
    rates = {(test, level): tallies[test][i] / cfg.replications
             for test in cfg.tests for i, level in enumerate(cfg.levels)}
    failures = {test: tallies[test][-1] for test in cfg.tests}
    return RejectionReport(cfg, rates, failures, wall_time=time.perf_counter() - started)


def _baseline_pass(cfg: ExperimentConfig, tallies: dict[str, list[int]]):
    """The baseline pass, as a generator: it draws each chunk's samples with
    one _draw call and yields the chunk's replications with their rows x and
    y, then adds the chunk to each baseline's tally, run once on the chunk's
    rows of y - x. With no baseline it draws nothing and yields all
    replications as one chunk, with x and y None."""
    if not tallies:
        yield range(cfg.replications), None, None
        return
    chunk = max(1, _CHUNK_BYTES // (8 * cfg.n))
    for first in range(0, cfg.replications, chunk):
        rows = range(first, min(first + chunk, cfg.replications))
        x, y = _draw(cfg.scenario, cfg.n, [derive_seed(cfg.master_seed, r, 0) for r in rows])
        # PairedSample's check, also for the rows that never become one
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ParameterError("sample values must be finite")
        yield rows, x, y
        diffs = y - x
        for test, tally in tallies.items():
            result = paired_t_rows(diffs) if test == "t" else wilcoxon_rows(diffs)
            for i, level in enumerate(cfg.levels):
                tally[i] += int(np.count_nonzero(~result.failed & (result.p_value < level)))
            tally[-1] += int(np.count_nonzero(result.failed))


def _dominance_pass(cfg: ExperimentConfig, chunks, tally: list[int]) -> None:
    """The dominance-test pass: add every replication to tally. It walks
    the baseline pass's chunks and tests this process's replications of
    each on the samples drawn there. From the replication at which the
    helper is ready, the helper takes every other one still to run."""
    todo, share = range(cfg.replications), None
    # a call made while another thread shares with the helper runs serially
    sharing = _helper_lock.acquire(blocking=False)
    try:
        # started before the first chunk is drawn, so it warms up meanwhile
        helper = _start_helper() if sharing else None
        for rows, x, y in chunks:
            while todo and todo[0] < rows.stop:
                if helper is not None and share is None and helper.is_ready():
                    share, todo = todo[1::2], todo[::2]
                    helper.submit(cfg, share)
                r = todo[0]
                drawn = {} if x is None else {r: PairedSample(x[r - rows.start], y[r - rows.start])}
                mine = _stwj_tally(cfg, todo[:1], drawn)
                tally[:] = [a + b for a, b in zip(tally, mine)]
                todo = todo[1:]
        if share is not None:
            shared = helper.result()
            if shared is None:  # the helper is gone: run its share here
                shared = _stwj_tally(cfg, share)
            tally[:] = [a + b for a, b in zip(tally, shared)]
    except BaseException:
        if share is not None:  # its reply would be read by a later call
            helper.stop()
        raise
    finally:
        if sharing:
            _helper_lock.release()


def _stwj_tally(cfg: ExperimentConfig, replications: range,
                samples: Optional[dict[int, PairedSample]] = None) -> list[int]:
    """The dominance-test tally of some replications, in this process or
    the helper: a rejection per level at which p1 < level, or a failure.
    A replication's sample is taken from samples if it is there, or else
    drawn with seed (master_seed, r, 0)."""
    tally = [0] * (len(cfg.levels) + 1)
    for r in replications:
        sample = samples[r] if samples and r in samples else generate_scenario(
            cfg.scenario, cfg.n, derive_seed(cfg.master_seed, r, 0))
        try:
            result = gptest.test_st_wj(
                sample, cfg.k, cfg.n_sims,
                seed=derive_seed(cfg.master_seed, r, 1),
                stop_at=max(cfg.levels), lowest_level=min(cfg.levels),
            )
        except DegenerateSampleError:
            tally[-1] += 1
            continue
        for i, level in enumerate(cfg.levels):
            tally[i] += result.reject_at(level)
    return tally


# The helper process: a fresh interpreter that runs _serve() and exchanges
# pickles with this process over its stdin and stdout. Its sys.path is this
# process's, passed as arguments, so it imports pairdom and numpy from
# where this process did, never from its working directory. It is started
# only where this process may use two CPUs (gptest._two_cpus), so a
# multiprocessing child, whose parent already spreads the work, runs
# serially. Two processes is the only
# size measured, so there is never more than one helper; _stop_helper
# terminates and reaps it at exit, ready or still starting.
# the helper's interpreter arguments; this process's sys.path follows them
_HELPER_ARGS = (
    "-c", "import sys; sys.path[:] = sys.argv[1:]; from pairdom.montecarlo import _serve; _serve()"
)
_helper: Optional[_Helper] = None  # the live helper
_helper_lock = threading.Lock()  # held by the call that shares replications with it
# set when the helper exits before it is ready (say, pairdom cannot be
# imported in a fresh interpreter); no helper is started after that
_start_failed = False


def _forget_helper() -> None:
    global _helper
    _helper = None


if hasattr(os, "register_at_fork"):  # a forked child must not share its parent's helper
    os.register_at_fork(after_in_child=_forget_helper)


class _Helper:
    """The helper process and this process's ends of its pipes."""

    def __init__(self):
        import subprocess

        env = dict(os.environ)
        # one BLAS thread: this process runs its own on the other CPU
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.process = subprocess.Popen(
            [sys.executable, *_HELPER_ARGS, *sys.path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        self.ready = False

    def is_ready(self) -> bool:
        """True once the helper has reported ready; never blocks."""
        global _start_failed
        import select

        if not self.ready and self.process.returncode is None:
            if select.select([self.process.stdout], [], [], 0)[0]:
                self.ready = self._receive() is True
                if not self.ready:
                    _start_failed = True
                    self.stop()
        return self.ready

    def submit(self, cfg: ExperimentConfig, replications: range) -> None:
        try:
            pickle.dump((cfg, replications), self.process.stdin, pickle.HIGHEST_PROTOCOL)
            self.process.stdin.flush()
        except OSError:
            self.stop()

    def result(self) -> Optional[list[int]]:
        """The tally of the share last submitted, or None if the helper is gone."""
        reply = self._receive()
        if isinstance(reply, BaseException):
            raise reply
        if reply is None:
            self.stop()
        return reply

    def _receive(self):
        """The next reply, or None if the helper has exited or was stopped."""
        if self.process.returncode is not None:
            return None
        try:
            return pickle.load(self.process.stdout)
        except (EOFError, OSError, pickle.UnpicklingError):
            return None

    def stop(self) -> None:
        """Terminate the helper whatever it is doing, and wait to reap it."""
        self.ready = False
        self.process.terminate()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:  # the helper had not read all it was sent
                pass
        if _helper is self:
            _forget_helper()


def _start_helper() -> Optional[_Helper]:
    """This process's helper, started if missing and not waited for, or None
    where this process runs every replication itself."""
    global _helper, _start_failed
    if not gptest._two_cpus():
        return None
    if _helper is None and not _start_failed:
        try:
            _helper = _Helper()
        except OSError:  # no process can be started: run serially from now on
            _start_failed = True
    return _helper


@atexit.register
def _stop_helper() -> None:
    if _helper is not None:
        _helper.stop()


def _serve() -> None:
    """The helper's loop: it replies True once ready, then to each pickled
    (ExperimentConfig, replications) share with its dominance-test tally or
    the exception it raised, until stdin closes."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is for the parent to handle
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not reach the pipe
    reply = True  # ready
    while True:
        pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()
        try:
            cfg, replications = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = _stwj_tally(cfg, replications)
        except Exception as exc:  # raised again in the parent
            reply = exc
