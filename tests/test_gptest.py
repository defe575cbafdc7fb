import json
import os
import sys
import threading
import time
import types

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import (
    EmpiricalSurvival,
    dense_covariance,
    may_use_two_cpus,
    record_thread_starts,
    survival_at,
)
from pairdom import gptest
from pairdom.empirical import PairedSample, statistic_and_t_star
from pairdom.errors import CapacityError, DegenerateSampleError, ParameterError
from pairdom.gptest import GpCovariance, Grid, build_covariance, build_grid, pvalue_bounds
from pairdom.montecarlo import generate_scenario, scenario
from pairdom.seeding import make_rng


def case_sample(case_id: str, n: int, seed: int) -> PairedSample:
    return generate_scenario(scenario(case_id), n, seed)


def differences_sample(d) -> PairedSample:
    d = np.asarray(d, dtype=float)
    return PairedSample(d, np.zeros_like(d))


def unit_variance_cov():
    # half d=+1, half d=-1: W(0) ~ N(0, 1) and W(1) = 0 exactly
    return build_covariance(Grid(np.array([0.0, 1.0])), differences_sample(np.tile([1.0, -1.0], 50)))


def force_threads(monkeypatch, on: bool) -> None:
    """Make pvalue_bounds share every run without an early stop over two
    segments or more between two threads (on), or draw on one thread."""
    may_use_two_cpus(monkeypatch, on)
    if on:
        monkeypatch.setattr(gptest, "_THREAD_NORMALS", 0)


def ordinal_sample() -> PairedSample:
    rng = np.random.default_rng(17)
    x = rng.integers(1, 8, 200)
    y = np.clip(x + rng.integers(-2, 3, 200), 1, 7)
    return PairedSample(x.astype(float), y.astype(float))


def with_linear_grid(s: PairedSample):
    return s, build_grid(s, 100)


def with_support_grid(s: PairedSample):
    z = np.concatenate([s.x - s.y, s.y - s.x])
    return s, Grid(np.union1d([0.0], z[z >= 0]))


def closed_form_covariance(g: Grid, s: PairedSample) -> np.ndarray:
    """(Fbar + Gbar)(t_i v t_j) - gap_i * gap_j from the empirical survivals."""
    d = s.x - s.y
    f = survival_at(EmpiricalSurvival.from_values(d), g.points)
    gbar = survival_at(EmpiricalSurvival.from_values(-d), g.points)
    gap = f - gbar
    idx = np.arange(len(g.points))
    return (f + gbar)[np.maximum.outer(idx, idx)] - np.outer(gap, gap)


class TestGrid:
    def test_equal_spacing(self):
        s = PairedSample(np.array([2.0, 0.0]), np.array([0.0, 0.0]))  # max(Z) = 2
        g = build_grid(s, 4)
        assert np.allclose(g.points, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.k == 4

    def test_minimal_grid(self):
        s = PairedSample(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        g = build_grid(s, 1)
        assert np.array_equal(g.points, [0.0, 1.0])

    def test_degenerate_sample(self):
        x = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DegenerateSampleError):
            build_grid(PairedSample(x, x.copy()), 10)

    def test_subnormal_largest_difference_is_degenerate(self):
        # linspace cannot fit two steps below 5e-324, the smallest subnormal
        s = differences_sample([0.0, 5e-324])
        with pytest.raises(DegenerateSampleError):
            build_grid(s, 2)
        with pytest.raises(DegenerateSampleError):
            gptest.test_st_wj(s, 2, 500, seed=1)
        assert np.array_equal(build_grid(s, 1).points, [0.0, 5e-324])

    def test_k_beyond_the_block_budget_raises_before_allocating(self, monkeypatch):
        s = PairedSample(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert gptest._BLOCK_BYTES // 8 == 2**23

        def no_linspace(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(gptest.np, "linspace", no_linspace)
        with pytest.raises(CapacityError):
            build_grid(s, 2**23)
        with pytest.raises(CapacityError):
            gptest.test_st_wj(s, 10**9, seed=1)
        monkeypatch.undo()
        # the largest k whose points fit, under a budget of 11 points
        monkeypatch.setattr(gptest, "_BLOCK_BYTES", 8 * 11)
        assert build_grid(s, 10).k == 10
        with pytest.raises(CapacityError):
            build_grid(s, 11)

    def test_grid_invariants(self):
        with pytest.raises(ParameterError):
            Grid(np.array([0.5, 1.0]))
        with pytest.raises(ParameterError):
            Grid(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ParameterError):
            Grid(np.array([0.0]))


class TestCovariance:
    def test_equal_survivals_diagonal(self):
        # symmetric differences: Fbar_n = Gbar_n at every point, so
        # Sigma_ii = 2 * Fbar_n(t_i)
        x = np.array([1.0, -1.0, 2.0, -2.0])
        s = PairedSample(x, np.zeros(4))
        g = build_grid(s, 4)
        cov = build_covariance(g, s)
        d = np.sort(x)
        for i, t in enumerate(g.points):
            fbar = np.mean(d > t)
            assert dense_covariance(cov)[i, i] == pytest.approx(2.0 * fbar, abs=1e-12)

    def test_point_beyond_support_is_zero(self):
        s = PairedSample(np.array([1.0, -1.0]), np.zeros(2))
        g = Grid(np.array([0.0, 1.0, 5.0]))
        cov = build_covariance(g, s)
        assert dense_covariance(cov)[2, 2] == 0.0

    def test_hand_computed_entry(self):
        s = PairedSample(np.array([3.0, 4.0]), np.array([1.0, 1.0]))
        g = Grid(np.array([0.0, 3.0]))
        cov = build_covariance(g, s)
        # Fbar(0) = 1, Gbar(0) = 0: 1 + 0 - (1 - 0)^2 = 0
        assert dense_covariance(cov)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_and_max_rule(self):
        s = case_sample("C1", 200, seed=3)
        g = build_grid(s, 25)
        cov = build_covariance(g, s)
        m = dense_covariance(cov)
        assert np.abs(m - m.T).max() <= 1e-12
        d = s.x - s.y
        fbar = lambda t: np.mean(d > t)
        gbar = lambda t: np.mean(-d > t)
        for i, j in [(0, 5), (3, 20), (7, 7)]:
            ti, tj = g.points[i], g.points[j]
            hi = max(ti, tj)
            expected = (
                fbar(hi)
                + gbar(hi)
                - (fbar(ti) - gbar(ti)) * (fbar(tj) - gbar(tj))
            )
            assert m[i, j] == pytest.approx(expected, abs=1e-12)


    @pytest.mark.parametrize("make", [
        lambda: with_linear_grid(case_sample("C1", 200, seed=3)),
        lambda: with_linear_grid(case_sample("C8", 100, seed=3)),
        lambda: with_support_grid(ordinal_sample()),
        lambda: (differences_sample([1.0, -1.0]), Grid(np.array([0.0, 1.0, 5.0]))),
    ], ids=["C1_n200", "C8_n100", "ordinal_support_grid", "grid_past_support"])
    def test_matrix_matches_closed_form(self, make):
        s, g = make()
        m = dense_covariance(build_covariance(g, s))
        assert m.shape == (g.k + 1, g.k + 1)
        assert np.abs(m - closed_form_covariance(g, s)).max() <= 1e-12


class TestPvalueBounds:
    def test_extreme_statistics(self):
        s = case_sample("C3", 60, seed=4)
        cov = build_covariance(build_grid(s, 20), s)
        assert pvalue_bounds(cov, 1e9, 500, seed=1) == 0.0
        assert pvalue_bounds(cov, -1e9, 500, seed=1) == 1.0

    def test_univariate_calibration(self):
        # P(Z > 1.645) for a unit-variance point, against the normal CDF
        p1 = pvalue_bounds(unit_variance_cov(), 1.645, 200_000, seed=42)
        expected = 1.0 - ndtr(1.645)
        assert p1 == pytest.approx(expected, abs=0.005)

    @pytest.mark.parametrize("d, points", [
        (np.tile([1.0, -1.0], 50), [0.0, 1.0]),
        # every difference negative: W(0) is the sum over all cells and is
        # exactly 0, W(1.5) ~ N(0, 1/4), W(2) = 0
        ([-1.0, -2.0], [0.0, 1.5, 2.0]),
    ], ids=["plus_minus_one", "one_sign"])
    def test_ties_at_zero_count_one_half(self, d, points):
        # the maximum is 0 exactly when the one live point is <= 0 (prob 1/2),
        # so the mid-p rule gives 1/2 + 1/2 * 1/2
        n_sims = 20_000
        cov = build_covariance(Grid(np.array(points)), differences_sample(d))
        p1 = pvalue_bounds(cov, 0.0, n_sims, seed=5)
        assert abs(p1 - 0.75) <= 4 * np.sqrt(0.75 * 0.25 / n_sims)

    def test_agrees_with_a_dense_cholesky_draw(self):
        s = case_sample("C3", 200, seed=7)
        stat = statistic_and_t_star(s)[0]
        assert stat > 0.0
        g = build_grid(s, 100)
        factor = np.linalg.cholesky(closed_form_covariance(g, s) + 1e-10 * np.eye(g.k + 1))
        rng = np.random.default_rng(8)
        n_sims, block = 200_000, 20_000
        exceed = sum(
            np.count_nonzero((rng.standard_normal((block, g.k + 1)) @ factor.T).max(axis=1) > stat)
            for _ in range(n_sims // block)
        )
        dense = exceed / n_sims
        p1 = pvalue_bounds(build_covariance(g, s), stat, n_sims, seed=9)
        assert abs(p1 - dense) <= 5 * np.sqrt(dense * (1 - dense) * 2 / n_sims)

    def test_each_draw_takes_dim_normals(self):
        # the documented construction, drawn from the same streams: draws
        # 0-2047 from make_rng(3), then 2048 draws from its PCG64 jumped
        # once and the last 904 from it jumped twice
        s = case_sample("C8", 100, seed=6)
        cov = build_covariance(build_grid(s, 100), s)
        segments = [make_rng(3)] + [np.random.Generator(make_rng(3).bit_generator.jumped(j))
                                    for j in (1, 2)]
        z = np.concatenate([rng.standard_normal((rows, cov.dim))
                            for rng, rows in zip(segments, (2048, 2048, 904))])
        w = cov.q / np.sqrt(cov.r)
        gamma = (1 - np.sqrt(1 - w @ w)) / (w @ w)
        v = np.sqrt(cov.r) * (z - gamma * np.outer(z @ w, w))
        paths = np.cumsum(v[:, ::-1], axis=1)
        peak = np.maximum(paths.max(axis=1), 0.0)
        for stat in (0.5, 1.0, 1.5):
            assert pvalue_bounds(cov, stat, 5000, seed=3) == np.mean(peak > stat)

    def test_monotone_in_statistic(self):
        s = case_sample("C8", 80, seed=8)
        cov = build_covariance(build_grid(s, 30), s)
        ps = [pvalue_bounds(cov, stat, 4000, seed=11) for stat in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(x >= y for x, y in zip(ps, ps[1:]))

    def test_n_sims_floor(self):
        with pytest.raises(ParameterError):
            pvalue_bounds(unit_variance_cov(), 0.0, 99, seed=0)


class TestEarlyStop:
    @pytest.mark.parametrize("case, n, seed, n_sims, count", [
        ("C3", 50, 1, 2000, 782),
        ("C3", 50, 1, 70_000, 28486),
        ("C8", 100, 6, 2000, 14),
        ("C8", 100, 6, 70_000, 487),
        ("C1", 100, 2, 2000, 1984),
        ("C1", 100, 2, 70_000, 69425.5),
    ])
    def test_without_stop_at_p1_is_pinned(self, case, n, seed, n_sims, count):
        # mid-p counts of the segmented sampler at draw seed 99
        s = case_sample(case, n, seed)
        cov = build_covariance(build_grid(s, 100), s)
        assert pvalue_bounds(cov, statistic_and_t_star(s)[0], n_sims, seed=99) == count / n_sims

    @pytest.mark.parametrize("n_sims", [2000, 70_000])
    def test_a_run_that_never_stops_returns_p1(self, n_sims):
        # a stop_at that no count reaches makes every draw of the same segments
        s = case_sample("C3", 50, seed=1)
        cov = build_covariance(build_grid(s, 100), s)
        stat = statistic_and_t_star(s)[0]
        full = pvalue_bounds(cov, stat, n_sims, seed=99)
        assert pvalue_bounds(cov, stat, n_sims, seed=99, stop_at=1.5) == full

    def test_stops_after_the_first_block_that_settles_it(self):
        s = case_sample("C1", 100, seed=2)
        cov = build_covariance(build_grid(s, 100), s)
        stat = statistic_and_t_star(s)[0]
        full = pvalue_bounds(cov, stat, 2000, seed=99)
        stopped = pvalue_bounds(cov, stat, 2000, seed=99, stop_at=0.05)
        first_block = pvalue_bounds(cov, stat, 256, seed=99)
        assert stopped == first_block * 256 / 2000
        assert 0.05 <= stopped < full

    def test_count_equal_to_the_level_does_not_reject(self):
        # find a statistic whose full mid-p count is exactly 100 of 2000
        s = case_sample("C8", 100, seed=6)
        cov = build_covariance(build_grid(s, 100), s)
        lo, hi = 0.0, 10.0
        for _ in range(100):
            stat = 0.5 * (lo + hi)
            full = pvalue_bounds(cov, stat, 2000, seed=99)
            if full == 0.05:
                break
            lo, hi = (stat, hi) if full > 0.05 else (lo, stat)
        stopped = pvalue_bounds(cov, stat, 2000, seed=99, stop_at=0.05)
        assert stopped == full == 100 / 2000
        assert not stopped < 0.05

    def test_ties_at_zero_count_one_half_before_the_stop(self):
        # the one live point is N(0, 1) and the maximum is max(Z, 0), so at
        # statistic 0 every Z <= 0 is a tie; the first block of 256 settles it
        cov = unit_variance_cov()
        z = make_rng(5).standard_normal(256)
        count = np.count_nonzero(z > 0) + 0.5 * np.count_nonzero(z <= 0)
        assert count / 2000 >= 0.05
        assert pvalue_bounds(cov, 0.0, 2000, seed=5, stop_at=0.05) == count / 2000

    @pytest.mark.parametrize("stop_at", [0.0, -1.0, float("nan")])
    def test_stop_at_must_be_positive(self, stop_at):
        # any count reaches stop_at <= 0 after the first block, which would
        # return a p1 that rejects where the full test (p1 0.9934) does not
        s = case_sample("C1", 100, seed=3)
        assert gptest.test_st_wj(s, seed=5).p1 == 0.9934
        cov = build_covariance(build_grid(s, 100), s)
        with pytest.raises(ParameterError, match="stop_at must be > 0"):
            pvalue_bounds(cov, statistic_and_t_star(s)[0], 2000, seed=5, stop_at=stop_at)
        with pytest.raises(ParameterError, match="stop_at must be > 0"):
            gptest.test_st_wj(s, seed=5, stop_at=stop_at)


class _RecordingRng:
    """A generator proxy that records the shape of every normal block."""

    def __init__(self, rng, shapes):
        self._rng = rng
        self._shapes = shapes

    def standard_normal(self, shape):
        self._shapes.append(shape)
        return self._rng.standard_normal(shape)


class TestBlockMemoryBound:
    def record_blocks(self, monkeypatch, threads=False):
        """Record every normal block, with one thread or with two, and the
        segments whose generators were made."""
        shapes = []
        self.segments = []

        def recording_rng(seed, jump=0):
            self.segments.append(jump)
            return _RecordingRng(make_rng(seed, jump=jump), shapes)

        monkeypatch.setattr(gptest, "make_rng", recording_rng)
        force_threads(monkeypatch, threads)
        return shapes

    def test_blocks_are_unchanged_up_to_dim_128(self, monkeypatch):
        cov = GpCovariance(cell=np.arange(1, 129), r=np.full(128, 1 / 128), q=np.zeros(128),
                           n_points=129)
        # where the run can stop early, blocks grow from 256 by 4 to the
        # 2048-draw segment, which 64 MiB does not lower at dim 128, and end
        # where a segment ends; this stop_at is never reached
        shapes = self.record_blocks(monkeypatch)
        assert pvalue_bounds(cov, 1.0, 100_000, seed=3, stop_at=0.99) < 0.99
        assert shapes == [(256, 128), (1_024, 128), (768, 128)] + [(2_048, 128)] * 47 + [
            (1_696, 128)]
        assert self.segments == list(range(49))
        # a run that makes every draw takes one block per segment
        shapes = self.record_blocks(monkeypatch)
        pvalue_bounds(cov, 1.0, 100_000, seed=3)
        assert shapes == [(2_048, 128)] * 48 + [(1_696, 128)]
        assert self.segments == list(range(49))
        # two threads draw each segment in one block, in whichever order
        shapes = self.record_blocks(monkeypatch, threads=True)
        pvalue_bounds(cov, 1.0, 100_000, seed=3)
        assert sorted(shapes) == [(1_696, 128)] + [(2_048, 128)] * 48
        assert sorted(self.segments) == list(range(49))

    @pytest.mark.parametrize("case, n, seed, n_sims, count", [
        ("C3", 50, 1, 2000, 782),
        ("C8", 100, 6, 70_000, 487),
        ("C1", 100, 2, 70_000, 69425.5),
    ])
    def test_capped_blocks_keep_p1(self, monkeypatch, case, n, seed, n_sims, count):
        # the pinned counts of TestEarlyStop, drawn in blocks of 100 draws,
        # and of 50 draws a thread where two threads draw
        s = case_sample(case, n, seed)
        cov = build_covariance(build_grid(s, 100), s)
        monkeypatch.setattr(gptest, "_BLOCK_BYTES", 8 * cov.dim * 100)
        shapes = self.record_blocks(monkeypatch)
        assert pvalue_bounds(cov, statistic_and_t_star(s)[0], n_sims, seed=99) == count / n_sims
        assert max(rows for rows, _ in shapes) == 100
        assert sum(rows for rows, _ in shapes) == n_sims
        shapes = self.record_blocks(monkeypatch, threads=True)
        assert pvalue_bounds(cov, statistic_and_t_star(s)[0], n_sims, seed=99) == count / n_sims
        assert max(rows for rows, _ in shapes) == (50 if n_sims > 2048 else 100)
        assert sum(rows for rows, _ in shapes) == n_sims

    def test_a_budget_below_one_draw_still_draws_one(self, monkeypatch):
        s = case_sample("C3", 50, seed=1)
        cov = build_covariance(build_grid(s, 100), s)
        stat = statistic_and_t_star(s)[0]
        full = pvalue_bounds(cov, stat, 300, seed=99)
        monkeypatch.setattr(gptest, "_BLOCK_BYTES", 1)
        shapes = self.record_blocks(monkeypatch)
        assert pvalue_bounds(cov, stat, 300, seed=99) == full
        assert set(shapes) == {(1, cov.dim)}

    @pytest.mark.parametrize("case, n, seed", [("C1", 100, 2), ("C3", 50, 1), ("C8", 100, 6)])
    def test_capped_blocks_keep_early_stop_decisions(self, monkeypatch, case, n, seed):
        s = case_sample(case, n, seed)
        cov = build_covariance(build_grid(s, 100), s)
        stat = statistic_and_t_star(s)[0]
        full = pvalue_bounds(cov, stat, 2000, seed=99)
        monkeypatch.setattr(gptest, "_BLOCK_BYTES", 8 * cov.dim * 64)
        shapes = self.record_blocks(monkeypatch)
        for level in (0.01, 0.05, 0.5):
            stopped = pvalue_bounds(cov, stat, 2000, seed=99, stop_at=level)
            assert stopped <= full
            assert (stopped < level) == (full < level)
        assert max(rows for rows, _ in shapes) == 64


def cov_of(s: PairedSample, k):
    return build_covariance(build_grid(s, k), s)


class _TwoThreadDraws:
    """A patched draw under which both threads draw, each counting its
    blocks, and which raises fail in the worker thread (in_worker) or in
    the calling thread, once the other thread is inside its first block."""

    def __init__(self, fail=None, in_worker=True):
        self.real = gptest._draw
        self.fail = fail
        self.in_worker = in_worker
        self.calls = {}
        self.worker = None
        self.worker_drew = threading.Event()
        self.main_raised = threading.Event()

    def __call__(self, *args, **kwargs):
        me = threading.current_thread()
        self.calls[me.name] = self.calls.get(me.name, 0) + 1
        if me is threading.main_thread():
            assert self.worker_drew.wait(10)
            if self.fail is not None and self.in_worker:
                self.worker.join(10)  # the worker has raised and ended
            elif self.fail is not None:
                self.main_raised.set()
                raise self.fail
        else:
            self.worker = me
            self.worker_drew.set()
            if self.fail is not None and self.in_worker:
                raise self.fail
            if self.fail is not None:
                assert self.main_raised.wait(10)
                time.sleep(0.2)  # the calling thread records its failure meanwhile
        return self.real(*args, **kwargs)


class TestTwoThreads:
    @pytest.mark.parametrize("make, stats", [
        (unit_variance_cov, (0.0, 1.0)),
        (lambda: cov_of(ordinal_sample(), None), (0.0, 0.5)),
        (lambda: cov_of(case_sample("C8", 100, seed=6), 100), (0.5, 1.5)),
        (lambda: cov_of(case_sample("C3", 300, seed=3), 100), (0.5, 1.0)),
        (lambda: GpCovariance(cell=np.arange(1, 130), r=np.full(129, 1 / 129), q=np.zeros(129),
                              n_points=130), (1.0,)),
        (lambda: cov_of(case_sample("C1", 150, seed=5), None), (0.2, 0.8)),
    ], ids=["dim1", "ordinal_k_none", "C8_k100", "C3_k100", "dim129", "C1_k_none"])
    def test_p1_is_the_same_with_and_without_threads(self, monkeypatch, make, stats):
        cov = make()
        threads = threading.active_count()
        for stat in stats:
            force_threads(monkeypatch, False)
            serial = pvalue_bounds(cov, stat, 5_000, seed=7)
            assert 0.0 < serial < 1.0
            assert threading.active_count() == threads
            if serial < 0.9:  # the stop path walks the same segments
                assert pvalue_bounds(cov, stat, 5_000, seed=7, stop_at=0.9) == serial
            force_threads(monkeypatch, True)
            assert pvalue_bounds(cov, stat, 5_000, seed=7) == serial
            # no thread outlives a call that returns
            assert threading.active_count() == threads
            # blocks of at most 300 draws, 150 a thread
            with monkeypatch.context() as capped:
                capped.setattr(gptest, "_BLOCK_BYTES", 8 * cov.dim * 300)
                assert pvalue_bounds(cov, stat, 5_000, seed=7) == serial
                force_threads(capped, False)
                assert pvalue_bounds(cov, stat, 5_000, seed=7) == serial

    def test_both_threads_draw(self, monkeypatch):
        cov = cov_of(case_sample("C3", 300, seed=3), 100)
        force_threads(monkeypatch, False)
        serial = pvalue_bounds(cov, 0.5, 10_000, seed=7)
        force_threads(monkeypatch, True)
        draws = _TwoThreadDraws()
        monkeypatch.setattr(gptest, "_draw", draws)
        assert pvalue_bounds(cov, 0.5, 10_000, seed=7) == serial
        # one block per segment, at least one in each thread
        assert len(draws.calls) == 2 and sum(draws.calls.values()) == 5

    @pytest.mark.parametrize("fail, in_worker", [
        (ValueError("worker"), True),
        (MemoryError(), True),
        (MemoryError(), False),
        (KeyboardInterrupt(), False),
    ], ids=["ValueError_in_worker", "MemoryError_in_worker", "MemoryError_here",
            "KeyboardInterrupt_here"])
    def test_the_first_exception_is_raised_here_and_no_thread_is_left(self, monkeypatch, fail,
                                                                      in_worker):
        cov = cov_of(case_sample("C3", 300, seed=3), 100)
        force_threads(monkeypatch, True)
        draws = _TwoThreadDraws(fail, in_worker)
        monkeypatch.setattr(gptest, "_draw", draws)
        threads = threading.active_count()
        with pytest.raises(type(fail)) as raised:
            pvalue_bounds(cov, 0.5, 20_000, seed=7)
        assert raised.value is fail
        assert threading.active_count() == threads
        # of the ten segments, the failing thread drew one block, and the
        # other stopped after the block it was drawing, if any
        assert max(draws.calls.values()) == 1
        assert sum(draws.calls.values()) <= 2

    def test_ctrl_c_in_join_stops_the_worker(self, monkeypatch):
        cov = cov_of(case_sample("C3", 300, seed=3), 100)
        force_threads(monkeypatch, True)
        real, join = gptest._draw, threading.Thread.join
        worker_drew = threading.Event()

        def slow_in_the_worker(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                assert worker_drew.wait(10)
            else:
                worker_drew.set()
                time.sleep(0.2)  # the calling thread reaches join meanwhile
            return real(*args, **kwargs)

        def interrupted_join(self, timeout=None):
            monkeypatch.setattr(threading.Thread, "join", join)
            raise KeyboardInterrupt

        monkeypatch.setattr(gptest, "_draw", slow_in_the_worker)
        monkeypatch.setattr(threading.Thread, "join", interrupted_join)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            pvalue_bounds(cov, 0.5, 20_000, seed=7)
        assert threading.active_count() == threads

    def test_concurrent_calls_each_draw_every_segment_once(self, monkeypatch):
        # four callers, each with a second thread, on two CPUs or fewer, with
        # a 10 us switch interval: a segment taken twice or skipped moves p1
        cov = cov_of(case_sample("C8", 100, seed=6), 100)
        force_threads(monkeypatch, False)
        expected = [pvalue_bounds(cov, 0.5, 12_000, seed=seed) for seed in range(4)]
        force_threads(monkeypatch, True)
        got = [None] * 4

        def call(i):
            got[i] = pvalue_bounds(cov, 0.5, 12_000, seed=i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == expected

    def test_a_thread_that_cannot_start_leaves_the_draws_here(self, monkeypatch):
        cov = cov_of(case_sample("C8", 100, seed=6), 100)
        force_threads(monkeypatch, False)
        serial = pvalue_bounds(cov, 0.5, 10_000, seed=7)
        force_threads(monkeypatch, True)

        def cannot_start(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", cannot_start)
        assert pvalue_bounds(cov, 0.5, 10_000, seed=7) == serial

    def test_when_a_second_thread_draws(self, monkeypatch):
        # every draw made, two segments or more, 2**18 normals or more, and
        # two usable CPUs
        started = record_thread_starts(monkeypatch)

        def threaded(cov, n_sims, **kwargs):
            before = len(started)
            pvalue_bounds(cov, 0.5, n_sims, seed=7, **kwargs)
            return len(started) - before

        wide = cov_of(case_sample("C3", 300, seed=3), 100)
        assert wide.dim * 4_000 >= 2**18 > wide.dim * 2_048
        narrow = cov_of(ordinal_sample(), None)
        assert narrow.dim * 10_000 < 2**18
        may_use_two_cpus(monkeypatch, True)
        assert threaded(wide, 4_000) == 1
        assert threaded(wide, 4_000, stop_at=1.5) == 1
        assert threaded(wide, 4_000, stop_at=0.99) == 0
        assert threaded(wide, 2_048) == 0
        assert threaded(narrow, 10_000) == 0
        may_use_two_cpus(monkeypatch, False)
        assert threaded(wide, 4_000) == 0

    def test_two_cpus_outside_a_multiprocessing_child(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert gptest._two_cpus()
        with monkeypatch.context() as child:
            child.setitem(sys.modules, "multiprocessing",
                          types.SimpleNamespace(parent_process=lambda: object()))
            assert not gptest._two_cpus()
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert not gptest._two_cpus()


class TestFullTest:
    def test_case2_rejects(self):
        s = case_sample("C2", 500, seed=21)
        res = gptest.test_st_wj(s, 100, 2000, seed=22)
        assert res.reject_at(0.05)

    def test_case1_retains(self):
        s = case_sample("C1", 500, seed=23)
        res = gptest.test_st_wj(s, 100, 2000, seed=24)
        assert not res.reject_at(0.05)

    def test_symmetric_differences_large_p(self):
        half = np.array([0.3, 0.7, 1.1, 2.4, 0.05])
        x = np.concatenate([half, -half])
        s = PairedSample(x, -x)
        res = gptest.test_st_wj(s, 50, 2000, seed=31)
        assert res.statistic == 0.0
        assert res.p1 > 0.3

    def test_determinism(self):
        s = case_sample("C3", 120, seed=40)
        a = gptest.test_st_wj(s, 100, 2000, seed=41)
        b = gptest.test_st_wj(s, 100, 2000, seed=41)
        assert a == b

    def test_result_json_keys(self):
        s = case_sample("C1", 50, seed=1)
        res = gptest.test_st_wj(s, 10, 500, seed=2)
        payload = res.to_json_dict()
        assert list(payload) == [
            "statistic", "t_star", "p1", "p_se", "n", "k", "cells", "n_sims", "seed",
            "reject_at_0_05", "reject_at_0_01",
        ]
        json.dumps(payload)  # serializable

    def test_diagnostics(self):
        s = case_sample("C8", 100, seed=5)
        res = gptest.test_st_wj(s, 100, 2000, seed=6)
        assert res.cells == build_covariance(build_grid(s, 100), s).dim
        assert 0 < res.cells <= 101
        assert res.p_se == pytest.approx(np.sqrt(res.p1 * (1 - res.p1) / 2000), rel=1e-12)
        assert (res.statistic, res.t_star) == statistic_and_t_star(s)
        assert 0.0 <= res.t_star <= np.abs(s.x - s.y).max()

    def test_stop_at_ends_the_simulation_early(self):
        # C1 is ordered, so p1 is near 1 and the first block of 256 settles 0.05
        s = case_sample("C1", 100, seed=2)
        full = gptest.test_st_wj(s, 100, 2000, seed=99)
        stopped = gptest.test_st_wj(s, 100, 2000, seed=99, stop_at=0.05)
        first_block = gptest.test_st_wj(s, 100, 256, seed=99)
        assert stopped.p1 == first_block.p1 * 256 / 2000
        assert 0.05 <= stopped.p1 < full.p1
        assert not stopped.reject_at(0.05) and not full.reject_at(0.05)

    def test_degenerate_sample_raises(self):
        x = np.array([2.0, 2.0, 2.0])
        with pytest.raises(DegenerateSampleError):
            gptest.test_st_wj(PairedSample(x, x.copy()), seed=1)

    def test_conservative_under_null_boundary(self):
        # strongly ordered case: empirical size far below the level
        rejections = 0
        reps = 500
        for r in range(reps):
            s = case_sample("C1", 200, seed=10_000 + r)
            res = gptest.test_st_wj(s, 100, 500, seed=20_000 + r)
            rejections += res.reject_at(0.05)
        assert rejections / reps <= 0.07

    def test_consistency_under_alternative(self):
        rates = []
        for n in (20, 50, 100):
            rejections = 0
            reps = 200
            for r in range(reps):
                s = case_sample("C2", n, seed=30_000 + r)
                res = gptest.test_st_wj(s, 100, 500, seed=40_000 + r)
                rejections += res.reject_at(0.05)
            rates.append(rejections / reps)
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        assert rates[1] >= 0.99


class TestDiscreteSupportVariant:
    def test_grid_from_realized_support(self):
        s = PairedSample(np.array([3.0, 4.0, 2.0]), np.array([1.0, 1.0, 5.0]))
        res = gptest.test_st_wj(s, None, 2000, seed=3)
        # distinct nonnegative realized differences {2, 3} plus 0
        assert res.k == 2

    def test_grid_includes_zero_once(self):
        s = PairedSample(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        res = gptest.test_st_wj(s, None, 2000, seed=3)
        assert res.k == 1  # grid {0, 1}

    def test_constant_sample_degenerate(self):
        x = np.array([1.0, 1.0, 1.0])
        with pytest.raises(DegenerateSampleError):
            gptest.test_st_wj(PairedSample(x, x.copy()), None, seed=1)

    def test_ordinal_data_end_to_end(self):
        rng = np.random.default_rng(61)
        x = rng.integers(0, 6, 80).astype(float)
        y = x + rng.integers(0, 3, 80)
        res = gptest.test_st_wj(PairedSample(x, y.astype(float)), None, 2000, seed=62)
        assert not res.reject_at(0.05)

    @pytest.mark.parametrize("s", [ordinal_sample(), case_sample("C8", 60, seed=4)])
    def test_grid_is_the_support_grid(self, s):
        assert np.array_equal(build_grid(s, None).points, with_support_grid(s)[1].points)
