import json
import math
import os
import sys
import threading
import types

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import EmpiricalSurvival, dense_covariance, survival_at
from pairdom import gptest
from pairdom.empirical import PairedSample, statistic_and_t_star
from pairdom.errors import CapacityError, DegenerateSampleError, ParameterError
from pairdom.gptest import GpCovariance, Grid, build_covariance, build_grid, pvalue_bounds
from pairdom.montecarlo import generate_scenario, scenario
from pairdom.seeding import derive_seed, make_rng


def case_sample(case_id: str, n: int, seed: int) -> PairedSample:
    return generate_scenario(scenario(case_id), n, seed)


def differences_sample(d) -> PairedSample:
    d = np.asarray(d, dtype=float)
    return PairedSample(d, np.zeros_like(d))


def unit_variance_cov():
    # half d=+1, half d=-1: W(0) ~ N(0, 1) and W(1) = 0 exactly
    return build_covariance(Grid(np.array([0.0, 1.0])), differences_sample(np.tile([1.0, -1.0], 50)))


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


def line_draws(cov: GpCovariance, stat: float, z: np.ndarray, fixed=()) -> np.ndarray:
    """Each draw's conditional probability, from the dense construction: the
    path values W = Z C^T of the cell form, the unit direction u of the
    path value with the largest variance, b = C u, and for each row of z
    P(max_i (W_i - (u.Z) b_i + eta b_i) > stat) over eta ~ N(0, 1), with a
    maximum equal to stat counted one half. The cells in fixed, and the
    floor at 0 past the last cell, do not move along the line."""
    w = cov.q / np.sqrt(cov.r)
    gamma = (1 - np.sqrt(1 - w @ w)) / (w @ w) if w @ w > 0 else 0.5
    a = (np.arange(cov.dim)[None, :] >= np.arange(cov.dim)[:, None]).astype(float)
    big_q = a @ cov.q
    c = a * np.sqrt(cov.r) - gamma * np.outer(big_q, w)  # row i: W_i = c_i . Z
    var = (c * c).sum(axis=1)
    live = var > 1e-12
    u = c[np.argmax(np.where(live, var, -1.0))]
    u = u / np.linalg.norm(u)
    b = c @ u
    paths = z @ c.T
    eta = z @ u
    moves = live & (b > 0)
    moves[list(fixed)] = False
    hi = np.min(np.where(moves, (stat - paths) / np.where(moves, b, 1.0), np.inf), axis=1) + eta
    top = np.max(np.where(live & ~moves, paths, -np.inf), axis=1)
    if cov.cell[-1] < cov.n_points or not live.all():
        top = np.maximum(top, 0.0)
    p = ndtr(-hi)
    return np.where(top > stat, 1.0, np.where(top == stat, 0.5 + 0.5 * p, p))


def antithetic(z: np.ndarray) -> np.ndarray:
    """The draws of the pair construction in draw order: draw 2j from normal
    row j of z and draw 2j + 1 from its negation."""
    return np.stack([z, -z], axis=1).reshape(-1, z.shape[1])


def pair_means(values: np.ndarray) -> np.ndarray:
    """Means of the draw pairs (2j, 2j + 1); an odd last draw is its own mean."""
    means = values[: len(values) // 2 * 2].reshape(-1, 2).mean(axis=1)
    return np.append(means, values[-1:]) if len(values) % 2 else means


def plain_maxima(cov: GpCovariance, n_sims: int, seed: int) -> np.ndarray:
    """Maxima of n_sims null paths drawn from the cell form
    V = sqrt(r) (Z - gamma w w.Z), with 0 joining the maximum where the
    process is 0 past the last cell."""
    w = cov.q / np.sqrt(cov.r)
    gamma = 1.0 / (1.0 + np.sqrt(max(0.0, 1.0 - w @ w)))
    rng = np.random.default_rng(seed)
    out = []
    for start in range(0, n_sims, 20_000):
        z = rng.standard_normal((min(20_000, n_sims - start), cov.dim))
        v = np.sqrt(cov.r) * (z - gamma * np.outer(z @ w, w))
        paths = np.cumsum(v[:, ::-1], axis=1)
        if cov.r.sum() - cov.q.sum() ** 2 < 1e-12:  # W below the smallest |d| is exactly 0
            paths[:, -1] = 0.0
        peak = paths.max(axis=1)
        if cov.cell[-1] < cov.n_points:
            peak = np.maximum(peak, 0.0)
        out.append(peak)
    return np.concatenate(out)


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
        # the documented construction, drawn from the one stream of the seed:
        # normal row j, normals j * dim to (j + 1) * dim - 1 of make_rng(3),
        # gives draw 2j from Z_j and draw 2j + 1 from -Z_j
        s = case_sample("C8", 100, seed=6)
        cov = build_covariance(build_grid(s, 100), s)
        z = make_rng(3).standard_normal((2500, cov.dim))
        for stat in (0.5, 1.0, 1.5):
            expected = line_draws(cov, stat, antithetic(z))
            p1 = pvalue_bounds(cov, stat, 5000, seed=3)
            assert p1 == pytest.approx(expected.mean(), rel=1e-12)
            means = pair_means(expected)
            assert p1.se == pytest.approx(means.std(ddof=1) / np.sqrt(2500), rel=1e-9)

    def test_monotone_in_statistic(self):
        s = case_sample("C8", 80, seed=8)
        cov = build_covariance(build_grid(s, 30), s)
        ps = [pvalue_bounds(cov, stat, 4000, seed=11) for stat in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(x >= y for x, y in zip(ps, ps[1:]))

    def test_n_sims_floor(self):
        with pytest.raises(ParameterError):
            pvalue_bounds(unit_variance_cov(), 0.0, 99, seed=0)


# Mid-p shares of 10**6 plain maxima (plain_maxima, seed 5) above x = 1.0
# and 1.5, and above 0 for the ordinal pair
INDICATOR_REFERENCES = {
    "C1": (lambda: cov_of(case_sample("C1", 100, seed=2)), {1.0: 0.093757, 1.5: 0.006465}),
    "C3": (lambda: cov_of(case_sample("C3", 300, seed=3)), {1.0: 0.274926, 1.5: 0.109883}),
    "C8": (lambda: cov_of(case_sample("C8", 100, seed=6)), {1.0: 0.220895, 1.5: 0.083329}),
    "ordinal_k_none": (lambda: cov_of(ordinal_sample(), None),
                       {0.0: 0.820766, 1.0: 0.122658, 1.5: 0.034842}),
}


def cov_of(s: PairedSample, k=100) -> GpCovariance:
    return build_covariance(build_grid(s, k), s)


class TestLineEstimator:
    @pytest.mark.parametrize("name", sorted(INDICATOR_REFERENCES))
    def test_mean_agrees_with_a_million_indicator_draws(self, name):
        make, references = INDICATOR_REFERENCES[name]
        cov = make()
        for stat, p_ref in references.items():
            p1 = pvalue_bounds(cov, stat, 20_000, seed=7)
            se = math.hypot(p1.se, math.sqrt(p_ref * (1 - p_ref) / 1e6))
            assert abs(p1 - p_ref) <= 4 * se, (stat, float(p1), p_ref)

    def test_variance_ratio_at_p_near_five_percent(self):
        # x is the 0.95 quantile of 4 * 10**5 plain maxima (seed 11); the
        # bound of 10 was fixed before the ratio was measured
        cov = cov_of(case_sample("C8", 100, seed=6))
        p1 = pvalue_bounds(cov, 1.7363, 20_000, seed=7)
        assert 0.04 < p1 < 0.06
        ratio = p1 * (1 - p1) / (20_000 * p1.se**2)
        assert ratio > 10

    def test_ties_at_statistic_zero(self):
        # the live point is N(0, 1) and moves with the line: each draw adds
        # exactly P(W > 0) + 1/2 P(W <= 0) = 3/4
        p1 = pvalue_bounds(unit_variance_cov(), 0.0, 1000, seed=3)
        assert (p1, p1.se) == (0.75, 0.0)
        # every difference of one sign: W below the smallest |d| is 0 and
        # the one live point, N(0, 1/4), gives 3/4 again
        one_sign = build_covariance(Grid(np.array([0.0, 1.5, 2.0])),
                                    differences_sample([-1.0, -2.0]))
        assert pvalue_bounds(one_sign, 0.0, 1000, seed=3) == 0.75
        # ties at a statistic above 0 have probability 0
        assert pvalue_bounds(unit_variance_cov(), 1e-300, 1000, seed=3) == pytest.approx(0.5)

    def test_a_value_that_does_not_move_counts_as_an_indicator(self, monkeypatch):
        cov = cov_of(case_sample("C3", 300, seed=3))
        line = gptest._line(cov)
        k = next(k for k, (i, _, _) in enumerate(line.cells) if i not in (line.jstar, 0))
        i, weights, _ = line.cells[k]
        cells = list(line.cells)
        # (w.Z, path - stat) -> W_i - stat: -shift_i = weights[0] / weights[1]
        cells[k] = (i, np.array([weights[0] / weights[1], 1.0]), False)
        monkeypatch.setattr(gptest, "_line",
                            lambda c: gptest._Line(line.sqrt_r, line.w, cells, line.jstar,
                                                   line.sd, line.floor, True))
        z = make_rng(5).standard_normal((1500, cov.dim))
        for stat in (0.5, 1.0):
            expected = line_draws(cov, stat, antithetic(z), fixed=(i,))
            assert pvalue_bounds(cov, stat, 3000, seed=5) == pytest.approx(expected.mean(),
                                                                            rel=1e-12)

    def test_p1_is_positive_in_the_far_tail(self):
        # x is 1.25 times the largest of 4 * 10**5 plain maxima (4.487), where
        # any count of indicators reads 0
        cov = cov_of(case_sample("C3", 300, seed=3))
        p1 = pvalue_bounds(cov, 5.61, 10_000, seed=7)
        assert 0.0 < p1 < 1e-5
        assert 0.0 < p1.se < p1

    def test_upper_tail_against_math_erfc(self):
        h = np.concatenate([np.linspace(-8.0, 37.0, 180_001), [-1e-300, 0.0, 1e-300],
                            np.arange(0, 37, 1 / 128) + 1 / 256])
        expected = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in h])
        assert np.max(np.abs(gptest._upper_tail(h) - expected) / expected) <= 1e-12
        with np.errstate(all="raise", under="ignore"):
            far = gptest._upper_tail(np.array([-np.inf, -40.0, 38.9, 40.0, 1e300, np.inf]))
        assert far.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def test_default_draws_meet_their_rule_on_the_sample_that_sized_them():
    # the C1 sample whose spread set DEFAULT_N_SIMS: at the 0.95 quantile
    # of its plain maxima, 1280 draws have a standard error of at most
    # 2.18e-3, that of 10**4 indicator draws at p = 0.05
    cov = cov_of(case_sample("C1", 100, seed=2))
    p1 = pvalue_bounds(cov, 1.1346, 20_000, seed=12)
    assert 0.045 < p1 < 0.055
    assert p1.se * math.sqrt(20_000 / gptest.DEFAULT_N_SIMS) <= math.sqrt(0.05 * 0.95 / 1e4)
    assert gptest.DEFAULT_N_SIMS % 256 == 0


# Mid-p counts of maxima above the statistic that indicator counting drew
# at seed 99, and the line estimator's p1, from antithetic pairs, at the
# same seed
PINNED_COUNTS = [
    ("C3", 50, 1, 2000, 782),
    ("C3", 50, 1, 70_000, 28486),
    ("C8", 100, 6, 2000, 14),
    ("C8", 100, 6, 70_000, 487),
    ("C1", 100, 2, 2000, 1984),
    ("C1", 100, 2, 70_000, 69425.5),
]
PINNED_P1 = {
    ("C3", 2000): 0.4024440384730862,
    ("C3", 70_000): 0.4077346028439884,
    ("C8", 2000): 0.006652948219740967,
    ("C8", 70_000): 0.006760669255815174,
    ("C1", 2000): 0.9919437851239205,
    ("C1", 70_000): 0.9915278579626887,
}


def assert_near_the_indicator_count(p1, count, n_sims):
    # both estimate the same p-value; the count's binomial error is the larger
    p = count / n_sims
    assert abs(p1 - p) <= 4 * math.sqrt(p * (1 - p) / n_sims), (float(p1), p)


class TestEarlyStop:
    @pytest.mark.parametrize("case, n, seed, n_sims, count", PINNED_COUNTS)
    def test_without_stop_at_p1_is_pinned(self, case, n, seed, n_sims, count):
        # draw seed 99; the last bits follow the platform's exp and BLAS
        s = case_sample(case, n, seed)
        cov = build_covariance(build_grid(s, 100), s)
        stat = statistic_and_t_star(s)[0]
        p1 = pvalue_bounds(cov, stat, n_sims, seed=99)
        assert p1 == pytest.approx(PINNED_P1[case, n_sims], rel=1e-12)
        assert_near_the_indicator_count(p1, count, n_sims)

    @pytest.mark.parametrize("n_sims", [2000, 70_000])
    def test_a_run_that_never_stops_returns_p1(self, n_sims):
        # a stop_at that no sum reaches makes every draw, in other blocks
        s = case_sample("C3", 50, seed=1)
        cov = build_covariance(build_grid(s, 100), s)
        stat = statistic_and_t_star(s)[0]
        full = pvalue_bounds(cov, stat, n_sims, seed=99)
        assert pvalue_bounds(cov, stat, n_sims, seed=99, stop_at=1.5) == full

    def test_stops_after_the_first_block_that_settles_it(self, monkeypatch):
        # a positive statistic with p1 near 0.8: the first block of 256 draws
        # settles 0.05
        s = case_sample("C3", 50, seed=4)
        cov = build_covariance(build_grid(s, 100), s)
        stat = statistic_and_t_star(s)[0]
        assert stat > 0.0
        full = pvalue_bounds(cov, stat, 2000, seed=99)
        stopped = pvalue_bounds(cov, stat, 2000, seed=99, stop_at=0.05)
        first_block = pvalue_bounds(cov, stat, 256, seed=99)
        assert stopped == first_block * 256 / 2000
        assert 0.05 <= stopped < full
        # at a zero statistic (C1 is ordered) every draw adds at least 1/2, so
        # a stop_at <= 1/2 is settled at 0.5 before any draw
        s = case_sample("C1", 100, seed=2)
        cov = build_covariance(build_grid(s, 100), s)
        assert statistic_and_t_star(s)[0] == 0.0
        full = pvalue_bounds(cov, 0.0, 2000, seed=99)
        shapes = record_blocks(monkeypatch)
        stopped = pvalue_bounds(cov, 0.0, 2000, seed=99, stop_at=0.05)
        assert (stopped, stopped.se, shapes) == (0.5, 0.0, [])
        assert 0.05 <= stopped <= full

    def test_count_equal_to_the_level_does_not_reject(self):
        # a stop_at equal to the full p1 is reached by the last draw only,
        # and a p1 equal to the level does not reject
        s = case_sample("C8", 100, seed=6)
        cov = build_covariance(build_grid(s, 100), s)
        full = pvalue_bounds(cov, 1.0, 2000, seed=99)
        stopped = pvalue_bounds(cov, 1.0, 2000, seed=99, stop_at=full)
        assert stopped == full
        assert not stopped < full

    def test_ties_at_zero_count_one_half_before_the_stop(self, monkeypatch):
        # the one live point is N(0, 1) and the maximum is max(W, 0); given
        # the draw off its line (nothing here) W > 0 has probability 1/2, so
        # each draw adds 1/2 + 1/2 * 1/2 and the first block of 256 settles
        # a stop_at above 1/2
        cov = unit_variance_cov()
        assert 256 * 0.75 / 300 >= 0.6
        assert pvalue_bounds(cov, 0.0, 300, seed=5, stop_at=0.6) == 256 * 0.75 / 300
        # a stop_at <= 1/2 is settled at 0.5, below the full p1, with no draw
        full = pvalue_bounds(cov, 0.0, 2000, seed=5)
        assert full == 0.75
        shapes = record_blocks(monkeypatch)
        stopped = pvalue_bounds(cov, 0.0, 2000, seed=5, stop_at=0.05)
        assert (stopped, stopped.se, shapes) == (0.5, 0.0, [])

    @pytest.mark.parametrize("stop_at", [0.0, -1.0, float("nan")])
    def test_stop_at_must_be_positive(self, stop_at):
        # any sum reaches stop_at <= 0 after the first block, which would
        # return a p1 that rejects where the full test (p1 0.9940) does not
        s = case_sample("C1", 100, seed=3)
        assert gptest.test_st_wj(s, seed=5).p1 == pytest.approx(0.994024860010961, rel=1e-12)
        cov = build_covariance(build_grid(s, 100), s)
        with pytest.raises(ParameterError, match="stop_at must be > 0"):
            pvalue_bounds(cov, statistic_and_t_star(s)[0], 2000, seed=5, stop_at=stop_at)
        with pytest.raises(ParameterError, match="stop_at must be > 0"):
            gptest.test_st_wj(s, seed=5, stop_at=stop_at)


class _RecordingRng:
    """A generator proxy that records the shape of every block of normals."""

    def __init__(self, rng, shapes):
        self._rng = rng
        self._shapes = shapes

    def standard_normal(self, size=None, *, out=None):
        self._shapes.append(size if out is None else out.shape)
        return self._rng.standard_normal(size, out=out)


def record_blocks(monkeypatch):
    """Record every block of normals drawn from the one stream."""
    shapes = []
    monkeypatch.setattr(gptest, "make_rng", lambda seed: _RecordingRng(make_rng(seed), shapes))
    return shapes


class TestBlockMemoryBound:
    def test_blocks_are_unchanged_up_to_dim_128(self, monkeypatch):
        cov = GpCovariance(cell=np.arange(1, 129), r=np.full(128, 1 / 128), q=np.zeros(128),
                           n_points=129)
        # where the run can stop early, blocks grow from 256 by 4 to 2048
        # draws, which 64 MiB does not lower at dim 128; this stop_at is
        # never reached
        shapes = record_blocks(monkeypatch)
        assert pvalue_bounds(cov, 1.0, 100_000, seed=3, stop_at=0.99) < 0.99
        # (a block of B draws takes B / 2 normal rows)
        assert shapes == [(128, 128), (512, 128)] + [(1_024, 128)] * 48 + [(208, 128)]
        # a run that makes every draw takes the largest blocks from the start
        shapes = record_blocks(monkeypatch)
        pvalue_bounds(cov, 1.0, 100_000, seed=3)
        assert shapes == [(1_024, 128)] * 48 + [(848, 128)]

    @pytest.mark.parametrize("case, n, seed, n_sims, count",
                             [PINNED_COUNTS[i] for i in (0, 3, 5)])
    def test_capped_blocks_keep_p1(self, monkeypatch, case, n, seed, n_sims, count):
        # blocks of 100 draws give p1 and its standard error bit for bit
        s = case_sample(case, n, seed)
        cov = build_covariance(build_grid(s, 100), s)
        stat = statistic_and_t_star(s)[0]
        full = pvalue_bounds(cov, stat, n_sims, seed=99)
        monkeypatch.setattr(gptest, "_BLOCK_BYTES", 8 * cov.dim * 100)
        shapes = record_blocks(monkeypatch)
        capped = pvalue_bounds(cov, stat, n_sims, seed=99)
        assert (capped, capped.se) == (full, full.se)
        # 100 draws take 50 normal rows
        assert max(rows for rows, _ in shapes) == 50
        assert sum(rows for rows, _ in shapes) == n_sims // 2
        assert_near_the_indicator_count(capped, count, n_sims)

    def test_a_budget_below_one_draw_still_draws_one(self, monkeypatch):
        s = case_sample("C3", 50, seed=1)
        cov = build_covariance(build_grid(s, 100), s)
        stat = statistic_and_t_star(s)[0]
        full = pvalue_bounds(cov, stat, 300, seed=99)
        monkeypatch.setattr(gptest, "_BLOCK_BYTES", 1)
        shapes = record_blocks(monkeypatch)
        assert pvalue_bounds(cov, stat, 300, seed=99) == full
        assert set(shapes) == {(1, cov.dim)}

    @pytest.mark.parametrize("case, n, seed", [("C1", 100, 2), ("C3", 50, 1), ("C8", 100, 6)])
    def test_capped_blocks_keep_early_stop_decisions(self, monkeypatch, case, n, seed):
        s = case_sample(case, n, seed)
        cov = build_covariance(build_grid(s, 100), s)
        stat = statistic_and_t_star(s)[0]
        full = pvalue_bounds(cov, stat, 2000, seed=99)
        monkeypatch.setattr(gptest, "_BLOCK_BYTES", 8 * cov.dim * 64)
        shapes = record_blocks(monkeypatch)
        # at C1's zero statistic the levels <= 1/2 are settled before any
        # draw, so 0.9 is the level there that draws
        for level in (0.01, 0.05, 0.5, 0.9):
            stopped = pvalue_bounds(cov, stat, 2000, seed=99, stop_at=level)
            assert stopped <= full
            assert (stopped < level) == (full < level)
        assert max(rows for rows, _ in shapes) == 32


# the 0.95 quantile of 4 * 10**5 plain maxima (seed 11) of the C3 sample
# of 300 pairs, seed 3
C3_300_Q95 = 1.8572


class TestAntitheticPairs:
    """Draw 2j comes from normal row j, Z_j, and draw 2j + 1 from -Z_j; p_se
    is the spread of the pair means. Both bounds of the spread tests were
    fixed before they were first run."""

    @pytest.mark.parametrize("n_sims", [1280, 2001])
    def test_a_run_takes_one_normal_row_per_pair(self, monkeypatch, n_sims):
        cov = cov_of(case_sample("C3", 300, seed=3))
        for stop_at in (1.0, 0.99):  # 0.99 is never reached, so every draw is made
            shapes = record_blocks(monkeypatch)
            assert pvalue_bounds(cov, 1.0, n_sims, seed=7, stop_at=stop_at) < stop_at
            assert sum(rows * dim for rows, dim in shapes) == (n_sims + 1) // 2 * cov.dim
        # a run that stops after its first block of 256 draws took 128 rows
        shapes = record_blocks(monkeypatch)
        assert pvalue_bounds(cov, 1.0, n_sims, seed=7, stop_at=0.02) >= 0.02
        assert shapes == [(128, cov.dim)]

    def test_an_odd_run_leaves_the_last_negated_draw_out(self, monkeypatch):
        cov = cov_of(case_sample("C3", 300, seed=3))
        z = make_rng(4).standard_normal((1001, cov.dim))
        for stat in (0.5, 1.5):
            expected = line_draws(cov, stat, antithetic(z)[:2001])
            p1 = pvalue_bounds(cov, stat, 2001, seed=4)
            assert p1 == pytest.approx(expected.mean(), rel=1e-12)
            means = pair_means(expected)
            assert len(means) == 1001
            assert p1.se == pytest.approx(means.std(ddof=1) / np.sqrt(1001), rel=1e-9)
            # blocks of 256, 1024 and 721 draws on the stop path, or of at
            # most 100, give p1 and se bit for bit
            stopped = pvalue_bounds(cov, stat, 2001, seed=4, stop_at=1.5)
            with monkeypatch.context() as capped:
                capped.setattr(gptest, "_BLOCK_BYTES", 8 * cov.dim * 101)
                small = pvalue_bounds(cov, stat, 2001, seed=4)
            assert (stopped, stopped.se) == (small, small.se) == (p1, p1.se)

    def test_p_se_matches_the_spread_of_p1_over_seeds(self):
        cov = cov_of(case_sample("C3", 300, seed=3))
        runs = [pvalue_bounds(cov, C3_300_Q95, 1280, seed=seed) for seed in range(400)]
        p1 = np.array([float(p) for p in runs])
        ratio = np.mean([p.se for p in runs]) / p1.std(ddof=1)
        assert 0.85 <= ratio <= 1.15, ratio

    def test_pairs_cut_the_variance_per_normal_row(self):
        # one normal row gives one value drawn alone, or one pair mean
        cov = cov_of(case_sample("C3", 300, seed=3))
        alone = gptest._draw(make_rng(5).standard_normal((20_000, cov.dim)), C3_300_Q95,
                             gptest._line(cov))
        pairs = pvalue_bounds(cov, C3_300_Q95, 40_000, seed=6)
        assert 0.04 < pairs < 0.06
        ratio = alone.var(ddof=1) / (pairs.se**2 * 20_000)
        assert ratio >= 1.5, ratio


def tail_bounds(s: PairedSample, k=100) -> tuple[float, float]:
    """The union bound sum_i Phi(-stat / sd_i) and the largest one-point
    tail max_i Phi(-stat / sd_i) over the path values W_i just below each
    cell, with sd_i > 0 from the closed-form covariance at grid point
    cell_i - 1."""
    g = build_grid(s, k)
    stat = statistic_and_t_star(s)[0]
    var = np.diag(closed_form_covariance(g, s))[build_covariance(g, s).cell - 1]
    tails = ndtr(-stat / np.sqrt(var[var > 1e-12]))
    return float(tails.sum()), float(tails.max())


def harness_replication(case: str, n: int, r: int, master_seed=2718):
    """Replication r's sample and the seed of its test, as the harness
    draws them."""
    return (generate_scenario(scenario(case), n, derive_seed(master_seed, r, 0)),
            derive_seed(master_seed, r, 1))


class TestSettle:
    """With lowest_level, pvalue_bounds may settle a decision before any
    draw. Every bound here was fixed before the tests were first run."""

    @pytest.mark.parametrize("case, n", [("C6", 50), ("C7", 100), ("C8", 100)])
    def test_the_tail_bounds_enclose_p(self, case, n):
        # B >= p >= l, checked against 10**5 draws on the samples of seeds
        # 0-3 whose B lies in [1e-3, 0.5]
        checked = 0
        for seed in range(4):
            s = case_sample(case, n, seed)
            union, one_point = tail_bounds(s)
            if not 1e-3 <= union <= 0.5:
                continue
            p1 = pvalue_bounds(cov_of(s), statistic_and_t_star(s)[0], 100_000, seed=7)
            assert union >= p1 - 4 * p1.se, (seed, union, float(p1), p1.se)
            assert one_point <= p1 + 4 * p1.se, (seed, one_point, float(p1), p1.se)
            checked += 1
        assert checked

    def test_a_settled_run_returns_its_bound_with_no_standard_error(self):
        # a C5 replication rejects by the union bound, a C3 one is kept by
        # the one-point tail
        for case, n, r, pick in [("C5", 50, 0, 0), ("C3", 500, 0, 1)]:
            s, seed = harness_replication(case, n, r)
            res = gptest.test_st_wj(s, seed=seed, n_sims=2000, stop_at=0.05, lowest_level=0.01)
            assert res.p_se == 0.0
            assert res.p1 == pytest.approx(tail_bounds(s)[pick], rel=1e-9)
            assert res.reject_at(0.01) == (pick == 0)

    def test_settled_replications_draw_no_normals(self, monkeypatch):
        for case, n in [("C5", 50), ("C1", 100)]:
            s, seed = harness_replication(case, n, 0)
            shapes = record_blocks(monkeypatch)
            gptest.test_st_wj(s, seed=seed, n_sims=2000, stop_at=0.05, lowest_level=0.01)
            assert shapes == []

    def test_a_sample_near_the_level_draws_as_before(self, monkeypatch):
        # p1 near 0.007: neither bound settles 0.01, so the draws, p1 and
        # se are those of the stop path alone
        s = case_sample("C8", 100, seed=6)
        cov, stat = cov_of(s), statistic_and_t_star(s)[0]
        shapes = record_blocks(monkeypatch)
        plain = pvalue_bounds(cov, stat, 2000, seed=99, stop_at=0.05)
        plain_shapes = list(shapes)
        shapes = record_blocks(monkeypatch)
        settled = pvalue_bounds(cov, stat, 2000, seed=99, stop_at=0.05, lowest_level=0.01)
        assert shapes == plain_shapes and sum(rows for rows, _ in shapes) == 1000
        assert (settled, settled.se) == (plain, plain.se)
        assert 0.005 < settled < 0.01

    @pytest.mark.parametrize("lowest_level", [0.0, -0.01, 0.06, float("nan")])
    def test_lowest_level_must_lie_in_0_to_stop_at(self, lowest_level):
        cov = cov_of(case_sample("C3", 50, seed=1))
        with pytest.raises(ParameterError, match="lowest_level must lie in"):
            pvalue_bounds(cov, 1.0, 2000, seed=5, stop_at=0.05, lowest_level=lowest_level)


def record_thread_starts(monkeypatch):
    started = []
    start = threading.Thread.start

    def recording_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def on_a_thread(f, *args, **kwargs):
    out = []
    thread = threading.Thread(target=lambda: out.append(f(*args, **kwargs)))
    thread.start()
    thread.join(60)
    assert not thread.is_alive()
    return out[0]


class TestTwoThreads:
    """pvalue_bounds draws on the thread that calls it and starts none.

    Its p1 does not depend on the thread, on the CPUs the process may use
    (_two_cpus, which the harness helper reads) or on the blocks; calls on
    several threads at once do not disturb one another; and an exception
    in a draw reaches the caller at once."""

    @pytest.mark.parametrize("make, stats", [
        (unit_variance_cov, (0.0, 1.0)),
        (lambda: cov_of(ordinal_sample(), None), (0.0, 0.5)),
        (lambda: cov_of(case_sample("C8", 100, seed=6)), (0.5, 1.5)),
        (lambda: cov_of(case_sample("C3", 300, seed=3)), (0.5, 1.0)),
        (lambda: GpCovariance(cell=np.arange(1, 130), r=np.full(129, 1 / 129), q=np.zeros(129),
                              n_points=130), (1.0,)),
        (lambda: cov_of(case_sample("C1", 150, seed=5), None), (0.2, 0.8)),
    ], ids=["dim1", "ordinal_k_none", "C8_k100", "C3_k100", "dim129", "C1_k_none"])
    def test_p1_is_the_same_with_and_without_threads(self, monkeypatch, make, stats):
        cov = make()
        started = record_thread_starts(monkeypatch)
        for stat in stats:
            full = pvalue_bounds(cov, stat, 5_000, seed=7)
            assert 0.0 < full < 1.0
            if full < 0.9:  # the stop path draws blocks of 256, 1024 and 2048
                assert pvalue_bounds(cov, stat, 5_000, seed=7, stop_at=0.9) == full
            with monkeypatch.context() as capped:  # blocks of at most 300 draws
                capped.setattr(gptest, "_BLOCK_BYTES", 8 * cov.dim * 300)
                p1 = pvalue_bounds(cov, stat, 5_000, seed=7)
            assert (p1, p1.se) == (full, full.se)
            assert started == []
            for two_cpus in (True, False):
                monkeypatch.setattr(gptest, "_two_cpus", lambda two_cpus=two_cpus: two_cpus)
                p1 = on_a_thread(pvalue_bounds, cov, stat, 5_000, seed=7)
                assert (p1, p1.se) == (full, full.se)
            assert len(started) == 2  # the threads of on_a_thread only
            started.clear()

    @pytest.mark.parametrize("fail", [ValueError("draw"), MemoryError(), KeyboardInterrupt()],
                             ids=["ValueError", "MemoryError", "KeyboardInterrupt"])
    def test_the_first_exception_is_raised_here_and_no_thread_is_left(self, monkeypatch, fail):
        cov = cov_of(case_sample("C3", 300, seed=3))
        calls = []

        def failing_draw(*args):
            calls.append(args)
            raise fail

        monkeypatch.setattr(gptest, "_draw", failing_draw)
        started = record_thread_starts(monkeypatch)
        threads = threading.active_count()
        with pytest.raises(type(fail)) as raised:
            pvalue_bounds(cov, 0.5, 20_000, seed=7)
        assert raised.value is fail
        # the first of ten blocks raised, and no block was drawn after it
        assert len(calls) == 1
        assert started == [] and threading.active_count() == threads

    def test_concurrent_calls_each_draw_every_segment_once(self):
        # four callers on two CPUs or fewer, with a 10 us switch interval:
        # each draws its own stream, every block of it once, in order; a
        # block taken twice, skipped or taken from another call moves p1
        cov = cov_of(case_sample("C8", 100, seed=6))
        expected = [pvalue_bounds(cov, 0.5, 12_000, seed=seed) for seed in range(4)]
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
        assert [(p.se, float(p)) for p in got] == [(p.se, float(p)) for p in expected]

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
        # values in [0, 1] vary less than indicators with the same mean
        assert 0.0 < res.p_se <= np.sqrt(res.p1 * (1 - res.p1) / 1999)
        assert (res.statistic, res.t_star) == statistic_and_t_star(s)
        assert 0.0 <= res.t_star <= np.abs(s.x - s.y).max()

    def test_p_se_is_the_simulations_standard_error(self):
        s = case_sample("C3", 120, seed=40)
        res = gptest.test_st_wj(s, 100, 2000, seed=41)
        p1 = pvalue_bounds(cov_of(s), res.statistic, 2000, seed=41)
        assert (res.p1, res.p_se) == (p1, p1.se)
        assert type(res.p1) is float

    def test_stop_at_ends_the_simulation_early(self):
        # a positive statistic with p1 near 0.8: the first block of 256
        # settles 0.05
        s = case_sample("C3", 50, seed=4)
        full = gptest.test_st_wj(s, 100, 2000, seed=99)
        stopped = gptest.test_st_wj(s, 100, 2000, seed=99, stop_at=0.05)
        first_block = gptest.test_st_wj(s, 100, 256, seed=99)
        assert stopped.statistic > 0.0
        assert stopped.p1 == first_block.p1 * 256 / 2000
        assert 0.05 <= stopped.p1 < full.p1
        assert not stopped.reject_at(0.05) and not full.reject_at(0.05)
        # C1 is ordered: at its zero statistic 0.05 is settled at 0.5, no draw
        s = case_sample("C1", 100, seed=2)
        full = gptest.test_st_wj(s, 100, 2000, seed=99)
        stopped = gptest.test_st_wj(s, 100, 2000, seed=99, stop_at=0.05)
        assert (stopped.statistic, stopped.p1, stopped.p_se) == (0.0, 0.5, 0.0)
        assert stopped.p1 <= full.p1
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
