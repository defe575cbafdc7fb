"""Cross-module property tests driven by hypothesis."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import stwj_holds_dense_scan
from pairdom import gptest
from pairdom.distributions import Normal, Pareto, Weibull, quantile
from pairdom.empirical import PairedSample, statistic_stwj
from pairdom.gptest import build_covariance, build_grid, pvalue_bounds
from pairdom.montecarlo import generate_scenario, scenario
from pairdom.oracle import DiscreteBivariate, check_precedence, check_st_wj_discrete

small_coord = st.integers(-3, 3).map(float)
atom = st.tuples(small_coord, small_coord, st.integers(1, 5))
atom_lists = st.lists(atom, min_size=1, max_size=8)


def law_from_atoms(atoms) -> DiscreteBivariate:
    arr = np.asarray(atoms, dtype=float)
    w = arr[:, 2]
    return DiscreteBivariate(arr[:, 0], arr[:, 1], w / w.sum())


@given(atom_lists)
@settings(max_examples=150, deadline=None)
def test_checker_matches_dense_scan(atoms):
    law = law_from_atoms(atoms)
    assert check_st_wj_discrete(law).holds == stwj_holds_dense_scan(law, fill=801)


@given(atom_lists)
@settings(max_examples=150, deadline=None)
def test_order_implies_means_and_precedence(atoms):
    law = law_from_atoms(atoms)
    if check_st_wj_discrete(law).holds:
        assert float(law.p @ law.x) <= float(law.p @ law.y) + 1e-9
        p_xy, p_yx = check_precedence(law)
        assert p_xy <= p_yx + 1e-12


@given(atom_lists)
@settings(max_examples=100, deadline=None)
def test_at_most_one_strict_direction(atoms):
    # both directions holding means the difference laws coincide; then the
    # swap also trivially holds, so "forward xor reverse fails" is the rule
    # for asymmetric laws
    law = law_from_atoms(atoms)
    forward = check_st_wj_discrete(law).holds
    backward = check_st_wj_discrete(law.swap()).holds
    if forward and backward:
        def collapsed(values):
            vals, inverse = np.unique(values, return_inverse=True)
            return vals, np.bincount(inverse, weights=law.p)

        vx, px = collapsed(law.x - law.y)
        vy, py = collapsed(law.y - law.x)
        assert np.array_equal(vx, vy)
        assert np.allclose(px, py, atol=1e-12)


@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=20),
    st.floats(0.1, 3.0),
)
@settings(max_examples=100, deadline=None)
def test_statistic_scale_invariance(xs, scale):
    # common positive scaling moves the candidate set but not the survival
    # gap values, so the statistic is unchanged
    x = np.asarray(xs)
    y = np.sin(x) * 3.0
    base = statistic_stwj(PairedSample(x, y))
    scaled = statistic_stwj(PairedSample(scale * x, scale * y))
    assert scaled == pytest.approx(base, abs=1e-9)


@given(st.floats(0.001, 0.999))
@settings(max_examples=300, deadline=None)
def test_quantile_strictly_inside_support(p):
    assert quantile(Pareto(2.0, 1.0), p) >= 1.0
    assert quantile(Weibull(0.5, 2.0), p) >= 0.0
    assert np.isfinite(quantile(Normal(0.0, 1.0), p))


@given(st.floats(0.01, 0.98))
@settings(max_examples=60, deadline=None)
def test_quantile_monotone(p):
    for dist in (Pareto(1.5, 1.0), Weibull(0.9, 1.5), Normal(-1.0, 2.0)):
        assert quantile(dist, p) <= quantile(dist, p + 0.01) + 1e-12


def test_pvalue_chunking_is_stream_invariant(monkeypatch):
    # exercises the block boundary: 70000 draws > one 65536-draw block
    s = generate_scenario(scenario("C3"), 50, 1)
    cov = build_covariance(build_grid(s, 6), s)
    small = pvalue_bounds(cov, 1.2, 65_536, seed=12345)
    crossing = pvalue_bounds(cov, 1.2, 70_000, seed=12345)
    again = pvalue_bounds(cov, 1.2, 70_000, seed=12345)
    assert crossing == again
    assert small == pytest.approx(crossing, abs=0.01)
    monkeypatch.setattr(gptest, "_SIM_CHUNK", 4_096)
    assert pvalue_bounds(cov, 1.2, 70_000, seed=12345) == crossing


@given(
    st.lists(st.integers(-50, 50).map(lambda v: v / 10), min_size=2, max_size=40),
    st.integers(1, 30),
    st.floats(0, 3),
    st.integers(100, 3000),
    st.floats(0.001, 0.999),
    st.integers(0, 2**31),
)
@settings(max_examples=100, deadline=None)
def test_early_stop_is_a_lower_bound_that_keeps_the_decision(d, k, stat, n_sims, level, seed):
    d = np.asarray(d)
    assume(np.abs(d).max() > 0.0)
    s = PairedSample(d, np.zeros_like(d))
    cov = build_covariance(build_grid(s, k), s)
    full = pvalue_bounds(cov, stat, n_sims, seed)
    stopped = pvalue_bounds(cov, stat, n_sims, seed, stop_at=level)
    assert stopped <= full
    assert stopped == full or stopped >= level
    assert (stopped < level) == (full < level)
