"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line before
asserting, so `pytest -s tests/test_acceptance.py` yields a criterion
checklist. Monte Carlo criteria run 200 replications at the documented
master seed; the stated tolerances already absorb that scale.
"""

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import random_discrete_bivariate, stwj_holds_dense_scan
from pairdom import gptest
from pairdom.distributions import BivariateNormalParams
from pairdom.finance import (
    align,
    analyze_pair,
    fixture_path,
    read_price_csv,
    weekly_returns,
)
from pairdom.empirical import PairedSample, write_json
from pairdom.gptest import Grid, build_covariance, pvalue_bounds
from pairdom.montecarlo import (
    ExperimentConfig,
    generate_scenario,
    run_rejection_experiment,
    scenario,
)
from pairdom.oracle import (
    DiscreteBivariate,
    MarginalOrder,
    analytic_st_wj_bivariate_normal,
    check_precedence,
    check_st_marginals_discrete,
    check_st_wj_discrete,
    discretize_bivariate_normal,
)

MASTER_SEED = 2718
REPLICATIONS = 200
GRID_POINTS = 100
GP_SIMS = 2000

TABLE_CONFIGS = {
    "C1_n100_stwj": ("C1", 100, ("stwj",)),
    "C2_n50_stwj": ("C2", 50, ("stwj",)),
    "C3_n50_stwj": ("C3", 50, ("stwj",)),
    "C3_n500_stwj": ("C3", 500, ("stwj",)),
    "C4_n200_stwj": ("C4", 200, ("stwj",)),
    "C5_n50_stwj": ("C5", 50, ("stwj",)),
    "C6_n50_stwj": ("C6", 50, ("stwj",)),
    "C7_n100_stwj": ("C7", 100, ("stwj",)),
    "C7_n200_t": ("C7", 200, ("t",)),
    "C8_n100_stwj": ("C8", 100, ("stwj",)),
}


def experiment_config(name: str) -> ExperimentConfig:
    case, n, tests = TABLE_CONFIGS[name]
    return ExperimentConfig(
        scenario=scenario(case),
        n=n,
        replications=REPLICATIONS,
        master_seed=MASTER_SEED,
        k=GRID_POINTS,
        n_sims=GP_SIMS,
        tests=tests,
    )


@pytest.fixture(scope="session")
def table_reports():
    return {name: run_rejection_experiment(experiment_config(name)) for name in TABLE_CONFIGS}


@pytest.fixture(scope="session")
def oracle_instances():
    rng = np.random.default_rng(555)
    return [random_discrete_bivariate(rng) for _ in range(100)]


def report_line(num: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {status}  {description}  ({detail})")


def test_criterion_01_case1_size(table_reports):
    rate = table_reports["C1_n100_stwj"].rate("stwj", 0.05)
    ok = rate <= 0.01
    report_line(1, "C1 n=100 rejection rate <= 0.01", ok, f"rate={rate}")
    assert ok


def test_criterion_02_case2_power(table_reports):
    rate = table_reports["C2_n50_stwj"].rate("stwj", 0.05)
    ok = rate >= 0.99
    report_line(2, "C2 n=50 rejection rate >= 0.99", ok, f"rate={rate}")
    assert ok


def test_criterion_03_case4_size(table_reports):
    rate = table_reports["C4_n200_stwj"].rate("stwj", 0.05)
    ok = rate <= 0.02
    report_line(3, "C4 n=200 rejection rate <= 0.02", ok, f"rate={rate}")
    assert ok


def test_criterion_04_case5_power(table_reports):
    rate = table_reports["C5_n50_stwj"].rate("stwj", 0.05)
    ok = rate >= 0.98
    report_line(4, "C5 n=50 rejection rate >= 0.98", ok, f"rate={rate}")
    assert ok


def test_criterion_05_case6_power(table_reports):
    rate = table_reports["C6_n50_stwj"].rate("stwj", 0.05)
    ok = rate >= 0.98
    report_line(5, "C6 n=50 rejection rate >= 0.98", ok, f"rate={rate}")
    assert ok


def test_criterion_06_case7_power_and_t_size(table_reports):
    rate = table_reports["C7_n100_stwj"].rate("stwj", 0.05)
    t_rate = table_reports["C7_n200_t"].rate("t", 0.05)
    ok = rate >= 0.97 and t_rate <= 0.01
    report_line(6, "C7 n=100 rate >= 0.97 with t-test n=200 rate <= 0.01", ok,
                f"rate={rate} t_rate={t_rate}")
    assert ok


def test_criterion_07_case8_power(table_reports):
    rate = table_reports["C8_n100_stwj"].rate("stwj", 0.05)
    ok = rate >= 0.97
    report_line(7, "C8 n=100 rejection rate >= 0.97", ok, f"rate={rate}")
    assert ok


def test_criterion_08_case3_window_and_trend(table_reports):
    rate_500 = table_reports["C3_n500_stwj"].rate("stwj", 0.05)
    rate_50 = table_reports["C3_n50_stwj"].rate("stwj", 0.05)
    ok = 0.02 <= rate_500 <= 0.18 and rate_500 < rate_50
    report_line(8, "C3 n=500 rate in [0.02, 0.18] and below the n=50 rate", ok,
                f"rate500={rate_500} rate50={rate_50}")
    assert ok


def test_criterion_09_oracle_equivalence(oracle_instances):
    disagreements = sum(
        1
        for law in oracle_instances
        if check_st_wj_discrete(law).holds != stwj_holds_dense_scan(law)
    )
    ok = disagreements == 0
    report_line(9, "exact checker agrees with the dense-grid scan on 100 laws", ok,
                f"disagreements={disagreements}")
    assert ok


def test_criterion_10_implication_chain(oracle_instances):
    violations = 0
    ordered = 0
    for law in oracle_instances:
        if not check_st_wj_discrete(law).holds:
            continue
        ordered += 1
        mean_x = float(law.p @ law.x)
        mean_y = float(law.p @ law.y)
        p_xy, p_yx = check_precedence(law)
        if mean_x > mean_y + 1e-9 or p_xy > p_yx + 1e-12:
            violations += 1
    ok = violations == 0 and ordered > 0
    report_line(10, "ordered laws have ordered means and precedence", ok,
                f"ordered={ordered} violations={violations}")
    assert ok


def test_criterion_11_normal_analytic_criterion():
    rng = np.random.default_rng(314)
    agreements = 0
    for _ in range(20):
        mu1 = rng.uniform(-1.0, 1.0)
        gap = rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 1.0)
        a = rng.uniform(0.6, 1.4)
        b = rng.uniform(0.6, 1.4)
        rho = rng.uniform(-0.7, 0.7)
        sigma = np.array([[a * a, rho * a * b], [rho * a * b, b * b]])
        params = BivariateNormalParams(np.array([mu1, mu1 + gap]), sigma)
        law = discretize_bivariate_normal(params, grid_size=200)
        if check_st_wj_discrete(law, tol=1e-9).holds == analytic_st_wj_bivariate_normal(params):
            agreements += 1
    cx = BivariateNormalParams(np.array([0.0, 1.0]), np.array([[4.0, 0.5], [0.5, 1.0]]))
    cx_law = discretize_bivariate_normal(cx, grid_size=200)
    cx_ok = (
        analytic_st_wj_bivariate_normal(cx)
        and check_st_wj_discrete(cx_law, tol=1e-9).holds
        and check_st_marginals_discrete(cx_law, tol=1e-9) == MarginalOrder.INCOMPARABLE
    )
    ok = agreements == 20 and cx_ok
    report_line(11, "analytic normal criterion matches the discretized oracle", ok,
                f"agreements={agreements}/20 counterexample_ok={cx_ok}")
    assert ok


def test_criterion_12_covariance_formula():
    n = 100_000
    s_a = generate_scenario(scenario("C1"), n, seed=MASTER_SEED + 1)
    s_b = generate_scenario(scenario("C1"), n, seed=MASTER_SEED + 2)
    grid = gptest.Grid(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    built = gptest.build_covariance(grid, s_a).matrix
    d = s_b.x - s_b.y
    l_t = (d[:, None] > grid.points[None, :]).astype(float) - (
        -d[:, None] > grid.points[None, :]
    ).astype(float)
    centered = l_t - l_t.mean(axis=0)
    empirical = centered.T @ centered / n
    worst = float(np.abs(built - empirical).max())
    ok = worst <= 0.02
    report_line(12, "covariance formula matches Monte Carlo covariances of l_t", ok,
                f"max_abs_diff={worst:.4f}")
    assert ok


def test_criterion_13_gaussian_bound_calibration():
    # half d=+1, half d=-1 on the grid {0, 1}: a unit-variance point at t=0
    d = np.tile([1.0, -1.0], 50)
    cov = build_covariance(Grid(np.array([0.0, 1.0])), PairedSample(d, np.zeros_like(d)))
    p1 = pvalue_bounds(cov, 1.645, 1_000_000, seed=MASTER_SEED)
    expected = float(1.0 - ndtr(1.645))
    ok = abs(p1 - 0.05) <= 0.002
    report_line(13, "unit-variance bound at 1.645 gives p1 within 0.002 of 0.05", ok,
                f"p1={p1:.5f} normal_tail={expected:.5f}")
    assert ok


def test_criterion_14_portfolio_closure():
    rng = np.random.default_rng(777)
    violations = 0
    for _ in range(50):
        n = int(rng.integers(5, 50))
        x = rng.normal(0.0, 1.0, n)
        y = x + rng.uniform(0.0, 2.0, n)
        z = rng.normal(0.2, 1.5, n)
        p = np.full(n, 1.0 / n)
        assert check_st_wj_discrete(DiscreteBivariate(x, y, p)).holds
        alpha = float(rng.uniform(0.0, 0.99))
        p1 = (1 - alpha) * x + alpha * z
        p2 = (1 - alpha) * y + alpha * z
        if not check_st_wj_discrete(DiscreteBivariate(p1, p2, p)).holds:
            violations += 1
        a1, a2 = sorted(rng.uniform(0.0, 1.0, 2))
        w1 = (1 - a1) * x + a1 * y
        w2 = (1 - a2) * x + a2 * y
        if not check_st_wj_discrete(DiscreteBivariate(w1, w2, p)).holds:
            violations += 1
    ok = violations == 0
    report_line(14, "portfolio composition preserves the order on empirical atoms", ok,
                f"violations={violations}")
    assert ok


def test_criterion_15_byte_identical_artifacts(table_reports, tmp_path):
    mismatches = []
    for name in TABLE_CONFIGS:
        rerun = run_rejection_experiment(experiment_config(name))
        first_csv = table_reports[name].to_csv_text().encode()
        first_json_path = tmp_path / f"{name}_a.json"
        rerun_json_path = tmp_path / f"{name}_b.json"
        write_json(table_reports[name].to_json_dict(), first_json_path)
        write_json(rerun.to_json_dict(), rerun_json_path)
        if rerun.to_csv_text().encode() != first_csv:
            mismatches.append(f"{name}:csv")
        if first_json_path.read_bytes() != rerun_json_path.read_bytes():
            mismatches.append(f"{name}:json")
    # the CLI regenerates the same artifact from the same flags
    from pairdom.cli import main

    case, n, tests = TABLE_CONFIGS["C2_n50_stwj"]
    cli_csv = tmp_path / "cli.csv"
    code = main([
        "mc", "--case", case, "--n", str(n),
        "--replications", str(REPLICATIONS), "--seed", str(MASTER_SEED),
        "--k", str(GRID_POINTS), "--n-sims", str(GP_SIMS),
        "--tests", ",".join(tests), "--output-csv", str(cli_csv),
    ])
    if code != 0 or cli_csv.read_text() != table_reports["C2_n50_stwj"].to_csv_text():
        mismatches.append("cli:csv")
    # the fixture pipeline report is reproducible too
    rx = weekly_returns(read_price_csv(fixture_path("asset_x.csv")))
    ry = weekly_returns(read_price_csv(fixture_path("asset_y.csv")))
    pair = align(rx, ry)
    a_path = tmp_path / "analysis_a.json"
    b_path = tmp_path / "analysis_b.json"
    write_json(analyze_pair(pair, GRID_POINTS, GP_SIMS, seed=MASTER_SEED).to_json_dict(), a_path)
    write_json(analyze_pair(pair, GRID_POINTS, GP_SIMS, seed=MASTER_SEED).to_json_dict(), b_path)
    if a_path.read_bytes() != b_path.read_bytes():
        mismatches.append("analysis:json")
    ok = not mismatches
    report_line(15, "repeated runs produce byte-identical report files", ok,
                f"mismatches={mismatches or 'none'}")
    assert ok
