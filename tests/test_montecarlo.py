import dataclasses
import json

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from pairdom import gptest, montecarlo
from pairdom.distributions import BivariateNormalParams, Pareto, Weibull
from pairdom.empirical import write_json
from pairdom.errors import ParameterError
from pairdom.montecarlo import (
    SCENARIOS,
    ExperimentConfig,
    RejectionReport,
    ScenarioSpec,
    generate_scenario,
    run_rejection_experiment,
    scenario,
)
from pairdom.seeding import derive_seed


class TestScenarioRegistry:
    def test_fixed_parameters(self):
        assert np.array_equal(SCENARIOS["C1"].normal.mu, [2.0, 4.0])
        assert np.array_equal(SCENARIOS["C2"].normal.mu, [3.0, 1.0])
        assert np.array_equal(SCENARIOS["C3"].normal.mu, [2.0, 2.01])
        for case in ("C1", "C2", "C3"):
            assert np.array_equal(SCENARIOS[case].normal.sigma, [[2.0, 1.5], [1.5, 1.5]])
        assert SCENARIOS["C4"].marginal_x == Pareto(2.0, 1.0)
        assert SCENARIOS["C4"].marginal_y == Pareto(1.5, 1.0)
        assert SCENARIOS["C5"].marginal_x == Pareto(5.0, 4.0)
        assert SCENARIOS["C6"].marginal_x == Weibull(6.0, 2.0)
        assert SCENARIOS["C6"].marginal_y == Weibull(1.5, 1.5)
        assert SCENARIOS["C7"].marginal_x == Weibull(0.75, 4.0)
        assert SCENARIOS["C7"].marginal_y == Weibull(0.25, 1.5)
        assert SCENARIOS["C8"].marginal_x == Weibull(0.5, 2.0)
        assert SCENARIOS["C8"].marginal_y == Weibull(0.9, 1.5)
        for case in ("C4", "C5", "C6", "C7", "C8"):
            assert SCENARIOS[case].theta == 0.5

    def test_specs_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SCENARIOS["C1"].n = 5  # type: ignore[misc]

    def test_unknown_case(self):
        with pytest.raises(ParameterError):
            scenario("C9")

    def test_spec_needs_exactly_one_family(self):
        with pytest.raises(ParameterError):
            ScenarioSpec("bad")
        with pytest.raises(ParameterError):
            ScenarioSpec(
                "bad",
                normal=BivariateNormalParams(np.zeros(2), np.eye(2)),
                theta=0.5,
                marginal_x=Pareto(2, 1),
                marginal_y=Pareto(2, 1),
            )


class TestGenerateScenario:
    def test_c1_means(self):
        s = generate_scenario(scenario("C1"), 100_000, seed=7)
        assert abs(s.x.mean() - 2.0) <= 0.05
        assert abs(s.y.mean() - 4.0) <= 0.05

    def test_c4_pareto_mean(self):
        s = generate_scenario(scenario("C4"), 100_000, seed=8)
        assert abs(s.x.mean() - 2.0) <= 0.1  # a*k/(a-1) = 2

    def test_c6_weibull_mean(self):
        s = generate_scenario(scenario("C6"), 100_000, seed=9)
        assert abs(s.x.mean() - 2.0 * gamma_fn(1.0 + 1.0 / 6.0)) <= 0.02

    def test_deterministic(self):
        a = generate_scenario(scenario("C7"), 200, seed=11)
        b = generate_scenario(scenario("C7"), 200, seed=11)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def small_config(case_id: str, n: int, reps: int, tests=("stwj",), seed=505) -> ExperimentConfig:
    return ExperimentConfig(
        scenario=scenario(case_id),
        n=n,
        replications=reps,
        master_seed=seed,
        k=100,
        n_sims=500,
        tests=tests,
    )


class TestRejectionExperiment:
    def test_single_replication_rate_is_binary(self):
        report = run_rejection_experiment(small_config("C2", 30, 1))
        assert report.rate("stwj", 0.05) in (0.0, 1.0)

    def test_c2_power(self):
        report = run_rejection_experiment(small_config("C2", 50, 100))
        assert report.rate("stwj", 0.05) >= 0.98

    def test_c1_size(self):
        report = run_rejection_experiment(small_config("C1", 100, 100))
        assert report.rate("stwj", 0.05) <= 0.01

    def test_monotone_power_in_n(self):
        r20 = run_rejection_experiment(small_config("C2", 20, 100)).rate("stwj", 0.05)
        r50 = run_rejection_experiment(small_config("C2", 50, 100)).rate("stwj", 0.05)
        assert r20 <= r50

    def test_reproducible_reports(self):
        cfg = small_config("C3", 40, 25, tests=("stwj", "t", "wilcoxon"))
        a = run_rejection_experiment(cfg)
        b = run_rejection_experiment(cfg)
        assert a.rates == b.rates
        assert a.failures == b.failures
        assert a.to_csv_text() == b.to_csv_text()
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_t_test_tracks_mean_ordering_in_normal_cases(self):
        # with normally distributed differences the mean comparison and the
        # dominance criterion coincide, so the t test mirrors the verdicts
        ordered = run_rejection_experiment(small_config("C1", 50, 60, tests=("t",)))
        reversed_ = run_rejection_experiment(small_config("C2", 50, 60, tests=("t",)))
        assert ordered.rate("t", 0.05) <= 0.02
        assert reversed_.rate("t", 0.05) >= 0.98

    def test_degenerate_scenario_counts_failures(self):
        spec = ScenarioSpec(
            "DEGEN", normal=BivariateNormalParams(np.array([1.0, 1.0]), np.zeros((2, 2)))
        )
        cfg = ExperimentConfig(
            scenario=spec, n=10, replications=5, master_seed=3,
            n_sims=500, tests=("stwj", "t", "wilcoxon"),
        )
        report = run_rejection_experiment(cfg)
        for test in ("stwj", "t", "wilcoxon"):
            assert report.failures[test] == 5
            assert report.rate(test, 0.05) == 0.0

    def test_csv_schema(self):
        report = run_rejection_experiment(small_config("C1", 20, 3, tests=("stwj", "t")))
        lines = report.to_csv_text().strip().split("\n")
        assert lines[0] == "case,n,test,level,rate,failures"
        assert len(lines) == 1 + 2 * 2  # two tests x two levels
        first = lines[1].split(",")
        assert first[0] == "C1" and first[1] == "20" and first[2] == "stwj"

    def test_write_files(self, tmp_path):
        report = run_rejection_experiment(small_config("C1", 20, 3))
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        report.write_csv(csv_path)
        write_json(report.to_json_dict(), json_path)
        assert csv_path.read_text().startswith("case,n,test,level,rate,failures")
        payload = json.loads(json_path.read_text())
        assert payload["case"] == "C1"
        assert payload["rates"][0]["test"] == "stwj"
        assert list(payload["rates"][0]) == ["test", "level", "rate", "wilson95", "failures"]
        assert "wall_time" not in payload

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            small_config("C1", 1, 10)
        with pytest.raises(ParameterError):
            ExperimentConfig(scenario=scenario("C1"), n=10, replications=0, master_seed=1)
        with pytest.raises(ParameterError):
            ExperimentConfig(
                scenario=scenario("C1"), n=10, replications=1, master_seed=1, tests=("bogus",)
            )
        with pytest.raises(ParameterError):
            ExperimentConfig(
                scenario=scenario("C1"), n=10, replications=1, master_seed=1, levels=(1.5,)
            )


# The stwj cells of the acceptance table (tests/test_acceptance.py).
ACCEPTANCE_CELLS = [("C1", 100), ("C2", 50), ("C3", 50), ("C3", 500), ("C4", 200),
                    ("C5", 50), ("C6", 50), ("C7", 100), ("C8", 100)]


@pytest.mark.parametrize("levels", [(0.05, 0.01), (0.5, 0.2, 0.05)])
@pytest.mark.parametrize("case, n", ACCEPTANCE_CELLS)
def test_stwj_decisions_match_the_full_test(case, n, levels):
    # the harness stops each p-value simulation at max(levels); its
    # decisions must be those of the full run on the same sample and seed
    cfg = ExperimentConfig(
        scenario=scenario(case), n=n, replications=12, master_seed=2718,
        k=100, n_sims=2000, levels=levels,
    )
    rejections = {level: 0 for level in levels}
    for r in range(cfg.replications):
        sample = generate_scenario(cfg.scenario, n, derive_seed(cfg.master_seed, r, 0))
        seed = derive_seed(cfg.master_seed, r, 1)
        full = gptest.test_st_wj(sample, cfg.k, cfg.n_sims, seed=seed)
        stopped = gptest.test_st_wj(sample, cfg.k, cfg.n_sims, seed=seed, stop_at=max(levels))
        expected = [full.reject_at(level) for level in levels]
        assert [stopped.reject_at(level) for level in levels] == expected
        # p1 is exact below stop_at and otherwise lies in [stop_at, full p1]
        if full.p1 < max(levels):
            assert stopped == full
        else:
            assert max(levels) <= stopped.p1 <= full.p1
        for level, rejected in zip(levels, expected):
            rejections[level] += rejected
    report = run_rejection_experiment(cfg)
    for level in levels:
        assert report.rate("stwj", level) == rejections[level] / cfg.replications


# Rejection counts (t@0.05, t@0.01, wilcoxon@0.05, wilcoxon@0.01) of the
# benchmark's baseline cells, 200 replications at master seed 2718, as
# computed by the one-sample tests before the harness ran them by chunk.
BASELINE_COUNTS = [
    (("C1", 10), (0, 0, 0, 0)),
    (("C1", 200), (0, 0, 0, 0)),
    (("C2", 10), (200, 200, 200, 200)),
    (("C2", 200), (200, 200, 200, 200)),
    (("C3", 10), (11, 3, 10, 3)),
    (("C3", 200), (6, 1, 5, 1)),
    (("C4", 10), (1, 0, 1, 1)),
    (("C4", 200), (0, 0, 0, 0)),
    (("C5", 10), (155, 132, 164, 124)),
    (("C5", 200), (182, 169, 200, 200)),
    (("C6", 10), (115, 63, 104, 51)),
    (("C6", 200), (200, 200, 200, 200)),
    (("C7", 10), (16, 3, 29, 8)),
    (("C7", 200), (0, 0, 107, 68)),
    (("C8", 10), (25, 1, 22, 3)),
    (("C8", 200), (200, 200, 161, 108)),
]


@pytest.mark.parametrize("cell, expected", BASELINE_COUNTS)
def test_baseline_rejection_counts_are_pinned(cell, expected):
    case, n = cell
    cfg = ExperimentConfig(
        scenario=scenario(case), n=n, replications=200, master_seed=2718,
        tests=("t", "wilcoxon"),
    )
    report = run_rejection_experiment(cfg)
    counts = tuple(round(report.rate(test, level) * 200) for test in cfg.tests for level in cfg.levels)
    assert counts == expected
    assert report.failures == {"t": 0, "wilcoxon": 0}


def record_chunks(monkeypatch) -> list:
    """Record the shape of every chunk the baselines are run on."""
    shapes = []
    for name in ("paired_t_rows", "wilcoxon_rows"):
        def recording(d, rows_fn=getattr(montecarlo, name)):
            shapes.append(d.shape)
            return rows_fn(d)
        monkeypatch.setattr(montecarlo, name, recording)
    return shapes


class TestChunks:
    CONFIGS = [
        small_config("C3", 40, 7, tests=("stwj", "t", "wilcoxon")),
        small_config("C8", 10, 8, tests=("wilcoxon", "t")),
        ExperimentConfig(
            scenario=ScenarioSpec(
                "DEGEN", normal=BivariateNormalParams(np.array([1.0, 1.0]), np.zeros((2, 2)))
            ),
            n=6, replications=5, master_seed=3, n_sims=500, tests=("t", "wilcoxon", "stwj"),
        ),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.scenario.case_id)
    @pytest.mark.parametrize("rows", [1, 3])
    def test_reports_do_not_depend_on_the_chunk_size(self, monkeypatch, cfg, rows):
        whole = run_rejection_experiment(cfg)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 8 * cfg.n * rows)
        shapes = record_chunks(monkeypatch)
        chunked = run_rejection_experiment(cfg)
        assert set(shapes) <= {(rows, cfg.n), (cfg.replications % rows, cfg.n)}
        assert chunked.to_csv_text() == whole.to_csv_text()
        assert json.dumps(chunked.to_json_dict()) == json.dumps(whole.to_json_dict())

    def test_chunks_hold_the_value_budget(self, monkeypatch):
        shapes = record_chunks(monkeypatch)
        run_rejection_experiment(small_config("C5", 200, 50, tests=("t",)))
        assert shapes == [(20, 200), (20, 200), (10, 200)]  # 32 KiB of float64

    def test_a_budget_below_one_row_still_takes_one(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 1)
        shapes = record_chunks(monkeypatch)
        run_rejection_experiment(small_config("C5", 30, 3, tests=("wilcoxon",)))
        assert shapes == [(1, 30)] * 3

    @pytest.mark.parametrize("tests, calls", [(("t", "wilcoxon"), 4), (("stwj", "t"), 8)])
    def test_the_test_seed_is_derived_only_for_stwj(self, monkeypatch, tests, calls):
        derived = []

        def counting(*parts):
            derived.append(parts)
            return derive_seed(*parts)

        monkeypatch.setattr(montecarlo, "derive_seed", counting)
        run_rejection_experiment(small_config("C2", 20, 4, tests=tests))
        assert len(derived) == calls


def report_with_rate(rate: float, replications: int) -> RejectionReport:
    return RejectionReport(
        case_id="C8", n=100, replications=replications, master_seed=0, k=100,
        n_sims=2000, levels=(0.05,), tests=("stwj",),
        rates={("stwj", 0.05): rate}, failures={"stwj": 0},
    )


class TestWilsonInterval:
    def test_hand_computed(self):
        # 124 of 200: the roots in p of (0.62 - p)^2 = z^2 p (1 - p) / 200
        lo, hi = report_with_rate(0.62, 200).interval("stwj", 0.05)
        assert lo == pytest.approx(0.551067, abs=1e-6)
        assert hi == pytest.approx(0.684410, abs=1e-6)
        z2 = 1.959963984540054**2
        roots = np.roots([1 + z2 / 200, -(2 * 0.62 + z2 / 200), 0.62**2])
        assert sorted(roots) == pytest.approx([lo, hi], abs=1e-12)

    def test_rates_zero_and_one(self):
        z2 = 1.959963984540054**2
        edge = z2 / (200 + z2)
        lo, hi = report_with_rate(0.0, 200).interval("stwj", 0.05)
        assert lo == 0.0 and hi == pytest.approx(edge, abs=1e-12)
        lo, hi = report_with_rate(1.0, 200).interval("stwj", 0.05)
        assert hi == 1.0 and lo == pytest.approx(1.0 - edge, abs=1e-12)

    def test_in_json_not_csv(self):
        report = report_with_rate(0.62, 200)
        entry = report.to_json_dict()["rates"][0]
        assert entry["wilson95"] == list(report.interval("stwj", 0.05))
        assert report.to_csv_text() == "case,n,test,level,rate,failures\nC8,100,stwj,0.05,0.62,0\n"
