import dataclasses
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from conftest import may_use_two_cpus, record_thread_starts, run_fresh

from pairdom import distributions, gptest, montecarlo
from pairdom.distributions import (
    BivariateNormalParams,
    Pareto,
    Weibull,
    sample_bivariate_normal_rows,
    sample_clayton_rows,
)
from pairdom.empirical import write_json
from pairdom.errors import CapacityError, ParameterError
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

# SHA-256 of the x then y bytes of generate_scenario(scenario(case), 50,
# seed=7), captured before the samplers drew by rows: a shift in any
# scenario's stream fails here even where the rejection counts hold.
SCENARIO_SHA256 = {
    "C1": "c90d94ae5e98ff0852fc8bc7eab4c05edac3dcacf315295f436e3bfb72f5abdb",
    "C2": "179075465f605bf753aacbbadc75ed00ec433a321d019906ec03f7e40ce3a556",
    "C3": "3e45801036c80e18a8c1785bfb9a68fd6f157a2036e24d96e4c40f34c6d1331d",
    "C4": "ba6011d812f6ea0badc51c5e9824a6a9392e28ed1a4d546b51ffbcbd4c4dc7eb",
    "C5": "77bcdc89606cf6201893f14000e9068ba4eba70a25fbaa00548872f1a0af4d43",
    "C6": "9ccd881315f10f618e81d7fc091355341c61aae9319b3f9d93948f924bcbface",
    "C7": "6c4e0a9d2f846c7e19a1f41e6fd320de091c6c6f5ddc46a2f41ac3085f06f117",
    "C8": "da1169d89b729482a683bab1f3ca16f7280ee7e153fc0d0ffdd0553afc9afaef",
}


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

    def test_cap_is_64_mib_per_coordinate(self):
        assert distributions.MAX_VALUES * 8 == 64 << 20

    @pytest.mark.parametrize("case, sampler", [("C1", "sample_bivariate_normal_rows"),
                                               ("C5", "sample_clayton_rows")])
    def test_n_beyond_the_cap_raises_before_drawing(self, monkeypatch, case, sampler):
        # a small cap stands in for 2**23, so no large sample is ever drawn
        monkeypatch.setattr(distributions, "MAX_VALUES", 40)
        assert generate_scenario(scenario(case), 40, seed=1).n == 40
        assert ExperimentConfig(scenario(case), n=40, replications=1, master_seed=1).n == 40
        monkeypatch.setattr(montecarlo, sampler, lambda *args: pytest.fail("drew a sample"))
        with pytest.raises(CapacityError, match="at most 40 floats"):
            generate_scenario(scenario(case), 41, seed=1)
        with pytest.raises(CapacityError, match="at most 40 floats"):
            ExperimentConfig(scenario(case), n=41, replications=1, master_seed=1)

    @pytest.mark.parametrize("case", sorted(SCENARIO_SHA256))
    def test_streams_are_pinned(self, case):
        s = generate_scenario(scenario(case), 50, seed=7)
        assert hashlib.sha256(s.x.tobytes() + s.y.tobytes()).hexdigest() == SCENARIO_SHA256[case]

    @pytest.mark.parametrize("n", [2, 10, 200, 1000])
    @pytest.mark.parametrize("case", sorted(SCENARIOS))
    def test_each_row_equals_the_one_sample_draw(self, case, n):
        spec = scenario(case)
        # shuffled and far apart, so no row can lean on its neighbour's seed
        seeds = [int(s) for s in np.random.default_rng(n).choice(10**12, size=60, replace=False)]
        if spec.normal is not None:
            rows = lambda seeds: sample_bivariate_normal_rows(spec.normal, n, seeds)
        else:
            rows = lambda seeds: sample_clayton_rows(
                spec.theta, spec.marginal_x, spec.marginal_y, n, seeds)
        x, y = rows(seeds)
        assert x.shape == y.shape == (len(seeds), n)
        for i, seed in enumerate(seeds):
            (one_x,), (one_y,) = rows([seed])
            sample = generate_scenario(spec, n, seed)
            assert x[i].tobytes() == one_x.tobytes() == sample.x.tobytes()
            assert y[i].tobytes() == one_y.tobytes() == sample.y.tobytes()


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

    @pytest.mark.parametrize("field, value", [
        ("tests", ("t", "t")),
        ("tests", ("stwj", "wilcoxon", "stwj")),
        ("levels", (0.05, 0.05)),
        ("levels", (0.05, 0.01, 0.05)),
    ])
    def test_a_repeated_test_or_level_is_rejected(self, field, value):
        # a repeat would be counted twice, giving rates above 1
        with pytest.raises(ParameterError, match="must not repeat"):
            ExperimentConfig(scenario=scenario("C2"), n=20, replications=10, master_seed=1,
                             **{field: value})


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

    def test_a_baseline_cell_draws_each_chunk_with_one_call(self, monkeypatch):
        # 200 replications at n=200 are 10 chunks of 20 rows
        calls = []

        def rows(*args, rows_fn=montecarlo.sample_clayton_rows):
            calls.append(len(args[-1]))
            return rows_fn(*args)

        monkeypatch.setattr(montecarlo, "sample_clayton_rows", rows)
        monkeypatch.setattr(montecarlo, "generate_scenario",
                            lambda *args: pytest.fail("drew one replication"))
        cfg = ExperimentConfig(scenario=scenario("C5"), n=200, replications=200,
                               master_seed=2718, tests=("t", "wilcoxon"))
        run_rejection_experiment(cfg)
        assert calls == [20] * 10

    def test_rows_never_made_a_sample_are_checked_finite(self):
        # Pareto(0.001, 1) overflows to inf above its median
        spec = ScenarioSpec("INF", theta=0.5, marginal_x=Pareto(0.001, 1.0),
                            marginal_y=Pareto(2.0, 1.0))
        cfg = ExperimentConfig(scenario=spec, n=20, replications=3, master_seed=1, tests=("t",))
        with np.errstate(over="ignore"), pytest.raises(ParameterError, match="finite"):
            run_rejection_experiment(cfg)

    @pytest.mark.parametrize("tests, calls", [(("t", "wilcoxon"), 4), (("stwj", "t"), 8)])
    def test_the_test_seed_is_derived_only_for_stwj(self, monkeypatch, tests, calls):
        derived = []

        def counting(*parts):
            derived.append(parts)
            return derive_seed(*parts)

        monkeypatch.setattr(montecarlo, "derive_seed", counting)
        # one process: a helper process would derive its seeds out of sight
        may_use_two_cpus(monkeypatch, False)
        run_rejection_experiment(small_config("C2", 20, 4, tests=tests))
        assert len(derived) == calls

    def test_a_mixed_cell_starts_the_helper_first_and_draws_each_sample_once(self, monkeypatch):
        # the helper warms up while the first chunk is drawn; each chunk's
        # dominance tests reuse its samples and run before its baselines
        events = []

        def counting(*parts):
            events.append(parts[1:])
            return derive_seed(*parts)

        def wilcoxon(diffs, rows_fn=montecarlo.wilcoxon_rows):
            events.append("wilcoxon")
            return rows_fn(diffs)

        monkeypatch.setattr(montecarlo, "derive_seed", counting)
        monkeypatch.setattr(montecarlo, "wilcoxon_rows", wilcoxon)
        monkeypatch.setattr(montecarlo, "_start_helper", lambda: events.append("helper"))
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 8 * 20 * 3)
        run_rejection_experiment(small_config("C2", 20, 8, tests=("wilcoxon", "stwj")))
        expected = ["helper"]
        for rows in ([0, 1, 2], [3, 4, 5], [6, 7]):
            expected += [(r, 0) for r in rows] + [(r, 1) for r in rows] + ["wilcoxon"]
        assert events == expected


def local_tests(monkeypatch) -> list[int]:
    """Record the replications whose dominance test runs in this process:
    those whose test seed (master_seed, r, 1) is derived here."""
    tested = []

    def recording(seed, r, kind):
        if kind == 1:
            tested.append(r)
        return derive_seed(seed, r, kind)

    monkeypatch.setattr(montecarlo, "derive_seed", recording)
    return tested


# The helper's interpreter arguments for a helper whose every share raises.
RAISING_HELPER = (
    "-c",
    "import sys\n"
    "sys.path[:] = sys.argv[1:]\n"
    "from pairdom import montecarlo\n"
    "def tally(cfg, replications):\n"
    "    raise ArithmeticError('no share today')\n"
    "montecarlo._stwj_tally = tally\n"
    "montecarlo._serve()\n",
)


class TestHelpers:
    @staticmethod
    def ready_helper():
        """Start the helper, if it is not running, and wait until it is ready."""
        run_rejection_experiment(small_config("C2", 20, 2))
        deadline = time.monotonic() + 60
        while not montecarlo._helper.is_ready():
            assert time.monotonic() < deadline, "no helper was ready after 60 s"
            time.sleep(0.02)
        return montecarlo._helper

    @pytest.fixture
    def helper(self, monkeypatch):
        """A ready helper process, for experiments made with two processes."""
        may_use_two_cpus(monkeypatch, True)
        return self.ready_helper()

    def serial(self, monkeypatch, cfg) -> RejectionReport:
        with monkeypatch.context() as mp:
            may_use_two_cpus(mp, False)
            return run_rejection_experiment(cfg)

    # a mixed stwj+t+wilcoxon cell and an all-degenerate one
    @pytest.mark.parametrize("cfg", [TestChunks.CONFIGS[0], TestChunks.CONFIGS[2]],
                             ids=["mixed", "degenerate"])
    def test_reports_do_not_depend_on_sharing(self, monkeypatch, helper, tmp_path, cfg):
        serial = self.serial(monkeypatch, cfg)
        tested_here = local_tests(monkeypatch)
        shared = run_rejection_experiment(cfg)
        assert tested_here == list(range(0, cfg.replications, 2))
        assert shared.rates == serial.rates
        assert shared.failures == serial.failures
        assert shared.to_csv_text() == serial.to_csv_text()
        write_json(serial.to_json_dict(), tmp_path / "serial.json")
        write_json(shared.to_json_dict(), tmp_path / "shared.json")
        assert (tmp_path / "serial.json").read_bytes() == (tmp_path / "shared.json").read_bytes()

    # each test's rates and failures in a cell with several tests are
    # those of a cell with that test alone, serially or with a ready helper
    @pytest.mark.parametrize("shared", [False, True], ids=["serial", "shared"])
    @pytest.mark.parametrize("cfg", [TestChunks.CONFIGS[0], TestChunks.CONFIGS[2]],
                             ids=["mixed", "degenerate"])
    def test_a_mixed_cell_reports_each_test_as_alone(self, monkeypatch, cfg, shared):
        may_use_two_cpus(monkeypatch, shared)
        if shared:
            self.ready_helper()
        mixed = run_rejection_experiment(cfg)
        for test in cfg.tests:
            alone = run_rejection_experiment(dataclasses.replace(cfg, tests=(test,)))
            assert ([mixed.rate(test, lv) for lv in cfg.levels]
                    == [alone.rate(test, lv) for lv in cfg.levels])
            assert mixed.failures[test] == alone.failures[test]

    def test_a_helper_that_dies_has_its_share_run_here(self, monkeypatch, helper):
        cfg = small_config("C2", 30, 12)
        serial = self.serial(monkeypatch, cfg)
        assert serial.rate("stwj", 0.05) > 0.5  # a lost share would lower it
        helper.process.kill()
        helper.process.wait()
        tested_here = local_tests(monkeypatch)
        report = run_rejection_experiment(cfg)
        assert montecarlo._helper is not helper
        assert sorted(tested_here) == list(range(12))
        assert report.to_csv_text() == serial.to_csv_text()

    def test_calls_from_several_threads_get_their_own_counts(self, monkeypatch, helper):
        # one call at a time deals to the helpers, the others run serially; C2
        # rejects nearly always, so a reply that reached the wrong call would
        # change its count
        cfgs = [small_config("C2", 30, reps) for reps in range(6, 14)]
        expected = [self.serial(monkeypatch, cfg).to_csv_text() for cfg in cfgs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(cfgs)) as pool:
                futures = [pool.submit(run_rejection_experiment, cfg) for cfg in cfgs * 3]
                reports = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [report.to_csv_text() for report in reports] == expected * 3

    def test_a_share_that_raises_is_raised_here_and_stops_the_helper(self, monkeypatch):
        cfg = small_config("C2", 30, 12)
        serial = self.serial(monkeypatch, cfg)
        montecarlo._stop_helper()  # so that the next helper is a raising one
        may_use_two_cpus(monkeypatch, True)
        with monkeypatch.context() as mp:
            mp.setattr(montecarlo, "_HELPER_ARGS", RAISING_HELPER)
            helper = self.ready_helper()
            with pytest.raises(ArithmeticError, match="no share today"):
                run_rejection_experiment(cfg)
        assert helper.process.returncode is not None  # stopped and reaped
        assert montecarlo._helper is None
        assert run_rejection_experiment(cfg).to_csv_text() == serial.to_csv_text()

    def test_cells_without_stwj_touch_no_helper(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_start_helper", lambda: pytest.fail("started a helper"))
        run_rejection_experiment(small_config("C5", 20, 4, tests=("t", "wilcoxon")))

    def test_at_most_two_workers_by_default(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        started = []
        monkeypatch.setattr(montecarlo, "_Helper", lambda: started.append(object()) or started[-1])
        monkeypatch.setattr(montecarlo, "_helper", None)
        monkeypatch.setattr(montecarlo, "_start_failed", False)
        assert montecarlo._start_helper() is montecarlo._start_helper() is started[0]
        assert len(started) == 1
        # the helper follows gptest's rule for two CPUs
        may_use_two_cpus(monkeypatch, False)
        assert montecarlo._start_helper() is None

    def test_one_usable_cpu_starts_no_helper(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(montecarlo, "_Helper", lambda: pytest.fail("started a helper"))
        monkeypatch.setattr(montecarlo, "_helper", None)
        monkeypatch.setattr(montecarlo, "_start_failed", False)
        assert montecarlo._start_helper() is None

    def test_replications_start_no_thread(self, monkeypatch):
        # a replication's test stops early (stop_at < 1), here or in the helper
        may_use_two_cpus(monkeypatch, True)
        monkeypatch.setattr(montecarlo, "_start_helper", lambda: None)
        started = record_thread_starts(monkeypatch)
        cfg = dataclasses.replace(small_config("C3", 100, 4), n_sims=10_000)
        run_rejection_experiment(cfg)
        assert started == []

    @pytest.mark.skipif(not Path("/proc/self").exists(), reason="needs /proc")
    def test_a_helper_runs_one_blas_thread(self, helper):
        environ = Path(f"/proc/{helper.process.pid}/environ").read_bytes().split(b"\0")
        assert b"OPENBLAS_NUM_THREADS=1" in environ


SHARED = """
import time

from pairdom import gptest, montecarlo

cfg = montecarlo.ExperimentConfig(montecarlo.scenario("C2"), n=20, replications=6,
                                  master_seed=1, n_sims=200)
gptest._two_cpus = lambda: True
first = montecarlo.run_rejection_experiment(cfg)
deadline = time.monotonic() + 60
while not montecarlo._helper.is_ready() and time.monotonic() < deadline:
    time.sleep(0.02)
shared = [montecarlo.run_rejection_experiment(cfg) for _ in range(2)]
print(montecarlo._helper.is_ready(), {r.to_csv_text() for r in [first, *shared]} == {first.to_csv_text()})
print(montecarlo._helper.process.pid)
"""

# A script with no __main__ guard: a helper that ran it again would append
# a second line to the file.
NO_GUARD = """
import sys

with open(sys.argv[0] + ".runs", "a") as fh:
    fh.write("run\\n")
""" + SHARED

# The helper's interpreter sleeps, so it is still starting when the parent exits.
SLOW_HELPER = """
from pairdom import gptest, montecarlo

cfg = montecarlo.ExperimentConfig(montecarlo.scenario("C2"), n=20, replications=6,
                                  master_seed=1, n_sims=200)
montecarlo._HELPER_ARGS = ("-c", "import time; time.sleep(300)")
gptest._two_cpus = lambda: True
shared = montecarlo.run_rejection_experiment(cfg)
pids = [montecarlo._helper.process.pid]
gptest._two_cpus = lambda: False
print(shared.to_csv_text() == montecarlo.run_rejection_experiment(cfg).to_csv_text())
print(*pids)
"""

# A multiprocessing worker leaves the CPUs to its parent's other workers.
IN_A_POOL = """
import multiprocessing

from pairdom import gptest, montecarlo


def run(cfg):
    return montecarlo.run_rejection_experiment(cfg).to_csv_text(), montecarlo._helper is None


if __name__ == "__main__":
    cfg = montecarlo.ExperimentConfig(montecarlo.scenario("C2"), n=20, replications=6,
                                      master_seed=1, n_sims=200)
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        csv, no_helper = pool.apply(run, (cfg,))
    gptest._two_cpus = lambda: False
    print(no_helper, csv == montecarlo.run_rejection_experiment(cfg).to_csv_text())
    # the pool's spawn started a resource tracker: reap it too
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()
"""


def gone(pids: list[str]) -> bool:
    return pids != [] and not any(Path(f"/proc/{pid}").exists() for pid in pids)


@pytest.mark.skipif(not Path("/proc/self").exists(), reason="needs /proc")
class TestHelperLifetime:
    def test_no_helper_outlives_the_interpreter(self):
        ready, pids = run_fresh(SHARED).splitlines()
        assert ready == "True True"
        assert gone(pids.split())

    def test_a_script_without_a_main_guard_runs_once(self, tmp_path):
        script = tmp_path / "no_guard.py"
        ready, pids = run_fresh(NO_GUARD, script=script).splitlines()
        assert ready == "True True"
        assert (tmp_path / "no_guard.py.runs").read_text() == "run\n"
        assert gone(pids.split())

    def test_the_helper_imports_from_the_callers_path_not_its_directory(self, tmp_path):
        # a module in the working directory that the caller, run by its
        # script's path, never sees; a helper that imported it would die
        (tmp_path / "cwd").mkdir()
        (tmp_path / "cwd" / "numpy.py").write_text("raise ImportError('not this numpy')\n")
        (tmp_path / "script").mkdir()
        script = tmp_path / "script" / "shared.py"
        ready, pids = run_fresh(SHARED, script=script, cwd=tmp_path / "cwd").splitlines()
        assert ready == "True True"
        assert gone(pids.split())

    def test_a_starting_helper_is_neither_waited_for_nor_left_running(self):
        # the helper would take 300 s to start; the whole run must end within 60 s
        same, pids = run_fresh(SLOW_HELPER, timeout=60).splitlines()
        assert same == "True"
        assert gone(pids.split())

    def test_a_pool_worker_runs_its_experiments_serially(self, tmp_path):
        out = run_fresh(IN_A_POOL, script=tmp_path / "in_a_pool.py")
        assert out.split() == ["True", "True"]


def report_with_rate(rate: float, replications: int) -> RejectionReport:
    cfg = ExperimentConfig(
        scenario=scenario("C8"), n=100, replications=replications, master_seed=0, k=100,
        n_sims=2000, levels=(0.05,), tests=("stwj",),
    )
    return RejectionReport(cfg, rates={("stwj", 0.05): rate}, failures={"stwj": 0})


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
