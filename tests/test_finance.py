import datetime as dt
import io
import json

import numpy as np
import pytest

from pairdom.empirical import PairedSample
from pairdom.errors import (
    AlignmentError,
    CsvFormatError,
    DegenerateSampleError,
    InsufficientDataError,
    ParameterError,
)
from pairdom.finance import (
    PriceSeries,
    ReturnSeries,
    align,
    analyze_pair,
    fixture_path,
    portfolio_returns,
    qq_export,
    read_price_csv,
    weekly_returns,
    write_qq_csv,
)
from pairdom.montecarlo import generate_scenario, scenario
from pairdom.oracle import DiscreteBivariate, check_st_wj_discrete


def dates(n: int, start=dt.date(2020, 1, 6)) -> tuple:
    return tuple(start + dt.timedelta(weeks=i) for i in range(n))


def prices(closes) -> PriceSeries:
    closes = np.asarray(closes, dtype=float)
    return PriceSeries(dates(len(closes)), closes)


class TestWeeklyReturns:
    def test_simple_gain(self):
        r = weekly_returns(prices([100.0, 110.0]))
        assert r.values == pytest.approx([0.10])
        assert r.dates[0] == dates(2)[1]

    def test_constant_prices(self):
        r = weekly_returns(prices([50.0, 50.0, 50.0]))
        assert np.all(r.values == 0.0)

    def test_gain_then_loss(self):
        r = weekly_returns(prices([100.0, 110.0, 99.0]))
        assert r.values == pytest.approx([0.10, -0.10])

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            weekly_returns(prices([100.0]))


class TestAlign:
    def test_identical_dates(self):
        a = ReturnSeries(dates(4), np.arange(4.0))
        b = ReturnSeries(dates(4), np.arange(4.0) * 2)
        s = align(a, b)
        assert s.n == 4

    def test_disjoint_dates(self):
        a = ReturnSeries(dates(3), np.zeros(3))
        b = ReturnSeries(dates(3, start=dt.date(2021, 1, 4)), np.zeros(3))
        with pytest.raises(AlignmentError):
            align(a, b)

    def test_partial_overlap(self):
        d = dates(4)
        a = ReturnSeries(d[:3], np.array([1.0, 2.0, 3.0]))
        b = ReturnSeries(d[1:], np.array([20.0, 30.0, 40.0]))
        s = align(a, b)
        assert s.n == 2
        assert np.array_equal(s.x, [2.0, 3.0])
        assert np.array_equal(s.y, [20.0, 30.0])


class TestPortfolioReturns:
    def test_alpha_zero_is_base(self):
        base = ReturnSeries(dates(3), np.array([0.1, -0.05, 0.02]))
        other = ReturnSeries(dates(3), np.array([0.5, 0.5, 0.5]))
        out = portfolio_returns(0.0, base, other)
        assert np.array_equal(out.values, base.values)

    def test_alpha_one_is_other(self):
        base = ReturnSeries(dates(3), np.array([0.1, -0.05, 0.02]))
        other = ReturnSeries(dates(3), np.array([0.5, 0.25, 0.0]))
        out = portfolio_returns(1.0, base, other)
        assert np.array_equal(out.values, other.values)

    def test_weighted_mix(self):
        base = ReturnSeries(dates(1), np.array([0.10]))
        other = ReturnSeries(dates(1), np.array([-0.05]))
        out = portfolio_returns(0.2, base, other)
        assert out.values[0] == pytest.approx(0.07, abs=1e-12)

    def test_alpha_out_of_range(self):
        base = ReturnSeries(dates(1), np.array([0.1]))
        with pytest.raises(ParameterError):
            portfolio_returns(1.5, base, base)


class TestQqExport:
    def test_self_pairing_is_diagonal(self):
        x = np.array([3.0, -1.0, 2.0])
        q = qq_export(PairedSample(x, x.copy()), "marginals")
        assert np.array_equal(q.qa, q.qb)
        assert np.array_equal(q.qa, np.sort(x))

    def test_differences_are_reversed_negations(self):
        rng = np.random.default_rng(4)
        s = PairedSample(rng.normal(0, 1, 20), rng.normal(0, 1, 20))
        q = qq_export(s, "differences")
        assert np.allclose(q.qb, -q.qa[::-1])

    def test_differences_hand_example(self):
        s = PairedSample(np.array([1.0, 3.0]), np.array([2.0, 2.0]))
        q = qq_export(s, "differences")
        assert np.array_equal(q.qa, [-1.0, 1.0])
        assert np.array_equal(q.qb, [-1.0, 1.0])

    def test_bad_mode(self):
        s = PairedSample(np.array([1.0]), np.array([2.0]))
        with pytest.raises(ParameterError):
            qq_export(s, "sideways")

    def test_csv_export(self, tmp_path):
        s = PairedSample(np.array([1.0, 3.0]), np.array([2.0, 2.0]))
        path = tmp_path / "qq.csv"
        write_qq_csv(qq_export(s, "differences"), path)
        assert path.read_text() == "qa,qb\n-1.0,-1.0\n1.0,1.0\n"

    def test_csv_export_to_stream(self, tmp_path):
        q = qq_export(generate_scenario(scenario("C5"), 30, seed=4), "marginals")
        path = tmp_path / "qq.csv"
        write_qq_csv(q, path)
        stream = io.StringIO()
        write_qq_csv(q, stream)
        assert stream.getvalue().encode("utf-8") == path.read_bytes()


class TestAnalyzePair:
    def test_strongly_ordered_sets_strict_flag(self):
        s = generate_scenario(scenario("C1"), 331, seed=13)
        report = analyze_pair(s, 100, 2000, seed=14)
        assert not report.stwj_forward.reject_at(0.05)
        assert report.stwj_reverse.reject_at(0.05)
        assert report.verdict == "strict_dominance_consistent"

    def test_reversed_pair_flagged(self):
        s = generate_scenario(scenario("C2"), 200, seed=15)
        report = analyze_pair(s, 100, 2000, seed=16)
        assert report.verdict == "evidence_against_forward"

    def test_identical_columns_degenerate(self):
        x = np.arange(1.0, 9.0)
        with pytest.raises(DegenerateSampleError):
            analyze_pair(PairedSample(x, x.copy()), seed=1)

    def test_symmetric_differences_equality_flag(self):
        rng = np.random.default_rng(18)
        half = rng.uniform(0.1, 1.0, 150)
        x = np.concatenate([half, -half])
        rng.shuffle(x)
        s = PairedSample(x, -x)  # y - x symmetric about 0 by construction
        report = analyze_pair(s, 100, 2000, seed=19)
        assert not report.stwj_forward.reject_at(0.05)
        assert not report.stwj_reverse.reject_at(0.05)
        assert report.verdict == "possibly_equal_differences"

    def test_json_schema(self):
        s = generate_scenario(scenario("C1"), 100, seed=20)
        report = analyze_pair(s, 50, 1000, seed=21)
        payload = report.to_json_dict()
        assert list(payload) == ["stwj_forward", "stwj_reverse", "t_test", "verdict"]
        assert payload["t_test"]["method"] == "students_t"
        json.dumps(payload)


def empirical_law(s: PairedSample) -> DiscreteBivariate:
    n = s.n
    return DiscreteBivariate(s.x, s.y, np.full(n, 1.0 / n))


class TestCompositionProperties:
    def test_replacement_with_common_asset(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            x = rng.normal(0.0, 1.0, n)
            y = x + rng.uniform(0.0, 2.0, n)  # empirically ordered by construction
            z = rng.normal(0.2, 1.5, n)
            assert check_st_wj_discrete(empirical_law(PairedSample(x, y))).holds
            for alpha in (0.0, 0.3, 0.8):
                p1 = (1 - alpha) * x + alpha * z
                p2 = (1 - alpha) * y + alpha * z
                assert check_st_wj_discrete(empirical_law(PairedSample(p1, p2))).holds

    def test_weight_monotonicity(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            x = rng.normal(0.0, 1.0, n)
            y = x + rng.uniform(0.0, 2.0, n)
            a1, a2 = sorted(rng.uniform(0.0, 1.0, 2))
            p1 = (1 - a1) * x + a1 * y
            p2 = (1 - a2) * x + a2 * y
            assert check_st_wj_discrete(empirical_law(PairedSample(p1, p2))).holds


class TestPriceCsv:
    def test_fixture_roundtrip(self):
        p = read_price_csv(fixture_path("asset_x.csv"))
        assert len(p.closes) >= 300
        assert p.dates[0] == dt.date(2018, 1, 1)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("day,price\n2020-01-01,1\n")
        with pytest.raises(CsvFormatError):
            read_price_csv(f)

    def test_bad_date_reports_line(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,close\n2020-01-01,10\nnot-a-date,11\n")
        with pytest.raises(CsvFormatError) as err:
            read_price_csv(f)
        assert err.value.line == 3

    def test_nonpositive_close_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,close\n2020-01-01,10\n2020-01-08,-1\n")
        with pytest.raises(CsvFormatError):
            read_price_csv(f)


class TestFixturePipeline:
    def test_smoke_analysis_is_schema_valid(self):
        rx = weekly_returns(read_price_csv(fixture_path("asset_x.csv")))
        ry = weekly_returns(read_price_csv(fixture_path("asset_y.csv")))
        sample = align(rx, ry)
        assert sample.n == len(rx.values)
        report = analyze_pair(sample, 100, 2000, seed=99)
        payload = report.to_json_dict()
        assert payload["verdict"] in (
            "evidence_against_forward",
            "evidence_against_reverse",
            "possibly_equal_differences",
            "strict_dominance_consistent",
        )
        for key in ("statistic", "t_star", "p1", "p_se", "n", "k", "cells", "n_sims", "seed"):
            assert key in payload["stwj_forward"]
        json.dumps(payload)

    def test_portfolio_composition_on_fixtures(self):
        rx = weekly_returns(read_price_csv(fixture_path("asset_x.csv")))
        ry = weekly_returns(read_price_csv(fixture_path("asset_y.csv")))
        rz = weekly_returns(read_price_csv(fixture_path("asset_z.csv")))
        p1 = portfolio_returns(0.2, rx, rz)
        p2 = portfolio_returns(0.2, ry, rz)
        s_xy = align(rx, ry)
        s_p = align(p1, p2)
        # P2 - P1 = 0.8 * (Y - X) pointwise
        assert np.allclose(s_p.y - s_p.x, 0.8 * (s_xy.y - s_xy.x))
