import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EmpiricalSurvival, random_paired_sample, survival_at
from pairdom.empirical import (
    PairedSample,
    read_columns_csv,
    read_float_csv,
    read_paired_csv,
    statistic_and_t_star,
    write_paired_csv,
)
from pairdom.errors import CsvFormatError, ParameterError
from pairdom.finance import read_price_csv
from pairdom.oracle import read_atoms_csv


class TestPairedSample:
    def test_validation(self):
        with pytest.raises(ParameterError):
            PairedSample(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ParameterError):
            PairedSample(np.array([]), np.array([]))
        with pytest.raises(ParameterError):
            PairedSample(np.array([np.nan]), np.array([1.0]))

    def test_swap(self):
        s = PairedSample(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
        t = s.swap()
        assert np.array_equal(t.x, s.y) and np.array_equal(t.y, s.x)


class TestSurvivalAt:
    def test_counting(self):
        e = EmpiricalSurvival.from_values([-2.0, 1.0])
        assert survival_at(e, 0.0) == 0.5

    def test_below_min_is_one(self):
        e = EmpiricalSurvival.from_values([3.0, 5.0, 9.0])
        assert survival_at(e, 2.999) == 1.0

    def test_at_or_above_max_is_zero(self):
        e = EmpiricalSurvival.from_values([3.0, 5.0, 9.0])
        assert survival_at(e, 9.0) == 0.0
        assert survival_at(e, 100.0) == 0.0

    def test_right_continuous_nonincreasing_step(self):
        e = EmpiricalSurvival.from_values([1.0, 1.0, 2.0, 4.0])
        ts = np.linspace(0, 5, 501)
        vals = survival_at(e, ts)
        assert np.all(np.diff(vals) <= 0)
        assert set(np.unique(vals)) <= {0.0, 0.25, 0.5, 0.75, 1.0}
        # value at a jump equals the value just to its right
        assert survival_at(e, 1.0) == survival_at(e, 1.0 + 1e-12)


class TestStatistic:
    def test_hand_example_zero(self):
        s = PairedSample(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
        # candidates {0, 1, 2} give gaps {0, -0.5, 0}
        assert statistic_and_t_star(s)[0] == 0.0

    def test_hand_example_sqrt2(self):
        s = PairedSample(np.array([3.0, 4.0]), np.array([1.0, 1.0]))
        assert statistic_and_t_star(s)[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_identical_pairs_zero(self):
        x = np.array([0.0, 1.5, -2.0, 7.0])
        assert statistic_and_t_star(PairedSample(x, x.copy()))[0] == 0.0

    def test_brute_force_dense_grid_agreement(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            s = random_paired_sample(rng)
            d = s.x - s.y
            hi = np.abs(d).max()
            if hi == 0.0:
                continue
            f = EmpiricalSurvival.from_values(d)
            g = EmpiricalSurvival.from_values(-d)
            # dense grid over [0, max|d|] plus the candidate points themselves
            grid = np.unique(np.concatenate([np.linspace(0.0, hi, 100_001), d[d >= 0], -d[d <= 0]]))
            brute = np.sqrt(s.n) * (survival_at(f, grid) - survival_at(g, grid)).max()
            assert statistic_and_t_star(s)[0] == pytest.approx(brute, abs=1e-12)

    def test_swap_reflection(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            s = random_paired_sample(rng)
            d = s.x - s.y
            f = EmpiricalSurvival.from_values(d)
            g = EmpiricalSurvival.from_values(-d)
            cands = np.concatenate(([0.0], d[d >= 0], -d[d <= 0]))
            negated = (survival_at(g, cands) - survival_at(f, cands)).max()
            assert statistic_and_t_star(s.swap())[0] == pytest.approx(np.sqrt(s.n) * negated,
                                                                  abs=1e-12)
            assert max(statistic_and_t_star(s)[0], statistic_and_t_star(s.swap())[0]) >= 0.0

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=25),
        st.floats(-1e3, 1e3),
    )
    @settings(max_examples=200)
    def test_shift_equivariance(self, xs, c):
        x = np.asarray(xs)
        y = np.cos(x)
        base = statistic_and_t_star(PairedSample(x, y))[0]
        shifted = statistic_and_t_star(PairedSample(x + c, y + c))[0]
        assert shifted == pytest.approx(base, abs=1e-9)


def gap_counts(d: np.ndarray, t: np.ndarray) -> np.ndarray:
    """n * (Fbar_n(t) - Gbar_n(t)) by direct counting at each t."""
    return (d[None, :] > t[:, None]).sum(axis=1) - (-d[None, :] > t[:, None]).sum(axis=1)


class TestTStar:
    def test_hand_examples(self):
        # d = (2, 3): the gap is 1 at t = 0 and falls after
        assert statistic_and_t_star(PairedSample(np.array([3.0, 4.0]), np.array([1.0, 1.0])))[1] == 0.0
        # d = (1, -0.5, 2): n * gap is 1 on [0, 0.5), 2 on [0.5, 1), 1 on [1, 2), 0 after
        s = PairedSample(np.array([1.0, -0.5, 2.0]), np.zeros(3))
        assert statistic_and_t_star(s) == (np.sqrt(3.0) * 2.0 / 3.0, 0.5)

    def test_zero_difference_gives_positive_zero(self):
        # d = (0, 1): the gap peaks at t = 0, which the zero difference also hits
        _, t_star = statistic_and_t_star(PairedSample(np.array([1.0, 1.0]), np.array([1.0, 0.0])))
        assert t_star == 0.0 and math.copysign(1.0, t_star) == 1.0

    @given(st.lists(st.integers(-8, 8).map(lambda v: v / 2), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_smallest_point_of_the_supremum(self, values):
        d = np.asarray(values)
        s = PairedSample(d, np.zeros(len(d)))
        stat, t_star = statistic_and_t_star(s)
        # every gap value is taken on a quarter-integer point of [0, 5]
        grid = np.arange(0, 21) / 4.0
        counts = gap_counts(d, grid)
        assert gap_counts(d, np.array([t_star]))[0] == counts.max()
        assert counts[grid < t_star].max(initial=counts.max() - 1) < counts.max()
        assert t_star in np.concatenate(([0.0], np.abs(d)))


class TestCsv:
    def test_roundtrip(self, tmp_path):
        s = PairedSample(np.array([1.25, -3.5, 0.1]), np.array([2.0, 0.0, -1.75]))
        path = tmp_path / "pairs.csv"
        write_paired_csv(s, path)
        back = read_paired_csv(path)
        assert np.array_equal(back.x, s.x) and np.array_equal(back.y, s.y)
        assert path.read_text().startswith("x,y\n")
        assert "\r" not in path.read_bytes().decode()

    def test_stream_matches_file(self, tmp_path):
        s = PairedSample(np.array([1.25, -3.5, 0.1]), np.array([2.0, 0.0, -1.75]))
        path = tmp_path / "pairs.csv"
        write_paired_csv(s, path)
        stream = io.StringIO()
        write_paired_csv(s, stream)
        assert stream.getvalue().encode("utf-8") == path.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(CsvFormatError):
            read_paired_csv(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\nfoo,3\n")
        with pytest.raises(CsvFormatError) as err:
            read_paired_csv(path)
        assert err.value.line == 3


@pytest.mark.parametrize("reader, text, message", [
    ("paired", "x,z\n1,2\n", "line 1: expected header 'x,y'"),
    ("paired", "x,y\n1,2,3\n", "line 2: expected 2 fields, got 3"),
    ("paired", "x,y\n1,2\n\n1,a\n", "line 4: not a number: could not convert string to float: 'a'"),
    ("paired", "x,y\n\n", "line 2: no data rows"),
    ("price", "day,close\n", "line 1: expected header 'date,close'"),
    ("price", "date,close\n2020-13-01,1\n", "line 2: month must be in 1..12"),
    ("price", "date,close\n2020-01-01,x\n", "line 2: could not convert string to float: 'x'"),
    ("price", "date,close\n2020-01-08,1\n2020-01-01,2\n", "line 2: dates must be strictly increasing"),
    ("atoms", "x,y,p\n1,2\n", "line 2: expected 3 fields, got 2"),
    ("atoms", "x,y,p\n1,2,z\n", "line 2: not a number: could not convert string to float: 'z'"),
    ("atoms", "x,y,p\n", "line 2: no data rows"),
])
def test_csv_readers_report_line_and_reason(tmp_path, reader, text, message):
    # one reader serves the three formats; each keeps its own messages
    read = {"paired": read_paired_csv, "price": read_price_csv, "atoms": read_atoms_csv}[reader]
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError) as err:
        read(path)
    assert str(err.value) == message


def row_loop_floats(path, header):
    """The row-by-row reader that read_float_csv replaced, as the reference."""
    def floats(row):
        try:
            return tuple(map(float, row))
        except ValueError as exc:
            raise ValueError(f"not a number: {exc}") from exc

    return np.array(read_columns_csv(path, header, floats))


@pytest.mark.parametrize("header, text, expected", [
    # a float error before a width error, and a width error before a float error
    ("x,y", "x,y\n1,2\n\n1,a\n3,4,5\n", "line 4: not a number: could not convert string to float: 'a'"),
    ("x,y", "x,y\n1,2\n3\n\n1,a\n", "line 3: expected 2 fields, got 1"),
    ("x,y", "x,y\n1,2\na,b,c\n", "line 3: expected 2 fields, got 3"),
    ("x,y", "x,y\n1,2\n3,b\n", "line 3: not a number: could not convert string to float: 'b'"),
    ("x,y,p", "x,y,p\n1,2,0.5\n3,4\n5,6,q\n", "line 3: expected 3 fields, got 2"),
    ("x,y,p", "x,y,p\n1,2,0.5\n3,4,q\n5,6\n", "line 3: not a number: could not convert string to float: 'q'"),
    # quoted fields: one field, commas included
    ("x,y", '"x","y"\n"1.5","-2e3"\n', [[1.5, -2000.0]]),
    ("x,y", 'x,y\n1,2\n"3,5",4\n', "line 3: not a number: could not convert string to float: '3,5'"),
    # CRLF line ends, and blank lines in the middle
    ("x,y", "x,y\r\n1,2\r\n\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("x,y", "x,y\n1,2\n\n\n3,4\n\n5,x\n", "line 7: not a number: could not convert string to float: 'x'"),
    ("x,y", "x,y\n\n 1 , 2\n\n\n-0.0,1e-320\n\n", [[1.0, 2.0], [-0.0, 1e-320]]),
    # a line of one space is a row of one field
    ("x,y", "x,y\n1,2\n \n", "line 3: expected 2 fields, got 1"),
    ("x,y", "x,y\n\n\n", "line 2: no data rows"),
])
def test_one_pass_reader_matches_the_row_loop(tmp_path, header, text, expected):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        for read in (read_float_csv, row_loop_floats):
            with pytest.raises(CsvFormatError) as err:
                read(path, header)
            assert str(err.value) == expected
    else:
        got = read_float_csv(path, header)
        assert got.tolist() == expected
        assert np.array_equal(got, row_loop_floats(path, header))
        assert np.signbit(got).tolist() == np.signbit(row_loop_floats(path, header)).tolist()


@pytest.mark.parametrize("rows, error, message", [
    # a field over csv's size limit stops the reading; an error in a row
    # before it still wins, and it is raised as csv raised it otherwise
    (["1,2", "1,a", "2," + "9" * 200_000], CsvFormatError,
     "line 3: not a number: could not convert string to float: 'a'"),
    (["1,2", "1", "2," + "9" * 200_000], CsvFormatError, "line 3: expected 2 fields, got 1"),
    (["1,2", "2," + "9" * 200_000, "1,a"], csv.Error, "field larger than field limit (131072)"),
], ids=["float_error_first", "width_error_first", "limit_first"])
def test_an_error_that_stops_the_reading_comes_after_the_rows_before_it(
    tmp_path, rows, error, message
):
    path = tmp_path / "in.csv"
    path.write_text("\n".join(["x,y", *rows]) + "\n")
    for read in (read_float_csv, row_loop_floats):
        with pytest.raises(error) as err:
            read(path, "x,y")
        assert str(err.value) == message
