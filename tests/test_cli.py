import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pairdom

from conftest import SIX_ATOM_POINTS
from pairdom.cli import main
from pairdom.empirical import read_paired_csv
from pairdom.oracle import DiscreteBivariate, write_atoms_csv


# A dependent pair on the 7-point scale; the JSON below is what
# `pairdom test --discrete` printed for it when the discrete variant had its
# own entry point.
ORDINAL_30 = """
1,1 4,6 5,5 3,2 2,4 1,2 7,7 7,6 6,4 7,7 1,1 4,2 1,1 7,6 3,2
7,7 3,1 3,2 3,3 1,2 4,4 5,5 5,3 1,2 2,3 4,6 6,6 4,3 1,2 4,6
"""
ORDINAL_30_DISCRETE_JSON = """{
  "statistic": 0.18257418583505533,
  "t_star": -0.0,
  "p1": 0.539,
  "p_se": 0.01114627740548386,
  "n": 30,
  "k": 2,
  "cells": 2,
  "n_sims": 2000,
  "seed": 5,
  "reject_at_0_05": false,
  "reject_at_0_01": false
}
"""


def run(args) -> int:
    return main(args)


class TestSimulate:
    def test_byte_identical_runs(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(["simulate", "--case", "C1", "--n", "100", "--seed", "1",
                    "--output", str(out1)]) == 0
        assert run(["simulate", "--case", "C1", "--n", "100", "--seed", "1",
                    "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_mode(self, capsys):
        assert run(["simulate", "--case", "C4", "--n", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("x,y\n")
        assert len(out.strip().split("\n")) == 6

    def test_stdout_bytes_equal_output_file(self, tmp_path, capsys):
        out = tmp_path / "pairs.csv"
        args = ["simulate", "--case", "C7", "--n", "50", "--seed", "4"]
        assert run(args + ["--output", str(out)]) == 0
        assert run(args) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--case", "C1", "--n", "10"])
        assert exc.value.code == 1


class TestTestCommand:
    def test_case2_file_rejects(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        assert run(["simulate", "--case", "C2", "--n", "300", "--seed", "5",
                    "--output", str(pairs)]) == 0
        out_json = tmp_path / "res.json"
        assert run(["test", "--input", str(pairs), "--seed", "7",
                    "--n-sims", "2000", "--output", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["reject_at_0_05"] is True
        assert payload["n"] == 300

    def test_discrete_flag(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("x,y\n" + "\n".join(
            f"{x},{y}" for x, y in [(3, 1), (4, 1), (2, 5), (1, 2), (0, 1)]
        ) + "\n")
        out_json = tmp_path / "res.json"
        assert run(["test", "--input", str(pairs), "--seed", "2", "--discrete",
                    "--n-sims", "500", "--output", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["k"] >= 1

    def test_discrete_output_bytes_are_pinned(self, tmp_path, capsys):
        pairs = tmp_path / "ordinal.csv"
        pairs.write_text("x,y\n" + "\n".join(ORDINAL_30.split()) + "\n")
        assert run(["test", "--input", str(pairs), "--seed", "5", "--n-sims", "2000",
                    "--discrete"]) == 0
        assert capsys.readouterr().out == ORDINAL_30_DISCRETE_JSON

    @pytest.mark.parametrize("k", ["50", "100"])
    def test_discrete_with_k_is_usage_error(self, tmp_path, capsys, k):
        # 100 is the --k default, so argparse alone cannot tell it was given
        pairs = tmp_path / "ordinal.csv"
        pairs.write_text("x,y\n" + "\n".join(ORDINAL_30.split()) + "\n")
        with pytest.raises(SystemExit) as exc:
            run(["test", "--input", str(pairs), "--seed", "5", "--discrete", "--k", k])
        assert exc.value.code == 1
        assert "not allowed with argument --discrete" in capsys.readouterr().err

    def test_k_beyond_the_block_budget_exits_2(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("x,y\n1,0\n0,1\n")
        assert run(["test", "--input", str(pairs), "--seed", "1", "--k", str(2**23)]) == 2
        assert "64 MiB" in capsys.readouterr().err

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,oops\n")
        assert run(["test", "--input", str(bad), "--seed", "1"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["test", "--input", str(tmp_path / "nope.csv"), "--seed", "1"]) == 2

    def test_reports_t_star(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("x,y\n1.0,0\n-0.5,0\n2.0,0\n")
        assert run(["test", "--input", str(pairs), "--seed", "1", "--n-sims", "500"]) == 0
        assert json.loads(capsys.readouterr().out)["t_star"] == 0.5

    def test_python_m_writes_the_same_bytes(self, tmp_path, capsys):
        # run from a source checkout, without installing the package
        pairs = tmp_path / "pairs.csv"
        assert run(["simulate", "--case", "C8", "--n", "80", "--seed", "3",
                    "--output", str(pairs)]) == 0
        args = ["test", "--input", str(pairs), "--seed", "9", "--n-sims", "1000"]
        capsys.readouterr()
        assert run(args) == 0
        in_process = capsys.readouterr().out
        env = dict(os.environ, PYTHONPATH=str(Path(pairdom.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "pairdom", *args], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == in_process.encode("utf-8")


class TestParserReuse:
    def test_usage_errors_between_calls_leave_the_parser_intact(self, tmp_path, capsys):
        args = ["simulate", "--case", "C2", "--n", "5", "--seed", "8"]
        assert run(args) == 0
        first = capsys.readouterr().out
        for bad in (["simulate", "--case", "C2", "--n", "5"], ["nope"], []):
            with pytest.raises(SystemExit) as exc:
                run(bad)
            assert exc.value.code == 1
        assert run(["simulate", "--case", "C4", "--n", "5", "--seed", "8"]) == 0
        assert run(args) == 0
        out = capsys.readouterr().out
        assert out.endswith(first) and not out.startswith(first)


class TestOracleCommand:
    def test_six_atom_verdicts(self, tmp_path, capsys):
        atoms = tmp_path / "atoms.csv"
        write_atoms_csv(DiscreteBivariate.uniform(SIX_ATOM_POINTS), atoms)
        assert run(["oracle", "--input", str(atoms)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stwj_holds"] is True
        assert payload["stwj_reverse_holds"] is False
        assert payload["precedence_x_gt_y"] == pytest.approx(0.5)
        assert payload["precedence_y_gt_x"] == pytest.approx(0.5)
        assert payload["marginal_order"] == "incomparable"


class TestQqCommand:
    def test_differences_output(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("x,y\n1.0,2.0\n3.0,2.0\n")
        assert run(["qq", "--input", str(pairs), "--mode", "differences"]) == 0
        assert capsys.readouterr().out == "qa,qb\n-1.0,-1.0\n1.0,1.0\n"

    @pytest.mark.parametrize("mode", ["marginals", "differences"])
    def test_stdout_bytes_equal_output_file(self, tmp_path, capsys, mode):
        pairs = tmp_path / "pairs.csv"
        assert run(["simulate", "--case", "C3", "--n", "40", "--seed", "2",
                    "--output", str(pairs)]) == 0
        out = tmp_path / "qq.csv"
        args = ["qq", "--input", str(pairs), "--mode", mode]
        assert run(args + ["--output", str(out)]) == 0
        capsys.readouterr()
        assert run(args) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


class TestMcCommand:
    def test_writes_reproducible_reports(self, tmp_path):
        args = ["mc", "--case", "C2", "--n", "30", "--replications", "10",
                "--n-sims", "500", "--seed", "11"]
        csv1, json1 = tmp_path / "r1.csv", tmp_path / "r1.json"
        csv2, json2 = tmp_path / "r2.csv", tmp_path / "r2.json"
        assert run(args + ["--output-csv", str(csv1), "--output-json", str(json1)]) == 0
        assert run(args + ["--output-csv", str(csv2), "--output-json", str(json2)]) == 0
        assert csv1.read_bytes() == csv2.read_bytes()
        assert json1.read_bytes() == json2.read_bytes()
        text = csv1.read_text()
        assert text.startswith("case,n,test,level,rate,failures")
        rate = float(text.strip().split("\n")[1].split(",")[4])
        assert rate >= 0.9  # C2 is rejected essentially always

    def test_stdout_csv(self, capsys):
        assert run(["mc", "--case", "C1", "--n", "20", "--replications", "3",
                    "--n-sims", "500", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("case,n,test,level,rate,failures")

    def test_bad_case_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["mc", "--case", "C99", "--n", "20", "--seed", "1"])
        assert exc.value.code == 1


class TestPortfolioCommand:
    def test_fixture_pipeline(self, tmp_path, capsys):
        from pairdom.finance import fixture_path

        out = tmp_path / "report.json"
        assert run([
            "portfolio",
            "--x", str(fixture_path("asset_x.csv")),
            "--y", str(fixture_path("asset_y.csv")),
            "--z", str(fixture_path("asset_z.csv")),
            "--alpha", "0.2",
            "--seed", "17",
            "--n-sims", "2000",
            "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"stwj_forward", "stwj_reverse", "t_test", "verdict"}

    def test_deterministic_output(self, tmp_path):
        from pairdom.finance import fixture_path

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["portfolio", "--x", str(fixture_path("asset_x.csv")),
                "--y", str(fixture_path("asset_y.csv")), "--seed", "17",
                "--n-sims", "1000"]
        assert run(args + ["--output", str(a)]) == 0
        assert run(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSimulateRoundTrip:
    def test_simulated_file_parses_back(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["simulate", "--case", "C6", "--n", "50", "--seed", "23",
                    "--output", str(out)]) == 0
        sample = read_paired_csv(out)
        assert sample.n == 50
        assert np.all(sample.x > 0)
