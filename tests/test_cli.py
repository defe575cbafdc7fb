import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pairdom

from conftest import SIX_ATOM_POINTS
from pairdom import distributions, gptest, montecarlo
from pairdom.cli import build_parser, main
from pairdom.empirical import read_paired_csv
from pairdom.oracle import DiscreteBivariate, write_atoms_csv


# A dependent pair on the 7-point scale; the JSON below is what
# `pairdom test --discrete --n-sims 2000 --seed 5` prints for it.
ORDINAL_30 = """
1,1 4,6 5,5 3,2 2,4 1,2 7,7 7,6 6,4 7,7 1,1 4,2 1,1 7,6 3,2
7,7 3,1 3,2 3,3 1,2 4,4 5,5 5,3 1,2 2,3 4,6 6,6 4,3 1,2 4,6
"""
ORDINAL_30_DISCRETE_JSON = """{
  "statistic": 0.18257418583505533,
  "t_star": 0.0,
  "p1": 0.5160505316911597,
  "p_se": 0.0030291155555840403,
  "n": 30,
  "k": 2,
  "cells": 2,
  "n_sims": 2000,
  "seed": 5,
  "reject_at_0_05": false,
  "reject_at_0_01": false
}
"""

# What `pairdom test` prints at the default --k and --n-sims for
# `pairdom simulate --case C3 --n 300 --seed 3`, with --seed 11.
C3_300_JSON = """{
  "statistic": 0.057735026918962595,
  "t_star": 1.534988159243745,
  "p1": 0.9169460925439148,
  "p_se": 0.003452644873267052,
  "n": 300,
  "k": 100,
  "cells": 67,
  "n_sims": 1280,
  "seed": 11,
  "reject_at_0_05": false,
  "reject_at_0_01": false
}
"""

# What `pairdom portfolio` prints at the default --k and --n-sims for the
# bundled asset_x and asset_y, with --seed 17, without and with --z asset_z.
PORTFOLIO_XY_JSON = """{
  "stwj_forward": {
    "statistic": 0.0,
    "t_star": 0.060338963061181805,
    "p1": 0.9813855150799007,
    "p_se": 0.0013703817435031023,
    "n": 339,
    "k": 100,
    "cells": 68,
    "n_sims": 1280,
    "seed": 1422833171413083632,
    "reject_at_0_05": false,
    "reject_at_0_01": false
  },
  "stwj_reverse": {
    "statistic": 1.9552516077368465,
    "t_star": 0.014009141152181794,
    "p1": 0.04018546126850843,
    "p_se": 0.000801051823680858,
    "n": 339,
    "k": 100,
    "cells": 68,
    "n_sims": 1280,
    "seed": 11694156604828383914,
    "reject_at_0_05": true,
    "reject_at_0_01": false
  },
  "t_test": {
    "method": "students_t",
    "statistic": 2.8238437366168143,
    "p_value": 0.9974867187118881,
    "n_effective": 339
  },
  "verdict": "strict_dominance_consistent"
}
"""
PORTFOLIO_XYZ_JSON = """{
  "stwj_forward": {
    "statistic": 0.0,
    "t_star": 0.048271170448945445,
    "p1": 0.9813855150799007,
    "p_se": 0.0013703817435031023,
    "n": 339,
    "k": 100,
    "cells": 68,
    "n_sims": 1280,
    "seed": 1422833171413083632,
    "reject_at_0_05": false,
    "reject_at_0_01": false
  },
  "stwj_reverse": {
    "statistic": 1.9552516077368465,
    "t_star": 0.011207312921745434,
    "p1": 0.04018546126850843,
    "p_se": 0.000801051823680858,
    "n": 339,
    "k": 100,
    "cells": 68,
    "n_sims": 1280,
    "seed": 11694156604828383914,
    "reject_at_0_05": true,
    "reject_at_0_01": false
  },
  "t_test": {
    "method": "students_t",
    "statistic": 2.8238437366168148,
    "p_value": 0.9974867187118881,
    "n_effective": 339
  },
  "verdict": "strict_dominance_consistent"
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

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--discrete", "--k", "50"],
                     "argument --k: not allowed with argument --discrete", id="50"),
        # 100 is also the grid used without --k; giving it is still an error
        pytest.param(["--discrete", "--k", "100"],
                     "argument --k: not allowed with argument --discrete", id="100"),
        pytest.param(["--k", "50", "--discrete"],
                     "argument --discrete: not allowed with argument --k", id="k-first"),
    ])
    def test_discrete_with_k_is_usage_error(self, tmp_path, capsys, flags, message):
        pairs = tmp_path / "ordinal.csv"
        pairs.write_text("x,y\n" + "\n".join(ORDINAL_30.split()) + "\n")
        with pytest.raises(SystemExit) as exc:
            run(["test", "--input", str(pairs), "--seed", "5", *flags])
        assert exc.value.code == 1
        assert message in capsys.readouterr().err

    def test_full_run_output_bytes_are_pinned(self, tmp_path, capsys):
        pairs = tmp_path / "c3.csv"
        assert run(["simulate", "--case", "C3", "--n", "300", "--seed", "3",
                    "--output", str(pairs)]) == 0
        assert run(["test", "--input", str(pairs), "--seed", "11"]) == 0
        assert capsys.readouterr().out == C3_300_JSON

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


class TestParserDefaults:
    """The command line takes its defaults from the library, not from copies."""

    def test_mc_defaults_are_experiment_configs(self):
        args = build_parser().parse_args(["mc", "--case", "C1", "--n", "10", "--seed", "1"])
        cfg = montecarlo.ExperimentConfig(
            montecarlo.scenario("C1"), n=10, replications=1, master_seed=1
        )
        assert args.k == cfg.k
        assert args.n_sims == cfg.n_sims
        assert tuple(args.levels) == cfg.levels
        assert tuple(args.tests) == cfg.tests

    def test_test_and_portfolio_defaults_are_gptests(self, tmp_path, capsys):
        defaults = (gptest.DEFAULT_GRID_POINTS, gptest.DEFAULT_N_SIMS)
        args = build_parser().parse_args(["portfolio", "--x", "x.csv", "--y", "y.csv",
                                          "--seed", "1"])
        assert (args.k, args.n_sims) == defaults
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("x,y\n1,2\n3,1\n2,2\n")
        assert run(["test", "--input", str(pairs), "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["k"], payload["n_sims"]) == defaults


class TestSampleSizeCap:
    @pytest.mark.parametrize("command", [["simulate"], ["mc", "--replications", "1"]])
    def test_n_beyond_the_cap_exits_2(self, monkeypatch, capsys, command):
        # a small cap stands in for 2**23, so no large sample is ever drawn
        monkeypatch.setattr(distributions, "MAX_VALUES", 40)
        args = [*command, "--case", "C5", "--seed", "1", "--n"]
        assert run(args + ["41"]) == 2
        assert "at most 40 floats per coordinate fit in 64 MiB" in capsys.readouterr().err
        assert run(args + ["40"]) == 0


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

    @pytest.mark.parametrize("flags", [["--tests", "t,t"], ["--levels", "0.05,0.05"]])
    def test_a_repeated_test_or_level_exits_2(self, capsys, flags):
        assert run(["mc", "--case", "C2", "--n", "20", "--replications", "10",
                    "--seed", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert "must not repeat" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("z, expected", [
        pytest.param(False, PORTFOLIO_XY_JSON, id="xy"),
        pytest.param(True, PORTFOLIO_XYZ_JSON, id="xyz"),
    ])
    def test_full_run_output_bytes_are_pinned(self, capsys, z, expected):
        from pairdom.finance import fixture_path

        args = ["portfolio", "--x", str(fixture_path("asset_x.csv")),
                "--y", str(fixture_path("asset_y.csv")), "--seed", "17"]
        if z:
            args += ["--z", str(fixture_path("asset_z.csv"))]
        assert run(args) == 0
        assert capsys.readouterr().out == expected


    @pytest.mark.parametrize("alpha", ["0.1", "0.2", "0.5", "0.9"])
    def test_composing_with_z_keeps_the_pairs_analysis(self, capsys, alpha):
        # P2 - P1 = (1 - alpha) * (Y - X): the differences shrink by one
        # positive factor, so the grid scales with them and every |d| keeps
        # its cell; the statistic, the cells and p1 are the plain pair's
        from pairdom.finance import fixture_path

        args = ["portfolio", "--x", str(fixture_path("asset_x.csv")),
                "--y", str(fixture_path("asset_y.csv")), "--seed", "17"]
        assert run(args) == 0
        plain = json.loads(capsys.readouterr().out)
        assert run(args + ["--z", str(fixture_path("asset_z.csv")), "--alpha", alpha]) == 0
        composed = json.loads(capsys.readouterr().out)
        for side in ("stwj_forward", "stwj_reverse"):
            for key in ("statistic", "cells", "p1", "p_se"):
                assert composed[side][key] == plain[side][key], (side, key)
            scaled = (1 - float(alpha)) * plain[side]["t_star"]
            assert composed[side]["t_star"] == pytest.approx(scaled, rel=1e-12)
        assert composed["verdict"] == plain["verdict"]


class TestSimulateRoundTrip:
    def test_simulated_file_parses_back(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["simulate", "--case", "C6", "--n", "50", "--seed", "23",
                    "--output", str(out)]) == 0
        sample = read_paired_csv(out)
        assert sample.n == 50
        assert np.all(sample.x > 0)
