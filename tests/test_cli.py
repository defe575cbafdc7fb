import json

import numpy as np
import pytest

from conftest import SIX_ATOM_POINTS
from pairdom.cli import main
from pairdom.empirical import read_paired_csv
from pairdom.oracle import DiscreteBivariate, write_atoms_csv


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

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,oops\n")
        assert run(["test", "--input", str(bad), "--seed", "1"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["test", "--input", str(tmp_path / "nope.csv"), "--seed", "1"]) == 2


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
