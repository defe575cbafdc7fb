"""Regenerate perfbench/references.json, the outputs the benchmark checks.

    python3 perfbench/make_references.py

Run it only when a change is meant to alter pairdom's outputs, and say so
in that change. It takes a few minutes on 2 CPUs:

- every analyst input (each asset pair and every pool member): its
  statistic and a p1 from one ``pairdom test`` call at REF_N_SIMS;
- every table cell: rejection counts over REF_REPS replications at
  REF_MASTER_SEED. For the power table it also records the rate over the
  acceptance suite's own 200 replications at that seed, so C8 shows the
  code's 0.615 next to criterion 07's gate of 0.97.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent)]

from pairdom import cli, montecarlo  # noqa: E402
from pairdom.empirical import write_paired_csv  # noqa: E402

import workloads as wl  # noqa: E402

REF_N_SIMS = 200_000
REF_CLI_SEED = 20260101
REF_MASTER_SEED = 2718  # the acceptance suite's master seed
ACCEPTANCE_REPS = 200
REF_REPS = {"power_table": 2000, "baseline_table": 20000}


def analyst_references(tmp: Path) -> dict:
    inputs = [("asset", pair) for pair in wl.ASSET_PAIRS] + [
        (fam, j) for fam in ("C3", "C8", "ordinal") for j in range(wl.POOL_SIZE)
    ]
    refs = {}
    for family, j in inputs:
        name = wl.input_name(family, j)
        sample = wl.asset_sample(*j) if family == "asset" else wl.pool_sample(family, j)
        path = tmp / f"{name}.csv"
        write_paired_csv(sample, path)
        argv = ["test", "--input", str(path), "--seed", str(REF_CLI_SEED),
                "--n-sims", str(REF_N_SIMS)]
        if family == "ordinal":
            argv.append("--discrete")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"pairdom test failed on {name}")
        result = json.loads(out.getvalue())
        refs[name] = {"statistic": result["statistic"], "p1": result["p1"], "n_sims": REF_N_SIMS}
        print(f"{name}: statistic={result['statistic']:.6f} p1={result['p1']:.5f}", flush=True)
    return refs


def rejection_counts(cfg) -> dict:
    report = montecarlo.run_rejection_experiment(cfg)
    if any(report.failures.values()):
        raise SystemExit(f"{cfg.scenario.case_id} n={cfg.n}: failures {report.failures}")
    return {
        f"{test}@{level!r}": round(report.rate(test, level) * cfg.replications)
        for test in cfg.tests
        for level in cfg.levels
    }


def table_references(name: str, tmp: Path) -> dict:
    table = wl.make_workload(name, tmp, 0)
    refs = {}
    for cell, cfg in table.configs.items():
        cfg = dataclasses.replace(cfg, master_seed=REF_MASTER_SEED, replications=REF_REPS[name])
        refs[cell] = {
            "replications": cfg.replications,
            "master_seed": cfg.master_seed,
            "rejections": rejection_counts(cfg),
        }
        if name == "power_table":
            acceptance = dataclasses.replace(cfg, replications=ACCEPTANCE_REPS)
            refs[cell]["acceptance_rates"] = {
                key: k / ACCEPTANCE_REPS for key, k in rejection_counts(acceptance).items()
            }
        print(f"{name} {cell}: {refs[cell]}", flush=True)
    return refs


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        refs = {"analyst": analyst_references(Path(tmp))}
        for name in ("power_table", "baseline_table"):
            refs[name] = table_references(name, Path(tmp))
    wl.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
