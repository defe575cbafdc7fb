"""The benchmark's three workloads: inputs, one operation, output checks.

Every workload is a closed loop with one caller. Its inputs come from the
workload seed; pairdom receives only the generated inputs. Operations are
grouped in rounds of a fixed mix, and a run measures whole rounds, so the
mix does not depend on where the clock stops.

- ``analyst``: one in-process ``pairdom test`` call at the CLI defaults,
  on the bundled asset pairs, C3 and C8 samples at n=1000 and (one call
  in ten) a ``--discrete`` call on 7-point ordinal data.
- ``power_table``: one pass over the ten acceptance-table cells through
  ``montecarlo.run_rejection_experiment``.
- ``baseline_table``: one pass of t and Wilcoxon over C1..C8 at n=10 and
  n=200, through the same harness and without any ``gptest`` work.

Outputs are checked against ``references.json`` (see make_references.py):
statistics to 1e-12, Monte Carlo p-values and rejection rates within a
binomial band of ``SIGMAS`` standard deviations.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pairdom import cli, finance, montecarlo
from pairdom.empirical import PairedSample, write_paired_csv

REFERENCES = Path(__file__).with_name("references.json")

# Width of the acceptance band for Monte Carlo outputs, in standard
# deviations of the run's and the reference's binomial error combined.
SIGMAS = 6.0
STATISTIC_TOL = 1e-12

CLI_N_SIMS = 10_000  # the CLI default the analyst calls run at

ASSET_PAIRS = (("x", "y"), ("x", "z"), ("y", "z"))
POOL_SIZE = 32  # generated samples per family that have a stored reference
PER_RUN = 4  # pool members of each family one run draws from
GENERATED_N = 1000
ORDINAL_N = 200
# One analyst round: every asset pair, three C3 and three C8 calls, and one
# --discrete call, so discrete calls are 10% and sit below p10 latency.
ANALYST_ROUND = ("asset",) * 3 + ("C3",) * 3 + ("C8",) * 3 + ("ordinal",)

# Replications per cell in one pass over a table.
POWER_REPS = 20
BASELINE_REPS = 200
TABLE_K = 100
TABLE_N_SIMS = 2000
TABLE_LEVELS = (0.05, 0.01)
# The acceptance table of tests/test_acceptance.py (TABLE_CONFIGS).
POWER_CELLS = {
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
BASELINE_CELLS = {
    f"{case}_n{n}_t_wilcoxon": (case, n, ("t", "wilcoxon"))
    for case in sorted(montecarlo.SCENARIOS)
    for n in (10, 200)
}


def within_binomial_band(successes: float, trials: int, p_ref: float, trials_ref: int) -> bool:
    """True when successes/trials agrees with p_ref within SIGMAS deviations.

    The variance combines the run's and the reference's binomial error.
    p is floored at one success in the smaller count, so a reference of
    exactly 0 or 1 still admits a rare event, and one count of slack
    covers rounding.
    """
    floor = 1.0 / min(trials, trials_ref)
    p = min(max(p_ref, floor), 1.0 - floor)
    sd = math.sqrt(p * (1.0 - p) * (1.0 / trials + 1.0 / trials_ref))
    return abs(successes / trials - p_ref) <= SIGMAS * sd + 1.0 / trials


def check_test_output(output: dict, ref: dict) -> str | None:
    """Compare one ``pairdom test`` JSON output with its reference.

    Returns None when it passes, otherwise the reason.
    """
    stat, stat_ref = output["statistic"], ref["statistic"]
    if abs(stat - stat_ref) > STATISTIC_TOL * max(1.0, abs(stat_ref)):
        return f"statistic {stat!r} != reference {stat_ref!r}"
    n_sims = output.get("n_sims", CLI_N_SIMS)
    if not within_binomial_band(output["p1"] * n_sims, n_sims, ref["p1"], ref["n_sims"]):
        return f"p1 {output['p1']!r} outside the band around {ref['p1']!r}"
    return None


def check_rates(counts: dict, trials: int, ref: dict) -> str | None:
    """Compare one cell's rejection counts with its reference.

    counts maps "test@level" to the number of rejections in ``trials``
    replications; ref holds the reference counts over its own replications.
    """
    for key, rejected in counts.items():
        p_ref = ref["rejections"][key] / ref["replications"]
        if not within_binomial_band(rejected, trials, p_ref, ref["replications"]):
            return f"{key}: {rejected}/{trials} outside the band around {p_ref:.4f}"
    return None


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- inputs


def asset_sample(a: str, b: str) -> PairedSample:
    """Weekly returns of two bundled price fixtures, aligned on date."""
    ra, rb = (
        finance.weekly_returns(finance.read_price_csv(finance.fixture_path(f"asset_{s}.csv")))
        for s in (a, b)
    )
    return finance.align(ra, rb)


def ordinal_sample(j: int) -> PairedSample:
    """A dependent pair on the 7-point scale 1..7."""
    rng = np.random.default_rng([3000, j])
    x = rng.integers(1, 8, ORDINAL_N)
    y = np.clip(x + rng.integers(-2, 3, ORDINAL_N), 1, 7)
    return PairedSample(x.astype(float), y.astype(float))


def pool_sample(family: str, j: int) -> PairedSample:
    """Member j of a generated family: C3, C8 (n=1000) or ordinal."""
    if family == "ordinal":
        return ordinal_sample(j)
    seed = {"C3": 1000, "C8": 2000}[family] + j
    return montecarlo.generate_scenario(montecarlo.scenario(family), GENERATED_N, seed)


def input_name(family: str, j) -> str:
    if family == "asset":
        return f"assets_{j[0]}_{j[1]}"
    if family == "ordinal":
        return f"ordinal7_n{ORDINAL_N}_{j:02d}"
    return f"{family}_n{GENERATED_N}_{j:02d}"


# ------------------------------------------------------------- workloads


@dataclass
class Outcome:
    """What one operation returned, before it is checked."""

    tests: int
    value: object = None
    error: str | None = None


class Analyst:
    """One ``pairdom test`` call per operation, run in process."""

    name = "analyst"

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.members = {
            "asset": list(ASSET_PAIRS),
            **{
                fam: sorted(rng.choice(POOL_SIZE, PER_RUN, replace=False).tolist())
                for fam in ("C3", "C8", "ordinal")
            },
        }
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for family, members in self.members.items():
            for j in members:
                name = input_name(family, j)
                sample = asset_sample(*j) if family == "asset" else pool_sample(family, j)
                path = workdir / f"{name}.csv"
                write_paired_csv(sample, path)
                self.paths[name] = path

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, 1, r])
        picks = {fam: iter(rng.permutation(len(m))) for fam, m in self.members.items()}
        ops = []
        for family in map(str, rng.permutation(ANALYST_ROUND)):
            j = self.members[family][next(picks[family])]
            cli_seed = int(rng.integers(2**31))
            ops.append((input_name(family, j), family == "ordinal", cli_seed))
        return ops

    def execute(self, op) -> Outcome:
        name, discrete, cli_seed = op
        argv = ["test", "--input", str(self.paths[name]), "--seed", str(cli_seed)]
        if discrete:
            argv.append("--discrete")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            return Outcome(1, error=f"pairdom test exited {code}")
        return Outcome(1, value=out.getvalue())

    def check(self, ops: list, outcomes: list[Outcome], refs: dict) -> list[str | None]:
        inputs = refs["analyst"]
        verdicts = []
        for (name, _, _), outcome in zip(ops, outcomes):
            if outcome.error is not None:
                verdicts.append(outcome.error)
                continue
            try:
                reason = check_test_output(json.loads(outcome.value), inputs[name])
            except (ValueError, KeyError) as exc:
                reason = f"unreadable output: {exc!r}"
            verdicts.append(None if reason is None else f"{name}: {reason}")
        return verdicts


class Table:
    """One pass over a table of Monte Carlo cells per operation."""

    def __init__(self, name: str, cells: dict, reps: int, counted: tuple[str, ...], seed: int):
        self.name = name
        self.cells = cells
        self.reps = reps
        self.seed = seed
        self.configs = {
            cell: montecarlo.ExperimentConfig(
                scenario=montecarlo.scenario(case),
                n=n,
                replications=reps,
                master_seed=0,
                k=TABLE_K,
                n_sims=TABLE_N_SIMS,
                levels=TABLE_LEVELS,
                tests=tests,
            )
            for cell, (case, n, tests) in cells.items()
        }
        self.tests_per_pass = sum(
            reps for _, _, tests in cells.values() for t in tests if t in counted
        )

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, 2, r])
        seeds = rng.integers(2**62, size=len(self.cells))
        return [dict(zip(self.cells, (int(s) for s in seeds)))]

    def execute(self, op) -> Outcome:
        counts = {}
        failures = 0
        for cell, master_seed in op.items():
            cfg = dataclasses.replace(self.configs[cell], master_seed=master_seed)
            report = montecarlo.run_rejection_experiment(cfg)
            failures += sum(report.failures.values())
            counts[cell] = {
                f"{test}@{level!r}": round(report.rate(test, level) * self.reps)
                for test in cfg.tests
                for level in cfg.levels
            }
        if failures:
            return Outcome(self.tests_per_pass, error=f"{failures} replications failed")
        return Outcome(self.tests_per_pass, value=counts)

    def check(self, ops: list, outcomes: list[Outcome], refs: dict) -> list[str | None]:
        """Pool each cell's counts over the run and check them together.

        A cell that fails marks every operation failed, since each one
        contributed to it.
        """
        good = [o.value for o in outcomes if o.error is None]
        bad_cells = []
        for cell in self.cells if good else ():
            pooled = Counter()
            for counts in good:
                pooled.update(counts[cell])
            reason = check_rates(pooled, self.reps * len(good), refs[self.name][cell])
            if reason is not None:
                bad_cells.append(f"{cell} {reason}")
        table_reason = "; ".join(bad_cells) or None
        return [o.error or table_reason for o in outcomes]


def make_workload(name: str, workdir: Path, seed: int):
    if name == "analyst":
        return Analyst(workdir, seed)
    if name == "power_table":
        return Table(name, POWER_CELLS, POWER_REPS, ("stwj",), seed)
    if name == "baseline_table":
        return Table(name, BASELINE_CELLS, BASELINE_REPS, ("t", "wilcoxon"), seed)
    raise ValueError(f"unknown workload {name!r}")

