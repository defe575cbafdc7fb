"""pairdom benchmark: end-to-end metrics, or per-layer self times when traced.

Run one workload, as the command in BENCHMARK.json does:

    python3 perfbench/run.py --workload analyst --seed 1 --seconds 30 --trace 0

or every workload, each in its own process, with a summary table:

    python3 perfbench/run.py --seed 1 --seconds 30 [--trace 1]

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics. Full results, the environment
record and (when traced) the spans go to .perfbench_run/results/. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
WORKLOAD_NAMES = ("analyst", "power_table", "baseline_table")

SETUP_REPEATS = 5  # fresh processes timed for setup_s; the median is reported
WARMUP_S = 1.0  # whole rounds run untimed first, until this much time has passed
BLOCK_S = 2.0  # tests_per_s is the median rate over blocks of this length

END_TO_END_UNITS = {
    "setup_s": "s",
    "test_ms_p50": "ms",
    "test_ms_p90": "ms",
    "tests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# (module, attribute where the caller looks it up, span name)
LAYERS = (
    ("cli", "main", "cli.main"),
    ("cli", "read_paired_csv", "empirical.read_paired_csv"),
    ("gptest", "test_st_wj", "gptest.test_st_wj"),
    ("gptest", "test_st_wj_discrete_support", "gptest.test_st_wj_discrete_support"),
    ("gptest", "build_grid", "gptest.build_grid"),
    ("gptest", "statistic_stwj", "empirical.statistic_stwj"),
    ("gptest", "build_covariance", "gptest.build_covariance"),
    ("gptest", "regularized_cholesky", "gptest.regularized_cholesky"),
    ("gptest", "pvalue_bounds", "gptest.pvalue_bounds"),
    ("montecarlo", "run_rejection_experiment", "montecarlo.run_rejection_experiment"),
    ("montecarlo", "generate_scenario", "montecarlo.generate_scenario"),
    ("montecarlo", "sample_bivariate_normal", "distributions.sample_bivariate_normal"),
    ("montecarlo", "sample_clayton_bivariate", "distributions.sample_clayton_bivariate"),
    ("montecarlo", "derive_seed", "seeding.derive_seed"),
    ("montecarlo", "paired_t_test", "baselines.paired_t_test"),
    ("montecarlo", "wilcoxon_signed_rank", "baselines.wilcoxon_signed_rank"),
)
ROOT_SPAN = "bench.workload"
# Wilcoxon results with at most this many nonzero differences were computed
# by exact enumeration (baselines.EXACT_ENUMERATION_THRESHOLD).
WILCOXON_EXACT_MAX_N = 12


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for _, _, span in LAYERS:
        units[f"{span}.self_ms"] = "ms/test"
        units[f"{span}.share"] = "%"
        units[f"{span}.calls"] = "calls/test"
    units.update({
        "bench.unaccounted.self_ms": "ms/test",
        "bench.unaccounted.share": "%",
        "gptest.pvalue_bounds.sims": "sims/call",
        "gptest.pvalue_bounds.dim_mean": "dim",
        "gptest.pvalue_bounds.gflop_computed": "GFLOP/test",
        "montecarlo.failures": "count",
        "baselines.wilcoxon_exact.calls": "calls/test",
        "trace.tests_per_s": "1/s",
        "trace.untraced_tests_per_s": "1/s",
        "trace.overhead_pct": "%",
    })
    return units


# ------------------------------------------------------------ environment


def _openblas_libraries() -> list[str]:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    return sorted(p for p in paths if p.startswith("/"))


def _openblas_threads(path: str):
    import ctypes

    lib = ctypes.CDLL(path)
    for symbol in (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment() -> dict:
    """Machine, library versions and BLAS threads, as loaded right now.

    The benchmark sets no thread variables itself; any found are recorded.
    """
    import numpy
    import scipy

    cpu_model = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": {Path(p).name: _openblas_threads(p) for p in _openblas_libraries()},
        },
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


# ---------------------------------------------------------------- running


def timed_setups(args) -> list[float]:
    """Time SETUP_REPEATS fresh processes from spawn to inputs ready."""
    times = []
    for i in range(SETUP_REPEATS):
        workdir = RUN_DIR / f"setup-{os.getpid()}-{i}"
        cmd = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(workdir)]
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up process exited {proc.returncode}")
        times.append(elapsed)
    return times


@dataclass
class Window:
    """What one measured window ran and how long it took."""

    ops: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # s per operation
    round_ends: list = field(default_factory=list)  # s since the window started
    round_tests: list = field(default_factory=list)
    next_round: int = 0

    @property
    def wall(self) -> float:
        return self.round_ends[-1]

    def tests(self) -> int:
        return sum(self.round_tests)

    def block_rate(self) -> float:
        """Median tests/s over consecutive blocks of whole rounds lasting
        at least BLOCK_S; the whole window's rate if it is shorter.

        The median of blocks damps the host's own speed swings of a few
        seconds, which a single total/total rate takes in whole.
        """
        rates, t0, n = [], 0.0, 0
        for end, tests in zip(self.round_ends, self.round_tests):
            n += tests
            if end - t0 >= BLOCK_S:
                rates.append(n / (end - t0))
                t0, n = end, 0
        return statistics.median(rates) if rates else self.tests() / self.wall


def measure(workload, seconds: float, first_round: int) -> Window:
    """Run whole rounds until ``seconds`` have passed."""
    from workloads import Outcome

    w = Window()
    r = first_round
    started = time.perf_counter()
    while True:
        tests = 0
        for op in workload.round(r):
            t0 = time.perf_counter()
            try:
                outcome = workload.execute(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                outcome = Outcome(0, error=f"{type(exc).__name__}: {exc}")
            w.latencies.append(time.perf_counter() - t0)
            w.ops.append(op)
            w.outcomes.append(outcome)
            if outcome.error is None:
                tests += outcome.tests
        r += 1
        w.round_ends.append(time.perf_counter() - started)
        w.round_tests.append(tests)
        if w.round_ends[-1] >= seconds:
            break
    w.next_round = r
    return w


def layer_targets():
    from pairdom import cli, gptest, montecarlo
    from tracing import Target

    modules = {"cli": cli, "gptest": gptest, "montecarlo": montecarlo}
    hooks = {
        "gptest.pvalue_bounds": _count_sims,
        "montecarlo.run_rejection_experiment": _count_failures,
        "baselines.wilcoxon_signed_rank": _count_exact,
    }
    return [Target(modules[m], attr, span, hooks.get(span)) for m, attr, span in LAYERS]


# The hooks read arguments and results defensively: a later change to a
# layer's signature must leave its counters at zero, not fail the run.
def _count_sims(args, kwargs, result, counters) -> None:
    try:
        dim = (args[0] if args else kwargs["c"]).dim
        n_sims = args[2] if len(args) > 2 else kwargs["n_sims"]
    except (AttributeError, IndexError, KeyError):
        return
    counters["sims"] = counters.get("sims", 0) + n_sims
    counters["dim"] = counters.get("dim", 0) + dim
    counters["sim_calls"] = counters.get("sim_calls", 0) + 1
    counters["flop"] = counters.get("flop", 0) + 2 * n_sims * dim * dim


def _count_failures(args, kwargs, result, counters) -> None:
    failures = getattr(result, "failures", {})
    counters["failures"] = counters.get("failures", 0) + sum(failures.values())


def _count_exact(args, kwargs, result, counters) -> None:
    if getattr(result, "n_effective", WILCOXON_EXACT_MAX_N + 1) <= WILCOXON_EXACT_MAX_N:
        counters["wilcoxon_exact"] = counters.get("wilcoxon_exact", 0) + 1


def layer_metrics(tracer, wall_s: float, tests: int, untraced_rate: float) -> dict:
    """Per-layer metrics of a traced window that completed ``tests`` tests.

    When every operation failed, tests is 0 and the per-test figures are
    taken per window instead, so the run still reports its failures.
    """
    traced_rate = tests / wall_s
    tests = max(tests, 1)
    values = {}
    for _, _, span in LAYERS:
        totals = tracer.totals.get(span)
        self_s, calls = (totals.self_s, totals.calls) if totals else (0.0, 0)
        values[f"{span}.self_ms"] = 1000.0 * self_s / tests
        values[f"{span}.share"] = 100.0 * self_s / wall_s
        values[f"{span}.calls"] = calls / tests
    root = tracer.totals[ROOT_SPAN].self_s
    c = tracer.counters
    sim_calls = c.get("sim_calls", 0)
    values.update({
        "bench.unaccounted.self_ms": 1000.0 * root / tests,
        "bench.unaccounted.share": 100.0 * root / wall_s,
        "gptest.pvalue_bounds.sims": c.get("sims", 0) / sim_calls if sim_calls else 0.0,
        "gptest.pvalue_bounds.dim_mean": c.get("dim", 0) / sim_calls if sim_calls else 0.0,
        "gptest.pvalue_bounds.gflop_computed": c.get("flop", 0) / 1e9 / tests,
        "montecarlo.failures": c.get("failures", 0),
        "baselines.wilcoxon_exact.calls": c.get("wilcoxon_exact", 0) / tests,
        "trace.tests_per_s": traced_rate,
        "trace.untraced_tests_per_s": untraced_rate,
        "trace.overhead_pct": 100.0 * (1.0 - traced_rate / untraced_rate) if untraced_rate else 0.0,
    })
    return values


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_workload(args) -> int:
    setups = None if args.trace else timed_setups(args)

    import numpy as np
    from tracing import Tracer
    from workloads import load_references, make_workload

    env = environment()
    workdir = RUN_DIR / f"work-{os.getpid()}"
    try:
        workload = make_workload(args.workload, workdir, args.seed)
        refs = load_references()
        r = measure(workload, WARMUP_S, 0).next_round
        if args.trace:
            untraced = measure(workload, args.seconds / 2, r)
            tracer = Tracer()
            with tracer.patched(layer_targets()), tracer.span(ROOT_SPAN):
                traced = measure(workload, args.seconds / 2, untraced.next_round)
            ops, outcomes = untraced.ops + traced.ops, untraced.outcomes + traced.outcomes
            # every span nests in the root span, so the self times sum to its length
            traced_wall = sum(t.self_s for t in tracer.totals.values())
            metrics = layer_metrics(tracer, traced_wall, traced.tests(),
                                    untraced.tests() / untraced.wall)
            units = per_layer_units()
        else:
            window = measure(workload, args.seconds, r)
            ops, outcomes = window.ops, window.outcomes
            lat_ms = 1000.0 * np.asarray(window.latencies)
            metrics = {
                "setup_s": statistics.median(setups),
                "test_ms_p50": float(np.percentile(lat_ms, 50)),
                "test_ms_p90": float(np.percentile(lat_ms, 90)),
                "tests_per_s": window.block_rate(),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = END_TO_END_UNITS
        verdicts = workload.check(ops, outcomes, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [v for v in verdicts if v is not None]
    result = {
        "correct": not failures,
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results_dir = RUN_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": env,
        "setup_runs_s": setups,
        "operations": len(verdicts),
        "latencies_ms": None if args.trace else [round(x, 4) for x in lat_ms.tolist()],
        "fail_frac": len(failures) / len(verdicts),
        "first_failures": sorted(set(failures))[:20],
        **result,
    }
    if args.trace:
        record["unwrapped"] = tracer.unwrapped
        tracer.write(results_dir / f"{stem}-spans.json")
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for reason in sorted(set(failures))[:5]:
        print(f"check failed: {reason}", file=sys.stderr)
    print(f"env {json.dumps(env)}")
    print(f"{args.workload}: {len(verdicts)} operations, fail_frac "
          f"{len(failures) / len(verdicts):.4g}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{name} exited {proc.returncode}")
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, result in rows:
        print(f"{name}: fail_frac = {result['failed'] / result['attempted']:.4g} "
              f"({result['failed']}/{result['attempted']} operations)")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:14.6g} {m['unit']}")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; omit to run all three and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pairdom" / "__init__.py").is_file():
        print(f"perfbench: no pairdom sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        from workloads import make_workload

        make_workload(args.workload, Path(args.setup_only), args.seed)
        print("ready", flush=True)
        return 0
    return run_workload(args)


sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

if __name__ == "__main__":
    raise SystemExit(main())
