"""Command-line front door.

Commands: test, mc, portfolio, qq, simulate, oracle. All machine output
(CSV or JSON) goes to stdout or to --output files; one-line summaries go
to stderr. Stochastic commands require an explicit --seed; there is no
hidden entropy, so identical invocations are byte-reproducible.

Exit status: 0 success, 1 usage error, 2 data or numeric error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import finance, gptest, montecarlo, oracle
from .empirical import read_paired_csv, write_json, write_paired_csv
from .errors import PairdomError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_test(args) -> int:
    k = args.k
    if k is None and not args.discrete:
        k = gptest.DEFAULT_GRID_POINTS
    sample = read_paired_csv(args.input)
    result = gptest.test_st_wj(sample, k, args.n_sims, seed=args.seed)
    write_json(result.to_json_dict(), args.output or sys.stdout)
    print(
        f"n={result.n} statistic={result.statistic:.6g} p1={result.p1:.4g} "
        f"reject@0.05={result.reject_at(0.05)}",
        file=sys.stderr,
    )
    return 0


def _cmd_mc(args) -> int:
    cfg = montecarlo.ExperimentConfig(
        scenario=montecarlo.scenario(args.case),
        n=args.n,
        replications=args.replications,
        master_seed=args.seed,
        k=args.k,
        n_sims=args.n_sims,
        levels=tuple(args.levels),
        tests=tuple(args.tests),
    )
    report = montecarlo.run_rejection_experiment(cfg)
    if args.output_csv:
        report.write_csv(args.output_csv)
    if args.output_json:
        write_json(report.to_json_dict(), args.output_json)
    if not args.output_csv and not args.output_json:
        sys.stdout.write(report.to_csv_text())
    print(
        f"{cfg.scenario.case_id} n={cfg.n} reps={cfg.replications} "
        f"wall={report.wall_time:.1f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_portfolio(args) -> int:
    rx = finance.weekly_returns(finance.read_price_csv(args.x))
    ry = finance.weekly_returns(finance.read_price_csv(args.y))
    if args.z is not None:
        rz = finance.weekly_returns(finance.read_price_csv(args.z))
        rx = finance.portfolio_returns(args.alpha, rx, rz)
        ry = finance.portfolio_returns(args.alpha, ry, rz)
    sample = finance.align(rx, ry)
    report = finance.analyze_pair(sample, args.k, args.n_sims, seed=args.seed)
    write_json(report.to_json_dict(), args.output or sys.stdout)
    print(f"n={sample.n} verdict={report.verdict}", file=sys.stderr)
    return 0


def _cmd_qq(args) -> int:
    sample = read_paired_csv(args.input)
    finance.write_qq_csv(finance.qq_export(sample, args.mode), args.output or sys.stdout)
    return 0


def _cmd_simulate(args) -> int:
    sample = montecarlo.generate_scenario(montecarlo.scenario(args.case), args.n, args.seed)
    write_paired_csv(sample, args.output or sys.stdout)
    return 0


def _cmd_oracle(args) -> int:
    law = oracle.read_atoms_csv(args.input)
    verdict = oracle.check_st_wj_discrete(law)
    swapped = oracle.check_st_wj_discrete(law.swap())
    p_xy, p_yx = oracle.check_precedence(law)
    payload = {
        "stwj_holds": verdict.holds,
        "stwj_witness_t": verdict.witness_t,
        "stwj_reverse_holds": swapped.holds,
        "precedence_x_gt_y": p_xy,
        "precedence_y_gt_x": p_yx,
        "marginal_order": oracle.check_st_marginals_discrete(law).value,
    }
    write_json(payload, args.output or sys.stdout)
    return 0


def _levels(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad levels list {text!r}")


def _tests(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pairdom", description=__doc__)
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=lambda **kw: _Parser(
            formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kw
        ),
    )

    p_test = sub.add_parser("test", help="dominance test on a paired CSV")
    p_test.add_argument("--input", required=True)
    p_test.add_argument("--seed", required=True, type=int)
    grid = p_test.add_mutually_exclusive_group()
    grid.add_argument("--k", type=int,
                      help=f"grid steps, {gptest.DEFAULT_GRID_POINTS} if not given")
    p_test.add_argument("--n-sims", type=int, default=gptest.DEFAULT_N_SIMS)
    grid.add_argument("--discrete", action="store_true",
                      help="treat the data as integer-valued/ordinal: "
                           "the grid is the realized support, so no --k")
    p_test.add_argument("--output")
    p_test.set_defaults(func=_cmd_test)

    p_mc = sub.add_parser("mc", help="rejection-rate experiment")
    p_mc.add_argument("--case", required=True, choices=sorted(montecarlo.SCENARIOS))
    p_mc.add_argument("--n", required=True, type=int)
    p_mc.add_argument("--replications", type=int, default=200)
    p_mc.add_argument("--seed", required=True, type=int)
    p_mc.add_argument("--k", type=int, default=montecarlo.ExperimentConfig.k)
    p_mc.add_argument("--n-sims", type=int, default=montecarlo.ExperimentConfig.n_sims)
    p_mc.add_argument("--levels", type=_levels, default=montecarlo.ExperimentConfig.levels)
    p_mc.add_argument("--tests", type=_tests, default=montecarlo.ExperimentConfig.tests)
    p_mc.add_argument("--output-csv")
    p_mc.add_argument("--output-json")
    p_mc.set_defaults(func=_cmd_mc)

    p_pf = sub.add_parser("portfolio", help="analyze a pair of price CSVs")
    p_pf.add_argument("--x", required=True, help="price CSV for the first asset")
    p_pf.add_argument("--y", required=True, help="price CSV for the second asset")
    p_pf.add_argument("--z", help="optional common asset for portfolio composition")
    p_pf.add_argument("--alpha", type=float, default=0.2)
    p_pf.add_argument("--seed", required=True, type=int)
    p_pf.add_argument("--k", type=int, default=gptest.DEFAULT_GRID_POINTS)
    p_pf.add_argument("--n-sims", type=int, default=gptest.DEFAULT_N_SIMS)
    p_pf.add_argument("--output")
    p_pf.set_defaults(func=_cmd_portfolio)

    p_qq = sub.add_parser("qq", help="Q-Q data from a paired CSV")
    p_qq.add_argument("--input", required=True)
    p_qq.add_argument("--mode", choices=["marginals", "differences"], default="differences")
    p_qq.add_argument("--output")
    p_qq.set_defaults(func=_cmd_qq)

    p_sim = sub.add_parser("simulate", help="write a scenario sample as CSV")
    p_sim.add_argument("--case", required=True, choices=sorted(montecarlo.SCENARIOS))
    p_sim.add_argument("--n", required=True, type=int)
    p_sim.add_argument("--seed", required=True, type=int)
    p_sim.add_argument("--output")
    p_sim.set_defaults(func=_cmd_simulate)

    p_or = sub.add_parser("oracle", help="exact order verdicts for a discrete law")
    p_or.add_argument("--input", required=True)
    p_or.add_argument("--output")
    p_or.set_defaults(func=_cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PairdomError as exc:
        print(f"pairdom: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pairdom: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
