"""Importing pairdom loads no part of scipy and no process machinery; the
functions that need scipy.special load it on their first call."""

import importlib
import pkgutil
import types

import pytest

import pairdom
from conftest import run_fresh

SCIPY_PARTS = ("scipy.stats", "scipy.special")
PROCESS_PARTS = ("multiprocessing", "concurrent.futures", "subprocess")


def loaded_after(code: str, parts=SCIPY_PARTS) -> set[str]:
    out = run_fresh(code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))")
    return set(out.split()) & set(parts)


PUBLIC_NAMES = [
    "AlignmentError", "AnalysisReport", "BaselineResult", "BivariateNormalParams",
    "CapacityError", "ClaytonParams", "CsvFormatError", "DegenerateSampleError",
    "DiscreteBivariate", "DomainError", "ExperimentConfig", "GpCovariance", "Grid",
    "InsufficientDataError", "MarginalDist", "MarginalOrder", "Normal", "OrderVerdict",
    "PairdomError", "PairedSample", "ParameterError", "Pareto", "PriceSeries", "QQData",
    "RejectionReport", "ReturnSeries", "ScenarioSpec", "TestResult", "Weibull", "align",
    "analytic_st_wj_bivariate_normal", "analyze_pair", "build_covariance", "build_grid", "cdf",
    "check_precedence", "check_st_marginals_discrete", "check_st_wj_discrete",
    "convolve_independent", "generate_scenario", "paired_t_test", "portfolio_returns",
    "pvalue_bounds", "qq_export", "quantile", "read_paired_csv", "run_rejection_experiment",
    "scenario", "survival_of_difference", "test_st_wj", "weekly_returns",
    "wilcoxon_signed_rank", "write_paired_csv",
]


def test_public_names_are_pinned():
    # an export added or removed shows up here; submodules are not exports
    names = [name for name, value in vars(pairdom).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(names) == PUBLIC_NAMES


def test_import_loads_no_scipy():
    assert loaded_after("import pairdom") == set()


def test_cli_test_command_loads_no_scipy(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("x,y\n" + "\n".join(f"{i % 7},{(3 * i) % 5}" for i in range(60)) + "\n")
    code = (
        "from pairdom.cli import main\n"
        f"assert main(['test', '--input', {str(pairs)!r}, '--seed', '1',"
        f" '--n-sims', '500', '--output', {str(tmp_path / 'res.json')!r}]) == 0"
    )
    assert loaded_after(code) == set()
    assert (tmp_path / "res.json").exists()


def test_cli_test_at_its_defaults_loads_no_scipy_module(tmp_path):
    # the p-value's normal tail is numpy only: no module of scipy at all
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("x,y\n" + "\n".join(f"{i % 7},{(3 * i) % 5}" for i in range(60)) + "\n")
    code = (
        "from pairdom.cli import main\n"
        f"assert main(['test', '--input', {str(pairs)!r}, '--seed', '1',"
        f" '--output', {str(tmp_path / 'res.json')!r}]) == 0\n"
        "import sys\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert run_fresh(code).split() == []


def test_import_and_cli_test_load_no_process_machinery(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("x,y\n" + "\n".join(f"{i % 7},{(3 * i) % 5}" for i in range(60)) + "\n")
    assert loaded_after("import pairdom", PROCESS_PARTS) == set()
    code = (
        "from pairdom.cli import main\n"
        f"assert main(['test', '--input', {str(pairs)!r}, '--seed', '1',"
        f" '--n-sims', '500', '--output', {str(tmp_path / 'res.json')!r}]) == 0"
    )
    assert loaded_after(code, PROCESS_PARTS) == set()


CALLS = [
    "paired_t_test(PairedSample(np.zeros(3), np.array([1.0, 2.0, 4.0]))).p_value",
    "wilcoxon_signed_rank(PairedSample(np.zeros(13), np.arange(1.0, 14.0))).p_value",
    "quantile(Normal(1.0, 2.0), 0.975)",
    "cdf(Normal(0.0, 1.0), 1.0)",
]
IMPORTS = (
    "import numpy as np\n"
    "from pairdom import PairedSample, Normal, cdf, quantile, paired_t_test,"
    " wilcoxon_signed_rank\n"
)


@pytest.mark.parametrize("call", CALLS)
def test_first_call_loads_scipy_special(call):
    # each call is the first in its process and gives the value it gives here
    namespace = {}
    exec(IMPORTS, namespace)
    expected = repr(float(eval(call, namespace)))
    out = run_fresh(IMPORTS + f"print(repr(float({call})))\n"
                    "import sys\nprint('scipy.special' in sys.modules)")
    assert out.split() == [expected, "True"]


@pytest.mark.parametrize("module", sorted(
    info.name for info in pkgutil.iter_modules(pairdom.__path__) if info.name != "__main__"))
def test_every_name_in_a_submodules_all_exists(module):
    # a deleted function whose export stayed behind shows up here
    mod = importlib.import_module(f"pairdom.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
