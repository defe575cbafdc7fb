"""Weak joint stochastic dominance for paired data.

A pair (X, Y) with X dominated by Y in the weak joint sense satisfies
P(X - Y > t) <= P(Y - X > t) for every real t, an ordering of the two
difference variables that keeps the dependence structure in play. The
package provides exact checks of the order on finite discrete laws, a
nonparametric asymptotic significance test for paired samples, classical
paired baselines, a Monte Carlo rejection-rate harness, and a portfolio
comparison pipeline for asset returns.
"""

from .baselines import BaselineResult, paired_t_test, wilcoxon_signed_rank
from .distributions import (
    BivariateNormalParams,
    ClaytonParams,
    MarginalDist,
    Normal,
    Pareto,
    Weibull,
    cdf,
    quantile,
)
from .empirical import PairedSample, read_paired_csv, write_paired_csv
from .errors import (
    AlignmentError,
    CapacityError,
    CsvFormatError,
    DegenerateSampleError,
    DomainError,
    InsufficientDataError,
    PairdomError,
    ParameterError,
)
from .finance import (
    AnalysisReport,
    PriceSeries,
    QQData,
    ReturnSeries,
    align,
    analyze_pair,
    portfolio_returns,
    qq_export,
    weekly_returns,
)
from .gptest import (
    GpCovariance,
    Grid,
    TestResult,
    build_covariance,
    build_grid,
    pvalue_bounds,
    test_st_wj,
)
from .montecarlo import (
    ExperimentConfig,
    RejectionReport,
    ScenarioSpec,
    generate_scenario,
    run_rejection_experiment,
    scenario,
)
from .oracle import (
    DiscreteBivariate,
    MarginalOrder,
    OrderVerdict,
    analytic_st_wj_bivariate_normal,
    check_precedence,
    check_st_marginals_discrete,
    check_st_wj_discrete,
    convolve_independent,
    survival_of_difference,
)

__version__ = "0.1.0"
