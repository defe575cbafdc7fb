import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kendalltau

from pairdom import distributions
from pairdom.distributions import (
    BivariateNormalParams,
    Normal,
    Pareto,
    Weibull,
    cdf,
    clayton_cdf,
    quantile,
    sample_bivariate_normal_rows,
    sample_clayton_rows,
    sample_clayton_uniform_rows,
)
from pairdom.errors import CapacityError, DomainError, ParameterError

PAPER_COV = np.array([[2.0, 1.5], [1.5, 1.5]])


class TestCdf:
    def test_pareto_left_endpoint(self):
        assert cdf(Pareto(2, 1), 1.0) == 0.0

    def test_pareto_hand_value(self):
        # 1 - (1/2)^2
        assert cdf(Pareto(2, 1), 2.0) == pytest.approx(0.75, abs=1e-12)

    def test_weibull_hand_value(self):
        # 1 - exp(-(1/1)^1)
        assert cdf(Weibull(1, 1), 1.0) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)

    def test_weibull_zero_below_support(self):
        assert cdf(Weibull(2, 3), 0.0) == 0.0
        assert cdf(Weibull(2, 3), -5.0) == 0.0

    @pytest.mark.parametrize(
        "dist", [Normal(0, 1), Normal(-2, 3), Pareto(2, 1), Pareto(0.5, 4), Weibull(1.5, 2)]
    )
    def test_nondecreasing_with_limits(self, dist):
        xs = np.linspace(-50, 2000, 4001)
        vals = cdf(dist, xs)
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[0] <= 1e-6
        assert cdf(dist, quantile(dist, 1.0 - 1e-7)) >= 1.0 - 2e-7

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            Pareto(-1, 1)
        with pytest.raises(ParameterError):
            Weibull(2, 0)
        with pytest.raises(ParameterError):
            Normal(0, -1)


class TestQuantile:
    def test_pareto_inverts_cdf(self):
        assert quantile(Pareto(2, 1), 0.75) == pytest.approx(2.0, abs=1e-12)

    def test_weibull_inverts_cdf(self):
        assert quantile(Weibull(1, 1), 1.0 - np.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_normal_median(self):
        assert quantile(Normal(0, 1), 0.5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "dist",
        [Normal(0, 1), Normal(3, 0.5), Pareto(2, 1), Pareto(1.5, 1), Pareto(5, 4),
         Weibull(6, 2), Weibull(0.25, 1.5), Weibull(0.9, 1.5)],
    )
    def test_roundtrip_on_probability_grid(self, dist):
        ps = np.arange(1, 100) / 100.0
        back = cdf(dist, quantile(dist, ps))
        assert np.abs(back - ps).max() <= 1e-9

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                quantile(Normal(0, 1), bad)


class TestBivariateNormal:
    def test_standard_correlation_near_zero(self):
        params = BivariateNormalParams(np.zeros(2), np.eye(2))
        (x,), (y,) = sample_bivariate_normal_rows(params, 100_000, [101])
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) <= 0.02

    def test_scenario_means(self):
        params = BivariateNormalParams(np.array([2.0, 4.0]), PAPER_COV)
        (x,), (y,) = sample_bivariate_normal_rows(params, 100_000, [11])
        assert abs(x.mean() - 2.0) <= 0.02
        assert abs(y.mean() - 4.0) <= 0.02
        cov = np.cov(x, y)
        assert np.abs(cov - PAPER_COV).max() <= 0.05

    def test_degenerate_sigma_returns_mu(self):
        params = BivariateNormalParams(np.array([1.5, -2.0]), np.zeros((2, 2)))
        x, y = sample_bivariate_normal_rows(params, 64, [5, 6])
        assert np.all(x == 1.5)
        assert np.all(y == -2.0)

    def test_bit_identical_for_fixed_seed(self):
        params = BivariateNormalParams(np.array([2.0, 4.0]), PAPER_COV)
        ax, ay = sample_bivariate_normal_rows(params, 1000, [99])
        bx, by = sample_bivariate_normal_rows(params, 1000, [99])
        assert np.array_equal(ax, bx) and np.array_equal(ay, by)

    def test_non_psd_rejected_at_construction(self):
        with pytest.raises(ParameterError):
            BivariateNormalParams(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_sneaky_non_psd_fails_factorization(self):
        # det = -1e-14 slips past the -1e-12 slack; the pivot check catches it
        sigma = np.array([[0.0, 1e-7], [1e-7, 1.0]])
        with pytest.raises(ParameterError):
            BivariateNormalParams(np.zeros(2), sigma)

    def test_negative_residual_pivot_rejected_at_construction(self):
        # det = -1e-13 passes the det check; the second pivot is -1e-7
        s12 = np.sqrt(1e-6 + 1e-13)
        with pytest.raises(ParameterError, match="pivot"):
            BivariateNormalParams(np.zeros(2), np.array([[1e-6, s12], [s12, 1.0]]))


def clayton_tau_by_quadrature(theta: float) -> float:
    """Kendall tau from the Archimedean generator integral
    tau = 1 + 4 * int_0^1 phi(t)/phi'(t) dt with phi(t) = (t^-theta - 1)/theta."""
    ratio = lambda t: (t ** (theta + 1.0) - t) / theta
    integral, _ = quad(ratio, 0.0, 1.0)
    return 1.0 + 4.0 * integral


class TestClayton:
    def test_tau_identity_matches_quadrature(self):
        assert clayton_tau_by_quadrature(0.5) == pytest.approx(0.5 / 2.5, abs=1e-10)

    def test_sampler_tau(self):
        (u,), (v,) = sample_clayton_uniform_rows(0.5, 100_000, [2024])
        tau = kendalltau(u[:50_000], v[:50_000]).statistic
        assert abs(tau - clayton_tau_by_quadrature(0.5)) <= 0.02

    def test_empirical_copula_at_center(self):
        (u,), (v,) = sample_clayton_uniform_rows(0.5, 100_000, [77])
        emp = np.mean((u <= 0.5) & (v <= 0.5))
        assert abs(emp - clayton_cdf(0.5, 0.5, 0.5)) <= 0.01
        assert clayton_cdf(0.5, 0.5, 0.5) == pytest.approx((2 * 0.5**-0.5 - 1) ** -2, abs=1e-12)

    def test_uniform_marginals(self):
        (u,), (v,) = sample_clayton_uniform_rows(0.5, 100_000, [31])
        for w in (u, v):
            assert abs(w.mean() - 0.5) <= 0.005
            assert abs(np.mean(w <= 0.25) - 0.25) <= 0.01

    def test_pareto_marginal_mean(self):
        (x,), _ = sample_clayton_rows(0.5, Pareto(2, 1), Pareto(1.5, 1), 100_000, [15])
        # Pareto mean a*k/(a-1)
        assert abs(x.mean() - 2.0) <= 0.05

    def test_single_draw_inside_supports(self):
        x, y = sample_clayton_rows(0.7, Pareto(2, 1), Weibull(1.5, 2), 1, [8])
        assert x.shape == y.shape == (1, 1)
        assert x[0, 0] >= 1.0 and y[0, 0] >= 0.0

    def test_deterministic(self):
        ax, ay = sample_clayton_rows(0.5, Pareto(2, 1), Pareto(1.5, 1), 500, [4])
        bx, by = sample_clayton_rows(0.5, Pareto(2, 1), Pareto(1.5, 1), 500, [4])
        assert np.array_equal(ax, bx) and np.array_equal(ay, by)

    def test_invalid_theta(self):
        with pytest.raises(ParameterError):
            sample_clayton_uniform_rows(0.0, 10, [1])
        with pytest.raises(ParameterError):
            sample_clayton_rows(-1.0, Pareto(2, 1), Pareto(1.5, 1), 10, [1])


ROW_SAMPLERS = {
    "normal": lambda n, seeds: sample_bivariate_normal_rows(
        BivariateNormalParams(np.zeros(2), PAPER_COV), n, seeds),
    "clayton_uniform": lambda n, seeds: sample_clayton_uniform_rows(0.5, n, seeds),
    "clayton": lambda n, seeds: sample_clayton_rows(0.5, Pareto(2, 1), Weibull(1.5, 2), n, seeds),
}


class TestSizeCap:
    @pytest.mark.parametrize("sampler", sorted(ROW_SAMPLERS))
    @pytest.mark.parametrize("fits, over", [((4, 10), (4, 11)), ((40, 1), (41, 1))],
                             ids=["short_rows", "one_long_row"])
    def test_rows_beyond_the_cap_raise_before_drawing(self, monkeypatch, sampler, fits, over):
        # a small cap stands in for 2**23, so no large sample is ever drawn
        monkeypatch.setattr(distributions, "MAX_VALUES", 40)
        draw = ROW_SAMPLERS[sampler]
        n, rows = fits
        assert draw(n, list(range(rows)))[0].shape == (rows, n)
        monkeypatch.setattr(distributions, "make_rng", lambda *args, **kw: pytest.fail("drew"))
        n, rows = over
        with pytest.raises(CapacityError, match="at most 40 floats per coordinate fit in 64 MiB"):
            draw(n, list(range(rows)))

    @pytest.mark.parametrize("sampler", sorted(ROW_SAMPLERS))
    def test_empty_rows_raise(self, sampler):
        with pytest.raises(ParameterError, match="n must be >= 1"):
            ROW_SAMPLERS[sampler](0, [1])
