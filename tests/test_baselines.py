import numpy as np
import pytest
from scipy import stats

from pairdom.baselines import _exact_wplus_cdf, paired_t_test, wilcoxon_signed_rank
from pairdom.empirical import PairedSample
from pairdom.errors import CapacityError, DegenerateSampleError, ParameterError


def sample_from_differences(d) -> PairedSample:
    d = np.asarray(d, dtype=float)
    return PairedSample(np.zeros(len(d)), d)  # y - x = d


class TestPairedT:
    def test_hand_example(self):
        # y - x = (1, -1, 2): t = 2/sqrt(7); for 2 degrees of freedom the
        # CDF has the closed form 1/2 + t / (2 * sqrt(t^2 + 2))
        res = paired_t_test(sample_from_differences([1.0, -1.0, 2.0]))
        t_expected = 2.0 / np.sqrt(7.0)
        p_expected = 0.5 + t_expected / (2.0 * np.sqrt(t_expected**2 + 2.0))
        assert res.statistic == pytest.approx(t_expected, abs=1e-12)
        assert res.p_value == pytest.approx(p_expected, abs=1e-9)
        assert res.p_value == pytest.approx(0.7357022604, abs=1e-9)
        assert res.n_effective == 3

    def test_symmetric_differences_p_near_half(self):
        rng = np.random.default_rng(5)
        half = rng.uniform(0.1, 2.0, 3000)
        d = np.concatenate([half, -half])
        res = paired_t_test(sample_from_differences(d))
        assert abs(res.p_value - 0.5) <= 0.02

    def test_strongly_negative_rejects(self):
        res = paired_t_test(sample_from_differences(-np.linspace(1.0, 2.0, 30)))
        assert res.p_value < 1e-6

    def test_zero_variance_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            paired_t_test(sample_from_differences([1.0, 1.0, 1.0]))

    def test_needs_two_pairs(self):
        with pytest.raises(ParameterError):
            paired_t_test(sample_from_differences([1.0]))

    def test_swap_antisymmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            s = PairedSample(rng.normal(0, 1, n), rng.normal(0.3, 1.2, n))
            p_fwd = paired_t_test(s).p_value
            p_rev = paired_t_test(s.swap()).p_value
            assert p_fwd + p_rev == pytest.approx(1.0, abs=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 25)
        y = rng.normal(0.5, 1, 25)
        base = paired_t_test(PairedSample(x, y))
        shifted = paired_t_test(PairedSample(x + 100.0, y + 100.0))
        assert shifted.p_value == pytest.approx(base.p_value, abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, 40)
        y = rng.normal(0.2, 1.5, 40)
        res = paired_t_test(PairedSample(x, y))
        ref = stats.ttest_rel(y, x, alternative="less")
        assert res.statistic == pytest.approx(ref.statistic, abs=1e-12)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)


class TestWilcoxon:
    def test_all_positive_maximal(self):
        res = wilcoxon_signed_rank(sample_from_differences([1.0, 2.0, 3.0]))
        assert res.statistic == 6.0
        assert res.p_value == 1.0

    def test_all_negative(self):
        res = wilcoxon_signed_rank(sample_from_differences([-1.0, -2.0, -3.0]))
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(1.0 / 8.0, abs=1e-12)

    def test_single_pair(self):
        res = wilcoxon_signed_rank(sample_from_differences([5.0]))
        assert res.statistic == 1.0
        assert res.p_value == 1.0

    def test_zeros_dropped_and_midranks(self):
        # d = (0, 1, 1, -1): zeros dropped, |d| all tie at midrank 2
        res = wilcoxon_signed_rank(sample_from_differences([0.0, 1.0, 1.0, -1.0]))
        assert res.n_effective == 3
        assert res.statistic == 4.0
        # subset sums of (2,2,2): 0,2,2,2,4,4,4,6 -> P(W+ <= 4) = 7/8
        assert res.p_value == pytest.approx(7.0 / 8.0, abs=1e-12)

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            wilcoxon_signed_rank(sample_from_differences([0.0, 0.0]))

    def test_exact_matches_scipy(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(4, 13))
            d = rng.normal(0.1, 1.0, n)  # continuous: no ties, no zeros
            res = wilcoxon_signed_rank(sample_from_differences(d))
            ref = stats.wilcoxon(d, alternative="less", method="exact")
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_exact_and_normal_paths_agree_at_threshold(self):
        rng = np.random.default_rng(25)
        worst = 0.0
        for _ in range(100):
            d = rng.normal(0.2, 1.0, 12)
            exact = wilcoxon_signed_rank(sample_from_differences(d), exact_threshold=12)
            approx = wilcoxon_signed_rank(sample_from_differences(d), exact_threshold=0)
            worst = max(worst, abs(exact.p_value - approx.p_value))
        assert worst <= 0.03

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, 30)
        y = rng.normal(0.4, 1, 30)
        base = wilcoxon_signed_rank(PairedSample(x, y))
        shifted = wilcoxon_signed_rank(PairedSample(x - 7.5, y - 7.5))
        assert shifted.p_value == base.p_value
        assert shifted.statistic == base.statistic

    def test_json_schema(self):
        res = wilcoxon_signed_rank(sample_from_differences([1.0, -2.0, 3.0]))
        payload = res.to_json_dict()
        assert list(payload) == ["method", "statistic", "p_value", "n_effective"]

    def test_exact_counts_equal_enumeration(self):
        # all 2^m sign patterns enumerated, against the counting recursion
        rng = np.random.default_rng(31)
        for trial in range(300):
            m = int(rng.integers(1, 13))
            if trial % 2:
                d = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], m)  # tied |d|
            else:
                d = rng.normal(0.0, 1.0, m)
            ranks = stats.rankdata(np.abs(d))
            sums = np.zeros(1)
            for r in ranks:
                sums = np.concatenate([sums, sums + r])
            for w in (float(ranks[d > 0].sum()), 0.0, float(ranks.sum())):
                assert _exact_wplus_cdf(ranks, w) == float(np.mean(sums <= w + 1e-9))

    def test_exact_capacity(self):
        d = np.arange(1.0, 64.0)  # 63 nonzero differences
        assert wilcoxon_signed_rank(sample_from_differences(d[:62]), exact_threshold=62).p_value == 1.0
        with pytest.raises(CapacityError):
            wilcoxon_signed_rank(sample_from_differences(d), exact_threshold=63)
