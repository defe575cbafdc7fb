import numpy as np
import pytest

from conftest import (
    SIX_ATOM_POINTS,
    random_discrete_bivariate,
    random_ordered_discrete_bivariate,
    stwj_holds_dense_scan,
)
from pairdom.distributions import BivariateNormalParams
from pairdom.errors import CapacityError, CsvFormatError, ParameterError
from pairdom.oracle import (
    DiscreteBivariate,
    MarginalOrder,
    OrderVerdict,
    analytic_st_wj_bivariate_normal,
    check_precedence,
    check_st_marginals_discrete,
    check_st_wj_discrete,
    convolve_independent,
    discretize_bivariate_normal,
    read_atoms_csv,
    survival_of_difference,
    write_atoms_csv,
)


class TestSurvivalOfDifference:
    def test_single_atom(self):
        d = DiscreteBivariate.from_atoms([(1.0, 3.0, 1.0)])
        assert survival_of_difference(d, "y-x", 0.0) == 1.0

    def test_six_atoms_x_minus_y(self, six_atom_law):
        assert survival_of_difference(six_atom_law, "x-y", 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_six_atoms_y_minus_x(self, six_atom_law):
        assert survival_of_difference(six_atom_law, "y-x", 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_bad_which(self, six_atom_law):
        with pytest.raises(ParameterError):
            survival_of_difference(six_atom_law, "nope", 0.0)


class TestCheckStWj:
    def test_six_atom_law_holds(self, six_atom_law):
        assert check_st_wj_discrete(six_atom_law) == OrderVerdict(holds=True)

    def test_swap_fails_with_witness(self, six_atom_law):
        verdict = check_st_wj_discrete(six_atom_law.swap())
        assert not verdict.holds
        assert verdict.witness_t is not None
        # the witness really violates the defining inequality
        swapped = six_atom_law.swap()
        c = verdict.witness_t
        strict_bad = survival_of_difference(swapped, "x-y", c) > survival_of_difference(
            swapped, "y-x", c
        )
        weak_bad = survival_of_difference(swapped, "x-y", c - 1e-9) > survival_of_difference(
            swapped, "y-x", c - 1e-9
        )
        assert strict_bad or weak_bad

    def test_diagonal_law_holds(self):
        d = DiscreteBivariate.uniform([(0.0, 0.0), (2.5, 2.5), (-1.0, -1.0)])
        assert check_st_wj_discrete(d).holds

    def test_agrees_with_dense_scan_on_random_instances(self):
        rng = np.random.default_rng(2025)
        disagreements = 0
        for _ in range(100):
            d = random_discrete_bivariate(rng)
            if check_st_wj_discrete(d).holds != stwj_holds_dense_scan(d):
                disagreements += 1
        assert disagreements == 0


class TestPrecedence:
    def test_six_atom_tie(self, six_atom_law):
        p_xy, p_yx = check_precedence(six_atom_law)
        assert p_xy == pytest.approx(0.5, abs=1e-12)
        assert p_yx == pytest.approx(0.5, abs=1e-12)

    def test_strictly_below(self):
        assert check_precedence(DiscreteBivariate.from_atoms([(0.0, 1.0, 1.0)])) == (0.0, 1.0)

    def test_diagonal(self):
        assert check_precedence(DiscreteBivariate.from_atoms([(0.0, 0.0, 1.0)])) == (0.0, 0.0)


class TestMarginals:
    def test_six_atom_incomparable(self, six_atom_law):
        assert check_st_marginals_discrete(six_atom_law) == MarginalOrder.INCOMPARABLE

    def test_clear_order(self):
        d = DiscreteBivariate.from_atoms([(0.0, 1.0, 0.5), (1.0, 2.0, 0.5)])
        assert check_st_marginals_discrete(d) == MarginalOrder.X_LE_Y
        assert check_st_marginals_discrete(d.swap()) == MarginalOrder.Y_LE_X

    def test_equal_marginals(self):
        d = DiscreteBivariate.uniform([(0.0, 1.0), (1.0, 0.0)])
        assert check_st_marginals_discrete(d) == MarginalOrder.EQUAL


class TestImplications:
    def test_order_implies_means_and_precedence(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(100):
            d = random_discrete_bivariate(rng)
            if not check_st_wj_discrete(d).holds:
                continue
            checked += 1
            mean_x = float(d.p @ d.x)
            mean_y = float(d.p @ d.y)
            assert mean_x <= mean_y + 1e-9
            p_xy, p_yx = check_precedence(d)
            assert p_xy <= p_yx + 1e-12
        assert checked >= 10  # the generator must exercise the ordered branch

    def test_antisymmetry_forces_equal_difference_laws(self):
        rng = np.random.default_rng(41)
        found = 0
        for _ in range(400):
            d = random_discrete_bivariate(rng)
            if check_st_wj_discrete(d).holds and check_st_wj_discrete(d.swap()).holds:
                found += 1
                dxy = np.sort(d.x - d.y)
                dyx = np.sort(d.y - d.x)
                # same support and masses: both laws survive identical checks
                ts = np.unique(np.concatenate([dxy, dyx]))
                for t in ts:
                    assert survival_of_difference(d, "x-y", t) == pytest.approx(
                        survival_of_difference(d, "y-x", t), abs=1e-12
                    )
        assert found >= 3


class TestConvolution:
    def test_single_input_identity(self, six_atom_law):
        assert convolve_independent([six_atom_law]) is six_atom_law

    def test_two_coin_flips(self):
        d = DiscreteBivariate.from_atoms([(0.0, 1.0, 0.5), (1.0, 0.0, 0.5)])
        out = convolve_independent([d, d])
        atoms = sorted(zip(out.x, out.y, out.p))
        # (1,1) atoms merge: {(0,2,.25),(1,1,.5),(2,0,.25)}
        assert atoms == [(0.0, 2.0, 0.25), (1.0, 1.0, 0.5), (2.0, 0.0, 0.25)]

    def test_order_preserved_under_convolution(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = random_ordered_discrete_bivariate(rng)
            b = random_ordered_discrete_bivariate(rng)
            assert check_st_wj_discrete(a).holds and check_st_wj_discrete(b).holds
            assert check_st_wj_discrete(convolve_independent([a, b])).holds

    def test_capacity_error(self):
        d = DiscreteBivariate.uniform([(float(i), float(-i)) for i in range(20)])
        with pytest.raises(CapacityError):
            convolve_independent([d, d], max_atoms=100)

    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            convolve_independent([])


class TestAnalyticNormal:
    PAPER_COV = np.array([[2.0, 1.5], [1.5, 1.5]])

    def test_ordered_case(self):
        params = BivariateNormalParams(np.array([2.0, 4.0]), self.PAPER_COV)
        assert analytic_st_wj_bivariate_normal(params) is True

    def test_reversed_case(self):
        params = BivariateNormalParams(np.array([3.0, 1.0]), self.PAPER_COV)
        assert analytic_st_wj_bivariate_normal(params) is False

    def test_equal_means_boundary(self):
        params = BivariateNormalParams(np.array([1.0, 1.0]), np.eye(2))
        assert analytic_st_wj_bivariate_normal(params) is True

    def test_agrees_with_discretized_oracle(self):
        rng = np.random.default_rng(314)
        agreements = 0
        for _ in range(20):
            mu1 = rng.uniform(-1.0, 1.0)
            gap = rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 1.0)
            a = rng.uniform(0.6, 1.4)
            b = rng.uniform(0.6, 1.4)
            rho = rng.uniform(-0.7, 0.7)
            sigma = np.array([[a * a, rho * a * b], [rho * a * b, b * b]])
            params = BivariateNormalParams(np.array([mu1, mu1 + gap]), sigma)
            law = discretize_bivariate_normal(params, grid_size=200)
            assert check_st_wj_discrete(law, tol=1e-9).holds == analytic_st_wj_bivariate_normal(params)
            agreements += 1
        assert agreements == 20

    def test_counterexample_ordered_but_marginals_incomparable(self):
        # unequal means with unequal variances: the dominance holds while
        # the marginal survival curves cross
        params = BivariateNormalParams(
            np.array([0.0, 1.0]), np.array([[4.0, 0.5], [0.5, 1.0]])
        )
        law = discretize_bivariate_normal(params, grid_size=200)
        assert analytic_st_wj_bivariate_normal(params) is True
        assert check_st_wj_discrete(law, tol=1e-9).holds
        assert check_st_marginals_discrete(law, tol=1e-9) == MarginalOrder.INCOMPARABLE


class TestValidationAndCsv:
    def test_probability_validation(self):
        with pytest.raises(ParameterError):
            DiscreteBivariate.from_atoms([(0.0, 0.0, 0.5)])
        with pytest.raises(ParameterError):
            DiscreteBivariate.from_atoms([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])

    def test_csv_roundtrip(self, tmp_path, six_atom_law):
        path = tmp_path / "atoms.csv"
        write_atoms_csv(six_atom_law, path)
        back = read_atoms_csv(path)
        assert np.array_equal(back.x, six_atom_law.x)
        assert np.array_equal(back.y, six_atom_law.y)
        assert np.array_equal(back.p, six_atom_law.p)

    def test_csv_bad_field_count(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("x,y,p\n1,2\n")
        with pytest.raises(CsvFormatError) as err:
            read_atoms_csv(path)
        assert err.value.line == 2

    def test_six_atom_fixture_shape(self):
        assert len(SIX_ATOM_POINTS) == 6
