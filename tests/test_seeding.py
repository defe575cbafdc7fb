import numpy as np
import pytest

from pairdom.errors import ParameterError
from pairdom.seeding import derive_seed, make_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 3, 1) == derive_seed(42, 3, 1)

    def test_indices_matter(self):
        seeds = {derive_seed(42, r, s) for r in range(50) for s in (0, 1)}
        assert len(seeds) == 100

    def test_master_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_nonnegative_int_required(self):
        with pytest.raises(ParameterError):
            derive_seed(-1, 0)
        with pytest.raises(ParameterError):
            derive_seed(1.5, 0)  # type: ignore[arg-type]
        with pytest.raises(ParameterError):
            derive_seed(True, 0)  # type: ignore[arg-type]


class TestMakeRng:
    def test_streams_are_independent_and_reproducible(self):
        a1 = make_rng(derive_seed(7, 0)).standard_normal(8)
        a2 = make_rng(derive_seed(7, 0)).standard_normal(8)
        b = make_rng(derive_seed(7, 1)).standard_normal(8)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_numpy_integer_seeds_accepted(self):
        s = np.int64(11)
        assert np.array_equal(make_rng(s).random(4), make_rng(11).random(4))


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_jump_zero_is_the_streams_initial_state(seed):
    # a stream starts where its seed puts PCG64, not jumped ahead
    expected = np.random.PCG64(np.random.SeedSequence((seed,))).state
    assert make_rng(seed).bit_generator.state == expected
