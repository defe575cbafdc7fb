"""Seed derivation and generator construction.

All stochastic operations in the package take an explicit integer seed.
derive_seed mixes (seed, indices) into one seed through numpy's
SeedSequence, so parallel or out-of-order use reproduces the same draws.
make_rng(seed) is the stream of one seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    return int(seed)


def make_rng(seed: int) -> np.random.Generator:
    """Generator for seed, a PCG64 stream. Identical seeds give identical
    streams."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((_check_seed(seed),))))


def derive_seed(master_seed: int, *indices: int) -> int:
    """Mix (master_seed, *indices) into a single derived integer seed."""
    entropy = (_check_seed(master_seed), *(int(i) for i in indices))
    state = np.random.SeedSequence(entropy).generate_state(1, np.uint64)
    return int(state[0])
