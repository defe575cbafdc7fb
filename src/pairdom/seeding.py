"""Seed derivation and generator construction.

All stochastic operations in the package take an explicit integer seed.
derive_seed mixes (seed, indices) into one seed through numpy's
SeedSequence, so parallel or out-of-order use reproduces the same draws.
make_rng(seed) is the stream of one seed; jump=j gives the j-th of its
substreams: the PCG64 state jumped j times from the stream's initial
state (the streams and substreams of L'Ecuyer et al. 2002, Oper. Res.
50:1073-1075), so it depends on neither the thread that draws it nor
what was drawn before.
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


# PCG64.jumped(j) advances the state by j * (phi - 1) * 2**128 draws
_PCG64_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


def make_rng(seed: int, *, jump: int = 0) -> np.random.Generator:
    """Generator for seed, at substream jump (0 is the stream's start).
    Identical inputs give identical streams."""
    bits = np.random.PCG64(np.random.SeedSequence((_check_seed(seed),)))
    # bits.jumped(jump) in place: jumped() first seeds a new PCG64 from OS
    # entropy, which tripled the cost of a substream. advance(0) changes
    # nothing but costs a call on every sample's stream, so it is skipped.
    if jump:
        bits.advance(jump * _PCG64_JUMP % 2**128)
    return np.random.Generator(bits)


def derive_seed(master_seed: int, *indices: int) -> int:
    """Mix (master_seed, *indices) into a single derived integer seed."""
    entropy = (_check_seed(master_seed), *(int(i) for i in indices))
    state = np.random.SeedSequence(entropy).generate_state(1, np.uint64)
    return int(state[0])
