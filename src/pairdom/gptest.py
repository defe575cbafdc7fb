"""Asymptotic significance machinery for the paired dominance test.

Under the null hypothesis the scaled empirical survival gap is bounded in
distribution by a zero-mean Gaussian process on [0, infinity) whose
covariance, for grid points t_i <= t_j, is

    Sigma_ij = Fbar(t_i v t_j) + Gbar(t_i v t_j)
               - (Fbar(t_i) - Gbar(t_i)) * (Fbar(t_j) - Gbar(t_j)),

with v denoting the maximum and Fbar, Gbar estimated by the empirical
survivals of the two difference samples. The cross moments reduce to the
common survival at the larger grid point because, for s, t >= 0, the
events {X - Y > s} and {Y - X > t} are incompatible.

Cell form. The process is the limit of the centred mean of
l_t(d) = sign(d) * 1{|d| > t}, so on the grid a pair matters only through
the sign of d and the number m of grid points below |d|. Grouping the
nonzero differences by m gives M cells with shares r_m = #{m_i = m}/n and
signed shares q_m = sum sign(d_i)/n. The cell totals V are multinomial,
Cov V = diag(r) - q q^T, and the process is the suffix sum
W(t_j) = sum_{m > j} V_m, so Sigma = A (diag r - q q^T) A^T with
A[j, m] = 1{m > j}. pvalue_bounds draws V exactly as

    V = sqrt(r) * (Z - gamma w w^T Z),   w = q / sqrt(r),
    gamma = 1 / (1 + sqrt(1 - |w|^2)),

since (I - gamma w w^T)^2 = I - w w^T; |w|^2 <= sum r <= 1 because
|q_m| <= r_m. A draw takes M normals and O(M) work. No matrix is formed or
factorized, so nothing needs a diagonal regularization to stay positive
definite.

Line conditioning. Every path value is linear in the draw's normals Z:
W_i = c_i . Z, where W_i is W just below cell i, with Var W_i = R_i - Q_i^2
for the suffix sums R_i and Q_i of r and q over cells >= i, and
Cov(W_i, W_j) = R_max(i,j) - Q_i Q_j. Take j*, the path point with the
largest null variance, and the unit direction u = c_j* / sd_j*; along
the line Z = Z_perp + eta u each path value is W_i = a_i + eta b_i with
b_i = Cov(W_i, W_j*) / sd_j*, which is >= 0 because |Q_i| <= R_i <= 1.
Given Z_perp, eta is standard normal, so

    P(max_i W_i > stat | Z_perp) = Phi(-hi),
    hi = u . Z + min over b_i > 0 of (stat - W_i) / b_i,

exactly, and each draw adds this probability instead of the indicator
of its maximum (conditional Monte Carlo, a Rao-Blackwellization:
Asmussen & Glynn 2007, Stochastic Simulation, ch. V; line sampling in
Koutsourelakis, Pradlwarter & Schueller 2004, Prob. Eng. Mech.
19:409-417). The mean is the same and the variance is smaller: 28-322x
at p = 0.05 on the samples DEFAULT_N_SIMS was sized on, 8.7x on a C1
sample of 100 pairs. u . Z = W_j* / sd_j* comes out of the loop that
forms the path, so neither u nor b needs a matrix. A path value with
b_i = 0 does not move along the line and counts as an indicator. Phi is
computed with numpy alone (_upper_tail).

Ties. The process is exactly 0 at grid points at or past the largest |d|
(the last point of the build_grid grid is one), and the statistic is 0
whenever Fbar <= Gbar on the candidate set. So at statistic 0 a draw's
maximum equals the statistic whenever no moving path value exceeds it,
and that event counts one half (the mid-p rule): the draw adds
1/2 + 1/2 Phi(-hi), which is 1 - stay/2 for the probability stay that
the moving values stay <= 0. A dense draw with a vanishing
regularization puts that zero-variance point above 0 in half the draws;
counting ties one half keeps p1 where such a draw puts it.

Draws. The draws come in antithetic pairs (Hammersley & Morton 1956,
Proc. Camb. Phil. Soc. 52:449-475; Asmussen & Glynn 2007, ch. V): normal
row j, the next dim normals of the seed's one stream make_rng(seed),
gives draw 2j from Z_j and draw 2j + 1 from -Z_j, so n_sims draws take
ceil(n_sims / 2) rows; an odd last row's -Z_j draw is not made. -Z has
the law of Z, so each draw keeps its mean. A pair mean has variance
(1 + rho)/2 times that of one value, for the correlation rho of the two
values of a pair, which read -0.005 to -0.21 on six samples at
p = 0.05 and 0.01: at equal n_sims the error is the same or smaller, and
half the normals are drawn. The draws come in blocks of at most 2048
draws and 64 MiB of normals (one pair, if that is more), whole pairs in
each block but the last; a block's rows are the next ones of the stream
whatever the block sizes.
p1 is the running sum of the pair sums, added left to right over all
pairs, over n_sims; so p1 depends only on (covariance, statistic,
n_sims, seed), not on the blocks, and the running sum never decreases.
Its standard error is the sample standard deviation of the pair means
over the square root of their number, since the values of a pair are
not independent.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .empirical import PairedSample, statistic_and_t_star
from .errors import CapacityError, DegenerateSampleError, ParameterError
from .seeding import make_rng

__all__ = [
    "Grid",
    "GpCovariance",
    "TestResult",
    "build_grid",
    "build_covariance",
    "pvalue_bounds",
    "test_st_wj",
]

DEFAULT_GRID_POINTS = 100
# The smallest multiple of 256 draws whose standard error at p = 0.05,
# from the spread of the pair means, is at most 2.18e-3, the binomial
# error of 10**4 indicator draws, on every sample of the benchmark's
# analyst pool and on a C1 sample of 100 pairs (the largest need, 1083
# draws).
DEFAULT_N_SIMS = 1280


@dataclass(frozen=True, eq=False)
class Grid:
    """Evaluation grid t_0 = 0 < t_1 < ... < t_k."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or len(pts) < 2:
            raise ParameterError("a grid needs at least two points")
        if pts[0] != 0.0:
            raise ParameterError("the first grid point must be exactly 0")
        if np.any(np.diff(pts) <= 0):
            raise ParameterError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def k(self) -> int:
        return len(self.points) - 1


@dataclass(frozen=True, eq=False)
class GpCovariance:
    """Covariance of the limiting Gaussian process on a grid, in cell form.

    Cell c holds the nonzero differences with exactly cell[c] grid points
    below |d| (strictly increasing, from 1 to n_points); r[c] is its share
    of all n pairs and q[c] its sum of sign(d) over n.
    """

    cell: np.ndarray
    r: np.ndarray
    q: np.ndarray
    n_points: int

    @property
    def dim(self) -> int:
        """Normals per draw: the number of nonempty cells."""
        return len(self.cell)


@dataclass(frozen=True)
class TestResult:
    """Outcome of the dominance test.

    t_star is the smallest t >= 0 where the survival gap reaches its
    supremum, cells is the simulation's effective dimension
    (GpCovariance.dim) and p_se the Monte Carlo standard error of p1: the
    sample standard deviation of the means of the antithetic draw pairs
    over the square root of their number, or 0 where pvalue_bounds
    settled p1 without drawing.
    """

    statistic: float
    t_star: float
    p1: float
    p_se: float
    n: int
    k: int
    cells: int
    n_sims: int
    seed: int

    def reject_at(self, level: float) -> bool:
        return self.p1 < level

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "t_star": self.t_star,
            "p1": self.p1,
            "p_se": self.p_se,
            "n": self.n,
            "k": self.k,
            "cells": self.cells,
            "n_sims": self.n_sims,
            "seed": self.seed,
            "reject_at_0_05": self.reject_at(0.05),
            "reject_at_0_01": self.reject_at(0.01),
        }


def build_grid(s: PairedSample, k: int | None = DEFAULT_GRID_POINTS) -> Grid:
    """Evaluation grid of the test on s.

    An integer k gives k+1 equally spaced points from 0 to the largest
    realized |x - y|. k=None gives the realized support, for integer-valued
    or ordinal data: 0 plus the distinct nonnegative values of +-(x - y),
    with no interpolation points. The k+1 points of an equally spaced grid
    must fit in the 64 MiB draw-block budget, so k >= 2**23 raises
    CapacityError before anything is allocated.
    """
    if k is not None:
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        if k + 1 > _BLOCK_BYTES // 8:
            raise CapacityError(
                f"k={k} needs {k + 1} grid points; at most {_BLOCK_BYTES // 8} fit in 64 MiB"
            )
    size = np.abs(s.x - s.y)
    max_z = float(size.max())
    if max_z <= 0.0:
        raise DegenerateSampleError("all paired differences are zero")
    if k is None:
        return Grid(np.unique(np.concatenate(([0.0], size))))
    points = np.linspace(0.0, max_z, k + 1)
    # a subnormal largest difference has too few representable values
    # below it for k steps, and linspace collapses some of them
    if np.any(np.diff(points) <= 0.0):
        raise DegenerateSampleError(
            f"largest difference {max_z!r} is too small for {k} grid steps"
        )
    return Grid(points)


def build_covariance(g: Grid, s: PairedSample) -> GpCovariance:
    """Cell form of the covariance with the empirical survivals plugged in."""
    d = s.x - s.y
    d = d[d != 0.0]
    below = np.searchsorted(g.points, np.abs(d), side="left")
    cell, inverse = np.unique(below, return_inverse=True)
    r = np.bincount(inverse, minlength=len(cell)) / s.n
    q = np.bincount(inverse, weights=np.sign(d), minlength=len(cell)) / s.n
    return GpCovariance(cell=cell, r=r, q=q, n_points=len(g.points))


_MAX_BLOCK = 2048  # draws per block
# bytes of normals in one block; also the bound on the k+1 points of an
# equally spaced grid
_BLOCK_BYTES = 64 << 20
_FIRST_BLOCK = 256
_BLOCK_GROWTH = 4


def _two_cpus() -> bool:
    """Whether this process may compute on two CPUs or more.

    Not in a multiprocessing child (a Pool or ProcessPoolExecutor worker),
    whose parent already spreads the work; otherwise when at least two CPUs
    are usable."""
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) >= 2


# Phi(-h) = exp(-h^2 / 2) M(h) for h >= 0, with M(h) = Phi(-h) exp(h^2 / 2)
# from its Taylor polynomial about the nearest node h0 = j / 128
_TAIL_NODES = 128  # per unit of h
_TAIL_TOP = 37.5  # the last node; exp(h0^2 / 2) overflows past 37.6
_TAIL_DEGREE = 4


@functools.cache
def _tail_taylor() -> np.ndarray:
    """Taylor coefficients of M about the nodes 0, 1/128, ..., 37.5, the
    highest degree in row 0: M(h0) from math.erfc, and the derivatives
    from M' = h M - 1/sqrt(2 pi) and M^(n+1) = h M^(n) + n M^(n-1)."""
    h0 = np.arange(int(_TAIL_TOP * _TAIL_NODES) + 1) / _TAIL_NODES
    m = [np.exp(h0 * h0 / 2) * np.array([0.5 * math.erfc(h / math.sqrt(2)) for h in h0])]
    m.append(h0 * m[0] - 1 / math.sqrt(2 * math.pi))
    for n in range(1, _TAIL_DEGREE):
        m.append(h0 * m[n] + n * m[n - 1])
    return np.array([m[j] / math.factorial(j) for j in range(_TAIL_DEGREE, -1, -1)])


def _upper_tail(h: np.ndarray) -> np.ndarray:
    """Phi(-h), the standard normal upper tail, for a float array h: within
    1e-12 of 0.5 * math.erfc(h / sqrt 2) relative for h in [-8, 37], and
    0 past h = 38.9, where it underflows."""
    a = np.minimum(np.abs(h), 38.9)
    node = np.rint(a * _TAIL_NODES)
    d = a - node * (1.0 / _TAIL_NODES)  # |d| <= 1/256
    # past the last node, M there (which is within 4% of M(h), where
    # Phi(-h) < 5e-308)
    c = _tail_taylor().take(node.astype(np.intp), axis=1, mode="clip")
    p = c[0] * d
    for row in c[1:-1]:
        p += row
        p *= d
    p += c[-1]
    a *= a
    a *= -0.5
    p *= np.exp(a)
    np.subtract(1.0, p, out=p, where=h < 0.0)
    return p


@dataclass(frozen=True)
class _Line:
    """What a draw needs besides its normals: sqrt(r) and w of the cell
    form; per cell in the loop, last cell first, (i, weights, moves), where
    weights turn (w.Z, the path minus stat) into (stat - W_i) / b_i if the
    value moves along the line (b_i > 0) or into W_i - stat if not; the
    cell jstar of the largest null variance and its sd; the floor of the
    maximum; and whether some cell has b_i = 0 (fixed)."""

    sqrt_r: np.ndarray
    w: np.ndarray
    cells: list
    jstar: int
    sd: float
    floor: float
    fixed: bool


def _path_moments(c: GpCovariance) -> tuple[np.ndarray, np.ndarray, int, float]:
    """(Q, R, first, floor): the suffix sums Q_i and R_i of q and r over
    cells >= i for each path value W_i that the loop forms, i >= first, so
    that Var W_i = R_i - Q_i^2; and the floor of the maximum."""
    big_q = np.cumsum(c.q[::-1])[::-1]
    big_r = np.cumsum(c.r[::-1])[::-1]
    # W below the smallest |d| is the sum over all cells, with variance
    # sum(r) - sum(q)^2. That is 0 when every difference is nonzero and of
    # one sign, and of order 1/n or more otherwise, as is the variance of
    # every other path value. A zero-variance value is exactly 0: it is left
    # out of the loop and 0 joins the maximum, so rounding cannot flip it.
    first = int(c.dim > 0 and big_r[0] - big_q[0] ** 2 < 1e-12)
    # W = 0 at grid points past every cell, so the maximum is at least 0
    floor = 0.0 if first or c.dim == 0 or c.cell[-1] < c.n_points else -np.inf
    return big_q[first:], big_r[first:], first, floor


def _line(c: GpCovariance) -> _Line:
    sqrt_r = np.sqrt(c.r)
    w = c.q / sqrt_r
    gamma = 1.0 / (1.0 + math.sqrt(max(0.0, 1.0 - float(w @ w))))
    big_q, big_r, first, floor = _path_moments(c)
    var = big_r - big_q * big_q
    jstar = int(np.argmax(var)) if len(var) else 0
    sd = math.sqrt(var[jstar]) if len(var) and var[jstar] > 0.0 else 0.0
    # (w.Z, path - stat) -> (stat - W_i) / b_i, with W_i the path minus
    # gamma Q_i w.Z; or -> W_i - stat where b_i = 0
    weights = np.empty((len(var), 2))
    if sd:
        b = (big_r[np.maximum(np.arange(len(var)), jstar)] - big_q * big_q[jstar]) / sd
        np.divide(gamma * big_q, b, out=weights[:, 0])
        np.divide(-1.0, b, out=weights[:, 1])
        moves = b > 0.0
    else:
        moves = np.zeros(len(var), dtype=bool)
    fixed = not moves.all()
    if fixed:
        weights[~moves] = np.stack([-gamma * big_q[~moves], np.ones(np.count_nonzero(~moves))], 1)
    cells = list(zip(range(c.dim - 1, first - 1, -1), weights[::-1], moves[::-1].tolist()))
    return _Line(sqrt_r, w, cells, jstar + first if sd else -1, sd, floor, fixed)


def _draw(z: np.ndarray, stat: float, line: _Line) -> np.ndarray:
    """Each draw's probability that the maximum exceeds stat given its
    normals off the line, a row of z, with mid-p ties. z is overwritten."""
    size = len(z)
    terms = np.empty((2, size))  # w.Z and the path minus stat
    np.matmul(z, line.w, out=terms[0])
    z *= line.sqrt_r
    path = terms[1]
    path.fill(-stat)
    lo = np.full(size, np.inf)  # min over b_i > 0 of (stat - W_i) / b_i
    top = line.floor - stat  # max over b_i = 0 of W_i - stat
    if line.fixed:
        top = np.full(size, top)
    hi = np.zeros(size)  # u.Z
    value = np.empty(size)
    dot, minimum, jstar = np.dot, np.minimum, line.jstar
    for i, weights, moves in line.cells:
        path += z[:, i]
        dot(weights, terms, out=value)
        if moves:
            minimum(lo, value, out=lo)
            if i == jstar:  # u.Z = W_jstar / sd
                np.subtract(stat / line.sd, value, out=hi)
        else:
            np.maximum(top, value, out=top)
    hi += lo
    out = _upper_tail(hi)
    if line.fixed or top >= 0.0:  # a value that does not move is above stat, or ties
        out = np.where(top > 0.0, 1.0, np.where(top == 0.0, 0.5 + 0.5 * out, out))
    return out


# The largest probability with which pvalue_bounds may, given lowest_level,
# return a decision that differs from the full simulation's without
# drawing; fixed, and settable by no caller.
_SETTLE_RISK = 1e-3


def _settle(c: GpCovariance, stat: float, n_sims: int, stop_at: float,
            lowest_level: float | None) -> float | None:
    """A p1 that settles every level the caller compares it with before
    anything is drawn, or None (see pvalue_bounds): 0.5 at a statistic
    <= 0 with the zero floor; given lowest_level, the union bound on the
    null tail where it rejects every level, or the largest one-point tail
    where it keeps every level."""
    big_q, big_r, _, floor = _path_moments(c)
    if stop_at <= 0.5 and stat <= 0.0 and floor == 0.0:
        return 0.5
    if lowest_level is None:
        return None
    var = big_r - big_q * big_q
    tails = _upper_tail(stat / np.sqrt(var[var > 0.0]))
    if stat > 0.0:
        union = float(tails.sum())
        if union <= _SETTLE_RISK * lowest_level:
            return union
    pairs = n_sims // 2
    one_point = float(tails.max()) if len(tails) else 0.0
    if one_point >= (stop_at * n_sims / (2 * pairs)
                     + math.sqrt(math.log(1.0 / _SETTLE_RISK) / (2 * pairs))):
        return one_point
    return None


class _PValue(float):
    """A simulated p-value p1, with se, its standard error: the sample
    standard deviation of the pair means over the square root of their
    number, or 0 where no draw was made."""

    __slots__ = ("se",)

    def __new__(cls, p1: float, se: float):
        self = super().__new__(cls, p1)
        self.se = se
        return self


def pvalue_bounds(
    c: GpCovariance,
    stat: float,
    n_sims: int,
    seed: int,
    *,
    stop_at: float = 1.0,
    lowest_level: float | None = None,
) -> float:
    """Monte Carlo p-value upper bound p1 for the statistic.

    Draws n_sims paths of the null process on the grid in antithetic
    pairs, Z and -Z from each row of c.dim normals of make_rng(seed), and
    returns the mean over them of the probability, given the draw off its
    line, that the maximum exceeds stat (see the module docstring; a
    maximum equal to stat counts one half). Its se attribute is the
    sample standard deviation of the pair means over the square root of
    their number: the Monte Carlo standard error, which is positive even
    where p1 is tiny.

    The draws come in blocks of at most 2048 draws and 64 MiB of normals
    (or one pair), so memory stays bounded whatever c.dim and n_sims are;
    the blocks do not change p1. After each block the run returns the
    running sum over n_sims once that reaches stop_at. The sum never
    decreases, so the value is a lower bound on the full p1 and both are
    >= every level <= stop_at: neither rejects there, and a decision at
    such a level is the full run's. A run that does not stop returns p1 bit for bit, and
    the default 1.0 is reached only by the last draw, if at all. This
    replaces the exact sequential Monte Carlo p-value of Besag & Clifford
    (1991), whose stop rule counted indicators; what stop_at guarantees is
    the same. Only a run that can stop early (stop_at < 1) starts with
    blocks of 256 draws, growing by a factor of 4. stop_at must be > 0:
    ParameterError otherwise, NaN included.

    Some runs return before the first draw, with se 0. With stop_at <= 1/2,
    a statistic <= 0 and the path's zero floor (every build_grid
    covariance has it), every draw adds at least 1/2 (see Ties), so the
    full p1 is >= 1/2 and the run returns 0.5, which lies in [stop_at,
    full p1]: that is exact. A caller that compares p1 only with levels
    in [lowest_level, stop_at] may pass lowest_level, which must lie in
    (0, stop_at]. Then two closed-form bounds on the null tail, from the
    null sd_i > 0 of the path values, may settle every such level; each
    decision then differs from the full run's with probability at most
    _SETTLE_RISK = 1e-3:

    - the union bound B = sum_i Phi(-stat / sd_i) for stat > 0 is >= p,
      the mean of the full p1. Where B <= 1e-3 * lowest_level, Markov's
      inequality gives P(full p1 >= level) <= B / level <= 1e-3 at every
      level >= lowest_level, and the run returns B;
    - l = max_i Phi(-stat / sd_i) is <= p, and the full p1 is at least
      2m / n_sims times the mean of its m = n_sims // 2 pair means, each
      in [0, 1]. Where l >= stop_at * n_sims / (2m) + sqrt(ln(1e3) / (2m)),
      Hoeffding's inequality (Hoeffding 1963, JASA 58:13-30) gives
      P(full p1 < stop_at) <= 1e-3, and the run returns l.
    """
    if not np.isfinite(stat):
        raise ParameterError(f"statistic must be finite, got {stat}")
    if n_sims < 100:
        raise ParameterError(f"n_sims must be >= 100, got {n_sims}")
    if not stop_at > 0:  # NaN too
        raise ParameterError(f"stop_at must be > 0, got {stop_at}")
    if lowest_level is not None and not 0 < lowest_level <= stop_at:
        raise ParameterError(f"lowest_level must lie in (0, stop_at], got {lowest_level}")
    if stop_at <= 0.5 or lowest_level is not None:
        settled = _settle(c, stat, n_sims, stop_at, lowest_level)
        if settled is not None:
            return _PValue(settled, 0.0)
    line = _line(c)
    rng = make_rng(seed)
    # whole pairs of draws in every block but the last; a budget below one
    # pair still draws one
    max_block = min(_MAX_BLOCK, max(2, _BLOCK_BYTES // (16 * max(1, c.dim)) * 2))
    # a stop test can fire before the last draw only if stop_at < 1
    block = min(_FIRST_BLOCK, max_block) if stop_at < 1.0 else max_block
    drawn, total, total_m, total_m2 = 0, 0.0, 0.0, 0.0
    while drawn < n_sims:
        size = min(block, n_sims - drawn)
        pairs = (size + 1) // 2
        z = np.empty((2 * pairs, c.dim))
        rng.standard_normal(out=z[:pairs])
        np.negative(z[:pairs], out=z[pairs:])
        values = _draw(z, stat, line)
        # per pair its sum, its mean and the mean's square, added left to
        # right over every pair, carried from block to block; an odd last
        # draw leaves its -Z value out
        sums = np.empty((3, pairs))
        np.add(values[:pairs], values[pairs:], out=sums[0])
        np.multiply(sums[0], 0.5, out=sums[1])
        if size % 2:
            sums[:2, -1] = values[pairs - 1]
        np.multiply(sums[1], sums[1], out=sums[2])
        sums[:, 0] += (total, total_m, total_m2)
        np.cumsum(sums, axis=1, out=sums)
        total, total_m, total_m2 = sums[:, -1].tolist()
        drawn += size
        if total / n_sims >= stop_at:
            break
        block = min(block * _BLOCK_GROWTH, max_block)
    pairs = (drawn + 1) // 2
    var = max(0.0, (total_m2 - total_m * total_m / pairs) / max(1, pairs - 1))
    return _PValue(total / n_sims, math.sqrt(var / pairs))


def test_st_wj(
    s: PairedSample,
    k: int | None = DEFAULT_GRID_POINTS,
    n_sims: int = DEFAULT_N_SIMS,
    *,
    seed: int,
    stop_at: float = 1.0,
    lowest_level: float | None = None,
) -> TestResult:
    """Full test of the null 'X is dominated by Y' on a paired sample.

    Composes the statistic, the grid build_grid(s, k) (k=None for the
    realized support of integer-valued or ordinal data), the cell
    covariance and the simulated p-value; fully deterministic for a fixed
    seed.

    stop_at and lowest_level are passed to pvalue_bounds, for callers
    that compare p1 only with levels <= stop_at, or in [lowest_level,
    stop_at]. With stop_at alone, p1 is exact when it is below stop_at
    and otherwise lies in [stop_at, full p1], so reject_at(level) is exact
    for every level <= stop_at. With lowest_level too, p1 may come from a
    bound on the null tail, and reject_at(level) for a level in
    [lowest_level, stop_at] differs from the full test's with probability
    at most 1e-3. With the defaults, p1 is the full simulation's.
    """
    if s.n < 2:
        raise ParameterError("the test needs at least two pairs")
    grid = build_grid(s, k)
    stat, t_star = statistic_and_t_star(s)
    cov = build_covariance(grid, s)
    p1 = pvalue_bounds(cov, stat, n_sims, seed, stop_at=stop_at, lowest_level=lowest_level)
    return TestResult(
        statistic=stat,
        t_star=t_star,
        p1=float(p1),
        p_se=p1.se,
        n=s.n,
        k=grid.k,
        cells=cov.dim,
        n_sims=n_sims,
        seed=seed,
    )


# functions named test_* are library API, not pytest tests
test_st_wj.__test__ = False
