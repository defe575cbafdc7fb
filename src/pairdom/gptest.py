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

Ties. p1 counts the draws whose maximum exceeds the statistic plus half
of those whose maximum equals it (the mid-p rule). The process is exactly
0 at grid points at or past the largest |d| (the last point of the
build_grid grid is one), and the statistic is 0 whenever Fbar <= Gbar on
the candidate set, so ties happen, and only at statistic 0. A dense draw
with a vanishing regularization puts that zero-variance point above 0 in
half the draws; counting ties one half keeps p1 where such a draw puts it.
"""

from __future__ import annotations

import math
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
DEFAULT_N_SIMS = 10_000


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

    @property
    def matrix(self) -> np.ndarray:
        """The n_points x n_points covariance A (diag r - q q^T) A^T."""
        a = (self.cell[None, :] > np.arange(self.n_points)[:, None]).astype(float)
        gap = a @ self.q
        return (a * self.r) @ a.T - np.outer(gap, gap)


@dataclass(frozen=True)
class TestResult:
    """Outcome of the dominance test.

    t_star is the smallest t >= 0 where the survival gap reaches its
    supremum, cells is the simulation's effective dimension
    (GpCovariance.dim) and p_se the Monte Carlo standard error of p1.
    """

    statistic: float
    t_star: float
    p1: float
    n: int
    k: int
    cells: int
    n_sims: int
    seed: int

    @property
    def p_se(self) -> float:
        return math.sqrt(self.p1 * (1.0 - self.p1) / self.n_sims)

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


_SIM_CHUNK = 1 << 16
# bytes of normals in one block: 65 536 draws up to dim 128, fewer beyond;
# also the bound on the k+1 points of an equally spaced grid
_BLOCK_BYTES = 64 << 20
_FIRST_STOP_BLOCK = 256
_STOP_BLOCK_GROWTH = 4


def pvalue_bounds(
    c: GpCovariance,
    stat: float,
    n_sims: int,
    seed: int,
    *,
    stop_at: float | None = None,
) -> float:
    """Monte Carlo p-value upper bound p1 for the statistic.

    Draws n_sims paths of the null process on the grid, c.dim normals
    each, and returns the fraction whose maximum exceeds stat, counting a
    maximum equal to stat one half.

    Draws are generated in blocks of at most 65 536 draws and at most
    64 MiB of normals, so memory stays bounded whatever c.dim is; the
    block structure does not change the stream, so results depend only on
    (c, stat, n_sims, seed) and stop_at.

    Early stop. A caller that only compares p1 with levels <= stop_at may
    pass stop_at. The blocks then grow from 256 draws by a factor of 4 up
    to that cap, and after each block the run returns the running mid-p
    count over n_sims as soon as that reaches stop_at. The count only
    grows, so the value is a lower bound on p1, and both are >= every such
    level: neither rejects. A run that does not stop returns p1 itself,
    bit for bit. This is the exact form of the sequential Monte Carlo
    p-value of Besag & Clifford (1991). Without stop_at every block is
    at the cap, the fastest schedule when every draw is needed.
    """
    if not np.isfinite(stat):
        raise ParameterError(f"statistic must be finite, got {stat}")
    if n_sims < 100:
        raise ParameterError(f"n_sims must be >= 100, got {n_sims}")
    sqrt_r = np.sqrt(c.r)
    w = c.q / sqrt_r
    gamma = 1.0 / (1.0 + math.sqrt(max(0.0, 1.0 - float(w @ w))))
    # W just below cell i: sum of sqrt(r) Z over cells >= i, minus shift[i] * w.Z
    shift = gamma * np.cumsum(c.q[::-1])[::-1]
    # W below the smallest |d| is the sum over all cells, with variance
    # sum(r) - sum(q)^2. That is 0 when every difference is nonzero and of
    # one sign, and of order 1/n or more otherwise, as is the variance of
    # every other path value. A zero-variance value is exactly 0: it is left
    # out of the loop and 0 joins the maximum, so rounding cannot flip it.
    first = int(c.dim > 0 and c.r.sum() - c.q.sum() ** 2 < 1e-12)
    # W = 0 at grid points past every cell, so the maximum is at least 0
    floor = 0.0 if first or c.dim == 0 or c.cell[-1] < c.n_points else -np.inf
    rng = make_rng(seed)
    exceed = 0
    ties = 0
    drawn = 0
    max_block = min(_SIM_CHUNK, max(1, _BLOCK_BYTES // (8 * max(1, c.dim))))
    block = max_block if stop_at is None else min(_FIRST_STOP_BLOCK, max_block)
    while drawn < n_sims:
        size = min(block, n_sims - drawn)
        z = rng.standard_normal((size, c.dim))
        proj = z @ w
        z *= sqrt_r
        path = np.zeros(size)
        peak = np.full(size, floor)
        value = np.empty(size)
        for i in range(c.dim - 1, first - 1, -1):
            path += z[:, i]
            np.multiply(proj, shift[i], out=value)
            np.subtract(path, value, out=value)
            np.maximum(peak, value, out=peak)
        exceed += int(np.count_nonzero(peak > stat))
        ties += int(np.count_nonzero(peak == stat))
        drawn += size
        if stop_at is not None and (exceed + 0.5 * ties) / n_sims >= stop_at:
            break
        block = min(block * _STOP_BLOCK_GROWTH, max_block)
    return (exceed + 0.5 * ties) / n_sims


def test_st_wj(
    s: PairedSample,
    k: int | None = DEFAULT_GRID_POINTS,
    n_sims: int = DEFAULT_N_SIMS,
    *,
    seed: int,
    stop_at: float | None = None,
) -> TestResult:
    """Full test of the null 'X is dominated by Y' on a paired sample.

    Composes the statistic, the grid build_grid(s, k) (k=None for the
    realized support of integer-valued or ordinal data), the cell
    covariance and the simulated p-value; fully deterministic for a fixed
    seed.

    stop_at is passed to pvalue_bounds, for callers that compare p1 only
    with levels <= stop_at. p1 is then exact when it is below stop_at and
    otherwise lies in [stop_at, full p1], so reject_at(level) is exact for
    every level <= stop_at. Without stop_at, p1 is the full simulation's.
    """
    if s.n < 2:
        raise ParameterError("the test needs at least two pairs")
    grid = build_grid(s, k)
    stat, t_star = statistic_and_t_star(s)
    cov = build_covariance(grid, s)
    return TestResult(
        statistic=stat,
        t_star=t_star,
        p1=pvalue_bounds(cov, stat, n_sims, seed, stop_at=stop_at),
        n=s.n,
        k=grid.k,
        cells=cov.dim,
        n_sims=n_sims,
        seed=seed,
    )


# functions named test_* are library API, not pytest tests
test_st_wj.__test__ = False
