"""Parametric marginals, bivariate normal sampling and Clayton copula
sampling.

Marginal families:

    Normal(mu, sigma)    F(x) = Phi((x - mu) / sigma)
    Pareto(a, k)         F(x) = 1 - (k / x)^a        for x >= k, 0 below
    Weibull(a, b)        F(x) = 1 - exp(-(x / b)^a)  for x >= 0, 0 below

The Clayton copula is used in its standard form

    C(u, v) = (u^-theta + v^-theta - 1)^(-1/theta),   theta > 0.

Sampling is by conditional inversion: with U, W independent uniforms,

    V = ((W^(-theta/(1+theta)) - 1) * U^-theta + 1)^(-1/theta)

inverts the conditional distribution of V given U.

A bivariate normal's covariance is checked and factorized once, when its
BivariateNormalParams is built, so a covariance that constructs can be
sampled; sample_bivariate_normal_rows reuses the stored factor.

Row-wise form. sample_bivariate_normal_rows, sample_clayton_uniform_rows
and sample_clayton_rows draw one sample per seed at once, as rows of
(R, n) arrays; montecarlo.generate_scenario draws one sample through
them with one seed, so there is one code path. Row i is filled from
make_rng(seeds[i]) alone, with the calls and shapes of a one-row draw,
so each seed's stream is unchanged. The rest runs once on the whole
array: the nudge into the open interval, the Clayton inversion and clip,
the quantiles, and the affine map as one stacked (R, n, 2) @ chol.T,
which makes the 2x2 product of each row as a one-row draw does. Each row
therefore equals a one-seed call's row bit for bit.

Every draw holds at most MAX_VALUES = 2**23 values per coordinate (64
MiB of floats): check_size raises CapacityError before anything is
allocated when a call would hold more.

scipy.special is imported only in the Normal branches of cdf and
quantile, so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import CapacityError, DomainError, ParameterError
from .seeding import make_rng

__all__ = [
    "Normal",
    "Pareto",
    "Weibull",
    "MarginalDist",
    "BivariateNormalParams",
    "ClaytonParams",
    "cdf",
    "quantile",
    "MAX_VALUES",
    "check_size",
    "sample_bivariate_normal_rows",
    "sample_clayton_uniform_rows",
    "sample_clayton_rows",
    "clayton_cdf",
    "clayton_partial_u",
]


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ParameterError(f"normal mu must be finite, got {self.mu}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ParameterError(f"normal sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class Pareto:
    """Shape a and scale k; support is [k, infinity)."""

    a: float
    k: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a > 0):
            raise ParameterError(f"pareto shape must be > 0, got {self.a}")
        if not (np.isfinite(self.k) and self.k > 0):
            raise ParameterError(f"pareto scale must be > 0, got {self.k}")


@dataclass(frozen=True)
class Weibull:
    """Shape a and scale b; support is [0, infinity)."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a > 0):
            raise ParameterError(f"weibull shape must be > 0, got {self.a}")
        if not (np.isfinite(self.b) and self.b > 0):
            raise ParameterError(f"weibull scale must be > 0, got {self.b}")


MarginalDist = Union[Normal, Pareto, Weibull]


def cdf(dist: MarginalDist, x):
    """Distribution function of a marginal, vectorized over x."""
    xa = np.asarray(x, dtype=float)
    if isinstance(dist, Normal):
        from scipy.special import ndtr

        out = ndtr((xa - dist.mu) / dist.sigma)
    elif isinstance(dist, Pareto):
        out = np.where(xa > dist.k, -np.expm1(dist.a * np.log(dist.k / np.maximum(xa, dist.k))), 0.0)
    elif isinstance(dist, Weibull):
        out = np.where(xa > 0, -np.expm1(-((np.maximum(xa, 0.0) / dist.b) ** dist.a)), 0.0)
    else:
        raise ParameterError(f"unknown marginal {dist!r}")
    return float(out) if np.isscalar(x) else out


def quantile(dist: MarginalDist, p):
    """Inverse distribution function for p in the open interval (0, 1)."""
    pa = np.asarray(p, dtype=float)
    if np.any(pa <= 0.0) or np.any(pa >= 1.0):
        raise DomainError("quantile requires 0 < p < 1")
    if isinstance(dist, Normal):
        from scipy.special import ndtri

        out = dist.mu + dist.sigma * ndtri(pa)
    elif isinstance(dist, Pareto):
        out = dist.k * np.exp(-np.log1p(-pa) / dist.a)
    elif isinstance(dist, Weibull):
        out = dist.b * (-np.log1p(-pa)) ** (1.0 / dist.a)
    else:
        raise ParameterError(f"unknown marginal {dist!r}")
    return float(out) if np.isscalar(p) else out


@dataclass(frozen=True)
class BivariateNormalParams:
    """Mean 2-vector and symmetric positive-semidefinite 2x2 covariance.

    The constructor accepts sigma only if its lower Cholesky factor exists
    up to a relative tolerance of 1e-12, and keeps that factor as chol. A
    pivot that vanishes (PSD but singular) gives a zero column.
    """

    mu: np.ndarray
    sigma: np.ndarray
    chol: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        sig = np.asarray(self.sigma, dtype=float)
        if mu.shape != (2,) or not np.isfinite(mu).all():
            raise ParameterError("mu must be a finite 2-vector")
        if sig.shape != (2, 2) or not np.isfinite(sig).all():
            raise ParameterError("sigma must be a finite 2x2 matrix")
        if abs(sig[0, 1] - sig[1, 0]) > 1e-12:
            raise ParameterError("sigma must be symmetric")
        if sig[0, 0] < 0 or sig[1, 1] < 0:
            raise ParameterError("sigma diagonal must be nonnegative")
        if float(np.linalg.det(sig)) < -1e-12:
            raise ParameterError("sigma must be positive semidefinite (det < -1e-12)")
        s11, s12, s22 = float(sig[0, 0]), float(sig[0, 1]), float(sig[1, 1])
        tol = 1e-12 * max(s11, s22, 1.0)
        l11 = np.sqrt(s11)
        if l11 > 0:
            l21 = s12 / l11
        elif abs(s12) > tol:
            raise ParameterError("sigma has zero variance with nonzero covariance")
        else:
            l21 = 0.0
        rem = s22 - l21 * l21
        if rem < -tol:
            raise ParameterError(f"sigma is not positive semidefinite (pivot {rem:.3e})")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "chol", np.array([[l11, 0.0], [l21, np.sqrt(max(rem, 0.0))]]))


@dataclass(frozen=True)
class ClaytonParams:
    """Strictly positive dependence parameter; the independence limit
    theta -> 0 is excluded."""

    theta: float

    def __post_init__(self):
        if not (np.isfinite(self.theta) and self.theta > 0):
            raise ParameterError(f"clayton theta must be > 0, got {self.theta}")


# Largest number of values per coordinate in one draw: 2**23 floats, 64 MiB.
MAX_VALUES = 2**23


def check_size(n: int, samples: int = 1) -> None:
    """ParameterError for n < 1; CapacityError when that many samples of n
    pairs would hold more than MAX_VALUES values per coordinate."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if samples * n > MAX_VALUES:
        raise CapacityError(
            f"n={n} pairs in {samples} sample(s): "
            f"at most {MAX_VALUES} floats per coordinate fit in 64 MiB"
        )


def sample_bivariate_normal_rows(
    params: BivariateNormalParams, n: int, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """x and y of shape (len(seeds), n): row i holds n draws of a bivariate
    normal pair from seed seeds[i]."""
    check_size(n, len(seeds))
    z = np.empty((len(seeds), n, 2))
    for row, seed in zip(z, seeds):
        make_rng(seed).standard_normal(out=row)
    xy = params.mu + z @ params.chol.T
    return xy[..., 0], xy[..., 1]


def sample_clayton_uniform_rows(theta: float, n: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """U and V of shape (len(seeds), n): row i holds n pairs from the Clayton
    copula, by conditional inversion, from seed seeds[i]."""
    th = ClaytonParams(theta).theta
    check_size(n, len(seeds))
    u = np.empty((len(seeds), n))
    w = np.empty_like(u)
    for u_row, w_row, seed in zip(u, w, seeds):
        rng = make_rng(seed)
        rng.random(out=u_row)
        rng.random(out=w_row)
    # rng.random lives in [0, 1) on a grid of 2**-53, so this lifts exactly
    # the zeros into the open interval
    tiny = np.finfo(float).tiny
    np.maximum(u, tiny, out=u)
    np.maximum(w, tiny, out=w)
    v = ((w ** (-th / (1.0 + th)) - 1.0) * u ** (-th) + 1.0) ** (-1.0 / th)
    return u, np.clip(v, tiny, 1.0 - np.finfo(float).epsneg)


def sample_clayton_rows(
    theta: float, mx: MarginalDist, my: MarginalDist, n: int, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """x and y of shape (len(seeds), n): (quantile(mx, U), quantile(my, V))
    for the rows (U, V) of sample_clayton_uniform_rows."""
    u, v = sample_clayton_uniform_rows(theta, n, seeds)
    return quantile(mx, u), quantile(my, v)


def clayton_cdf(theta: float, u, v):
    """Standard Clayton copula C(u, v) for theta > 0."""
    th = ClaytonParams(theta).theta
    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    out = (ua ** (-th) + va ** (-th) - 1.0) ** (-1.0 / th)
    return float(out) if np.isscalar(u) and np.isscalar(v) else out


def clayton_partial_u(theta: float, u, v):
    """Partial derivative of the Clayton copula in its first argument,

        dC/du (u, v) = u^(-theta-1) * (u^-theta + v^-theta - 1)^(-1/theta - 1),

    which is the conditional distribution of V given U = u.
    """
    th = ClaytonParams(theta).theta
    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    s = ua ** (-th) + va ** (-th) - 1.0
    out = ua ** (-th - 1.0) * s ** (-1.0 / th - 1.0)
    return float(out) if np.isscalar(u) and np.isscalar(v) else out
