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
sampled; sample_bivariate_normal reuses the stored factor.

scipy.special is imported only in the Normal branches of cdf and
quantile, so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .empirical import PairedSample
from .errors import DomainError, ParameterError
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
    "sample_bivariate_normal",
    "sample_clayton_uniforms",
    "sample_clayton_bivariate",
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


def sample_bivariate_normal(params: BivariateNormalParams, n: int, seed: int) -> PairedSample:
    """n draws of a bivariate normal pair; bit-identical for a fixed seed."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = make_rng(seed)
    z = rng.standard_normal((n, 2))
    xy = params.mu + z @ params.chol.T
    return PairedSample(xy[:, 0], xy[:, 1])


def _open_uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    # rng.random lives in [0, 1); nudge exact zeros into the open interval
    u = rng.random(n)
    tiny = np.finfo(float).tiny
    return np.where(u <= 0.0, tiny, u)


def sample_clayton_uniforms(theta: float, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n pairs (U, V) from the Clayton copula, by conditional inversion."""
    params = ClaytonParams(theta)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    th = params.theta
    rng = make_rng(seed)
    u = _open_uniforms(rng, n)
    w = _open_uniforms(rng, n)
    v = ((w ** (-th / (1.0 + th)) - 1.0) * u ** (-th) + 1.0) ** (-1.0 / th)
    v = np.clip(v, np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg)
    return u, v


def sample_clayton_bivariate(
    theta: float, mx: MarginalDist, my: MarginalDist, n: int, seed: int
) -> PairedSample:
    """Clayton-coupled pair with the given marginals.

    Returns (quantile(mx, U), quantile(my, V)) for (U, V) from
    sample_clayton_uniforms; deterministic for a fixed seed.
    """
    u, v = sample_clayton_uniforms(theta, n, seed)
    return PairedSample(quantile(mx, u), quantile(my, v))


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
