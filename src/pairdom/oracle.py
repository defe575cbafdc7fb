"""Exact order checks on finite discrete bivariate laws.

These brute-force oracles are the ground truth against which the
statistical machinery is validated. A finite law makes every survival
function a right-continuous step function, so an inequality that must
hold "for all t" can be certified exactly: it suffices to check, at every
value c in the combined support of the two compared variables, both the
strict comparison P(. > c) and the weak comparison P(. >= c). The weak
check covers the left limits between support points.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Literal, Optional, Sequence

import numpy as np

from . import distributions
from .distributions import BivariateNormalParams
from .empirical import read_float_csv, write_columns_csv
from .errors import CapacityError, ParameterError

__all__ = [
    "DiscreteBivariate",
    "OrderVerdict",
    "MarginalOrder",
    "survival_of_difference",
    "check_st_wj_discrete",
    "check_precedence",
    "check_st_marginals_discrete",
    "convolve_independent",
    "analytic_st_wj_bivariate_normal",
    "discretize_bivariate_normal",
    "read_atoms_csv",
    "write_atoms_csv",
]


@dataclass(frozen=True, eq=False)
class DiscreteBivariate:
    """Finite bivariate law given as weighted atoms (x, y, p)."""

    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if not (x.shape == y.shape == p.shape) or x.ndim != 1 or len(x) == 0:
            raise ParameterError("atoms must be nonempty parallel 1-d arrays")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ParameterError("atom coordinates must be finite")
        if np.any(p <= 0):
            raise ParameterError("atom probabilities must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ParameterError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "p", p)

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple[float, float, float]]) -> "DiscreteBivariate":
        arr = np.asarray(atoms, dtype=float)
        return cls(arr[:, 0], arr[:, 1], arr[:, 2])

    @classmethod
    def uniform(cls, points: Sequence[tuple[float, float]]) -> "DiscreteBivariate":
        """Equal probability on each listed point."""
        pts = np.asarray(points, dtype=float)
        m = len(pts)
        return cls(pts[:, 0], pts[:, 1], np.full(m, 1.0 / m))

    @property
    def n_atoms(self) -> int:
        return len(self.p)

    def swap(self) -> "DiscreteBivariate":
        return DiscreteBivariate(self.y.copy(), self.x.copy(), self.p.copy())


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of an exact order check.

    witness_t is the first violating check point, or None when the order
    holds.
    """

    witness_t: Optional[float] = None

    @property
    def holds(self) -> bool:
        return self.witness_t is None


class MarginalOrder(Enum):
    X_LE_Y = "x_le_y"
    Y_LE_X = "y_le_x"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _law(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse weighted values to (sorted unique values, probabilities)."""
    vals, inverse = np.unique(values, return_inverse=True)
    probs = np.bincount(inverse, weights=weights, minlength=len(vals))
    return vals, probs


def _survivals_at(
    vals: np.ndarray, probs: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(P(D > c), P(D >= c)) for each c in points, exactly by summation."""
    total = probs.sum()
    cum = np.cumsum(probs)
    right = np.searchsorted(vals, points, side="right")
    left = np.searchsorted(vals, points, side="left")
    strict = total - np.where(right > 0, cum[right - 1], 0.0)
    weak = total - np.where(left > 0, cum[left - 1], 0.0)
    return strict, weak


def _difference_laws(d: DiscreteBivariate) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    dxy = _law(d.x - d.y, d.p)
    dyx = _law(d.y - d.x, d.p)
    return dxy, dyx


def survival_of_difference(
    d: DiscreteBivariate, which: Literal["x-y", "y-x"], t: float
) -> float:
    """Exact P(X-Y > t) or P(Y-X > t) by atom summation."""
    if which == "x-y":
        diff = d.x - d.y
    elif which == "y-x":
        diff = d.y - d.x
    else:
        raise ParameterError(f"which must be 'x-y' or 'y-x', got {which!r}")
    return float(d.p[diff > t].sum())


def _survival_dominates(
    law_a: tuple[np.ndarray, np.ndarray],
    law_b: tuple[np.ndarray, np.ndarray],
    tol: float,
) -> Optional[float]:
    """First check point where P(A > c) <= P(B > c) or P(A >= c) <= P(B >= c)
    fails, or None if A's survival never exceeds B's."""
    points = np.union1d(law_a[0], law_b[0])
    a_strict, a_weak = _survivals_at(*law_a, points)
    b_strict, b_weak = _survivals_at(*law_b, points)
    bad = (a_strict > b_strict + tol) | (a_weak > b_weak + tol)
    if bad.any():
        return float(points[int(np.argmax(bad))])
    return None


def check_st_wj_discrete(d: DiscreteBivariate, tol: float = 1e-12) -> OrderVerdict:
    """Exact check of P(X-Y > t) <= P(Y-X > t) for all real t."""
    dxy, dyx = _difference_laws(d)
    witness = _survival_dominates(dxy, dyx, tol)
    return OrderVerdict(witness)


def check_precedence(d: DiscreteBivariate) -> tuple[float, float]:
    """Exact (P(X > Y), P(Y > X))."""
    diff = d.x - d.y
    return float(d.p[diff > 0].sum()), float(d.p[diff < 0].sum())


def check_st_marginals_discrete(d: DiscreteBivariate, tol: float = 1e-12) -> MarginalOrder:
    """Compare the marginal survival functions at all support points."""
    law_x = _law(d.x, d.p)
    law_y = _law(d.y, d.p)
    x_exceeds_somewhere = _survival_dominates(law_x, law_y, tol) is not None
    y_exceeds_somewhere = _survival_dominates(law_y, law_x, tol) is not None
    if not x_exceeds_somewhere and not y_exceeds_somewhere:
        return MarginalOrder.EQUAL
    if not x_exceeds_somewhere:
        return MarginalOrder.X_LE_Y
    if not y_exceeds_somewhere:
        return MarginalOrder.Y_LE_X
    return MarginalOrder.INCOMPARABLE


def _merge_atoms(x: np.ndarray, y: np.ndarray, p: np.ndarray, tol: float = 1e-12) -> DiscreteBivariate:
    # lexicographic sort, then merge runs whose coordinates agree within tol
    order = np.lexsort((y, x))
    x, y, p = x[order], y[order], p[order]
    new = np.empty(len(x), dtype=bool)
    new[0] = True
    new[1:] = (np.abs(np.diff(x)) > tol) | (np.abs(np.diff(y)) > tol)
    group = np.cumsum(new) - 1
    gx = x[new]
    gy = y[new]
    gp = np.bincount(group, weights=p)
    return DiscreteBivariate(gx, gy, gp / gp.sum())


def convolve_independent(
    ds: Sequence[DiscreteBivariate], max_atoms: int = 250_000
) -> DiscreteBivariate:
    """Exact law of (sum X_i, sum Y_i) for independent inputs.

    Atoms are expanded pairwise and merged when coordinates agree within
    1e-12. Raises CapacityError if an intermediate expansion would exceed
    max_atoms.
    """
    if len(ds) == 0:
        raise ParameterError("need at least one law to convolve")
    acc = ds[0]
    for other in ds[1:]:
        count = acc.n_atoms * other.n_atoms
        if count > max_atoms:
            raise CapacityError(
                f"convolution would create {count} atoms (cap {max_atoms})"
            )
        x = np.add.outer(acc.x, other.x).ravel()
        y = np.add.outer(acc.y, other.y).ravel()
        p = np.outer(acc.p, other.p).ravel()
        acc = _merge_atoms(x, y, p)
    return acc


def analytic_st_wj_bivariate_normal(params: BivariateNormalParams) -> bool:
    """Exact criterion under bivariate normality: the order holds iff
    mu1 <= mu2. The differences X-Y and Y-X are normal with the same
    variance s11 + s22 - 2*s12, so only the means decide."""
    s = params.sigma
    var_diff = float(s[0, 0] + s[1, 1] - 2.0 * s[0, 1])
    if var_diff < -1e-12:
        raise ParameterError(f"difference variance {var_diff:.3e} is negative")
    return bool(params.mu[0] <= params.mu[1])


def discretize_bivariate_normal(
    params: BivariateNormalParams, grid_size: int = 200, span_sigmas: float = 4.0
) -> DiscreteBivariate:
    """Midpoint-cell discretization of a nondegenerate bivariate normal,
    renormalized to total mass one. Used to cross-check the analytic
    criterion against the exact discrete oracle. A grid of more than
    distributions.MAX_VALUES cells raises CapacityError before any
    array is built."""
    if grid_size**2 > distributions.MAX_VALUES:
        raise CapacityError(
            f"grid_size={grid_size} makes {grid_size**2} cells: "
            f"at most {distributions.MAX_VALUES} floats per array fit in 64 MiB"
        )
    s = params.sigma
    det = float(np.linalg.det(s))
    if det <= 0:
        raise ParameterError("discretization needs a nonsingular covariance")
    sx = np.sqrt(s[0, 0])
    sy = np.sqrt(s[1, 1])
    xs = np.linspace(params.mu[0] - span_sigmas * sx, params.mu[0] + span_sigmas * sx, grid_size)
    ys = np.linspace(params.mu[1] - span_sigmas * sy, params.mu[1] + span_sigmas * sy, grid_size)
    inv = np.array([[s[1, 1], -s[0, 1]], [-s[0, 1], s[0, 0]]]) / det
    dx = xs - params.mu[0]
    dy = ys - params.mu[1]
    quad = (
        inv[0, 0] * dx[:, None] ** 2
        + 2.0 * inv[0, 1] * dx[:, None] * dy[None, :]
        + inv[1, 1] * dy[None, :] ** 2
    )
    dens = np.exp(-0.5 * quad)
    p = dens.ravel()
    p = p / p.sum()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    keep = p > 0
    return DiscreteBivariate(gx.ravel()[keep], gy.ravel()[keep], p[keep] / p[keep].sum())


def write_atoms_csv(d: DiscreteBivariate, path: str | Path) -> None:
    """Write atoms as CSV with header ``x,y,p``."""
    write_columns_csv("x,y,p", (d.x, d.y, d.p), path)


def read_atoms_csv(path: str | Path) -> DiscreteBivariate:
    """Read a discrete bivariate law from CSV with header ``x,y,p``."""
    return DiscreteBivariate.from_atoms(read_float_csv(path, "x,y,p"))
