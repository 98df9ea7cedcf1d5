"""Uniqueness certificates for the nonlocal problem from the ratio c = a/b.

Three sufficient conditions are checked in order of strength:

  1. c is constant                          -> UniqueConstantRatio
  2. Lap c >= 2|grad c|^2 / c everywhere    -> UniquePointwise
  3. |grad c|_inf c_max / (sqrt(lambda1) c_min^2) <= 3/2
                                            -> UniqueRatioBound

Any verdict other than Inconclusive certifies a unique solution for every
forcing term; the three measured quantities are reported regardless of the
verdict.  The pointwise field uses the ghost-zero Laplacian, so its one-node
boundary collar is excluded from the reported minimum (stated in details).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (Grid, KirchlabError, ScalarField, coeff_grad_inf,
                   dirichlet_lambda1, laplacian, node_grad_sq, node_gradient)
from .linalg import poisson_solve

CONSTANT_RTOL = 1e-10
POINTWISE_TOL = 1e-8
RATIO_LIMIT = 1.5
CONSTRUCTION_TOL = 1e-6


@dataclass
class Certificate:
    verdict: str          # UniqueConstantRatio | UniquePointwise | UniqueRatioBound | Inconclusive
    ratio_value: float
    min_d: float
    theta: float | None
    lambda1: float
    grid: Grid
    details: str

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "ratio_value": self.ratio_value,
            "min_D": self.min_d,
            "theta": self.theta,
            "lambda1": self.lambda1,
            "grid": self.grid.header(),
            "details": self.details,
        }


def pointwise_criterion(c: ScalarField) -> ScalarField:
    """The field D = Lap c - 2 |grad c|^2 / c at every node.

    Lap uses the zero ghosts, so values on the one-node boundary collar are
    meaningless for coefficients; interior_min reports the honest region.
    """
    _check_ratio(c)
    overflow = ValueError(f"pointwise criterion overflows a double "
                          f"(max c = {c.values.max():.3g})")
    with np.errstate(over="ignore"):
        try:
            lap, gsq = laplacian(c), node_grad_sq(c)
        except ValueError:        # ScalarField refuses an infinite |grad c|^2
            raise overflow from None
        d = lap.values - 2.0 * gsq.values / c.values
    if not np.all(np.isfinite(d)):
        raise overflow
    return ScalarField(c.grid, d)


def interior_min(f: ScalarField) -> float:
    """Minimum over nodes excluding the one-node boundary collar.

    Falls back to the full minimum when the grid is too thin to have a
    collar-free interior.
    """
    g = f.grid
    if g.nx >= 3 and g.ny >= 3:
        return float(f.mat[1:-1, 1:-1].min())
    return float(f.values.min())


def shifted_ratio(c: ScalarField, alpha: float) -> float:
    """|grad c|_inf (c_max+alpha) / (sqrt(lambda1) (c_min+alpha)^2); 0 for constant c,
    finite for every finite alpha >= 0.

    The one closed form behind ratio_criterion, ratio_gap and
    eigen.eigenvalue_lower_bound.  Those three are derived from this value
    directly rather than from each other, so the +1/-1 shift of ratio_gap
    never rounds a small ratio away.  A negative or non-finite alpha is a ValueError.
    """
    _check_alpha(alpha)
    return _shift(_ratio_terms(c), alpha)


def _check_alpha(alpha: float) -> None:
    """Refuse an alpha that is negative, NaN or infinite, naming it."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha:.6g}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")


def _check_ratio(c: ScalarField) -> None:
    """Refuse a ratio field that is not positive everywhere, naming its minimum."""
    if float(c.values.min()) <= 0.0:
        raise ValueError(f"ratio field must be positive, min = {c.values.min():.6g}")


def _ratio_terms(c: ScalarField) -> tuple[float, float, float, float]:
    """The alpha-free terms of shifted_ratio: |grad c|_inf, c_min, c_max and sqrt(lambda1)."""
    _check_ratio(c)
    return (coeff_grad_inf(c), float(c.values.min()), float(c.values.max()),
            math.sqrt(dirichlet_lambda1(c.grid)))


def _shift(terms: tuple[float, float, float, float], alpha: float) -> float:
    """shifted_ratio at alpha from the terms of _ratio_terms."""
    grad_inf, c_lo, c_hi, sqrt_lam1 = terms
    lo, hi = c_lo + alpha, c_hi + alpha
    try:
        return grad_inf * hi / (sqrt_lam1 * lo ** 2)
    except OverflowError:         # lo^2 exceeds a double: divide by lo twice
        return grad_inf * (hi / lo) / (sqrt_lam1 * lo)


def ratio_criterion(c: ScalarField) -> float:
    """|grad c|_inf * c_max / (sqrt(lambda1) * c_min^2), i.e. ratio_gap(c, 0) + 1."""
    return shifted_ratio(c, 0.0)


def ratio_gap(c: ScalarField, alpha: float) -> float:
    """|grad c|_inf (c_max+alpha) / (sqrt(lambda1) (c_min+alpha)^2) - 1.

    Strictly decreasing in alpha and equal to ratio_criterion - 1 at alpha=0;
    a negative value at the energy of a candidate solution rules out a
    degenerate Jacobian there.
    """
    return shifted_ratio(c, alpha) - 1.0


def certify(a: ScalarField, b: ScalarField) -> Certificate:
    """Run the three uniqueness tests on c = a/b, strongest first."""
    if a.grid != b.grid:
        raise ValueError("a and b live on different grids")
    if float(a.values.min()) <= 0.0 or float(b.values.min()) <= 0.0:
        raise ValueError(
            f"coefficients must be positive: min a = {a.values.min():.6g}, "
            f"min b = {b.values.min():.6g}")

    c = _ratio_field(a, b)
    c_lo = float(c.values.min())
    c_hi = float(c.values.max())
    c_mean = float(c.values.mean())
    lam1 = dirichlet_lambda1(a.grid)
    ratio = ratio_criterion(c)
    min_d = interior_min(pointwise_criterion(c))

    base_note = ("min_D measured with the one-node boundary collar excluded; "
                 "pointwise and ratio tests are independent of the forcing term.")

    if c_hi - c_lo <= CONSTANT_RTOL * c_mean:
        return Certificate("UniqueConstantRatio", ratio, min_d, c_mean, lam1, a.grid,
                           f"a/b constant to relative variation "
                           f"{(c_hi - c_lo) / c_mean:.3e}; {base_note}")
    if min_d >= -POINTWISE_TOL:
        return Certificate("UniquePointwise", ratio, min_d, None, lam1, a.grid,
                           f"pointwise criterion min {min_d:.6g} >= -{POINTWISE_TOL:g}; "
                           f"{base_note}")
    if ratio <= RATIO_LIMIT:
        return Certificate("UniqueRatioBound", ratio, min_d, None, lam1, a.grid,
                           f"ratio {ratio:.6g} <= {RATIO_LIMIT:g}; {base_note}")
    return Certificate("Inconclusive", ratio, min_d, None, lam1, a.grid,
                       f"ratio {ratio:.6g} > {RATIO_LIMIT:g} and min_D {min_d:.6g} < "
                       f"-{POINTWISE_TOL:g}: no criterion applies; {base_note}")


def _ratio_field(a: ScalarField, b: ScalarField) -> ScalarField:
    """c = a/b of positive coefficients; a ratio past the largest double is a ValueError."""
    with np.errstate(over="ignore"):
        c = a.values / b.values
    if np.isinf(c).any():
        raise ValueError(f"ratio a/b overflows a double (max a = {a.values.max():.3g}, "
                         f"min b = {b.values.min():.3g})")
    return ScalarField(a.grid, c)


def pointwise_certified_ratio(grid: Grid) -> ScalarField:
    """Construct a non-constant ratio field that passes the pointwise test.

    Solve Lap e = 1 with zero boundary (e is then negative inside), cap
    delta = min(1/(4 |grad e|_inf^2), 1/(2 |e|_inf)) and return c = delta*e + 1.
    The cap keeps c above 1/2 and makes Lap c dominate 2|grad c|^2/c; both
    facts are re-verified on the discrete field and a failure (grid too
    coarse) raises KirchlabError.  It succeeds on grids with at least 3
    interior nodes per axis and fails on every thinner grid.
    """
    e = ScalarField(grid, poisson_solve(grid, -np.ones(grid.n_nodes)))
    gx, gy = node_gradient(e)
    grad_inf = float(np.hypot(gx, gy).max())
    e_inf = float(np.abs(e.values).max())
    if grad_inf == 0.0 or e_inf == 0.0:
        raise KirchlabError("degenerate construction on this grid")
    delta = min(1.0 / (4.0 * grad_inf ** 2), 1.0 / (2.0 * e_inf))
    c = ScalarField(grid, delta * e.values + 1.0)

    min_c = float(c.values.min())
    min_d = interior_min(pointwise_criterion(c)) if min_c > 0.0 else -math.inf
    if min_c <= 0.0 or min_d < -CONSTRUCTION_TOL:
        raise KirchlabError(
            f"construction violates its own certificate: min c = {min_c:.6g}, "
            f"min D = {min_d:.6g} (grid too coarse)")
    return c
