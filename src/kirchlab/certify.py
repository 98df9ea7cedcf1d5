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
    """|grad c|_inf (c_max+alpha) / (sqrt(lambda1) (c_min+alpha)^2); 0 for constant c.

    The one closed form behind ratio_criterion, ratio_gap and
    eigen.eigenvalue_lower_bound, each derived from this value directly, so the
    +1/-1 shift of ratio_gap never rounds a small ratio away.  The terms enter
    times the power of two that puts c_min+alpha in [0.5, 1): the scaling is
    exact, so the square neither overflows nor underflows, and only a ratio past
    the largest double is inf.  A negative or non-finite alpha is a ValueError.
    """
    _check_ratio(c)
    _check_alpha(alpha)
    lo = float(c.values.min()) + alpha
    with np.errstate(over="ignore"):
        grad_inf, hi, lo = np.ldexp([coeff_grad_inf(c), float(c.values.max()) + alpha, lo],
                                    -math.frexp(lo)[1]).tolist()
    return grad_inf * hi / (math.sqrt(dirichlet_lambda1(c.grid)) * lo ** 2)


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
    """Run the three uniqueness tests on c = a/b, strongest first.

    Uniqueness depends on c only up to a positive factor (u = mu v maps
    (a, b, h) to (mu^2 a, b, mu^3 h)), so the tests run on c times the power
    of two that puts max c in [0.5, 1).  That scaling is exact: ratio_value is
    unchanged, the mean and min_D scale back exactly, and the pointwise test
    compares min_D with -POINTWISE_TOL * mean(a/b), so c and 2^j c get the
    same certificate while both stay normal doubles.
    """
    _check_coefficients(a, b)
    c = _ratio_field(a, b)
    exp = math.frexp(float(c.values.max()))[1]
    c = ScalarField(c.grid, np.ldexp(c.values, -exp))
    c_lo, c_hi = float(c.values.min()), float(c.values.max())
    c_mean = c_lo + float((c.values - c_lo).mean())   # exact for a constant ratio
    ratio = ratio_criterion(c)
    d_min = interior_min(pointwise_criterion(c))
    tol = POINTWISE_TOL * c_mean
    with np.errstate(over="ignore"):    # a min_D past the largest double is -inf
        mean, min_d, tol_ab = np.ldexp([c_mean, d_min, tol], exp).tolist()

    theta = None
    if c_hi - c_lo <= CONSTANT_RTOL * c_mean:
        verdict, theta = "UniqueConstantRatio", mean
        reason = f"a/b constant to relative variation {(c_hi - c_lo) / c_mean:.3e}"
    elif d_min >= -tol:
        verdict = "UniquePointwise"
        reason = (f"pointwise criterion min {min_d:.6g} >= -{tol_ab:.6g} "
                  f"({POINTWISE_TOL:g} mean(a/b))")
    elif ratio <= RATIO_LIMIT:
        verdict, reason = "UniqueRatioBound", f"ratio {ratio:.6g} <= {RATIO_LIMIT:g}"
    else:
        verdict = "Inconclusive"
        reason = (f"ratio {ratio:.6g} > {RATIO_LIMIT:g} and min_D {min_d:.6g} < "
                  f"-{tol_ab:.6g} ({POINTWISE_TOL:g} mean(a/b)): no criterion applies")
    return Certificate(verdict, ratio, min_d, theta, dirichlet_lambda1(a.grid), a.grid,
                       f"{reason}; min_D measured with the one-node boundary collar "
                       f"excluded; pointwise and ratio tests are independent of the "
                       f"forcing term.")


def _check_coefficients(a: ScalarField, b: ScalarField) -> None:
    """The coefficient rule of Problem and certify: a and b on one grid, each
    positive at every node; a ValueError names the minima otherwise."""
    if a.grid != b.grid:
        raise ValueError("a and b live on different grids")
    a_min, b_min = float(a.values.min()), float(b.values.min())
    if a_min <= 0.0 or b_min <= 0.0:
        raise ValueError(f"coefficients must be positive: min a = {a_min:.6g}, "
                         f"min b = {b_min:.6g}")


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
