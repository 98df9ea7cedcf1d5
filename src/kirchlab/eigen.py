"""The weighted eigenproblem tied to uniqueness of the nonlocal equation.

For a positive ratio field c and a parameter alpha > 0, the problem is

    -div( grad u / (c + alpha) ) = lambda * m_alpha * u,   u = 0 on the boundary,

with the indefinite weight m_alpha = -div[ grad c / (c + alpha)^2 ].  The
weight is built in divergence form from a face flux so that the discrete
divergence theorem holds exactly; alpha is admissible when the weight is
positive somewhere, and then the smallest positive eigenvalue exists with a
sign-definite eigenfunction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import NonPositiveC, shifted_ratio
from .grid import (FaceField, ScalarField, divergence, face_average, gradient,
                   grad_norm_sq, integrate)
from .linalg import NoConvergence, Pencil, assemble_weighted_laplacian, smallest_positive

ADMISSIBLE_TOL = 1e-10
SIGN_TOL = 1e-8
PENCIL_RESID_TOL = 1e-8


class NotInA(Exception):
    """alpha is outside the admissible set: the weight is nowhere positive."""


class SignChange(Exception):
    """The computed principal eigenvector changes sign: grid too coarse to trust."""


class ZeroDenominator(Exception):
    pass


@dataclass
class EigenPair:
    alpha: float
    lam: float
    u: ScalarField


@dataclass
class EigenCurve:
    """Rows (alpha, lambda, ee_bound, rayleigh_gap) for the admissible alphas."""

    rows: list

    def to_csv(self) -> str:
        lines = ["alpha,lambda,ee_bound,rayleigh_gap"]
        for alpha, lam, bound, gap in self.rows:
            lines.append(f"{alpha:.17g},{lam:.17g},{bound:.17g},{gap:.17g}")
        return "\n".join(lines) + "\n"


def _check_c(c: ScalarField):
    if float(c.values.min()) <= 0.0:
        raise NonPositiveC(f"ratio field must be positive, min = {c.values.min():.6g}")


def weight_flux(c: ScalarField, alpha: float) -> FaceField:
    """Face flux G ~ grad c / (c + alpha)^2 whose negative divergence is the weight.

    Interior faces use the centered face gradient of c over the squared
    face-averaged (c + alpha).  The boundary faces cannot difference c against
    the ghost zeros (c does not vanish there), so they are linearly
    extrapolated from the two nearest parallel interior faces, falling back to
    a copy (or zero) on very thin grids.
    """
    _check_c(c)
    if alpha < 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha:.6g}")
    g = c.grid
    U = c.mat

    xf = np.zeros((g.ny, g.nx + 1))
    if g.nx >= 2:
        gx = (U[:, 1:] - U[:, :-1]) / g.hx
        cf = 0.5 * (U[:, 1:] + U[:, :-1])
        xf[:, 1:-1] = gx / (cf + alpha) ** 2
        if g.nx >= 3:
            xf[:, 0] = 2.0 * xf[:, 1] - xf[:, 2]
            xf[:, -1] = 2.0 * xf[:, -2] - xf[:, -3]
        else:
            xf[:, 0] = xf[:, 1]
            xf[:, -1] = xf[:, 1]

    yf = np.zeros((g.ny + 1, g.nx))
    if g.ny >= 2:
        gy = (U[1:, :] - U[:-1, :]) / g.hy
        cf = 0.5 * (U[1:, :] + U[:-1, :])
        yf[1:-1, :] = gy / (cf + alpha) ** 2
        if g.ny >= 3:
            yf[0, :] = 2.0 * yf[1, :] - yf[2, :]
            yf[-1, :] = 2.0 * yf[-2, :] - yf[-3, :]
        else:
            yf[0, :] = yf[1, :]
            yf[-1, :] = yf[1, :]

    return FaceField(g, xf, yf)


def eigen_weight(c: ScalarField, alpha: float) -> ScalarField:
    """The indefinite node weight m_alpha = -divergence(weight_flux)."""
    m = divergence(weight_flux(c, alpha))
    return ScalarField(c.grid, -m.values)


def is_admissible(c: ScalarField, alpha: float) -> bool:
    """True when the weight is positive (above 1e-10) at one node or more."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha:.6g}")
    return float(eigen_weight(c, alpha).values.max()) > ADMISSIBLE_TOL


def principal_eigenpair(c: ScalarField, alpha: float) -> EigenPair:
    """Smallest positive eigenvalue with its positive eigenfunction.

    The pencil pairs the energy-scaled weighted stiffness matrix with the
    lumped weight (both carry the cell area, so the eigenvalue is the ratio of
    the two quadratures and is grid-scale free).  The eigenfunction is
    normalized to gradient energy alpha and oriented positive; a sign change
    beyond tolerance is an error rather than a warning.
    """
    if not is_admissible(c, alpha):
        raise NotInA(f"weight is nowhere positive at alpha = {alpha:.6g}")
    g = c.grid
    w = ScalarField(g, 1.0 / (c.values + alpha))
    A = assemble_weighted_laplacian(w)
    A *= g.cell_area
    m = eigen_weight(c, alpha)
    B = g.cell_area * m.values

    found = smallest_positive(Pencil(A, B))
    if found is None:
        raise NoConvergence(f"no positive eigenvalue resolved at alpha = {alpha:.6g}")
    lam, v = found

    Av = A @ v
    resid = np.linalg.norm(Av - lam * B * v)
    scale = np.linalg.norm(Av)
    if scale > 0.0 and resid > PENCIL_RESID_TOL * scale:
        raise NoConvergence(f"pencil residual {resid / scale:.3e} too large "
                            f"at alpha = {alpha:.6g}")

    u = ScalarField(g, v)
    u = ScalarField(g, v * math.sqrt(alpha / grad_norm_sq(u)))
    vmax = float(u.values.max())
    if float(u.values.min()) < -SIGN_TOL * vmax:
        raise SignChange(
            f"principal eigenfunction changes sign at alpha = {alpha:.6g} "
            f"(min {u.values.min():.3e} vs max {vmax:.3e}); refine the grid")
    return EigenPair(alpha=alpha, lam=lam, u=u)


def rayleigh_quotient(c: ScalarField, alpha: float, u: ScalarField) -> float:
    """Ratio of the weighted gradient energy to the weighted mass of u.

    The numerator weights squared face gradients with the face average of
    1/(c + alpha) -- the same face coefficient the stiffness assembly uses, so
    the quotient of an eigenpair reproduces its eigenvalue exactly.
    """
    _check_c(c)
    g = u.grid
    wf = face_average(ScalarField(g, 1.0 / (c.values + alpha)))
    F = gradient(u)
    num = g.cell_area * float((wf.xfaces * F.xfaces ** 2).sum()
                              + (wf.yfaces * F.yfaces ** 2).sum())
    den = integrate(ScalarField(g, u.values ** 2 * eigen_weight(c, alpha).values))
    if den == 0.0:
        raise ZeroDenominator("weighted mass of u vanishes")
    return num / den


def eigenvalue_lower_bound(c: ScalarField, alpha: float) -> float:
    """Closed-form floor for the principal eigenvalue.

    sqrt(lambda1) * (c_min + alpha)^2 / (2 |grad c|_inf (c_max + alpha)), i.e.
    1 / (2 (ratio_gap + 1)); for constant c the gradient sup vanishes and the
    bound is +inf.
    """
    ratio = shifted_ratio(c, alpha)
    if ratio == 0.0:
        return math.inf
    return 1.0 / (2.0 * ratio)


def eigen_curve(c: ScalarField, alphas) -> EigenCurve:
    """Solve the eigenproblem for every admissible alpha in the given order."""
    rows = []
    for alpha in alphas:
        alpha = float(alpha)
        if not is_admissible(c, alpha):
            continue
        pair = principal_eigenpair(c, alpha)
        gap = abs(rayleigh_quotient(c, alpha, pair.u) - pair.lam)
        rows.append((alpha, pair.lam, eigenvalue_lower_bound(c, alpha), gap))
    return EigenCurve(rows)
