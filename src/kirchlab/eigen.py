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
from dataclasses import dataclass, field

import numpy as np

from .certify import _check_alpha, _check_ratio, _ratio_terms, _shift, shifted_ratio
from .grid import (FaceField, KirchlabError, ScalarField, _face_mean, _ghost_difference,
                   divergence, face_average, gradient, grad_norm_sq, integrate)
from .linalg import NoConvergence, _lobpcg_stack

ADMISSIBLE_TOL = 1e-10
SIGN_TOL = 1e-8
PENCIL_RESID_TOL = 1e-8
# most alphas x grid nodes in one LOBPCG stack.  Stacks save numpy call
# overhead on small grids but leave the cache on large ones: on the 8-alpha
# ramp curve, 2 alphas per stack were fastest at 64^2 and 1 at 128^2
_STACK_NODES = 8_192


@dataclass
class EigenPair:
    """Principal pair at one alpha, with the solver's iteration count and its
    relative pencil residual |A v - lam B v| / |A v|."""

    alpha: float
    lam: float
    u: ScalarField
    iterations: int
    residual: float


@dataclass
class EigenCurve:
    """Rows (alpha, lambda, ee_bound, rayleigh_gap) for the admissible alphas."""

    rows: list
    pairs: list = field(default_factory=list, init=False)  # the EigenPair behind each row


def weight_flux(c: ScalarField, alpha: float) -> FaceField:
    """Face flux G ~ grad c / (c + alpha)^2 whose negative divergence is the weight.

    Interior faces use the centered face gradient of c over the squared
    face-averaged (c + alpha).  The boundary faces cannot difference c against
    the ghost zeros (c does not vanish there), so they are linearly
    extrapolated from the two nearest parallel interior faces, falling back to
    a copy (or zero) on very thin grids.
    """
    _check_ratio(c)
    _check_alpha(alpha)
    g, faces = c.grid, []
    for axis, h in ((1, g.hx), (0, g.hy)):
        # past alpha ~ 1.3e154 the square is inf and the flux 0, whose true size
        # is below |dc/h| * 5.6e-309.  The end faces' ghost quotients, replaced
        # below, may overflow; FaceField refuses an inner face that is not finite
        with np.errstate(all="ignore"):
            f = _ghost_difference(c.mat, axis) / h / (_face_mean(c.mat, axis) + alpha) ** 2
        F = f.swapaxes(axis, 0)       # the n + 1 faces of n nodes along axis
        if len(F) >= 4:
            F[0], F[-1] = 2.0 * F[1] - F[2], 2.0 * F[-2] - F[-3]
        else:
            F[0], F[-1] = (F[1], F[1]) if len(F) == 3 else (0.0, 0.0)
        faces.append(f)
    return FaceField(g, *faces)


def eigen_weight(c: ScalarField, alpha: float) -> ScalarField:
    """The indefinite node weight m_alpha = -divergence(weight_flux)."""
    m = divergence(weight_flux(c, alpha))
    return ScalarField(c.grid, -m.values)


def _weight(c: ScalarField, alpha: float) -> tuple[ScalarField, bool]:
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha:.6g}")
    m = eigen_weight(c, alpha)
    return m, float(m.values.max()) > ADMISSIBLE_TOL


def is_admissible(c: ScalarField, alpha: float) -> bool:
    """True when the weight is positive (above 1e-10) at one node or more."""
    return _weight(c, alpha)[1]


def principal_eigenpair(c: ScalarField, alpha: float) -> EigenPair:
    """Smallest positive eigenvalue with its positive eigenfunction.

    The pencil pairs the weighted stiffness operator with the lumped weight
    (the common cell-area factor of the two quadratures cancels, so the
    eigenvalue is grid-scale free) and is solved matrix-free by the LOBPCG of
    linalg.lobpcg_smallest_positive, as the one row of eigen_curve(c, [alpha]).
    A - lambda diag(B) is an irreducible Z-matrix, so a converged eigenvector
    that is strictly positive with lambda > 0 proves lambda is the smallest
    positive eigenvalue (Perron-Frobenius): the sign check is what rules out a
    stop on a higher eigenvalue.  The eigenfunction is normalized to gradient
    energy alpha and oriented positive; a sign change beyond tolerance is an
    error rather than a warning, as is a pencil residual above PENCIL_RESID_TOL.
    """
    pairs = eigen_curve(c, [alpha]).pairs
    if not pairs:
        raise ValueError(f"weight is nowhere positive at alpha = {alpha:.6g}")
    return pairs[0]


def _eigenpair(c: ScalarField, alpha: float, out) -> EigenPair:
    if isinstance(out, KirchlabError):
        raise out
    lam, v, iterations, resid = out
    if resid > PENCIL_RESID_TOL:
        raise NoConvergence(f"pencil residual {resid:.3e} too large at alpha = {alpha:.6g}")
    u = ScalarField(c.grid, v * math.sqrt(alpha / grad_norm_sq(ScalarField(c.grid, v))))
    vmax = float(u.values.max())
    if float(u.values.min()) < -SIGN_TOL * vmax:
        raise KirchlabError(
            f"principal eigenfunction changes sign at alpha = {alpha:.6g} "
            f"(min {u.values.min():.3e} vs max {vmax:.3e}); refine the grid")
    return EigenPair(alpha=alpha, lam=lam, u=u, iterations=iterations, residual=resid)


def rayleigh_quotient(c: ScalarField, alpha: float, u: ScalarField) -> float:
    """Ratio of the weighted gradient energy to the weighted mass of u.

    The numerator weights squared face gradients with the face average of
    1/(c + alpha) -- the same face coefficient the stiffness assembly uses, so
    the quotient of an eigenpair reproduces its eigenvalue exactly.
    """
    return _rayleigh(c, alpha, u, eigen_weight(c, alpha))


def _rayleigh(c: ScalarField, alpha: float, u: ScalarField, m: ScalarField) -> float:
    g = u.grid
    wf = face_average(ScalarField(g, 1.0 / (c.values + alpha)))
    F = gradient(u)
    num = g.cell_area * float((wf.xfaces * F.xfaces ** 2).sum()
                              + (wf.yfaces * F.yfaces ** 2).sum())
    den = integrate(ScalarField(g, u.values ** 2 * m.values))
    if den == 0.0:
        raise ValueError("weighted mass of u vanishes")
    return num / den


def eigenvalue_lower_bound(c: ScalarField, alpha: float) -> float:
    """Closed-form floor for the principal eigenvalue.

    sqrt(lambda1) * (c_min + alpha)^2 / (2 |grad c|_inf (c_max + alpha)), i.e.
    1 / (2 (ratio_gap + 1)); for constant c the gradient sup vanishes and the
    bound is +inf.
    """
    return _bound_of(shifted_ratio(c, alpha))


def _bound_of(ratio: float) -> float:
    """eigenvalue_lower_bound from the shifted ratio at its alpha."""
    return math.inf if ratio == 0.0 else 1.0 / (2.0 * ratio)


def eigen_curve(c: ScalarField, alphas) -> EigenCurve:
    """Solve the eigenproblem for every admissible alpha in the given order.

    The admissible alphas go through the LOBPCG as stacks of up to
    _STACK_NODES // n node weights 1/(c + alpha); each gets the bits it gets
    alone, so a row's pair is principal_eigenpair at its alpha.  The checks run
    per alpha in order, so the first alpha that fails raises what it raises
    when solved alone.  The alpha-free terms of the lower bound are computed once.
    """
    curve, terms = EigenCurve([]), None
    for stack in _stacks(c, alphas):
        terms = terms or _ratio_terms(c)
        W = 1.0 / (c.values + np.array([[alpha] for alpha, _ in stack]))
        outs = _lobpcg_stack(c.grid, W, np.stack([m.values for _, m in stack]),
                             [f" at alpha = {alpha:.6g}" for alpha, _ in stack])
        for (alpha, m), out in zip(stack, outs):
            pair = _eigenpair(c, alpha, out)
            gap = abs(_rayleigh(c, alpha, pair.u, m) - pair.lam)
            curve.rows.append((alpha, pair.lam, _bound_of(_shift(terms, alpha)), gap))
            curve.pairs.append(pair)
    return curve


def _stacks(c: ScalarField, alphas):
    """The admissible (alpha, m_alpha) of alphas in order, in lists of at most
    max(1, _STACK_NODES // n).  An alpha whose weight raises (a nonpositive
    alpha, or a weight that is not finite) does so once the alphas before it
    are yielded, as when each alpha is solved alone."""
    size = max(1, _STACK_NODES // c.grid.n_nodes)
    stack = []
    for alpha in map(float, alphas):
        try:
            m, admissible = _weight(c, alpha)
        except ValueError:
            if stack:
                yield stack
            raise
        if admissible:
            stack.append((alpha, m))
        if len(stack) == size:
            yield stack
            stack = []
    if stack:
        yield stack
