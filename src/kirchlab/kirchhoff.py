"""The nonlocal Dirichlet problem -(a + b * E[u]) Lap u = h with E[u] the
gradient energy of u.

Freezing the energy at a value s makes the equation linear, so solving
reduces to the scalar fixed-point problem s = Phi(s), where Phi(s) is the
gradient energy of the frozen solve.  The scan enumerates every fixed point
inside a provable bracket; Newton's method solves the full nonlinear system
using the closed-form inverse of the rank-one-perturbed Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eigen
from .grid import (Grid, ScalarField, grad_inner, grad_norm_sq, integrate,
                   laplacian, node_grad_sq, dirichlet_lambda1)
from .linalg import NoConvergence, poisson_solve

ROOT_RTOL = 1e-10          # |Phi(s) - s| <= ROOT_RTOL * (1 + s) at a root
TANGENCY_RTOL = 1e-6
BISECT_MAX = 120
BRACKET_EPS = 1e-12
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 50
SINGULAR_TOL = 1e-8
LINEARIZED_RTOL = 1e-6


class NegativeS(Exception):
    pass


class SingularJacobian(Exception):
    pass


@dataclass
class Problem:
    """Coefficient triple (a, b, h) on a shared grid; a and b strictly positive."""

    a: ScalarField
    b: ScalarField
    h: ScalarField

    def __post_init__(self):
        if self.b.grid != self.a.grid or self.h.grid != self.a.grid:
            raise ValueError("coefficient fields live on different grids")
        self.a0 = float(self.a.values.min())
        self.b0 = float(self.b.values.min())
        if self.a0 <= 0.0 or self.b0 <= 0.0:
            raise ValueError(f"coefficients must be positive: min a = {self.a0:.6g}, "
                             f"min b = {self.b0:.6g}")

    @property
    def grid(self) -> Grid:
        return self.a.grid


@dataclass
class NonlocalSolution:
    u: ScalarField
    s: float
    residual: float
    method: str  # "fixed-point-scan" | "newton"


@dataclass
class ScanReport:
    s_max: float
    samples: list  # (s, Phi(s)) pairs in sample order
    roots: list    # NonlocalSolution, sorted by s
    suspected_tangencies: list  # s values where |Phi(s)-s| dips without a crossing


def diffusion_coefficient(P: Problem, s: float) -> ScalarField:
    """The frozen coefficient a + s*b; its minimum is at least min a."""
    if s < 0.0:
        raise NegativeS(f"nonlocal scalar must be nonnegative, got {s:.6g}")
    return ScalarField(P.grid, P.a.values + s * P.b.values)


def solve_frozen(P: Problem, s: float) -> ScalarField:
    """Solve -Lap u = h / (a + s*b) at frozen energy s (exact sine-transform solve)."""
    m = diffusion_coefficient(P, s)
    return ScalarField(P.grid, poisson_solve(P.grid, P.h.values / m.values))


def fixed_point_map(P: Problem, s: float) -> float:
    """Phi(s): gradient energy of the frozen solve; its fixed points solve the problem."""
    return grad_norm_sq(solve_frozen(P, s))


def energy_upper_bound(P: Problem) -> float:
    """Provable cap on the energy of any solution.

    At a fixed point, s equals the weighted pairing of h/M with the solution;
    Cauchy-Schwarz plus the discrete Poincare inequality (exact for these
    operators) gives s <= integral(h^2) / (a0^2 * lambda1).  A bound that
    does not fit in a double raises ValueError naming it.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h2 = P.grid.cell_area * np.sum(P.h.values ** 2)
        bound = float(np.divide(h2, P.a0 ** 2 * dirichlet_lambda1(P.grid)))
    if not np.isfinite(bound):
        raise ValueError(f"energy bound integral(h^2)/(min(a)^2 lambda1) = {bound} is not "
                         f"a finite double (max |h| = {np.abs(P.h.values).max():.3g}, "
                         f"min a = {P.a0:.3g})")
    return bound


def residual(P: Problem, u: ScalarField) -> float:
    """Max-norm of M(., E[u]) * Lap u + h."""
    m = diffusion_coefficient(P, grad_norm_sq(u))
    r = m.values * laplacian(u).values + P.h.values
    return float(np.abs(r).max())


def fixed_point_scan(P: Problem, n_samples: int = 256,
                     s_max: float | None = None) -> ScanReport:
    """Enumerate all fixed points of Phi on the provable bracket [0, 1.05*S_max].

    Uniform samples of Phi(s) - s; every strict sign change is refined by
    bisection to |Phi(s)-s| <= 1e-10*(1+s); samples that already satisfy that
    bound count as roots directly.  Local minima of |Phi(s)-s| below
    1e-6*(1+s) without a crossing are reported as suspected tangencies (a
    double root there is exactly where the Jacobian degenerates).  s_max
    replaces the computed energy bound when given.
    """
    if n_samples < 16:
        raise ValueError(f"need at least 16 samples, got {n_samples}")
    s_hi = 1.05 * max(s_max if s_max is not None else energy_upper_bound(P),
                      BRACKET_EPS)
    ss = np.linspace(0.0, s_hi, n_samples)

    phis = np.array([grad_norm_sq(solve_frozen(P, float(s))) for s in ss])
    gs = phis - ss

    # candidate roots: (s, |g|) from direct hits and refined sign changes
    candidates = [(float(ss[i]), abs(float(gs[i])))
                  for i in range(n_samples)
                  if abs(gs[i]) <= ROOT_RTOL * (1.0 + ss[i])]
    for i in range(n_samples - 1):
        if gs[i] * gs[i + 1] < 0.0:
            s_root, g_root = _bisect(P, float(ss[i]), float(gs[i]), float(ss[i + 1]))
            candidates.append((s_root, abs(g_root)))

    roots = []
    for s_root in _merge_candidates(candidates):
        u = solve_frozen(P, s_root)
        roots.append(NonlocalSolution(u, grad_norm_sq(u), residual(P, u),
                                      "fixed-point-scan"))
    roots.sort(key=lambda r: r.s)

    spacing = ss[1] - ss[0] if n_samples > 1 else 0.0
    root_ss = [r.s for r in roots]
    tangencies = []
    for i in range(1, n_samples - 1):
        trio = gs[i - 1:i + 2]
        if not (np.all(trio > 0.0) or np.all(trio < 0.0)):
            continue
        if abs(gs[i]) > min(abs(gs[i - 1]), abs(gs[i + 1])):
            continue
        if abs(gs[i]) >= TANGENCY_RTOL * (1.0 + ss[i]):
            continue
        if any(abs(ss[i] - sr) <= 1.5 * spacing for sr in root_ss):
            continue
        tangencies.append(float(ss[i]))

    return ScanReport(s_max=float(s_hi / 1.05), samples=list(zip(ss.tolist(), phis.tolist())),
                      roots=roots, suspected_tangencies=tangencies)


def _bisect(P: Problem, sa: float, ga: float, sb: float) -> tuple[float, float]:
    mid, gm = 0.5 * (sa + sb), ga
    for _ in range(BISECT_MAX):
        mid = 0.5 * (sa + sb)
        gm = fixed_point_map(P, mid) - mid
        if abs(gm) <= ROOT_RTOL * (1.0 + mid):
            break
        if (gm > 0.0) == (ga > 0.0):
            sa, ga = mid, gm
        else:
            sb = mid
    return mid, gm


def _merge_candidates(candidates: list) -> list:
    """Collapse near-duplicate root candidates, keeping the best |g| of each cluster."""
    if not candidates:
        return []
    candidates = sorted(candidates)
    merged = [candidates[0]]
    for s, g in candidates[1:]:
        if s - merged[-1][0] <= 1e-8 * (1.0 + s):
            if g < merged[-1][1]:
                merged[-1] = (s, g)
        else:
            merged.append((s, g))
    return [s for s, _ in merged]


def jacobian_functional(P: Problem, u: ScalarField) -> float:
    """The invertibility indicator: integral of b*u*Lap u / M(., E[u]).

    The linearized operator at u is invertible exactly when this differs
    from 1/2.
    """
    m = diffusion_coefficient(P, grad_norm_sq(u))
    return integrate(ScalarField(
        P.grid, P.b.values * u.values * laplacian(u).values / m.values))


def linearized_solve(P: Problem, u: ScalarField, g: ScalarField) -> ScalarField:
    """Solve (derivative of the nonlocal operator at u) v = -g in closed form.

    The derivative is a multiplication operator plus a rank-one term, so v is
    recovered from one Dirichlet solve: with M = a + E[u]*b,

        t = integral(g*u/M) / (integral(2b*u*Lap u/M) - 1)
        Lap v = t*2b*Lap u/M - g/M.

    Raises SingularJacobian when the denominator is within 1e-8 of zero.  The
    result is checked a posteriori against the defining equation to
    1e-6*(1+|g|_inf).
    """
    s = grad_norm_sq(u)
    m = diffusion_coefficient(P, s).values
    lap_u = laplacian(u).values
    denom = integrate(ScalarField(P.grid, 2.0 * P.b.values * u.values * lap_u / m)) - 1.0
    if abs(denom) < SINGULAR_TOL:
        raise SingularJacobian(
            f"rank-one denominator {denom:.3e} is numerically zero; "
            "the linearized operator is not surjective here")
    t = integrate(ScalarField(P.grid, g.values * u.values / m)) / denom
    w = t * 2.0 * P.b.values * lap_u / m - g.values / m
    v = ScalarField(P.grid, poisson_solve(P.grid, -w))

    check = 2.0 * P.b.values * lap_u * grad_inner(u, v) \
        + m * laplacian(v).values + g.values
    bound = LINEARIZED_RTOL * (1.0 + float(np.abs(g.values).max()))
    worst = float(np.abs(check).max())
    if worst > bound:
        raise NoConvergence(
            f"linearized solve residual {worst:.3e} exceeds {bound:.3e}", iterate=v)
    return v


def newton_solve(P: Problem, u0: ScalarField | None = None,
                 tol: float = NEWTON_TOL) -> NonlocalSolution:
    """Full-step Newton iteration on M(., E[u]) Lap u + h = 0.

    Starts from the frozen solve at s = 0 unless told otherwise; each step is
    one linearized_solve.  Raises NoConvergence (with the last iterate) after
    50 steps.
    """
    u = u0 if u0 is not None else solve_frozen(P, 0.0)
    res = residual(P, u)
    for _ in range(NEWTON_MAX_ITER):
        if res <= tol:
            return NonlocalSolution(u, grad_norm_sq(u), res, "newton")
        m = diffusion_coefficient(P, grad_norm_sq(u))
        r_field = ScalarField(P.grid, m.values * laplacian(u).values + P.h.values)
        step = linearized_solve(P, u, r_field)
        u = ScalarField(P.grid, u.values + step.values)
        res = residual(P, u)
    if res <= tol:
        return NonlocalSolution(u, grad_norm_sq(u), res, "newton")
    raise NoConvergence(f"Newton stalled at residual {res:.3e} after "
                        f"{NEWTON_MAX_ITER} iterations", iterate=u, residual=res)


def jacobian_identity(P: Problem, u: ScalarField) -> tuple[float, float]:
    """Both sides of the divergence-theorem split of the Jacobian functional.

    lhs is the functional written with b factored out (c = a/b); rhs moves the
    gradient of c onto the weight used by the eigenvalue module:

        lhs = integral( u * Lap u / (c + s) )
        rhs = -integral( |grad u|^2 / (c + s) ) + 1/2 integral( u^2 * m_s )

    with s = E[u].  The two agree up to discretization error that vanishes
    under grid refinement.
    """
    s = grad_norm_sq(u)
    c = ScalarField(P.grid, P.a.values / P.b.values)
    lhs = integrate(ScalarField(P.grid, u.values * laplacian(u).values / (c.values + s)))
    gsq = node_grad_sq(u)
    weight = eigen.eigen_weight(c, s)
    rhs = -integrate(ScalarField(P.grid, gsq.values / (c.values + s))) \
        + 0.5 * integrate(ScalarField(P.grid, u.values ** 2 * weight.values))
    return lhs, rhs
