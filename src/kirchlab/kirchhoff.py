"""The nonlocal Dirichlet problem -(a + b * E[u]) Lap u = h with E[u] the
gradient energy of u.

Freezing the energy at a value s makes the equation linear, so solving
reduces to the scalar fixed-point problem s = Phi(s), where Phi(s) is the
gradient energy of the frozen solve.  By the Green identity Phi(s) is a sum
over the sine coefficients of the frozen right-hand side, so one kernel
evaluates Phi (and its slope Phi') from the forward sine transform alone,
with no solve.  The scan enumerates every fixed point inside a provable
bracket, evaluating Phi on blocks of samples, and refines each sign change
and each run of root samples by safeguarded Newton steps on Phi(s) - s,
ending in one polishing step; Newton's method solves the full
nonlinear system using the closed-form inverse of the rank-one-perturbed
Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eigen
from .certify import _check_coefficients, _ratio_field
from .grid import (Grid, KirchlabError, ScalarField, _per_batch, grad_inner, grad_norm_sq,
                   gradient, integrate, laplacian, node_grad_sq, dirichlet_lambda1)
from .linalg import NoConvergence, _sine_basis, poisson_solve

ROOT_RTOL = 1e-10          # |Phi(s) - s| <= ROOT_RTOL * s at a root
TANGENCY_RTOL = 1e-6
REFINE_MAX = 120          # Phi evaluations allowed to refine one sign change
CEILING_RTOL = 1e-6        # relative width at which the ceiling bisection stops
CEILING_MAX_STEPS = 2200   # enough halvings to cross the whole double range
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 50
SINGULAR_TOL = 1e-8
LINEARIZED_RTOL = 1e-6


@dataclass
class Problem:
    """Coefficient triple (a, b, h) on a shared grid; a and b strictly positive."""

    a: ScalarField
    b: ScalarField
    h: ScalarField

    def __post_init__(self):
        _check_coefficients(self.a, self.b)
        if self.h.grid != self.a.grid:
            raise ValueError("h lives on a different grid from a and b")
        self.a0 = float(self.a.values.min())

    @property
    def grid(self) -> Grid:
        return self.a.grid


@dataclass
class NonlocalSolution:
    u: ScalarField
    s: float
    residual: float
    method: str  # "fixed-point-scan" | "newton"
    dphi: float | None = None  # Phi'(s) at a scan root: the invertibility indicator
    refine_evals: int = 0      # Phi evaluations the scan spent on this root after sampling
    steps: int = 0             # linearized solves newton_solve took for this root


@dataclass
class ScanReport:
    s_max: float
    samples: list  # (s, Phi(s)) pairs in sample order
    roots: list    # NonlocalSolution, sorted by s
    suspected_tangencies: list  # s values where |Phi(s)-s| dips without a crossing
    n_phi_evals: int = 0  # every Phi evaluation: the samples plus all refinement


def _check_samples(n_samples: int) -> int:
    """The scan's sample count, refused unless an integer of at least 16."""
    if not isinstance(n_samples, (int, np.integer)):
        raise ValueError(f"sample count must be an integer, got {n_samples!r}")
    if n_samples < 16:
        raise ValueError(f"need at least 16 samples, got {n_samples}")
    return n_samples


def _check_positive(name: str, value: float) -> float:
    """A tolerance or ceiling, refused unless positive and finite."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def diffusion_coefficient(P: Problem, s: float) -> ScalarField:
    """The frozen coefficient a + s*b; its minimum is at least min a."""
    with np.errstate(over="ignore"):
        return ScalarField(P.grid, _frozen_coefficients(P, [s])[0])


def _frozen_coefficients(P: Problem, ss) -> np.ndarray:
    """Rows a + s*b, one per s of ss, in one new buffer; callers silence overflow.

    Raises ValueError for a negative s, and one naming the first s at
    which a + s*b does not fit in a double.
    """
    ss = np.asarray(ss, dtype=float)
    if (ss < 0.0).any():
        raise ValueError(f"nonlocal scalar must be nonnegative, got {ss[ss < 0.0][0]:.6g}")
    m = np.multiply(ss[:, None], P.b.values)
    m += P.a.values
    finite = np.isfinite(m.max(axis=1))   # a NaN row has a NaN max
    if not finite.all():
        raise ValueError(f"frozen coefficient a + s*b is not a finite double at "
                         f"s = {ss[~finite][0]:.6g} (max b = {P.b.values.max():.3g})")
    return m


def solve_frozen(P: Problem, s: float) -> ScalarField:
    """Solve -Lap u = h / (a + s*b) at frozen energy s (exact sine-transform solve).

    Raises a ValueError when the solution is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u = poisson_solve(P.grid, P.h.values / _frozen_coefficients(P, [s])[0])
    if not np.isfinite(u).all():
        raise ValueError(f"frozen solve at s = {s:.6g} is not finite")
    return ScalarField(P.grid, u)


def _phi(P: Problem, ss, slope: bool = False) -> np.ndarray:
    """Phi(s) for each s of ss from the forward sine transform alone: the one
    definition of Phi.

    With f_s = h/(a + s*b) and L the five-point Dirichlet operator, the Green
    identity gives Phi(s) = E[L^-1 f_s] = area <f_s, L^-1 f_s>, which in the
    sine basis is area * sum fh^2 / (ly + lx) with fh = Sy F Sx the sine
    coefficients of the (ny, nx) matrix F of f_s (Buzbee, Golub & Nielson 1970).
    The rows of ss go through one stacked transform, and each gets the bits it
    gets alone.  With slope=True, ss holds one s, the stack gains the row
    beta*f_s with beta = b/(a + s*b), and the result is (Phi(s), Phi'(s)),
    Phi'(s) = -2 area * sum (beta f_s)h * fh / (ly + lx).

    Keeps _frozen_coefficients' checks, and raises a ValueError naming the
    first s whose energy (or slope) does not fit in a double.
    """
    g = P.grid
    ss = np.asarray(ss, dtype=float)
    k = ss.size
    Sy, Sx, _, _, weight = _sine_basis(g)
    # area / (ly + lx) scales the coefficients before they are squared, so only an energy
    # that overflows itself overflows; the products reuse the call's buffers, not fresh pages
    with np.errstate(over="ignore", invalid="ignore"):
        m = _frozen_coefficients(P, ss)
        F = np.empty((2, g.n_nodes)) if slope else m
        np.divide(P.h.values, m, out=F[:k])
        if slope:                 # the row beta f_s = (b/m) f_s
            np.multiply(np.divide(P.b.values, m, out=m), F[:1], out=F[1:])
        T = Sy @ F.reshape(-1, g.ny, g.nx)
        Fh = np.matmul(T, Sx, out=F.reshape(T.shape))
        WFh = np.multiply(Fh[:k], weight, out=T[:k])
        phi = np.multiply(Fh[:k], WFh, out=Fh[:k]).sum(axis=(-2, -1))
        if slope:
            phi = np.append(phi, -2.0 * np.multiply(Fh[1], WFh[0], out=T[1]).sum())
    finite = np.isfinite(phi)
    if not finite[:k].all():
        raise ValueError(f"gradient energy overflows a double at s = {ss[~finite[:k]][0]:.6g}")
    if not finite.all():
        raise ValueError(f"gradient energy slope Phi'(s) overflows a double at s = {ss[0]:.6g}")
    return phi


def fixed_point_map(P: Problem, s: float) -> float:
    """Phi(s): gradient energy of the frozen solve; its fixed points solve the problem."""
    return float(_phi(P, [s])[0])


def energy_upper_bound(P: Problem) -> float:
    """Provable cap on the energy of any solution.

    At a fixed point, s equals the weighted pairing of h/M with the solution;
    Cauchy-Schwarz plus the discrete Poincare inequality (exact for these
    operators) gives s <= integral(h^2) / (a0^2 * lambda1).  A bound that
    does not fit in a double raises ValueError naming it.
    """
    with np.errstate(over="ignore"):   # h/a0 before squaring: exact under 2^j, no h^2 underflow
        q2 = float(np.sum((P.h.values / P.a0) ** 2))
    bound = P.grid.cell_area * q2 / dirichlet_lambda1(P.grid)
    if not np.isfinite(bound):
        raise ValueError(f"energy bound integral(h^2)/(min(a)^2 lambda1) = {bound} is not "
                         f"a finite double (max |h| = {np.abs(P.h.values).max():.3g}, "
                         f"min a = {P.a0:.3g})")
    return bound


def _scan_ceiling(P: Problem) -> float:
    """Tight provable cap on the energy of any solution, below energy_upper_bound.

    At a fixed point s = E[u_s] <= B(s) = integral(h^2/(a + s b)^2) / lambda1 by
    Cauchy-Schwarz and the discrete Poincare inequality.  B decreases in s, so
    every root lies below the fixed point of B; bisection on s - B(s) over
    [0, energy_upper_bound(P)], with no Poisson solve, returns the upper end of
    the bracket once it is CEILING_RTOL wide relative to that end.
    """
    lo, hi = 0.0, energy_upper_bound(P)
    scale = P.grid.cell_area / dirichlet_lambda1(P.grid)
    a, b, h = P.a.values, P.b.values, P.h.values
    with np.errstate(all="ignore"):  # an overflowing B(mid) is +inf: mid lies below
        for _ in range(CEILING_MAX_STEPS):
            if not hi - lo > CEILING_RTOL * hi:
                break
            mid = 0.5 * (lo + hi)
            if mid < scale * float(np.sum((h / (a + mid * b)) ** 2)):
                lo = mid
            else:
                hi = mid
    return hi


def _nonlinear_state(P: Problem, u: ScalarField) -> tuple:
    """(E[u], M, Lap u, r) at u, with M = a + E[u]*b and r = M Lap u + h as node
    arrays: the one evaluation of the nonlinear operator."""
    s = grad_norm_sq(u)
    m = diffusion_coefficient(P, s).values
    lap_u = laplacian(u).values
    return s, m, lap_u, m * lap_u + P.h.values


def residual(P: Problem, u: ScalarField) -> float:
    """Max-norm of M(., E[u]) * Lap u + h."""
    return float(np.abs(_nonlinear_state(P, u)[3]).max())


def fixed_point_scan(P: Problem, n_samples: int = 256,
                     s_max: float | None = None) -> ScanReport:
    """Enumerate all fixed points of Phi on the provable bracket [0, 1.05*S_max],
    S_max the tight energy cap of _scan_ceiling or the given s_max.

    Uniform samples of g(s) = Phi(s) - s, grid._per_batch(n) per kernel call and
    each bitwise equal to fixed_point_map, give the root starts for _refine: a
    run of samples with |g| <= 1e-10*s at its sample of least |g| between the
    run's neighbours, a strict sign change between two other samples at its
    secant point.  A root reports the polished s, its frozen solve, Phi'(s) and
    its Phi evaluations after sampling; local minima of |g| below 1e-6*s without
    a crossing are suspected tangencies.  The tests are relative, so (4^j a, b,
    8^j h) scans to 4^j times the roots, bit for bit; a zero ceiling scans [0, 0]
    (root 0), and Phi(s) > s atop the bracket raises KirchlabError.
    """
    _check_samples(n_samples)
    ceiling = _check_positive("s_max", s_max) if s_max is not None else _scan_ceiling(P)
    ss = np.linspace(0.0, 1.05 * ceiling, n_samples)
    block = _per_batch(P.grid.n_nodes)
    phis = np.concatenate([_phi(P, ss[j:j + block]) for j in range(0, n_samples, block)])
    gs = phis - ss
    if s_max is None and gs[-1] > 0.0:   # Phi(s) < s above the ceiling, unless it underflowed
        raise KirchlabError(f"Phi(s) > s = {ss[-1]:.6g} atop the bracket: energy bound underflowed")

    # root starts (first s, bracket ends as sample indices), disjoint by construction;
    # signs are compared because the product of two |g| > 1e154 overflows
    hit = np.abs(gs) <= ROOT_RTOL * ss
    s_l, g_l = ss.tolist(), gs.tolist()
    starts = []
    for i, j in np.flatnonzero(np.diff(hit, prepend=False, append=False)).reshape(-1, 2):
        k = i + int(np.argmin(np.abs(gs[i:j])))
        starts.append((s_l[k], max(i - 1, 0), min(j, n_samples - 1)))
    change = np.sign(gs[:-1]) * np.sign(gs[1:]) < 0.0
    for i in np.flatnonzero(change & ~hit[:-1] & ~hit[1:]).tolist():
        lo, hi = s_l[i], s_l[i + 1]
        s = lo - g_l[i] * (hi - lo) / (g_l[i + 1] - g_l[i])
        starts.append((s if lo < s < hi else 0.5 * (lo + hi), i, i + 1))

    roots = []
    for start, i, j in sorted(starts):
        s, dphi, evals = _refine(P, start, s_l[i], g_l[i], s_l[j], g_l[j])
        u = solve_frozen(P, s)
        roots.append(NonlocalSolution(u, s, residual(P, u), "fixed-point-scan", dphi, evals))

    tangencies = _suspected_tangencies(ss, gs, [r.s for r in roots])
    return ScanReport(s_max=float(ceiling), samples=list(zip(ss.tolist(), phis.tolist())),
                      roots=roots, suspected_tangencies=tangencies,
                      n_phi_evals=n_samples + sum(r.refine_evals for r in roots))


def _suspected_tangencies(ss: np.ndarray, gs: np.ndarray, root_ss: list) -> list:
    """Interior samples where g = Phi(s) - s keeps one strict sign over the sample
    and both neighbours, |g| is a local minimum below TANGENCY_RTOL*s, and
    no root lies within 1.5 sample spacings."""
    mag, mid = np.abs(gs), ss[1:-1]
    pos, neg = gs > 0.0, gs < 0.0
    keep = ((pos[:-2] & pos[1:-1] & pos[2:]) | (neg[:-2] & neg[1:-1] & neg[2:]))
    keep &= mag[1:-1] <= np.minimum(mag[:-2], mag[2:])
    keep &= mag[1:-1] < TANGENCY_RTOL * mid
    if root_ss:
        spacing = ss[1] - ss[0]
        keep &= ~(np.abs(np.subtract.outer(mid, root_ss)) <= 1.5 * spacing).any(axis=1)
    return mid[keep].tolist()


def _refine(P: Problem, s: float, lo: float, g_lo: float, hi: float, g_hi: float) -> tuple:
    """The root of g(s) = Phi(s) - s in [lo, hi] from the first point s, as
    (s, Phi'(s), evaluations).

    Safeguarded Newton (rtsafe): each evaluation of g and Phi' at s (one 2-row
    kernel call) shrinks the bracket to the sign change of g.  The next s is the
    Newton step s - g/(Phi' - 1) when it lies strictly inside the bracket and
    moves at most half as far as the step before it, the bracket's midpoint
    otherwise.  The iteration stops when |g| <= ROOT_RTOL*s, or at an s not
    strictly inside the bracket: the end with the smaller |g| once no double
    lies between the ends, or a first point on an end.  _polish then takes one
    last Newton step.  Raises NoConvergence naming the bracket after REFINE_MAX
    evaluations: an unverified point is never a root.
    """
    width = hi - lo
    for evals in range(1, REFINE_MAX + 1):
        phi, dphi = (float(v) for v in _phi(P, [s], slope=True))
        g = phi - s
        if abs(g) <= ROOT_RTOL * s or not lo < s < hi:
            return _polish(P, lo, hi, s, g, dphi, evals)
        if (g > 0.0) == (g_lo > 0.0):
            lo, g_lo = s, g
        else:
            hi, g_hi = s, g
        newton = s - g / (dphi - 1.0) if dphi != 1.0 else math.nan
        if lo < newton < hi and abs(newton - s) <= 0.5 * width:
            width, s = abs(newton - s), newton
        else:
            width, s = 0.5 * (hi - lo), 0.5 * (lo + hi)
            if not lo < s < hi:
                s = lo if abs(g_lo) <= abs(g_hi) else hi
    raise NoConvergence(f"root refinement left |Phi(s) - s| above {ROOT_RTOL:g}*s after "
                        f"{REFINE_MAX} evaluations; the root lies in [{lo:.17g}, {hi:.17g}]")


def _polish(P: Problem, lo: float, hi: float, s: float, g: float, dphi: float,
            evals: int) -> tuple:
    """One more Newton step from a refined root s with g = Phi(s) - s, as
    (s, Phi'(s), evaluations), kept when it stays strictly inside [lo, hi] and
    lowers |g|.  Newton converges quadratically, so a root that just met
    ROOT_RTOL usually drops to roundoff, and s then agrees with the energy of its
    frozen solve to about 1e-15.  The step costs one evaluation, counted either way."""
    newton = s - g / (dphi - 1.0) if dphi != 1.0 else math.nan
    if not (lo < newton < hi and newton != s):
        return s, dphi, evals
    phi, dphi_new = (float(v) for v in _phi(P, [newton], slope=True))
    if abs(phi - newton) < abs(g):
        return newton, dphi_new, evals + 1
    return s, dphi, evals + 1


def jacobian_functional(P: Problem, u: ScalarField) -> float:
    """The invertibility indicator: integral of b*u*Lap u / M(., E[u]).

    The linearized operator at u is invertible exactly when this differs
    from 1/2.
    """
    _, m, lap_u, _ = _nonlinear_state(P, u)
    return integrate(ScalarField(P.grid, P.b.values * u.values * lap_u / m))


def linearized_solve(P: Problem, u: ScalarField, g: ScalarField) -> ScalarField:
    """Solve (derivative of the nonlocal operator at u) v = -g in closed form.

    The derivative is a multiplication operator plus a rank-one term, so v is
    recovered from one Dirichlet solve: with M = a + E[u]*b,

        t = integral(g*u/M) / (integral(2b*u*Lap u/M) - 1)
        Lap v = t*2b*Lap u/M - g/M.

    Raises KirchlabError when the denominator is within 1e-8 of zero.  The
    result is checked a posteriori against the defining equation to
    1e-6*(1+|g|_inf).
    """
    _, m, lap_u, _ = _nonlinear_state(P, u)
    denom = integrate(ScalarField(P.grid, 2.0 * P.b.values * u.values * lap_u / m)) - 1.0
    if abs(denom) < SINGULAR_TOL:
        raise KirchlabError(
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


def newton_solve(P: Problem, tol: float = NEWTON_TOL) -> NonlocalSolution:
    """Full-step Newton iteration on M(., E[u]) Lap u + h = 0.

    Starts from the frozen solve at s = 0; each step is one linearized_solve,
    and each iterate's nonlinear state is evaluated once.  Raises
    NoConvergence (with the last iterate) after 50 steps, and ValueError for
    a tol that is not positive and finite.
    """
    _check_positive("tol", tol)
    u = solve_frozen(P, 0.0)
    for steps in range(NEWTON_MAX_ITER + 1):
        s, _, _, r = _nonlinear_state(P, u)
        res = float(np.abs(r).max())
        if res <= tol or steps == NEWTON_MAX_ITER:
            break
        u = ScalarField(P.grid, u.values + linearized_solve(P, u, ScalarField(P.grid, r)).values)
    if not res <= tol:
        raise NoConvergence(f"Newton stalled at residual {res:.3e} after "
                            f"{NEWTON_MAX_ITER} iterations", iterate=u, residual=res)
    return NonlocalSolution(u, s, res, "newton", steps=steps)


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
    c = _ratio_field(P.a, P.b)
    lhs = integrate(ScalarField(P.grid, u.values * laplacian(u).values / (c.values + s)))
    gsq = node_grad_sq(gradient(u))
    weight = eigen.eigen_weight(c, s)
    rhs = -integrate(ScalarField(P.grid, gsq.values / (c.values + s))) \
        + 0.5 * integrate(ScalarField(P.grid, u.values ** 2 * weight.values))
    return lhs, rhs
