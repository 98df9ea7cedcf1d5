"""Acceptance suite: every release gate runs at its stated tolerance and
prints one PASS line (run with -s to see them)."""

import math
import time

import numpy as np

from kirchlab.certify import (certify, interior_min, pointwise_certified_ratio,
                              pointwise_criterion, ratio_criterion, ratio_gap)
from kirchlab.eigen import (eigen_curve, is_admissible, principal_eigenpair)
from kirchlab.grid import (FaceField, Grid, ScalarField, dirichlet_lambda1,
                           divergence, grad_inner, grad_norm_sq, gradient,
                           integrate, laplacian)
from kirchlab.kirchhoff import (Problem, diffusion_coefficient, fixed_point_map,
                                fixed_point_scan, jacobian_functional,
                                jacobian_identity, linearized_solve,
                                newton_solve)
from dense_oracle import Pencil, assemble_weighted_laplacian, smallest_positive

from conftest import (field_from, positive_random, sign_changing, smooth_random,
                      unit_grid)


def plain_laplacian(grid):
    return assemble_weighted_laplacian(ScalarField.full(grid, 1.0))


def cubic_problem(grid, phi0_target):
    h_raw = field_from(grid, lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y))
    p_raw = Problem(ScalarField.full(grid, 1.0), ScalarField.full(grid, 1.0), h_raw)
    scale = math.sqrt(phi0_target / fixed_point_map(p_raw, 0.0))
    return Problem(ScalarField.full(grid, 1.0), ScalarField.full(grid, 1.0),
                   ScalarField(grid, scale * h_raw.values))


def test_criterion_01_discrete_lambda1_exactness():
    t0 = time.monotonic()
    g3 = unit_grid(3)
    lam3, vec3 = smallest_positive(Pencil(plain_laplacian(g3), np.ones(9)))
    ref3 = 128.0 * math.sin(math.pi / 8) ** 2
    assert abs(lam3 - ref3) <= 1e-10 * ref3
    assert (vec3 > 0).all()
    assert abs(dirichlet_lambda1(g3) - ref3) <= 1e-12 * ref3

    g24 = unit_grid(24)
    lam24, _ = smallest_positive(Pencil(plain_laplacian(g24), np.ones(24 * 24)))
    assert abs(lam24 - dirichlet_lambda1(g24)) <= 1e-10 * lam24

    lam64 = dirichlet_lambda1(unit_grid(64))
    assert abs(lam64 - 2.0 * math.pi ** 2) <= 1e-3 * 2.0 * math.pi ** 2

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS lambda1 exactness: 3x3 -> {lam3:.10f}, 64x64 within "
          f"{abs(lam64 - 2 * math.pi ** 2) / (2 * math.pi ** 2):.2e} of 2pi^2 "
          f"({elapsed:.1f}s)")


def test_criterion_02_cubic_fixed_point_oracle():
    t0 = time.monotonic()
    g = unit_grid(64)
    for phi0, s_star in ((4.0, 1.0), (1.125, 0.5)):
        report = fixed_point_scan(cubic_problem(g, phi0), 256)
        assert len(report.roots) == 1
        assert abs(report.roots[0].s - s_star) <= 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"PASS cubic fixed-point oracle: roots at 1 and 0.5 ({elapsed:.1f}s)")


def test_criterion_03_constant_ratio_uniqueness():
    rng = np.random.default_rng(101)
    g = unit_grid(32)
    for _ in range(20):
        theta = float(rng.uniform(0.1, 10.0))
        b = positive_random(g, rng)
        a = ScalarField(g, theta * b.values)
        h = sign_changing(g, rng)
        report = fixed_point_scan(Problem(a, b, h), 256)
        assert len(report.roots) == 1
        assert report.suspected_tangencies == []
    print("PASS constant-ratio uniqueness: 20/20 single roots, no tangencies")


def test_criterion_04_signed_forcing_uniqueness():
    rng = np.random.default_rng(202)
    g = unit_grid(32)
    for sign in (1.0, -1.0):
        for _ in range(10):
            a = positive_random(g, rng)
            b = positive_random(g, rng)
            h = ScalarField(g, sign * np.abs(smooth_random(g, rng).values))
            report = fixed_point_scan(Problem(a, b, h), 256)
            assert len(report.roots) == 1
    print("PASS signed-forcing uniqueness: 20/20 single roots")


def test_criterion_05_jacobian_closed_form():
    rng = np.random.default_rng(303)
    g = unit_grid(64)
    one = ScalarField.full(g, 1.0)
    P = Problem(one, one, one)
    u = smooth_random(g, rng)
    u = ScalarField(g, u.values / math.sqrt(grad_norm_sq(u)))  # energy 1
    value = jacobian_functional(P, u)
    assert abs(value - (-0.5)) <= 1e-3
    print(f"PASS jacobian closed form: {value:.6f} vs -0.5")


def test_criterion_06_linearized_solve_and_newton():
    rng = np.random.default_rng(404)
    g = unit_grid(32)
    for _ in range(50):
        a = positive_random(g, rng)
        b = positive_random(g, rng)
        P = Problem(a, b, ScalarField.full(g, 1.0))
        u = smooth_random(g, rng)
        gf = smooth_random(g, rng)
        v = linearized_solve(P, u, gf)
        m = diffusion_coefficient(P, grad_norm_sq(u))
        resid = 2.0 * b.values * laplacian(u).values * grad_inner(u, v) \
            + m.values * laplacian(v).values + gf.values
        assert np.abs(resid).max() <= 1e-6 * (1 + np.abs(gf.values).max())

    g64 = unit_grid(64)
    P = cubic_problem(g64, 4.0)
    scan_root = fixed_point_scan(P, 256).roots[0]
    newton_root = newton_solve(P)
    gap = np.abs(newton_root.u.values - scan_root.u.values).max()
    assert gap <= 1e-8
    print(f"PASS linearized solve: 50/50 residual checks; newton-scan gap {gap:.2e}")


def test_criterion_07_eigenvalue_lower_bound_curve():
    t0 = time.monotonic()
    g = unit_grid(32)
    c = field_from(g, lambda X, Y: 1.0 + X)
    alphas = list(np.logspace(-2, 2, 20))
    curve = eigen_curve(c, alphas)
    assert len(curve.rows) == 20
    for alpha, lam, bound, gap in curve.rows:
        assert lam >= bound - 1e-8
        assert gap <= 1e-8
        pair = principal_eigenpair(c, alpha)
        assert float(pair.u.values.min()) >= -1e-8 * float(pair.u.values.max())
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"PASS eigenvalue lower bound: 20 alphas, sign-definite, "
          f"gaps <= 1e-8 ({elapsed:.1f}s)")


def test_criterion_08_admissibility_iff_pointwise():
    g = unit_grid(48)
    catalog = [
        field_from(g, lambda X, Y: np.ones_like(X)),
        field_from(g, lambda X, Y: 2.5 * np.ones_like(X)),
        pointwise_certified_ratio(g),
        field_from(g, lambda X, Y: 1.0 + X),
        field_from(g, lambda X, Y: 1.0 + X + Y),
        field_from(g, lambda X, Y: 2.0 + 0.3 * np.sin(np.pi * X) * np.sin(np.pi * Y)),
        field_from(g, lambda X, Y: np.exp(-X)),
        field_from(g, lambda X, Y: 1.0 + X ** 2),
        field_from(g, lambda X, Y: (1.0 + X) ** -0.5),
        field_from(g, lambda X, Y: 3.0 + X),
    ]
    alphas = np.logspace(-2, 2, 9)
    for c in catalog:
        admissible = any(is_admissible(c, float(alpha)) for alpha in alphas)
        negative_somewhere = interior_min(pointwise_criterion(c)) < 0.0
        assert admissible == negative_somewhere
    print("PASS admissibility iff pointwise: 10/10 fields consistent")


def test_criterion_09_certified_construction():
    rng = np.random.default_rng(505)
    g = unit_grid(64)
    c = pointwise_certified_ratio(g)
    assert float(c.values.min()) > 0.0
    min_d = interior_min(pointwise_criterion(c))
    assert min_d >= -1e-6
    cert = certify(c, ScalarField.full(g, 1.0))
    assert cert.verdict == "UniquePointwise"
    P = Problem(c, ScalarField.full(g, 1.0), ScalarField.full(g, 1.0))
    worst = -math.inf
    for _ in range(50):
        u = smooth_random(g, rng)
        worst = max(worst, jacobian_functional(P, u))
    assert worst <= 1e-6
    print(f"PASS certified construction: min c {c.values.min():.4f}, "
          f"min D {min_d:.2e}, max jacobian {worst:.2e}")


def test_criterion_10_identity_convergence():
    rng = np.random.default_rng(606)
    coefs = rng.normal(size=(2, 2))

    def u_fn(X, Y):
        env = (np.sin(np.pi * X) * np.sin(np.pi * Y)) ** 2
        series = sum(coefs[k - 1][l - 1] / (k * l)
                     * np.sin(k * np.pi * X) * np.sin(l * np.pi * Y)
                     for k in (1, 2) for l in (1, 2))
        return env * series

    errs = []
    for n in (16, 32, 64):
        g = unit_grid(n)
        a = field_from(g, lambda X, Y: 1.0 + 0.5 * X)
        b = field_from(g, lambda X, Y: 1.0 + 0.25 * Y)
        lhs, rhs = jacobian_identity(Problem(a, b, ScalarField.full(g, 1.0)),
                                     field_from(g, u_fn))
        errs.append(abs(lhs - rhs))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(order >= 1.0 for order in orders)
    print(f"PASS identity convergence: errors {errs[0]:.2e} -> {errs[2]:.2e}, "
          f"orders {orders[0]:.2f}, {orders[1]:.2f}")


def test_criterion_11_ratio_gap_monotonicity():
    g = unit_grid(32)
    c = field_from(g, lambda X, Y: 1.0 + X)
    assert ratio_gap(c, 0.0) == ratio_criterion(c) - 1.0
    alphas = np.logspace(-3, 3, 100)
    gaps = [ratio_gap(c, float(alpha)) for alpha in alphas]
    assert all(x > y for x, y in zip(gaps, gaps[1:]))
    print("PASS ratio gap: strictly decreasing over 100 alphas, exact at 0")


def test_criterion_12_summation_by_parts_exactness():
    rng = np.random.default_rng(707)
    for nx, ny in ((1, 1), (3, 2), (8, 8), (17, 9), (33, 33), (64, 64)):
        g = Grid.over_rectangle(nx, ny, 1.2, 0.8)
        u = ScalarField(g, rng.normal(size=g.n_nodes))
        F = FaceField(g, rng.normal(size=(ny, nx + 1)), rng.normal(size=(ny + 1, nx)))
        pair_lhs = g.cell_area * float(divergence(F).values @ u.values)
        Fu = gradient(u)
        pair_rhs = -g.cell_area * float((F.xfaces * Fu.xfaces).sum()
                                        + (F.yfaces * Fu.yfaces).sum())
        scale = max(abs(pair_lhs), abs(pair_rhs), 1e-30)
        assert abs(pair_lhs - pair_rhs) <= 1e-12 * scale
        green_lhs = grad_norm_sq(u)
        green_rhs = -integrate(ScalarField(g, u.values * laplacian(u).values))
        assert abs(green_lhs - green_rhs) <= 1e-12 * max(green_lhs, 1e-30)
    print("PASS summation by parts: adjointness and Green identity to 1e-12")
