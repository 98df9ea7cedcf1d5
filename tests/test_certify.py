import math

import numpy as np
import pytest

from kirchlab.certify import (certify, interior_min, pointwise_certified_ratio,
                              pointwise_criterion, ratio_criterion, ratio_gap, shifted_ratio)
from kirchlab.eigen import eigenvalue_lower_bound
from kirchlab.grid import Grid, KirchlabError, ScalarField, coeff_grad_inf, dirichlet_lambda1
from kirchlab.kirchhoff import Problem, fixed_point_scan, jacobian_functional

from conftest import field_from, sign_changing, smooth_random, unit_grid


def test_pointwise_criterion_constant_interior_zero():
    g = unit_grid(12)
    d = pointwise_criterion(ScalarField.full(g, 2.0))
    assert interior_min(d) == pytest.approx(0.0, abs=1e-12)
    assert d.mat[1:-1, 1:-1].max() == pytest.approx(0.0, abs=1e-12)


def test_pointwise_criterion_ramp_analytic():
    # c = 1+x: Lap c = 0, |grad c| = 1, so D = -2/(1+x)
    g = unit_grid(48)
    c = field_from(g, lambda X, Y: 1.0 + X)
    d = pointwise_criterion(c).mat[1:-1, 1:-1]
    X, _ = g.node_coords()
    exact = -2.0 / (1.0 + X[1:-1, 1:-1])
    assert d == pytest.approx(exact, rel=5e-3)


def test_pointwise_criterion_rejects_nonpositive():
    g = unit_grid(4)
    with pytest.raises(ValueError, match=r"^ratio field must be positive, min = 0$"):
        pointwise_criterion(ScalarField.zeros(g))


def test_pointwise_criterion_overflow_raises():
    # c = 1e200 is a constant ratio, but |grad c|^2 against the zero ghosts
    # overflows at the boundary collar
    with pytest.raises(ValueError, match=r"pointwise criterion overflows a double "
                                         r"\(max c = 1e\+200\)"):
        pointwise_criterion(ScalarField.full(unit_grid(8), 1e200))
    # |grad c|^2 fits in a double, but dividing it by c = 1e-300 does not
    c = ScalarField(unit_grid(4), np.where(np.arange(16) == 5, 1e-300, 1e10))
    with pytest.raises(ValueError, match=r"^pointwise criterion overflows a double "
                                         r"\(max c = 1e\+10\)$"):
        pointwise_criterion(c)


def test_ratio_criterion_values():
    g = unit_grid(64)
    assert ratio_criterion(ScalarField.full(g, 3.0)) == 0.0
    c = field_from(g, lambda X, Y: 1.0 + X)
    got = ratio_criterion(c)
    lam1 = dirichlet_lambda1(g)
    c_lo, c_hi = 1.0 + g.hx, 2.0 - g.hx
    assert got == pytest.approx(c_hi / (math.sqrt(lam1) * c_lo ** 2), rel=1e-12)
    assert got == pytest.approx(2.0 / math.sqrt(2.0 * math.pi ** 2), rel=0.05)


def test_ratio_criterion_scale_invariant():
    # numerator and denominator both pick up k^2 under c -> k*c
    g = unit_grid(16)
    c = field_from(g, lambda X, Y: 1.0 + X)
    for k in (0.25, 4.0):
        ck = ScalarField(g, k * c.values)
        assert ratio_criterion(ck) == pytest.approx(ratio_criterion(c), rel=1e-12)


def test_certify_constant_ratio():
    g = unit_grid(16)
    b = field_from(g, lambda X, Y: 1.0 + 0.3 * X * Y)
    cert = certify(b, b)
    assert cert.verdict == "UniqueConstantRatio"
    assert cert.theta == pytest.approx(1.0, rel=1e-12)


def test_certify_ratio_bound():
    g = unit_grid(32)
    a = field_from(g, lambda X, Y: 1.0 + X)
    b = ScalarField.full(g, 1.0)
    cert = certify(a, b)
    assert cert.verdict == "UniqueRatioBound"
    assert cert.min_d < 0  # pointwise test fails for the ramp
    assert cert.ratio_value <= 1.5


def test_certify_pointwise_from_construction():
    g = unit_grid(48)
    c = pointwise_certified_ratio(g)
    b = field_from(g, lambda X, Y: 1.0 + 0.2 * Y)
    a = ScalarField(g, c.values * b.values)
    cert = certify(a, b)
    assert cert.verdict == "UniquePointwise"
    assert cert.min_d >= -1e-8


def test_certify_inconclusive():
    g = unit_grid(32)
    a = field_from(g, lambda X, Y: 1.0 + 2.0 * X ** 2 * Y)
    b = ScalarField.full(g, 1.0)
    cert = certify(a, b)
    assert cert.verdict == "Inconclusive"
    assert cert.ratio_value > 1.5
    assert cert.min_d < -1e-8


def test_certify_reports_values_regardless(rng):
    g = unit_grid(16)
    a = field_from(g, lambda X, Y: 1.0 + X)
    b = ScalarField.full(g, 1.0)
    cert = certify(a, b)
    assert cert.ratio_value > 0 and cert.lambda1 > 0
    assert math.isfinite(cert.min_d)
    again = certify(a, b)
    assert again == cert  # pure function, deterministic


def test_certify_errors():
    g, g2 = unit_grid(4), unit_grid(5)
    ones4, ones5 = ScalarField.full(g, 1.0), ScalarField.full(g2, 1.0)
    with pytest.raises(ValueError, match=r"^a and b live on different grids$"):
        certify(ones4, ones5)
    with pytest.raises(ValueError, match=r"^coefficients must be positive: min a = 0, min b = 1$"):
        certify(ScalarField.zeros(g), ones4)


def test_construction_properties():
    g = unit_grid(64)
    c = pointwise_certified_ratio(g)
    assert float(c.values.min()) > 0.0
    assert interior_min(pointwise_criterion(c)) >= -1e-6
    assert float(c.values.max()) <= 1.5  # delta cap keeps c below 1 + 1/2


def test_construction_needs_3_nodes_per_axis():
    # the grid minimum that the example subcommand enforces at load
    for nx in range(3, 13):
        for ny in range(3, 13):
            c = pointwise_certified_ratio(Grid.over_rectangle(nx, ny))
            assert interior_min(pointwise_criterion(c)) >= -1e-6
    for nx, ny in ((2, 8), (8, 2), (1, 4)):
        with pytest.raises(KirchlabError, match=r"^construction violates its own certificate: "
                                                r".* \(grid too coarse\)$"):
            pointwise_certified_ratio(Grid.over_rectangle(nx, ny))
    # on one node the ghost-zero node gradient vanishes
    with pytest.raises(KirchlabError, match=r"^degenerate construction on this grid$"):
        pointwise_certified_ratio(Grid.over_rectangle(1, 1))


def test_construction_weight_never_positive():
    from kirchlab.eigen import eigen_weight, is_admissible
    g = unit_grid(48)
    c = pointwise_certified_ratio(g)
    for alpha in (0.01, 0.1, 1.0, 10.0):
        assert eigen_weight(c, alpha).values.max() <= 1e-8
        assert not is_admissible(c, alpha)


def test_ratio_gap_matches_ratio_at_zero():
    g = unit_grid(24)
    c = field_from(g, lambda X, Y: 1.0 + X)
    assert ratio_gap(c, 0.0) == pytest.approx(ratio_criterion(c) - 1.0, rel=1e-12)


def test_ratio_gap_strictly_decreasing_and_limit():
    g = unit_grid(24)
    c = field_from(g, lambda X, Y: 1.0 + X)
    alphas = np.logspace(-3, 3, 60)
    gaps = [ratio_gap(c, alpha) for alpha in alphas]
    assert all(x > y for x, y in zip(gaps, gaps[1:]))
    assert ratio_gap(c, 1e6) == pytest.approx(-1.0, abs=1e-3)


def _ratio_fields(rng):
    g = unit_grid(8)
    wobbly = 0.5 + rng.random(g.n_nodes)
    return [field_from(g, lambda X, Y: 1.0 + X),
            field_from(g, lambda X, Y: 2.0 + 0.4 * np.sin(np.pi * X) * np.sin(np.pi * Y)),
            ScalarField(g, wobbly), ScalarField(g, 1e-3 * wobbly),
            ScalarField(Grid.over_rectangle(5, 7, 3.0, 0.2), 1.0 + rng.random(35))]


def test_shifted_ratio_is_finite_where_the_square_overflows(rng):
    # (c_min + alpha)^2 overflows from alpha ~ 1.3e154; the ratio then falls like
    # |grad c|_inf / (sqrt(lambda1) alpha)
    for c in _ratio_fields(rng):
        scale = coeff_grad_inf(c) / math.sqrt(dirichlet_lambda1(c.grid))
        for alpha in (1e155, 1e200, 1e300):
            ratio = shifted_ratio(c, alpha)
            assert math.isfinite(ratio)
            assert ratio == pytest.approx(scale / alpha, rel=1e-12)
            assert math.isfinite(ratio_gap(c, alpha))
            assert eigenvalue_lower_bound(c, alpha) == pytest.approx(alpha / (2.0 * scale),
                                                                     rel=1e-12)


def test_shifted_ratio_keeps_its_bits_where_the_square_fits(rng):
    for c in _ratio_fields(rng):
        grad_inf = coeff_grad_inf(c)
        c_lo, c_hi = float(c.values.min()), float(c.values.max())
        root_lam1 = math.sqrt(dirichlet_lambda1(c.grid))
        for alpha in (0.0, 1e-3, 1.0, 1e3, 1e50, 1e100, 1e150):
            expected = grad_inf * (c_hi + alpha) / (root_lam1 * (c_lo + alpha) ** 2)
            assert shifted_ratio(c, alpha) == expected
        assert ratio_criterion(c) == shifted_ratio(c, 0.0)


def test_certified_problems_have_unique_roots(rng):
    # every non-Inconclusive certificate must match a single-root scan
    g = unit_grid(16)
    ramp = field_from(g, lambda X, Y: 1.0 + X)
    bump = field_from(g, lambda X, Y: 2.0 + 0.4 * np.sin(np.pi * X) * np.sin(np.pi * Y))
    cpe = pointwise_certified_ratio(g)
    one = ScalarField.full(g, 1.0)
    catalog = [
        (one, one),
        (ScalarField(g, 3.0 * bump.values), bump),
        (ramp, one),
        (ScalarField(g, 0.5 * ramp.values), one),
        (cpe, one),
        (ScalarField(g, cpe.values * bump.values), bump),
        (bump, one),
        (ScalarField(g, 2.0 * one.values), ScalarField(g, 4.0 * one.values)),
        (ScalarField(g, 1.2 + 0.1 * ramp.values), one),
        (ScalarField(g, bump.values * 2.0), ScalarField(g, bump.values)),
    ]
    for a, b in catalog:
        cert = certify(a, b)
        assert cert.verdict != "Inconclusive"
        for _ in range(10):
            h = sign_changing(g, rng)
            report = fixed_point_scan(Problem(a, b, h), 48)
            assert len(report.roots) == 1, cert.verdict


def test_jacobian_nonpositive_under_pointwise_certificate(rng):
    g = unit_grid(48)
    c = pointwise_certified_ratio(g)
    P = Problem(c, ScalarField.full(g, 1.0), ScalarField.full(g, 1.0))
    for _ in range(20):
        u = smooth_random(g, rng)
        assert jacobian_functional(P, u) <= 1e-6


def test_jacobian_below_half_under_ratio_certificate(rng):
    g = unit_grid(32)
    a = field_from(g, lambda X, Y: 1.0 + X)
    one = ScalarField.full(g, 1.0)
    assert ratio_criterion(a) <= 1.5
    P = Problem(a, one, one)
    for _ in range(20):
        u = smooth_random(g, rng)
        assert jacobian_functional(P, u) < 0.5 - 1e-6
