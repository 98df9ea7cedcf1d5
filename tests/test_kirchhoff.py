import math
import re
import tracemalloc

import numpy as np
import pytest

import kirchlab.kirchhoff as kh
from kirchlab.grid import (Grid, KirchlabError, ScalarField, _per_batch, dirichlet_lambda1,
                           grad_norm_sq, integrate, laplacian)
from kirchlab.kirchhoff import (Problem, diffusion_coefficient, energy_upper_bound,
                                fixed_point_map, fixed_point_scan,
                                jacobian_functional, jacobian_identity,
                                linearized_solve, newton_solve, residual,
                                solve_frozen)
from kirchlab.linalg import NoConvergence, poisson_solve

from conftest import (field_from, positive_random, sign_changing, smooth_random,
                      three_root_fields, unit_grid)


def constant_problem(grid, h_field, a=1.0, b=1.0) -> Problem:
    return Problem(ScalarField.full(grid, a), ScalarField.full(grid, b), h_field)


def sine_forcing(grid, amplitude=1.0):
    return field_from(grid, lambda X, Y: amplitude * np.sin(np.pi * X) * np.sin(np.pi * Y))


def cubic_problem(grid, phi0_target: float) -> Problem:
    """a = b = 1 with h scaled so the fixed-point map starts at phi0_target."""
    h_raw = sine_forcing(grid)
    p_raw = constant_problem(grid, h_raw)
    scale = math.sqrt(phi0_target / fixed_point_map(p_raw, 0.0))
    return constant_problem(grid, ScalarField(grid, scale * h_raw.values))


def test_diffusion_coefficient_values():
    g = unit_grid(4)
    P = Problem(ScalarField.full(g, 1.0), ScalarField.full(g, 2.0),
                ScalarField.zeros(g))
    assert (diffusion_coefficient(P, 0.0).values == 1.0).all()
    assert (diffusion_coefficient(P, 0.5).values == 2.0).all()
    P11 = constant_problem(g, ScalarField.zeros(g))
    assert (diffusion_coefficient(P11, 1.0).values == 2.0).all()
    with pytest.raises(ValueError, match=r"^nonlocal scalar must be nonnegative, got -0\.1$"):
        diffusion_coefficient(P, -0.1)


def test_problem_rejects_bad_coefficients():
    g = unit_grid(3)
    with pytest.raises(ValueError):
        Problem(ScalarField.zeros(g), ScalarField.full(g, 1.0), ScalarField.zeros(g))
    g2 = unit_grid(4)
    with pytest.raises(ValueError):
        Problem(ScalarField.full(g, 1.0), ScalarField.full(g2, 1.0),
                ScalarField.zeros(g))
    with pytest.raises(ValueError, match=r"^h lives on a different grid from a and b$"):
        Problem(ScalarField.full(g, 1.0), ScalarField.full(g, 1.0), ScalarField.zeros(g2))


def test_solve_frozen_zero_forcing():
    g = unit_grid(8)
    P = constant_problem(g, ScalarField.zeros(g))
    assert (solve_frozen(P, 0.0).values == 0.0).all()


def test_solve_frozen_scaling_identity(rng):
    g = unit_grid(16)
    P = constant_problem(g, sign_changing(g, rng))
    u0 = solve_frozen(P, 0.0)
    for s in (0.5, 2.0):
        us = solve_frozen(P, s)
        assert us.values == pytest.approx(u0.values / (1.0 + s), rel=1e-9, abs=1e-12)


def test_solve_frozen_poisson_oracle():
    g = unit_grid(64)
    h = field_from(g, lambda X, Y: 2 * np.pi ** 2 * np.sin(np.pi * X) * np.sin(np.pi * Y))
    P = constant_problem(g, h)
    u = solve_frozen(P, 0.0)
    exact = field_from(g, lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y))
    assert np.abs(u.values - exact.values).max() <= 2e-3


@pytest.mark.parametrize("a,h", [(1.0, 1e308), (1e-308, 1e300)])
def test_solve_frozen_not_finite_raises_without_warnings(a, h):
    # the sine solve of a right-hand side this large meets inf - inf; the solve
    # refuses the result without leaking numpy's RuntimeWarning
    g = unit_grid(8)
    P = constant_problem(g, ScalarField.full(g, h), a=a)
    with pytest.raises(ValueError, match=r"^frozen solve at s = 0 is not finite$"):
        solve_frozen(P, 0.0)


def test_fixed_point_map_zero_and_scaling(rng):
    g = unit_grid(12)
    assert fixed_point_map(constant_problem(g, ScalarField.zeros(g)), 3.0) == 0.0
    P = constant_problem(g, sign_changing(g, rng))
    phi0 = fixed_point_map(P, 0.0)
    for s in (0.25, 1.0, 4.0):
        assert fixed_point_map(P, s) == pytest.approx(phi0 / (1 + s) ** 2, rel=1e-9)


def test_fixed_point_map_decreasing_for_constant_ratio(rng):
    g = unit_grid(12)
    theta = 2.5
    b = positive_random(g, rng)
    a = ScalarField(g, theta * b.values)
    h = sign_changing(g, rng)
    P = Problem(a, b, h)
    # frozen solves factor through -Lap v = h/b
    v = ScalarField(g, poisson_solve(g, h.values / b.values))
    ref = grad_norm_sq(v)
    samples = [fixed_point_map(P, s) for s in (0.0, 0.5, 1.0, 2.0)]
    for s, phi in zip((0.0, 0.5, 1.0, 2.0), samples):
        assert phi == pytest.approx(ref / (theta + s) ** 2, rel=1e-9)
    assert all(x > y for x, y in zip(samples, samples[1:]))


def test_energy_upper_bound_properties(rng):
    g = unit_grid(10)
    assert energy_upper_bound(constant_problem(g, ScalarField.zeros(g))) == 0.0
    h = sign_changing(g, rng)
    P1 = constant_problem(g, h)
    P3 = constant_problem(g, ScalarField(g, 3.0 * h.values))
    assert energy_upper_bound(P3) == pytest.approx(9.0 * energy_upper_bound(P1),
                                                   rel=1e-12)


def test_all_roots_lie_under_energy_bound(rng):
    g = unit_grid(6)
    for _ in range(100):
        a = positive_random(g, rng, base=rng.uniform(0.3, 2.0))
        b = positive_random(g, rng, base=rng.uniform(0.3, 2.0))
        h = smooth_random(g, rng, amp=rng.uniform(0.2, 5.0))
        P = Problem(a, b, h)
        report = fixed_point_scan(P, 32)
        bound = energy_upper_bound(P)
        assert report.roots, "scan must find at least one root"
        for root in report.roots:
            assert -1e-12 <= root.s <= bound * (1 + 1e-9)


def _poincare_bound(P, s):
    """B(s) = integral(h^2 / (a + s b)^2) / lambda1, written out on its own."""
    m = P.a.values + s * P.b.values
    return P.grid.cell_area * float(np.sum(P.h.values ** 2 / m ** 2)) / dirichlet_lambda1(P.grid)


def test_scan_ceiling_is_the_tight_bracket(rng):
    g = unit_grid(6)
    assert kh._scan_ceiling(constant_problem(g, ScalarField.zeros(g))) == 0.0
    for _ in range(50):
        P = Problem(positive_random(g, rng, base=rng.uniform(0.3, 2.0)),
                    positive_random(g, rng, base=rng.uniform(0.3, 2.0)),
                    smooth_random(g, rng, amp=rng.uniform(0.2, 5.0)))
        ceiling = kh._scan_ceiling(P)
        assert 0.0 < ceiling <= energy_upper_bound(P)
        # above the fixed point of B, and within 2 * CEILING_RTOL of it
        assert ceiling >= _poincare_bound(P, ceiling) * (1.0 - 1e-12)
        below = ceiling * (1.0 - 2.0 * kh.CEILING_RTOL)
        assert below < _poincare_bound(P, below)
        report = fixed_point_scan(P, 32)
        assert report.s_max == ceiling
        assert report.roots
        assert all(root.s <= ceiling * (1.0 + 1e-9) for root in report.roots)


def _bisect_fixed_point(P, lo, hi):
    """Plain bisection of Phi(s) - s with fixed_point_map down to a 1e-15 bracket."""
    g_lo = fixed_point_map(P, lo) - lo
    assert (g_lo > 0.0) != (fixed_point_map(P, hi) - hi > 0.0)
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        g_mid = fixed_point_map(P, mid) - mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n_samples", [16, 64, 256])
def test_scan_finds_all_three_roots(n_samples):
    # energy_upper_bound, from min(a) alone, is 2.03e7: a scan up to it finds only 0.06931
    P = Problem(**three_root_fields())
    expected = [_bisect_fixed_point(P, lo, hi)
                for lo, hi in ((0.0145, 0.0147), (0.0228, 0.0230), (0.0692, 0.0694))]
    report = fixed_point_scan(P, n_samples)
    assert report.s_max < 0.3
    assert [root.s for root in report.roots] == pytest.approx(expected, rel=0, abs=1e-8)


def test_scan_sign_test_without_products():
    # |Phi(s) - s| is of order 1e158 across the bracket (b s is negligible next to
    # a), so the product of two neighbouring samples overflows
    g = unit_grid(8)
    P = constant_problem(g, ScalarField.full(g, 1e80), b=1e-200)
    report = fixed_point_scan(P)
    assert len(report.roots) == 1
    s = report.roots[0].s
    assert abs(fixed_point_map(P, s) - s) <= kh.ROOT_RTOL * s


def test_scan_zero_forcing():
    # the ceiling is 0, so the scan samples the bracket [0, 0], whose root is s = 0
    g = unit_grid(8)
    report = fixed_point_scan(constant_problem(g, ScalarField.zeros(g)), 64)
    assert report.s_max == 0.0
    assert report.samples == [(0.0, 0.0)] * 64
    assert len(report.roots) == 1
    assert report.roots[0].s == 0.0
    assert (report.roots[0].u.values == 0.0).all()
    assert report.suspected_tangencies == []


def _scaled_strip(scale_a: float, scale_h: float) -> Problem:
    f = three_root_fields()
    g = f["a"].grid
    return Problem(ScalarField(g, scale_a * f["a"].values), f["b"],
                   ScalarField(g, scale_h * f["h"].values))


def test_scan_roots_scale_exactly_with_the_problem():
    # u = mu v maps (a, b, h) to (mu^2 a, b, mu^3 h) and every root s to mu^2 s;
    # with mu = 2^j every step of the scan scales exactly
    base = fixed_point_scan(_scaled_strip(1.0, 1.0))
    assert len(base.roots) == 3
    for j in [j for j in range(-40, 21, 5) if j] + [-1, 1]:
        report = fixed_point_scan(_scaled_strip(4.0 ** j, 8.0 ** j))
        assert [r.s for r in report.roots] == [4.0 ** j * r.s for r in base.roots], j
        assert [r.dphi for r in report.roots] == [r.dphi for r in base.roots], j
        assert report.n_phi_evals == base.n_phi_evals, j


def test_scan_roots_are_the_same_bits_on_a_power_of_two_domain():
    # (a, b, h) on [0, 2^j]^2 is (a, b, 4^j h) on the unit square: the widths,
    # the sine eigenvalues and the energy weight all scale exactly, so the strip
    # with 4^-j h on the 2^j square has the unit strip's three roots
    f = three_root_fields()
    unit = [r.s for r in fixed_point_scan(_scaled_strip(1.0, 1.0)).roots]
    for j in (-6, 3):
        g = Grid.over_rectangle(64, 1, 2.0 ** j, 2.0 ** j)
        P = Problem(ScalarField(g, f["a"].values), ScalarField(g, f["b"].values),
                    ScalarField(g, 4.0 ** -j * f["h"].values))
        assert [r.s for r in fixed_point_scan(P).roots] == unit, j
    assert len(unit) == 3


def test_scan_finds_the_three_roots_of_a_tiny_strip():
    # eps a, b, eps^1.5 h has the roots eps s; a root test with an absolute part
    # lost two of them at eps = 1e-9
    expected = [r.s for r in fixed_point_scan(_scaled_strip(1.0, 1.0)).roots]
    for eps in (1e-3, 1e-6, 1e-9, 1e-12):
        report = fixed_point_scan(_scaled_strip(eps, eps ** 1.5))
        assert [r.s / eps for r in report.roots] == pytest.approx(expected, rel=1e-12), eps


def test_scan_memory_stays_within_one_batch():
    # a block holds at most grid.BATCH_NODES values per operand, or one sample
    # (a 128x128 one here); the warm-up call fills the sine-basis cache
    g = unit_grid(128)
    P = Problem(field_from(g, lambda X, Y: 1.0 + X), ScalarField.full(g, 1.0),
                field_from(g, lambda X, Y: np.sin(np.pi * X) * np.sin(2.0 * np.pi * Y)))
    fixed_point_scan(P)
    tracemalloc.start()
    try:
        fixed_point_scan(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("a,h", [(1e155, 1.0), (1e200, 1.0), (1e-10, 1e-162)])
def test_scan_brackets_the_root_of_an_extreme_problem(a, h):
    # min(a)^2 overflows at 1e155 and h^2 underflows at 1e-162, so energy_upper_bound
    # squares h/min(a); at 1e200 that square and the energy underflow to 0 and the
    # bracket is [0, 0]
    g = unit_grid(8)
    P = constant_problem(g, ScalarField.full(g, h), a=a)
    report = fixed_point_scan(P)
    (root,) = report.roots
    assert fixed_point_map(P, root.s) == root.s
    assert root.s <= report.s_max <= energy_upper_bound(P)
    assert (root.s > 0.0) == (a != 1e200)


def test_scan_refuses_a_ceiling_below_phi(monkeypatch):
    # a ceiling that underflowed while Phi did not raises instead of reporting no root
    g = unit_grid(8)
    P = constant_problem(g, ScalarField.full(g, 1e-162), a=1e-10)
    monkeypatch.setattr(kh, "_scan_ceiling", lambda P: 0.0)
    with pytest.raises(KirchlabError, match="energy bound underflowed"):
        fixed_point_scan(P)


@pytest.mark.parametrize("phi0,s_expected", [(4.0, 1.0), (1.125, 0.5)])
def test_scan_cubic_oracle(phi0, s_expected):
    # for a = b = 1 the fixed points solve s*(1+s)^2 = phi0
    g = unit_grid(32)
    P = cubic_problem(g, phi0)
    report = fixed_point_scan(P, 128)
    assert len(report.roots) == 1
    root = report.roots[0]
    assert abs(root.s - s_expected) <= 1e-8
    assert abs(fixed_point_map(P, root.s) - root.s) <= 1e-10 * (1 + root.s)
    assert root.residual <= 1e-8 * (1 + np.abs(P.h.values).max())
    assert root.method == "fixed-point-scan"
    assert root.s == pytest.approx(grad_norm_sq(root.u), rel=1e-12)


def test_scan_scaling_covariance(rng):
    # h -> k*h moves the root along s(theta+s)^2 = k^2 * E0 for constant ratio
    g = unit_grid(16)
    theta = 1.7
    b = ScalarField.full(g, 1.0)
    a = ScalarField.full(g, theta)
    h = sign_changing(g, rng)
    s1 = fixed_point_scan(Problem(a, b, h), 64).roots[0].s
    s2 = fixed_point_scan(Problem(a, b, ScalarField(g, 2.0 * h.values)), 64).roots[0].s
    assert s2 * (theta + s2) ** 2 == pytest.approx(4.0 * s1 * (theta + s1) ** 2,
                                                   rel=1e-7)


def test_scan_constant_ratio_unique(rng):
    g = unit_grid(24)
    for _ in range(5):
        theta = float(rng.uniform(0.1, 10.0))
        b = positive_random(g, rng)
        a = ScalarField(g, theta * b.values)
        h = sign_changing(g, rng)
        report = fixed_point_scan(Problem(a, b, h), 96)
        assert len(report.roots) == 1
        assert report.suspected_tangencies == []


def test_scan_signed_forcing_unique(rng):
    g = unit_grid(24)
    for sign in (1.0, -1.0):
        for _ in range(3):
            a = positive_random(g, rng)
            b = positive_random(g, rng)
            raw = smooth_random(g, rng)
            h = ScalarField(g, sign * np.abs(raw.values))
            report = fixed_point_scan(Problem(a, b, h), 96)
            assert len(report.roots) == 1


SCAN_GRIDS = [(1, 1, 1.0, 1.0), (2, 3, 1.0, 1.0), (7, 5, 1.4, 0.9)]


@pytest.mark.parametrize("nx,ny,lx,ly", SCAN_GRIDS, ids=["1x1", "2x3", "7x5"])
@pytest.mark.parametrize("n_samples", [16, 17, 255, 256, 257])
def test_scan_samples_equal_fixed_point_map_bitwise(nx, ny, lx, ly, n_samples, rng):
    g = Grid.over_rectangle(nx, ny, lx, ly)
    P = Problem(positive_random(g, rng), positive_random(g, rng, base=0.7),
                ScalarField(g, 3.0 + smooth_random(g, rng).values))
    report = fixed_point_scan(P, n_samples)
    ss = [s for s, _ in report.samples]
    phis = [phi for _, phi in report.samples]
    assert len(ss) == n_samples
    assert np.array_equal(phis, [fixed_point_map(P, s) for s in ss])


@pytest.mark.parametrize("n_samples", [256, 257])
def test_scan_samples_are_block_poisson_solves(n_samples, rng, monkeypatch):
    # The name is historical: the samples are spectral kernel calls, one per
    # block of grid._per_batch(n) samples, with no Poisson solve; refinement then
    # makes one 2-row kernel call per evaluation, and each root one frozen solve.
    g = unit_grid(8)
    P = Problem(positive_random(g, rng), positive_random(g, rng), sign_changing(g, rng))
    events, phi_kernel = [], kh._phi

    def counting_phi(P, ss, slope=False):
        events.append(("slope" if slope else "phi", len(ss)))
        return phi_kernel(P, ss, slope)

    def counting_poisson(grid, rhs):
        events.append(("poisson", 1 if rhs.ndim == 1 else rhs.shape[1]))
        return poisson_solve(grid, rhs)

    monkeypatch.setattr(kh, "_phi", counting_phi)
    monkeypatch.setattr(kh, "poisson_solve", counting_poisson)
    report = fixed_point_scan(P, n_samples)
    block = _per_batch(g.n_nodes)
    n_blocks = math.ceil(n_samples / block)
    assert len(report.roots) == 1
    samples, rest = events[:n_blocks], events[n_blocks:]
    assert [kind for kind, _ in samples] == ["phi"] * n_blocks
    assert [width for _, width in samples[:-1]] == [block] * (n_blocks - 1)
    assert sum(width for _, width in samples) == n_samples
    refinement = [e for e in rest if e[0] == "slope"]
    assert rest == refinement + [("poisson", 1)] * len(report.roots)
    assert 0 < len(refinement) < n_samples // 4
    assert report.n_phi_evals == n_samples + len(refinement)
    assert report.roots[0].refine_evals == len(refinement)


def _phi_cases(rng):
    """(Problem, s values) on SCAN_GRIDS, the cubic oracle and the three-root problem."""
    for nx, ny, lx, ly in SCAN_GRIDS:
        g = Grid.over_rectangle(nx, ny, lx, ly)
        P = Problem(positive_random(g, rng), positive_random(g, rng, base=0.7),
                    ScalarField(g, 3.0 + smooth_random(g, rng).values))
        yield P, [0.0, 0.3, 2.0, 17.0]
    yield cubic_problem(unit_grid(32), 4.0), [0.0, 0.5, 1.0, 3.0]
    yield Problem(**three_root_fields()), [0.0, 0.0146, 0.0229, 0.0693, 0.25]


def test_spectral_phi_matches_energy_of_frozen_solve(rng):
    for P, ss in _phi_cases(rng):
        phis = kh._phi(P, ss)
        for s, phi in zip(ss, phis):
            energy = grad_norm_sq(solve_frozen(P, s))
            assert abs(phi - energy) <= 1e-13 * energy
            assert fixed_point_map(P, s) == phi


def test_phi_slope_matches_central_difference(rng):
    for P, ss in _phi_cases(rng):
        for s in ss[1:]:  # ss[0] = 0 has no central difference
            phi, dphi = kh._phi(P, [s], slope=True)
            assert phi == fixed_point_map(P, s)
            step = 1e-5 * s
            central = (fixed_point_map(P, s + step) - fixed_point_map(P, s - step)) / (2 * step)
            assert dphi == pytest.approx(central, rel=1e-6)


def test_phi_overflow_names_the_energy_and_s():
    g = unit_grid(8)
    # f = 1e200 at s = 0: the energy overflows, its scaled coefficients do not
    P = Problem(ScalarField.full(g, 1e-150), ScalarField.full(g, 1.0), ScalarField.full(g, 1e50))
    assert np.isfinite(kh._phi(P, [0.5])).all()
    with pytest.raises(ValueError, match=r"^gradient energy overflows a double at s = 0$"):
        kh._phi(P, [0.5, 0.0, 1e-300])
    # f = 1e150 gives a finite energy, but beta*f = 1e270 overflows the slope
    P = Problem(ScalarField.full(g, 1e-100), ScalarField.full(g, 1e20),
                ScalarField.full(g, 1e50))
    assert np.isfinite(kh._phi(P, [0.0])).all()
    with pytest.raises(ValueError, match=r"^gradient energy slope Phi'\(s\) overflows a double "
                                         r"at s = 0$"):
        kh._phi(P, [0.0], slope=True)


@pytest.mark.parametrize("n_samples", [16, 64, 256])
def test_scan_roots_meet_tolerance_at_reported_s(n_samples):
    # the middle root once came out as Phi(s_root), 1.32 tolerances away from a root
    P = Problem(**three_root_fields())
    report = fixed_point_scan(P, n_samples)
    assert len(report.roots) == 3
    for root in report.roots:
        assert abs(fixed_point_map(P, root.s) - root.s) <= kh.ROOT_RTOL * root.s
        assert np.array_equal(root.u.values, solve_frozen(P, root.s).values)
        assert root.dphi == kh._phi(P, [root.s], slope=True)[1]
        assert 0 < root.refine_evals <= 8
    assert [root.dphi > 1.0 for root in report.roots] == [False, True, False]
    assert report.n_phi_evals == n_samples + sum(r.refine_evals for r in report.roots)


def test_refinement_budget_never_reports_an_unverified_root(monkeypatch):
    P = Problem(**three_root_fields())
    expected = [r.s for r in fixed_point_scan(P, 16).roots]
    monkeypatch.setattr(kh, "REFINE_MAX", 2)
    with pytest.raises(NoConvergence, match=r"after 2 evaluations") as err:
        fixed_point_scan(P, 16)
    lo, hi = (float(v) for v in
              re.search(r"\[([^,]+), ([^\]]+)\]", str(err.value)).groups())
    assert lo < hi
    assert any(lo <= s <= hi for s in expected)


def test_refinement_stops_at_a_bracket_of_two_adjacent_doubles(monkeypatch):
    # g = Phi(s) - s jumps from -1 to +1 between 0.3 and the next double, so no s
    # meets ROOT_RTOL; Phi' = 1 gives no Newton step, and bisection narrows the
    # bracket to those two doubles, then stops at the end of smaller |g|, the
    # lower one on a tie
    report = _scan_synthetic_phi(monkeypatch, lambda s: s + np.where(s > 0.3, 1.0, -1.0),
                                 lambda s: 1.0, 16)
    (root,) = report.roots
    assert root.s == 0.3
    assert root.dphi == 1.0
    assert 50 <= root.refine_evals < kh.REFINE_MAX


def test_scan_needs_16_samples():
    g = unit_grid(4)
    with pytest.raises(ValueError, match=r"^need at least 16 samples, got 15$"):
        fixed_point_scan(constant_problem(g, sine_forcing(g)), 15)


def test_scan_refuses_a_sample_count_that_is_not_an_integer():
    g = unit_grid(4)
    P = constant_problem(g, sine_forcing(g))
    for n in (16.5, 16.0):
        with pytest.raises(ValueError, match=rf"^sample count must be an integer, got {n}$"):
            fixed_point_scan(P, n)
    report, again = fixed_point_scan(P, np.int64(16)), fixed_point_scan(P, 16)
    assert [r.s for r in report.roots] == [r.s for r in again.roots]


@pytest.mark.parametrize("s_max", [-1.0, 0.0, math.inf, math.nan])
def test_scan_refuses_a_ceiling_not_positive_and_finite(s_max):
    g = unit_grid(16)
    with pytest.raises(ValueError, match=rf"^s_max must be positive and finite, got {s_max}$"):
        fixed_point_scan(constant_problem(g, sine_forcing(g)), 16, s_max=s_max)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.inf, math.nan])
def test_newton_refuses_a_tolerance_not_positive_and_finite(tol):
    g = unit_grid(16)
    with pytest.raises(ValueError, match=rf"^tol must be positive and finite, got {tol}$"):
        newton_solve(constant_problem(g, sine_forcing(g)), tol=tol)


def test_scan_root_hit_by_a_sample_gets_its_slope():
    # zero forcing: Phi = 0, so s = 0 is the only sample with g = 0 and no sign
    # change follows; one 2-row evaluation gives Phi'(0) = 0
    g = unit_grid(8)
    report = fixed_point_scan(constant_problem(g, ScalarField.zeros(g)), 32)
    (root,) = report.roots
    assert (root.s, root.dphi, root.refine_evals) == (0.0, 0.0, 1)
    assert report.n_phi_evals == 33
    # a = b = 1: Phi(s) = 4/(1+s)^2, whose root s = 1 is sample 8 of 17 on [0, 2];
    # the sign change at that sample is not refined again, so the root pays one
    # evaluation for its Phi' and one for the polishing step, which it keeps
    # only when |g| drops
    P = cubic_problem(unit_grid(16), 4.0)
    report = fixed_point_scan(P, 17, s_max=2.0 / 1.05)
    assert 1.0 in [s for s, _ in report.samples]
    (root,) = report.roots
    assert root.s == 1.0
    assert root.dphi == pytest.approx(-1.0, rel=1e-12)
    assert root.refine_evals == report.n_phi_evals - 17 == 2


@pytest.mark.parametrize("off", [1e-11, 3e-11])
def test_scan_hit_root_is_polished(off):
    # a sample `off` above the cubic root s = 1 meets ROOT_RTOL, and the polishing
    # Newton step takes it to roundoff, so s matches its field's energy
    P = cubic_problem(unit_grid(16), 4.0)
    report = fixed_point_scan(P, 17, s_max=(1.0 + off) * 2.0 / 1.05)
    g = [abs(phi - s) - kh.ROOT_RTOL * s for s, phi in report.samples]
    assert sum(v <= 0.0 for v in g) == 1
    (root,) = report.roots
    assert abs(root.s - 1.0) <= 4.5e-16
    assert abs(grad_norm_sq(root.u) - root.s) <= 1e-15
    assert root.refine_evals == 2


def _scan_synthetic_phi(monkeypatch, phi, dphi, n_samples):
    """The scan over [0, 1] with the Phi kernel replaced by phi(s) and slope dphi(s)."""
    def kernel(P, ss, slope=False):
        ss = np.asarray(ss, dtype=float)
        return np.append(phi(ss), dphi(ss[0])) if slope else phi(ss)

    monkeypatch.setattr(kh, "_phi", kernel)
    g = unit_grid(4)
    return fixed_point_scan(constant_problem(g, ScalarField.zeros(g)), n_samples,
                            s_max=1.0 / 1.05)


def test_scan_keeps_two_roots_closer_than_the_old_merge_distance(monkeypatch):
    # Phi(s) = s + c (s - r1)(s - r2): the sample s = 0.5 between the two roots
    # has |g| = 1.6e-9, ten tolerances, so each side's sign change is a root of its own
    c, r1, r2 = 1e8, 0.5 - 4e-9, 0.5 + 4e-9
    report = _scan_synthetic_phi(monkeypatch, lambda s: s + c * (s - r1) * (s - r2),
                                 lambda s: 1.0 + c * (2.0 * s - r1 - r2), 21)
    assert 0.5 in [s for s, _ in report.samples]
    assert [root.s for root in report.roots] == pytest.approx([r1, r2], rel=0, abs=5e-10)
    for root in report.roots:
        assert abs(c * (root.s - r1) * (root.s - r2)) <= kh.ROOT_RTOL * root.s


def test_scan_run_of_root_samples_is_one_root(monkeypatch):
    # Phi(s) = s + c (s - 1/2)^3 is within ROOT_RTOL of s at the five samples around
    # 1/2, which make one run: one root at its middle sample, which is exact
    c = 3e-5
    report = _scan_synthetic_phi(monkeypatch, lambda s: s + c * (s - 0.5) ** 3,
                                 lambda s: 1.0 + 3.0 * c * (s - 0.5) ** 2, 201)
    hits = [s for s, p in report.samples if abs(p - s) <= kh.ROOT_RTOL * s]
    assert len(hits) == 5
    (root,) = report.roots
    assert (root.s, root.refine_evals) == (0.5, 1)
    assert report.n_phi_evals == 202


def _tangencies_loop(ss, gs, root_ss):
    """The per-sample suspected-tangency rule, one interior sample at a time."""
    n_samples = len(ss)
    spacing = ss[1] - ss[0] if n_samples > 1 else 0.0
    tangencies = []
    for i in range(1, n_samples - 1):
        trio = gs[i - 1:i + 2]
        if not (np.all(trio > 0.0) or np.all(trio < 0.0)):
            continue
        if abs(gs[i]) > min(abs(gs[i - 1]), abs(gs[i + 1])):
            continue
        if abs(gs[i]) >= kh.TANGENCY_RTOL * ss[i]:
            continue
        if any(abs(ss[i] - sr) <= 1.5 * spacing for sr in root_ss):
            continue
        tangencies.append(float(ss[i]))
    return tangencies


def _tangency_cases(rng):
    """(ss, gs, root_ss) triples: seeded random dips and adversarial patterns."""
    spacing = 1.0 / 32.0             # exact, so a root can sit exactly 1.5 spacings away
    ss = spacing * np.arange(64)
    for _ in range(200):
        signs = rng.choice([-1.0, 1.0], size=ss.size, p=[0.2, 0.8])
        gs = signs * 10.0 ** rng.uniform(-9.0, -4.0, size=ss.size)
        roots = list(rng.choice(ss, size=int(rng.integers(0, 3)), replace=False)
                     + rng.normal(scale=spacing, size=1))
        yield ss, gs, roots
    tiny = 1e-7
    zeros = np.full(ss.size, tiny)
    zeros[::5] = 0.0
    flat = np.full(ss.size, tiny)
    flat_negative = -flat
    ties = np.tile([2 * tiny, tiny, tiny, 2 * tiny], ss.size // 4)
    alternating = tiny * (-1.0) ** np.arange(ss.size)
    above = np.full(ss.size, kh.TANGENCY_RTOL * 3.0)
    at_bound = kh.TANGENCY_RTOL * ss
    dip = np.full(ss.size, 1e-3)
    dip[[10, 30, 50]] = [1e-8, -1e-8, 0.0]
    dip[31] = -1e-3
    for gs in (zeros, flat, flat_negative, ties, alternating, above, at_bound, dip,
               np.zeros(ss.size)):
        for roots in ([], [float(ss[20])], [float(ss[20] + 1.5 * spacing)],
                      [float(ss[0]), float(ss[-1])]):
            yield ss, gs, roots


def test_suspected_tangencies_match_per_sample_rule(rng):
    found = 0
    for ss, gs, roots in _tangency_cases(rng):
        expected = _tangencies_loop(ss, gs, roots)
        assert kh._suspected_tangencies(ss, gs, roots) == expected
        found += bool(expected)
    assert found >= 50


def test_suspected_tangencies_hand_case():
    ss = np.linspace(0.0, 1.0, 16)
    gs = np.full(16, 1e-2)
    gs[5] = 1e-8
    gs[9] = -1e-9                     # no one-signed neighbourhood: a crossing, not a dip
    gs[12] = 1e-9
    assert kh._suspected_tangencies(ss, gs, []) == [float(ss[5]), float(ss[12])]
    assert kh._suspected_tangencies(ss, gs, [float(ss[13])]) == [float(ss[5])]


def test_scan_reports_overflowing_coefficient():
    g = unit_grid(8)
    P = Problem(ScalarField.full(g, 1e-100), ScalarField.full(g, 1e20),
                ScalarField.full(g, 1e50))
    with pytest.raises(ValueError, match=r"frozen coefficient a \+ s\*b is not a finite "
                                         r"double at s = \d"):
        fixed_point_scan(P, 16, s_max=1e300)
    with pytest.raises(ValueError, match=r"a \+ s\*b is not a finite double at s = 1e\+300"):
        solve_frozen(P, 1e300)


def test_residual_values(rng):
    g = unit_grid(10)
    h = sign_changing(g, rng)
    P = constant_problem(g, h)
    assert residual(constant_problem(g, ScalarField.zeros(g)),
                    ScalarField.zeros(g)) == 0.0
    assert residual(P, ScalarField.zeros(g)) == pytest.approx(
        np.abs(h.values).max())


def test_jacobian_functional_constant_ratio(rng):
    g = unit_grid(24)
    theta = 2.0
    b = positive_random(g, rng)
    P = Problem(ScalarField(g, theta * b.values), b, ScalarField.full(g, 1.0))
    assert jacobian_functional(P, ScalarField.zeros(g)) == 0.0
    u = smooth_random(g, rng)
    s = grad_norm_sq(u)
    # summation by parts makes this exact, not just O(h^2)
    assert jacobian_functional(P, u) == pytest.approx(-s / (theta + s), rel=1e-10)


def test_jacobian_functional_half_instance(rng):
    g = unit_grid(32)
    P = constant_problem(g, ScalarField.full(g, 1.0))
    u = smooth_random(g, rng)
    u = ScalarField(g, u.values / math.sqrt(grad_norm_sq(u)))  # s = 1
    assert jacobian_functional(P, u) == pytest.approx(-0.5, abs=1e-3)


def test_linearized_solve_at_zero_matches_direct(rng):
    g = unit_grid(16)
    a = positive_random(g, rng)
    P = Problem(a, ScalarField.full(g, 1.0), ScalarField.zeros(g))
    gfield = smooth_random(g, rng)
    v = linearized_solve(P, ScalarField.zeros(g), gfield)
    # at u = 0 the rank-one term drops: -a Lap v = g
    direct = poisson_solve(g, gfield.values / a.values)
    assert v.values == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_linearized_solve_zero_g():
    g = unit_grid(8)
    P = constant_problem(g, sine_forcing(g))
    u = solve_frozen(P, 0.0)
    v = linearized_solve(P, u, ScalarField.zeros(g))
    assert (v.values == 0.0).all()


def test_linearized_solve_aposteriori_random(rng):
    from kirchlab.grid import grad_inner
    g = unit_grid(32)
    for _ in range(10):
        a = positive_random(g, rng)
        b = positive_random(g, rng)
        P = Problem(a, b, ScalarField.full(g, 1.0))
        u = smooth_random(g, rng)
        gfield = smooth_random(g, rng)
        v = linearized_solve(P, u, gfield)
        m = diffusion_coefficient(P, grad_norm_sq(u))
        check = 2.0 * b.values * laplacian(u).values * grad_inner(u, v) \
            + m.values * laplacian(v).values + gfield.values
        assert np.abs(check).max() <= 1e-6 * (1 + np.abs(gfield.values).max())


def test_linearized_solve_refuses_a_wrong_poisson_solve(rng, monkeypatch):
    # a Poisson solve off by a factor 2 fails the a-posteriori check, which
    # raises with the unverified iterate
    g = unit_grid(16)
    P = constant_problem(g, sine_forcing(g))
    u = solve_frozen(P, 0.0)
    monkeypatch.setattr(kh, "poisson_solve", lambda grid, f: 2.0 * poisson_solve(grid, f))
    with pytest.raises(NoConvergence, match=r"^linearized solve residual .* exceeds ") as err:
        linearized_solve(P, u, smooth_random(g, rng))
    assert err.value.iterate is not None and err.value.iterate.grid == g


def test_linearized_solve_singular_jacobian():
    # ripple on a positive envelope concentrates positive u*Lap(u) mass; a tiny
    # ratio there drives the functional through 1/2, where the closed form must
    # refuse to divide
    g = unit_grid(16)
    X, Y = g.node_coords()
    I, J = np.meshgrid(np.arange(1, 17), np.arange(1, 17))
    u0 = ScalarField(g, (np.sin(np.pi * X) * np.sin(np.pi * Y)
                         + 0.05 * (-1.0) ** (I + J)).reshape(-1))
    prod = u0.values * laplacian(u0).values
    a = ScalarField(g, np.where(prod > 0, 1e-4, 100.0))
    P = Problem(a, ScalarField.full(g, 1.0), ScalarField.full(g, 1.0))

    def jac(t):
        return jacobian_functional(P, ScalarField(g, t * u0.values))

    lo, hi = 1e-3, 1e-2
    assert (jac(lo) - 0.5) < 0 < (jac(hi) - 0.5)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if jac(mid) - 0.5 > 0:
            hi = mid
        else:
            lo = mid
        if abs(jac(0.5 * (lo + hi)) - 0.5) < 1e-10:
            break
    t_star = 0.5 * (lo + hi)
    u_star = ScalarField(g, t_star * u0.values)
    assert abs(jacobian_functional(P, u_star) - 0.5) < 1e-9
    with pytest.raises(KirchlabError, match=r"^rank-one denominator .* is numerically zero; "
                                            r"the linearized operator is not surjective here$"):
        linearized_solve(P, u_star, ScalarField.full(g, 1.0))


def test_newton_zero_forcing_immediate():
    g = unit_grid(8)
    P = constant_problem(g, ScalarField.zeros(g))
    sol = newton_solve(P)
    assert (sol.u.values == 0.0).all()
    assert sol.method == "newton"
    assert sol.residual == 0.0


def test_newton_agrees_with_scan_on_cubic():
    g = unit_grid(32)
    P = cubic_problem(g, 4.0)
    scan_root = fixed_point_scan(P, 128).roots[0]
    newton_root = newton_solve(P)
    assert np.abs(newton_root.u.values - scan_root.u.values).max() <= 1e-8
    assert newton_root.residual <= 1e-9


def test_newton_converges_quickly_constant_ratio(rng, monkeypatch):
    monkeypatch.setattr(kh, "NEWTON_MAX_ITER", 15)
    g = unit_grid(16)
    for _ in range(3):
        theta = float(rng.uniform(0.5, 4.0))
        b = positive_random(g, rng)
        P = Problem(ScalarField(g, theta * b.values), b, sign_changing(g, rng))
        sol = newton_solve(P)
        assert sol.residual <= 1e-9


def ref_residual_field(P, u):
    """M(., E[u]) Lap u + h, written out with no shared helper."""
    m = diffusion_coefficient(P, grad_norm_sq(u))
    return m.values * laplacian(u).values + P.h.values


def ref_linearized_solve(P, u, gfield):
    """linearized_solve's closed form written out: energy, M and Lap u of its own."""
    m = diffusion_coefficient(P, grad_norm_sq(u)).values
    lap_u = laplacian(u).values
    denom = integrate(ScalarField(P.grid, 2.0 * P.b.values * u.values * lap_u / m)) - 1.0
    t = integrate(ScalarField(P.grid, gfield.values * u.values / m)) / denom
    w = t * 2.0 * P.b.values * lap_u / m - gfield.values / m
    return poisson_solve(P.grid, -w)


def ref_newton(P, tol=kh.NEWTON_TOL):
    """The Newton loop with each iterate's state rebuilt wherever it is needed;
    returns (u, s, residual)."""
    u = solve_frozen(P, 0.0)
    res = float(np.abs(ref_residual_field(P, u)).max())
    for _ in range(kh.NEWTON_MAX_ITER):
        if res <= tol:
            return u, grad_norm_sq(u), res
        step = ref_linearized_solve(P, u, ScalarField(P.grid, ref_residual_field(P, u)))
        u = ScalarField(P.grid, u.values + step)
        res = float(np.abs(ref_residual_field(P, u)).max())
    if res <= tol:
        return u, grad_norm_sq(u), res
    raise AssertionError(f"reference Newton stalled at residual {res:.3e}")


def newton_cases():
    rng = np.random.default_rng(20261018)
    cases = [cubic_problem(unit_grid(24), 4.0), cubic_problem(unit_grid(16), 1.125)]
    for n in (8, 12, 20):
        g = unit_grid(n)
        cases.append(Problem(positive_random(g, rng), positive_random(g, rng),
                             sign_changing(g, rng)))
    return cases


@pytest.mark.parametrize("case", range(5))
def test_newton_matches_reference_loop_bitwise(case):
    P = newton_cases()[case]
    u, s, res = ref_newton(P)
    sol = newton_solve(P)
    assert np.array_equal(sol.u.values, u.values)
    assert (sol.s, sol.residual) == (s, res)
    assert residual(P, sol.u) == res
    assert np.array_equal(linearized_solve(P, u, P.h).values,
                          ref_linearized_solve(P, u, P.h))
    assert jacobian_functional(P, u) == integrate(ScalarField(
        P.grid, P.b.values * u.values * laplacian(u).values
        / diffusion_coefficient(P, s).values))


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(kh, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(kh, name, counted)
    return calls


def test_newton_evaluates_each_iterate_once(monkeypatch):
    P = cubic_problem(unit_grid(24), 4.0)
    steps = count_calls(monkeypatch, "linearized_solve")
    energies = count_calls(monkeypatch, "grad_norm_sq")
    laplacians = count_calls(monkeypatch, "laplacian")
    newton_solve(P)
    # one state per iterate, and each step's linearized_solve one more plus Lap v:
    # 2 energies and 3 Laplacians per step
    k = len(steps)
    assert k > 1
    assert (len(energies), len(laplacians)) == (1 + 2 * k, 1 + 3 * k)


def test_newton_gives_up_after_max_iter_steps(monkeypatch):
    P = cubic_problem(unit_grid(16), 4.0)
    steps = count_calls(monkeypatch, "linearized_solve")
    with pytest.raises(NoConvergence, match="after 50 iterations") as info:
        newton_solve(P, tol=1e-30)
    assert len(steps) == kh.NEWTON_MAX_ITER
    assert info.value.residual == residual(P, info.value.iterate)


def test_jacobian_identity_zero():
    g = unit_grid(8)
    P = constant_problem(g, ScalarField.zeros(g))
    lhs, rhs = jacobian_identity(P, ScalarField.zeros(g))
    assert lhs == 0.0 and rhs == 0.0


def test_jacobian_identity_constant_ratio(rng):
    # constant c kills the weight term; the sides differ only by the
    # half-counted boundary faces, an O(h) effect
    g = unit_grid(24)
    P = constant_problem(g, ScalarField.full(g, 1.0))
    u = smooth_random(g, rng)
    lhs, rhs = jacobian_identity(P, u)
    s = grad_norm_sq(u)
    assert lhs == pytest.approx(-s / (1.0 + s), rel=1e-10)
    assert abs(lhs - rhs) <= 1.0 * g.hx * max(1.0, s)


def identity_errors(u_fn, sizes=(16, 32, 64)):
    errs = []
    for n in sizes:
        g = unit_grid(n)
        a = field_from(g, lambda X, Y: 1.0 + 0.5 * X)
        b = field_from(g, lambda X, Y: 1.0 + 0.25 * Y)
        P = Problem(a, b, ScalarField.full(g, 1.0))
        lhs, rhs = jacobian_identity(P, field_from(g, u_fn))
        errs.append(abs(lhs - rhs))
    return errs


def test_jacobian_identity_refinement_generic_mode():
    # generic boundary slope: the half-counted boundary faces give an O(h)
    # error, so each refinement cuts it by ~2 (rate tends to 1 from below)
    errs = identity_errors(
        lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y)
        + 0.3 * np.sin(2 * np.pi * X) * np.sin(np.pi * Y))
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] / errs[2] >= 1.9


def test_jacobian_identity_refinement_order_flat_boundary(rng):
    # fields with vanishing normal derivative see only the interior error,
    # which converges far better than first order
    coefs = rng.normal(size=(2, 2))

    def u_fn(X, Y):
        env = (np.sin(np.pi * X) * np.sin(np.pi * Y)) ** 2
        series = sum(coefs[k - 1][l - 1] / (k * l)
                     * np.sin(k * np.pi * X) * np.sin(l * np.pi * Y)
                     for k in (1, 2) for l in (1, 2))
        return env * series

    errs = identity_errors(u_fn)
    assert math.log2(errs[0] / errs[1]) >= 1.0
    assert math.log2(errs[1] / errs[2]) >= 1.0
