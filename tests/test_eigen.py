import math
import warnings

import numpy as np
import pytest

from kirchlab import eigen, grid, linalg
from kirchlab.certify import ratio_gap, shifted_ratio
from kirchlab.eigen import (eigen_curve, eigen_weight, eigenvalue_lower_bound, is_admissible,
                            principal_eigenpair, rayleigh_quotient, weight_flux)
from kirchlab.grid import (Grid, KirchlabError, ScalarField, coeff_grad_inf, dirichlet_lambda1,
                           grad_norm_sq, gradient, integrate)
from dense_oracle import (Pencil, assemble_weighted_laplacian, pencil_eigensolve,
                          smallest_positive)

from conftest import field_from, smooth_random, unit_grid


def ramp_field(grid):
    return field_from(grid, lambda X, Y: 1.0 + X)


def test_weight_constant_c_is_zero():
    g = unit_grid(9)
    m = eigen_weight(ScalarField.full(g, 3.7), 1.0)
    assert (m.values == 0.0).all()


def test_weight_matches_analytic_ramp_interior():
    # c = 1+x: grad c = (1, 0), Lap c = 0, so the weight is 2/(1+x+alpha)^3
    g = unit_grid(64)
    c = ramp_field(g)
    X, _ = g.node_coords()
    for alpha in (0.01, 0.1, 1.0, 10.0):
        m = eigen_weight(c, alpha).mat
        exact = 2.0 / (1.0 + X + alpha) ** 3
        rel = np.abs(m - exact) / exact
        assert rel[1:-1, 1:-1].max() <= 1e-2
        assert (m > 0).all()


def test_weight_rejects_nonpositive_c():
    g = unit_grid(4)
    with pytest.raises(ValueError, match=r"^ratio field must be positive, min = 0$"):
        eigen_weight(ScalarField.zeros(g), 1.0)


def test_weight_divergence_theorem_exact(rng):
    # integrate(u^2 * m) equals the face sum of grad(u^2) . flux to roundoff
    g = unit_grid(12)
    c = field_from(g, lambda X, Y: 1.5 + 0.5 * np.sin(np.pi * X) * Y)
    alpha = 0.3
    m = eigen_weight(c, alpha)
    G = weight_flux(c, alpha)
    u = smooth_random(g, rng)
    u2 = ScalarField(g, u.values ** 2)
    lhs = integrate(ScalarField(g, u.values ** 2 * m.values))
    Fu2 = gradient(u2)
    rhs = g.cell_area * float((Fu2.xfaces * G.xfaces).sum() + (Fu2.yfaces * G.yfaces).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_admissibility():
    g = unit_grid(16)
    const = ScalarField.full(g, 2.0)
    ramp = ramp_field(g)
    for alpha in (0.01, 0.1, 1.0, 10.0, 100.0):
        assert not is_admissible(const, alpha)
        assert is_admissible(ramp, alpha)
    with pytest.raises(ValueError):
        is_admissible(ramp, 0.0)


def test_weight_flux_vanishes_silently_where_the_square_overflows():
    # (c + alpha)^2 is inf past alpha ~ 1.3e154: the flux is 0 and alpha inadmissible
    g = unit_grid(6)
    ramp = ramp_field(g)
    for alpha in (1e155, 1e200, 1e308):
        F = weight_flux(ramp, alpha)
        assert not F.xfaces.any() and not F.yfaces.any()
        assert not is_admissible(ramp, alpha)
    assert (weight_flux(ramp, 1e150).xfaces > 0.0).all()


def test_eigen_curve_refuses_a_ratio_whose_squared_shift_underflows():
    # at 2^-600 the tilted ramp's (c + alpha)^2 underflows to 0: the inner fluxes
    # are inf and their end-face extrapolation inf - inf, refused with no warning
    c = field_from(unit_grid(24), lambda X, Y: 2.0 ** -600 * (1.0 + 0.8 * X + 0.3 * Y))
    with pytest.raises(ValueError, match=r"^face field contains non-finite values$"):
        eigen_curve(c, 2.0 ** -600 * np.logspace(-2, 2, 8))


def test_principal_eigenpair_ramp():
    g = unit_grid(32)
    c = ramp_field(g)
    alpha = 1.0
    pair = principal_eigenpair(c, alpha)
    assert pair.lam >= eigenvalue_lower_bound(c, alpha) - 1e-8
    assert (pair.u.values > 0).all()
    assert grad_norm_sq(pair.u) == pytest.approx(alpha, rel=1e-8)
    assert rayleigh_quotient(c, alpha, pair.u) == pytest.approx(pair.lam, rel=1e-8)


# Ratio fields c checked against the dense pencil: two ramps (positive
# weight), a field whose weight changes sign, a bump whose weight is negative
# inside, with a four-fold cluster of edge modes at small alpha, its second
# harmonic and a Gaussian bump, all three sign-changing.
ORACLE_RATIOS = {
    "ramp": lambda X, Y: 1.0 + X,
    "plane": lambda X, Y: 1.0 + 0.8 * X + 0.5 * Y,
    "sign-changing": lambda X, Y: 1.0 + 0.5 * np.sin(2 * np.pi * X) * np.sin(np.pi * Y) + 0.3 * X,
    "bump": lambda X, Y: 2.0 - 0.8 * np.sin(np.pi * X) * np.sin(np.pi * Y),
    "second-harmonic": lambda X, Y: 2.0 - 0.8 * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y),
    "gaussian": lambda X, Y: 1.0 + 0.5 * np.exp(-30.0 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)),
}
POSITIVE_WEIGHT = ("ramp", "plane")
ORACLE_CASES = (
    [(name, 16, alpha) for name in POSITIVE_WEIGHT for alpha in np.logspace(-2, 2, 8)]
    + [("sign-changing", 20, alpha) for alpha in (0.01, 0.1, 1.0, 10.0)]
    + [("bump", n, alpha) for n in (12, 32) for alpha in (0.01, 0.1)]
    + [(name, n, alpha) for name in ("second-harmonic", "gaussian") for n in (16, 24)
       for alpha in (0.01, 0.1, 1.0)]
)


@pytest.mark.parametrize("name,n,alpha", ORACLE_CASES,
                         ids=[f"{name}-{n}-{alpha:.3g}" for name, n, alpha in ORACLE_CASES])
def test_principal_eigenpair_matches_dense_oracle(name, n, alpha):
    g = unit_grid(n)
    c = field_from(g, ORACLE_RATIOS[name])
    m = eigen_weight(c, alpha)
    assert (m.values.min() < 0.0) == (name not in POSITIVE_WEIGHT)
    pair = principal_eigenpair(c, alpha)
    A = assemble_weighted_laplacian(ScalarField(g, 1.0 / (c.values + alpha)))
    lam, v = smallest_positive(Pencil(A, m.values))
    assert pair.lam == pytest.approx(lam, rel=1e-10)
    assert pair.residual <= 1e-10
    assert pair.u.values.min() >= -1e-8 * pair.u.values.max()
    assert v.sum() > 0.0
    assert v.min() >= -1e-8 * v.max()


def test_dense_oracle_refuses_a_cluster_that_lobpcg_resolves():
    # at alpha = 3.16 the bump's weight is positive on 32 nodes near the corners,
    # and the four least positive eigenvalues agree to about 2e-12: the dense
    # eigenvector is some mix of the four (it changes sign), so the oracle
    # refuses it, while the principal pair is positive (931 steps measured)
    g = unit_grid(32)
    c = field_from(g, ORACLE_RATIOS["bump"])
    alpha = 3.16
    m = eigen_weight(c, alpha)
    P = Pencil(assemble_weighted_laplacian(ScalarField(g, 1.0 / (c.values + alpha))), m.values)
    lams = [lam for lam, _ in pencil_eigensolve(P) if lam > 0.0][:5]
    assert lams[3] - lams[0] <= 1e-11 * lams[0] < lams[4] - lams[0]
    with pytest.raises(KirchlabError, match=r"^least positive eigenvalue .* is within 1e-10 "):
        smallest_positive(P)
    pair = principal_eigenpair(c, alpha)
    assert pair.lam == pytest.approx(lams[0], rel=1e-10)
    assert pair.residual <= 1e-10
    assert pair.u.values.min() >= -1e-8 * pair.u.values.max()


def test_sign_changing_bump_converges_at_64():
    # no dense oracle at 4096 nodes: a positive eigenvector with a small
    # residual is the principal pair (Perron-Frobenius); 87 steps measured
    g = unit_grid(64)
    c = field_from(g, ORACLE_RATIOS["bump"])
    assert eigen_weight(c, 0.01).values.min() < 0.0
    pair = principal_eigenpair(c, 0.01)
    assert 1 <= pair.iterations <= 150
    assert pair.residual <= 1e-10
    assert pair.u.values.min() >= -1e-8 * pair.u.values.max()


def test_eigenpair_reports_iterations_and_residual():
    g = unit_grid(12)
    c = field_from(g, lambda X, Y: 2.0 - 0.8 * np.sin(np.pi * X) * np.sin(np.pi * Y))
    first, second = principal_eigenpair(c, 0.1), principal_eigenpair(c, 0.1)
    assert first.iterations == second.iterations >= 1
    assert first.residual == second.residual <= 1e-10
    assert first.lam == second.lam
    assert (first.u.values == second.u.values).all()


def test_principal_eigenpair_requires_admissible():
    g = unit_grid(8)
    with pytest.raises(ValueError, match=r"^weight is nowhere positive at alpha = 1$"):
        principal_eigenpair(ScalarField.full(g, 1.0), 1.0)


@pytest.mark.parametrize("v,resid,error,message", [
    (np.ones(36), 1e-3, linalg.NoConvergence,
     r"^pencil residual 1\.000e-03 too large at alpha = 1$"),
    (np.where(np.arange(36) == 7, -1.0, 1.0), 1e-12, KirchlabError,
     r"^principal eigenfunction changes sign at alpha = 1 .*; refine the grid$"),
], ids=["residual", "sign-change"])
def test_principal_eigenpair_refuses_an_unverified_pair(monkeypatch, v, resid, error, message):
    # a solver result above PENCIL_RESID_TOL, or one that changes sign, is an
    # error and never a row
    monkeypatch.setattr(eigen, "_lobpcg_stack", lambda g, W, B, where: [(1.0, v, 3, resid)])
    with pytest.raises(error, match=message):
        principal_eigenpair(ramp_field(unit_grid(6)), 1.0)


def test_rayleigh_scale_invariance(rng):
    g = unit_grid(16)
    c = ramp_field(g)
    u = smooth_random(g, rng)
    base = rayleigh_quotient(c, 0.7, u)
    for k in (0.25, -3.0):
        scaled = ScalarField(g, k * u.values)
        assert rayleigh_quotient(c, 0.7, scaled) == pytest.approx(base, rel=1e-12)


def test_rayleigh_numerator_floor(rng):
    # with gradient energy alpha the numerator is at least alpha/(c_max+alpha)
    g = unit_grid(16)
    c = ramp_field(g)
    alpha = 0.8
    c_hi = float(c.values.max())
    for _ in range(5):
        u = smooth_random(g, rng)
        u = ScalarField(g, u.values * math.sqrt(alpha / grad_norm_sq(u)))
        wf_num = rayleigh_quotient(c, alpha, u) \
            * integrate(ScalarField(g, u.values ** 2 * eigen_weight(c, alpha).values))
        assert wf_num >= alpha / (c_hi + alpha) - 1e-8


def test_rayleigh_zero_denominator():
    g = unit_grid(8)
    c = ScalarField.full(g, 2.0)
    u = smooth_random(g, np.random.default_rng(3))
    with pytest.raises(ValueError, match=r"^weighted mass of u vanishes$"):
        rayleigh_quotient(c, 1.0, u)


@pytest.mark.parametrize("call,alpha", [("bound", -0.5), ("bound", "-min c"), ("rayleigh", "-min c")],
                         ids=["bound-at-minus-half", "bound-at-minus-min-c",
                              "rayleigh-at-minus-min-c"])
def test_negative_alpha_is_refused_before_any_arithmetic(call, alpha):
    # at alpha = -min c the shifted ratio divides by zero, and 1/(c + alpha)
    # is infinite at the minimum node
    g = unit_grid(8)
    c = ramp_field(g)
    alpha = -float(c.values.min()) if alpha == "-min c" else alpha
    u = smooth_random(g, np.random.default_rng(3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"^alpha must be nonnegative, got -"):
            if call == "bound":
                eigenvalue_lower_bound(c, alpha)
            else:
                rayleigh_quotient(c, alpha, u)
    assert caught == []


# every public alpha path; each goes through certify.shifted_ratio or weight_flux
NONFINITE_ALPHA_CALLS = {
    "shifted_ratio": shifted_ratio, "ratio_gap": ratio_gap,
    "eigenvalue_lower_bound": eigenvalue_lower_bound, "weight_flux": weight_flux,
    "eigen_weight": eigen_weight, "is_admissible": is_admissible,
    "principal_eigenpair": principal_eigenpair,
    "eigen_curve": lambda c, alpha: eigen_curve(c, [1.0, alpha]),
}


@pytest.mark.parametrize("alpha", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", list(NONFINITE_ALPHA_CALLS))
def test_nonfinite_alpha_is_refused_naming_it(name, alpha):
    # alpha < 0 is false for NaN, and at alpha = inf the flux was silently zero
    with pytest.raises(ValueError, match=f"^alpha must be finite, got {alpha}$"):
        NONFINITE_ALPHA_CALLS[name](ramp_field(unit_grid(8)), alpha)


def test_lower_bound_ramp_hand_value():
    # c = 1+x on the unit square: |grad c| = 1 and the node extrema are
    # 1+h and 2-h, approaching the continuum arithmetic value
    # sqrt(2 pi^2) * 4 / 6 ~ 2.962 as the grid refines
    g = unit_grid(64)
    c = ramp_field(g)
    lam1 = dirichlet_lambda1(g)
    c_lo, c_hi = 1.0 + g.hx, 2.0 - g.hx
    expected = math.sqrt(lam1) * (c_lo + 1.0) ** 2 / (2.0 * (c_hi + 1.0))
    got = eigenvalue_lower_bound(c, 1.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(math.sqrt(2.0) * math.pi * 4.0 / 6.0, rel=0.03)


def test_lower_bound_tiny_gradient_stays_finite():
    # the ratio here is ~2e-17, below the rounding step of ratio_gap + 1: the
    # bound must still follow the closed form rather than divide by zero
    g = unit_grid(16)
    c = field_from(g, lambda X, Y: 1.0 + 1e-12 * X)
    alpha = 1e4
    grad_inf = coeff_grad_inf(c)
    assert grad_inf > 0.0
    c_lo, c_hi = float(c.values.min()), float(c.values.max())
    expected = math.sqrt(dirichlet_lambda1(g)) * (c_lo + alpha) ** 2 \
        / (2.0 * grad_inf * (c_hi + alpha))
    assert eigenvalue_lower_bound(c, alpha) == pytest.approx(expected, rel=1e-12)


def test_lower_bound_constant_c_infinite():
    g = unit_grid(8)
    assert eigenvalue_lower_bound(ScalarField.full(g, 1.0), 1.0) == math.inf


def test_lower_bound_increasing_for_large_alpha():
    g = unit_grid(16)
    c = ramp_field(g)
    values = [eigenvalue_lower_bound(c, alpha) for alpha in (10.0, 100.0, 1000.0)]
    assert values[0] < values[1] < values[2]


def test_eigen_curve_constant_c_empty():
    g = unit_grid(8)
    curve = eigen_curve(ScalarField.full(g, 5.0), [0.1, 1.0, 10.0])
    assert curve.rows == []


def test_eigen_curve_ramp_rows_satisfy_bound():
    g = unit_grid(24)
    c = ramp_field(g)
    alphas = list(np.logspace(-2, 2, 7))
    curve = eigen_curve(c, alphas)
    assert len(curve.rows) == len(alphas)  # admissible down to the smallest alpha
    assert [row[0] for row in curve.rows] == alphas
    for alpha, lam, bound, gap in curve.rows:
        assert lam >= bound - 1e-8
        assert gap <= 1e-8


def curve_pairs(curve):
    return [(p.alpha, p.lam, p.u.values.tobytes(), p.iterations, p.residual)
            for p in curve.pairs]


@pytest.mark.parametrize("stack_nodes", [1, 3 * 16 * 16, 5 * 16 * 16])
def test_eigen_curve_split_into_stacks_keeps_every_bit(stack_nodes, monkeypatch):
    # an inadmissible alpha (1e200) sits between admissible ones
    g = unit_grid(16)
    c = field_from(g, lambda X, Y: 2.0 - 0.8 * X * Y)
    alphas = list(np.logspace(-2, 2, 8)) + [1e200, 0.05]
    assert not is_admissible(c, 1e200)
    whole = eigen_curve(c, alphas)
    assert len(whole.rows) == 9
    stacks = []
    solve_stack = eigen._lobpcg_stack
    monkeypatch.setattr(grid, "BATCH_NODES", stack_nodes)
    monkeypatch.setattr(eigen, "_lobpcg_stack",
                        lambda g, W, B, where: stacks.append(len(B)) or
                        solve_stack(g, W, B, where))
    split = eigen_curve(c, alphas)
    assert stacks == {1: [1] * 9, 768: [3, 3, 3], 1280: [5, 4]}[stack_nodes]
    assert np.array(split.rows).tobytes() == np.array(whole.rows).tobytes()
    assert curve_pairs(split) == curve_pairs(whole)
    for row, pair in zip(whole.rows, whole.pairs):
        alone = principal_eigenpair(c, row[0])
        assert (alone.lam, alone.u.values.tobytes(), alone.iterations, alone.residual) == \
            (pair.lam, pair.u.values.tobytes(), pair.iterations, pair.residual)


def test_eigen_curve_rows_are_the_same_bits_on_a_power_of_two_domain():
    # the ratio on [0, 2^j]^2 has the unit square's lambda: the stencil, the
    # weight and the sine basis of the preconditioner all scale exactly
    alphas = np.logspace(-2, 2, 8)
    c = field_from(unit_grid(24), lambda X, Y: 1.0 + 0.8 * X + 0.3 * Y).values
    rows = [[row[:2] for row in eigen_curve(ScalarField(Grid.over_rectangle(24, 24, side, side),
                                                        c), alphas).rows]
            for side in (1.0, 2.0 ** -6, 2.0 ** 6)]
    assert len(rows[0]) > 0 and rows[1] == rows[0] and rows[2] == rows[0]


def test_eigen_curve_steps_on_the_ramp():
    # the w-scaled Poisson preconditioner: 67 steps in all (90 with the plain one)
    g = unit_grid(32)
    curve = eigen_curve(ramp_field(g), np.logspace(-2, 2, 8))
    assert len(curve.pairs) == 8
    assert sum(p.iterations for p in curve.pairs) <= 70


def test_eigen_curve_steps_per_alpha_on_the_tilted_ramp():
    # the counts of the Rayleigh-Ritz step on the QR-orthonormalized basis,
    # which the step whitened by the A-Gram eigendecomposition keeps
    c = field_from(unit_grid(24), lambda X, Y: 1.0 + 0.8 * X + 0.3 * Y)
    curve = eigen_curve(c, np.logspace(-2, 2, 8))
    assert [p.iterations for p in curve.pairs] == [10, 10, 10, 10, 10, 9, 9, 8]


def test_eigen_curve_bound_and_gap_columns_match_their_functions():
    g = unit_grid(12)
    c = ramp_field(g)
    alphas = [0.1, 1.0, 10.0]
    curve = eigen_curve(c, alphas)
    assert [row[2] for row in curve.rows] == [eigenvalue_lower_bound(c, a) for a in alphas]
    assert [row[3] for row in curve.rows] == \
        [abs(rayleigh_quotient(c, p.alpha, p.u) - p.lam) for p in curve.pairs]


def test_eigen_curve_failure_names_the_first_failing_alpha(monkeypatch):
    monkeypatch.setattr(linalg, "LOBPCG_MAX_ITER", 3)
    g = unit_grid(12)
    with pytest.raises(linalg.NoConvergence, match=r"after 3 iterations at alpha = 0\.25$"):
        eigen_curve(ramp_field(g), [0.25, 0.5, 4.0])
    with pytest.raises(linalg.NoConvergence, match=r"at alpha = 4$"):
        principal_eigenpair(ramp_field(g), 4.0)


def test_eigen_curve_weight_error_after_earlier_alphas(monkeypatch):
    # alpha = -1 has no weight, but the alpha before it fails first, as it
    # does when each alpha is solved alone
    g = unit_grid(8)
    with pytest.raises(ValueError, match="alpha must be positive"):
        eigen_curve(ramp_field(g), [0.5, -1.0])
    monkeypatch.setattr(linalg, "LOBPCG_MAX_ITER", 1)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(linalg.NoConvergence, match="at alpha = 0.5$"):
            eigen_curve(ramp_field(g), [0.5, bad])


def test_weighted_mass_bound_for_eigenfunctions():
    # the weighted mass of an eigenfunction obeys the gradient-based cap with
    # O(h) slack
    g = unit_grid(32)
    c = ramp_field(g)
    lam1 = dirichlet_lambda1(g)
    grad_inf = coeff_grad_inf(c)
    c_lo = float(c.values.min())
    for alpha in (0.1, 1.0, 10.0):
        pair = principal_eigenpair(c, alpha)
        mass = integrate(ScalarField(g, pair.u.values ** 2
                                     * eigen_weight(c, alpha).values))
        cap = 2.0 * grad_inf * grad_norm_sq(pair.u) \
            / (math.sqrt(lam1) * (c_lo + alpha) ** 2)
        assert mass <= cap + 1e-2


def test_weighted_mass_bound_for_random_fields(rng):
    # the same cap holds for arbitrary Dirichlet fields at 64x64
    g = unit_grid(64)
    c = ramp_field(g)
    lam1 = dirichlet_lambda1(g)
    grad_inf = coeff_grad_inf(c)
    c_lo = float(c.values.min())
    for alpha in (0.1, 1.0):
        m = eigen_weight(c, alpha)
        for _ in range(5):
            u = smooth_random(g, rng)
            mass = integrate(ScalarField(g, u.values ** 2 * m.values))
            cap = 2.0 * grad_inf * grad_norm_sq(u) \
                / (math.sqrt(lam1) * (c_lo + alpha) ** 2)
            assert mass <= cap + 1e-2
