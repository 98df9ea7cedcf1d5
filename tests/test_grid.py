import math
import re
from decimal import Decimal

import numpy as np
import pytest

from kirchlab.grid import (FaceField, Grid, ScalarField, coeff_grad_inf,
                           coeff_node_gradient, dirichlet_lambda1, divergence,
                           face_average, grad_inner, grad_norm_sq, gradient,
                           integrate, laplacian, node_grad_sq, read_field,
                           write_field)

from conftest import field_from, smooth_random, unit_grid


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0, 3, 0, 0, 0.1, 0.1)
    with pytest.raises(ValueError):
        Grid(3, 3, 0, 0, -0.1, 0.1)
    g = Grid.over_rectangle(3, 7, 2.0, 1.0)
    assert g.lx == pytest.approx(2.0) and g.ly == pytest.approx(1.0)
    assert g.hx == pytest.approx(0.5) and g.hy == pytest.approx(0.125)


@pytest.mark.parametrize("x0,y0,hx,hy", [(math.nan, 0.0, 0.1, 0.1), (0.0, math.inf, 0.1, 0.1),
                                         (0.0, 0.0, math.inf, 0.1), (0.0, 0.0, 0.1, math.nan),
                                         (-math.inf, 0.0, 0.1, 0.1)])
def test_grid_rejects_nonfinite_geometry(x0, y0, hx, hy):
    with pytest.raises(ValueError, match="finite"):
        Grid(3, 3, x0, y0, hx, hy)


@pytest.mark.parametrize("x0,y0,hx,hy,edge", [(1.7e308, 0.0, 3e307, 0.1, "x0 + (nx+1)*hx"),
                                               (0.0, 1.7e308, 0.1, 3e307, "y0 + (ny+1)*hy"),
                                               (0.0, 0.0, 0.1, 1e308, "y0 + (ny+1)*hy")])
def test_grid_rejects_overflowing_far_edge(x0, y0, hx, hy, edge):
    # finite origin and widths whose far edge, beyond the last node, is inf
    with pytest.raises(ValueError, match=re.escape(f"grid far edge {edge} = inf")):
        Grid(3, 3, x0, y0, hx, hy)


def test_over_rectangle_reports_node_count():
    # nx = -1 would divide by nx + 1 = 0 before the node-count check
    with pytest.raises(ValueError, match="at least one interior node per axis, got -1x4"):
        Grid.over_rectangle(-1, 4)


def test_field_validation():
    g = unit_grid(3)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(5))
    with pytest.raises(ValueError):
        ScalarField(g, np.full(9, np.nan))


def test_gradient_zero_field():
    g = unit_grid(4)
    F = gradient(ScalarField.zeros(g))
    assert not F.xfaces.any() and not F.yfaces.any()


def test_gradient_single_node_hand_stencil():
    g = Grid(1, 1, 0.0, 0.0, 0.5, 0.5)
    F = gradient(ScalarField(g, np.array([3.0])))
    assert F.xfaces.reshape(-1) == pytest.approx([6.0, -6.0])
    assert F.yfaces.reshape(-1) == pytest.approx([6.0, -6.0])


def test_gradient_interior_face_hand_stencil():
    g = Grid(3, 1, 0.0, 0.0, 0.25, 0.25)
    F = gradient(ScalarField(g, np.array([1.0, 2.0, 1.0])))
    assert F.xfaces[0, 1] == pytest.approx(4.0)  # between first and second node
    assert F.xfaces[0, 2] == pytest.approx(-4.0)


def test_divergence_zero_faces():
    g = unit_grid(5)
    F = FaceField(g, np.zeros((5, 6)), np.zeros((6, 5)))
    assert not divergence(F).values.any()


def test_divergence_hand_stencil():
    g = Grid(1, 1, 0.0, 0.0, 0.5, 0.5)
    F = FaceField(g, np.array([[6.0, -6.0]]), np.array([[6.0], [-6.0]]))
    assert divergence(F).values[0] == pytest.approx(-48.0)
    lap = laplacian(ScalarField(g, np.array([3.0])))
    assert lap.values[0] == pytest.approx(-48.0)


def test_face_field_refuses_bad_shapes_and_non_finite_values():
    g = Grid.over_rectangle(3, 2)
    with pytest.raises(ValueError, match=r"^face arrays \(2, 3\), \(3, 3\) do not match "
                                         r"grid 3x2$"):
        FaceField(g, np.zeros((2, 3)), np.zeros((3, 3)))
    for bad in (np.nan, np.inf):
        yfaces = np.zeros((3, 3))
        yfaces[1, 2] = bad
        with pytest.raises(ValueError, match=r"^face field contains non-finite values$"):
            FaceField(g, np.zeros((2, 4)), yfaces)


def test_laplacian_is_div_grad_bit_for_bit(rng):
    g = Grid.over_rectangle(9, 6, 1.3, 0.7)
    u = smooth_random(g, rng)
    lap = laplacian(u)
    ref = divergence(gradient(u))
    assert (lap.values == ref.values).all()


def test_laplacian_discrete_eigenvector():
    g = unit_grid(15)
    u = field_from(g, lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y))
    lam1 = dirichlet_lambda1(g)
    lap = laplacian(u)
    assert lap.values == pytest.approx(-lam1 * u.values, rel=1e-11, abs=1e-11)


def test_integrate_constant_and_zero():
    g = unit_grid(8)
    assert integrate(ScalarField.full(g, 1.0)) == pytest.approx(64 * g.hx * g.hy)
    assert integrate(ScalarField.zeros(g)) == 0.0


def test_integrate_sine_product_against_analytic():
    g = unit_grid(64)
    f = field_from(g, lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y))
    assert integrate(f) == pytest.approx(4.0 / math.pi ** 2, abs=1e-3)


def test_grad_norm_sq_hand_value():
    g = Grid(1, 1, 0.0, 0.0, 0.5, 0.5)
    assert grad_norm_sq(ScalarField(g, np.array([3.0]))) == pytest.approx(36.0)
    assert grad_norm_sq(ScalarField.zeros(g)) == 0.0


def test_grad_norm_sq_eigenvector_identity():
    # for the discrete eigenvector, the gradient energy is exactly lambda1 * mass
    g = unit_grid(17)
    v = field_from(g, lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y))
    lam1 = dirichlet_lambda1(g)
    mass = integrate(ScalarField(g, v.values ** 2))
    assert grad_norm_sq(v) == pytest.approx(lam1 * mass, rel=1e-13)


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (8, 8), (17, 9), (33, 33)])
def test_summation_by_parts_adjointness(nx, ny, rng):
    g = Grid.over_rectangle(nx, ny, 1.1, 0.9)
    u = ScalarField(g, rng.normal(size=g.n_nodes))
    F = FaceField(g, rng.normal(size=(ny, nx + 1)), rng.normal(size=(ny + 1, nx)))
    lhs = g.cell_area * float(divergence(F).values @ u.values)
    Fu = gradient(u)
    rhs = -g.cell_area * float((F.xfaces * Fu.xfaces).sum() + (F.yfaces * Fu.yfaces).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("nx,ny", [(3, 3), (16, 8), (31, 31)])
def test_discrete_green_identity(nx, ny, rng):
    g = Grid.over_rectangle(nx, ny, 0.8, 1.4)
    u = ScalarField(g, rng.normal(size=g.n_nodes))
    lhs = grad_norm_sq(u)
    rhs = -integrate(ScalarField(g, u.values * laplacian(u).values))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_operator_linearity(rng):
    g = unit_grid(12)
    u = ScalarField(g, rng.normal(size=g.n_nodes))
    v = ScalarField(g, rng.normal(size=g.n_nodes))
    au, bv = 1.7, -0.3
    comb = ScalarField(g, au * u.values + bv * v.values)
    for op in (laplacian,):
        lhs = op(comb).values
        rhs = au * op(u).values + bv * op(v).values
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    Fc, Fu, Fv = gradient(comb), gradient(u), gradient(v)
    assert Fc.xfaces == pytest.approx(au * Fu.xfaces + bv * Fv.xfaces, rel=1e-12, abs=1e-12)
    assert grad_inner(u, v) == pytest.approx(
        0.25 * (grad_norm_sq(ScalarField(g, u.values + v.values))
                - grad_norm_sq(ScalarField(g, u.values - v.values))), rel=1e-10)


def test_coeff_node_gradient_linear_ramp():
    g = Grid.over_rectangle(16, 9, 2.0, 0.7)   # hx != hy
    c = field_from(g, lambda X, Y: 1.0 + X + 2.0 * Y)
    gx, gy = coeff_node_gradient(c)
    assert gx == pytest.approx(np.ones_like(gx), rel=1e-12)
    assert gy == pytest.approx(np.full_like(gy, 2.0), rel=1e-12)
    assert coeff_grad_inf(c) == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_face_average_one_sided_boundary():
    g = Grid.over_rectangle(4, 5)
    c = field_from(g, lambda X, Y: 1.0 + X + 2.0 * Y)
    cf = face_average(c)
    assert cf.xfaces[0, 0] == pytest.approx(c.mat[0, 0])
    assert cf.xfaces[0, -1] == pytest.approx(c.mat[0, -1])
    assert cf.xfaces[0, 2] == pytest.approx(0.5 * (c.mat[0, 1] + c.mat[0, 2]))
    assert cf.yfaces[0, 1] == pytest.approx(c.mat[0, 1])
    assert cf.yfaces[-1, 1] == pytest.approx(c.mat[-1, 1])
    assert cf.yfaces[2, 1] == pytest.approx(0.5 * (c.mat[1, 1] + c.mat[2, 1]))


def test_node_grad_sq_counts_interior_faces(rng):
    # integrating the four-face average recovers the energy up to boundary faces
    g = unit_grid(10)
    u = smooth_random(g, rng)
    F = gradient(u)
    boundary = 0.5 * g.cell_area * (
        float(F.xfaces[:, 0] @ F.xfaces[:, 0]) + float(F.xfaces[:, -1] @ F.xfaces[:, -1])
        + float(F.yfaces[0, :] @ F.yfaces[0, :]) + float(F.yfaces[-1, :] @ F.yfaces[-1, :]))
    assert integrate(node_grad_sq(u)) + boundary == pytest.approx(grad_norm_sq(u), rel=1e-12)


def test_dirichlet_lambda1_hand_value():
    g = unit_grid(3)
    assert dirichlet_lambda1(g) == pytest.approx(128.0 * math.sin(math.pi / 8) ** 2,
                                                 rel=1e-14)
    g64 = unit_grid(64)
    assert dirichlet_lambda1(g64) == pytest.approx(2.0 * math.pi ** 2, rel=1e-3)


def test_field_file_roundtrip(tmp_path, rng):
    g = Grid.over_rectangle(5, 4, 2.0, 3.0, x0=-1.0, y0=0.5)
    f = ScalarField(g, rng.normal(size=g.n_nodes))
    path = tmp_path / "f.field"
    write_field(f, path)
    back = read_field(path)
    assert back.grid == g
    assert back.values == pytest.approx(f.values, rel=0, abs=0)


def test_read_field_parses_each_token_as_python_float_does(tmp_path):
    # signed zeros, subnormals, the normal/subnormal edge, the largest doubles,
    # decimal ties that round to even, and "%.17g" texts in both notations
    tokens = ["0", "-0", "5e-324", "-4.9406564584124654e-324", "2.2250738585072009e-308",
              "2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e+308",
              "-1.7976931348623157e+308", "9007199254740993",
              "1.00000000000000011102230246251565404236316680908203125",
              "0.10000000000000001", "0.0001", "-9.9999999999999998e-05",
              "99999999999999984", "1e+17", "123456789.12345679", "-3"]
    g = Grid.over_rectangle(6, 3)
    path = tmp_path / "f.field"
    path.write_text(f"# field {g.header()}\n" + " ".join(tokens) + "\n", encoding="ascii")
    expected = np.array([float(t) for t in tokens])
    assert np.array_equal(read_field(path).values.view(np.int64), expected.view(np.int64))
    path.write_text(f"# field {g.header()}\n" + " ".join(tokens[:-1] + ["abc"]) + "\n",
                    encoding="ascii")
    with pytest.raises(ValueError, match=r"^could not convert string to float: 'abc'$"):
        read_field(path)


def test_write_field_formats_like_repr_17g(tmp_path, rng):
    g = Grid.over_rectangle(3, 4)
    extremes = [5e-324, 1.7976931348623157e308, -0.0, 1e-300, -5e-324,
                -1.7976931348623157e308, 0.1, 1.0 / 3.0]
    for values in (np.array(extremes + rng.normal(size=4).tolist()),
                   rng.normal(size=12) * 10.0 ** rng.uniform(-300, 300, size=12)):
        f = ScalarField(g, values)
        path = tmp_path / "f.field"
        write_field(f, path)
        body = path.read_text().split("\n", 1)[1]
        assert body == "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in f.mat)
        assert np.array_equal(read_field(path).values, values)


def _reference_field_text(f: ScalarField) -> bytes:
    """The field file of f as a plain per-value "%.17g" writer prints it."""
    line = " ".join(["%.17g"] * f.grid.nx) + "\n"
    body = "".join(line % tuple(row) for row in f.mat.tolist())
    return f"# field {f.grid.header()}\n{body}".encode("ascii")


def _assert_written_like_17g(tmp_path, grid: Grid, values: np.ndarray):
    f = ScalarField(grid, values)
    path = tmp_path / "f.field"
    write_field(f, path)
    assert path.read_bytes() == _reference_field_text(f)
    back = read_field(path)
    assert back.grid == grid
    assert np.array_equal(back.values.view(np.int64), f.values.view(np.int64))


def _signed(rng, values):
    return np.where(rng.random(len(values)) < 0.5, -1.0, 1.0) * np.asarray(values, dtype=float)


def _special_values() -> np.ndarray:
    """Zeros, subnormals, the ends of the double range, and powers of ten with
    their neighbours.  Sixteen of these lie below a power of ten and round up to
    it at 17 digits (the double nearest 1e-14 prints as "1e-14"); the doubles
    nearest 9.99999999999999995e k are the power itself or just below it."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    below = np.array([float(f"9.99999999999999995e{k}") for k in range(-30, 30)]
                     + [float(f"9.999999999999999949e{k}") for k in range(-30, 30)])
    subnormals = np.array([5e-324, 1e-323, 2.2250738585072009e-308, 1e-310, 4.9e-320])
    edges = np.array([0.0, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0 / 3.0])
    pool = np.concatenate([powers, below, subnormals, edges])
    below_max = pool[pool < np.finfo(float).max]
    pool = np.concatenate([pool, np.nextafter(pool, 0.0), np.nextafter(below_max, np.inf)])
    return np.concatenate([pool, -pool])


def _exact_ties(rng, count: int) -> np.ndarray:
    """Doubles x = q / 2^(k+1), q odd, with x * 10^k = q 5^k / 2 a half-integer in
    [10^16, 10^17): their 17-digit rounding is an exact tie, broken to even."""
    ties = []
    while len(ties) < count:
        k = int(rng.integers(1, 21))
        lo, hi = -(-2 * 10 ** 16 // 5 ** k), min(2 * 10 ** 17 // 5 ** k, 2 ** 53)
        q = int(rng.integers(lo, hi)) | 1
        x = q / 2 ** (k + 1)
        scaled = Decimal(x).scaleb(k)
        assert scaled % 1 == Decimal("0.5") and 10 ** 16 <= scaled < 10 ** 17
        ties.append(x)
    return _signed(rng, ties)


def test_write_field_matches_17g_on_a_million_values(tmp_path, rng):
    # magnitudes log-uniform over the whole double range, and as many over the
    # range "%.17g" prints in fixed notation and a decade either side of it
    g = Grid.over_rectangle(1000, 1000, x0=-3.0, y0=0.25)
    exponents = np.concatenate([rng.uniform(-320, 308, g.n_nodes // 2),
                                rng.uniform(-6, 18, g.n_nodes // 2)])
    _assert_written_like_17g(tmp_path, g, _signed(rng, 10.0 ** rng.permutation(exponents)))


def test_write_field_matches_17g_on_special_values_and_ties(tmp_path, rng):
    special = _special_values()
    _assert_written_like_17g(tmp_path, Grid.over_rectangle(special.size, 1), special)
    ties = _exact_ties(rng, 5000)
    _assert_written_like_17g(tmp_path, Grid.over_rectangle(100, 50), ties)


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 3), (7, 5), (300, 37), (3, 5000), (9000, 2)])
def test_write_field_matches_17g_across_chunk_edges(tmp_path, rng, nx, ny):
    # chunk edges fall mid-row and mid-grid; a 9000-node row outgrows a chunk
    pool = np.concatenate([_special_values(), _exact_ties(rng, 200), rng.normal(size=2000),
                           _signed(rng, 10.0 ** rng.uniform(-6, 18, 2000))])
    _assert_written_like_17g(tmp_path, Grid.over_rectangle(nx, ny), rng.choice(pool, nx * ny))


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 3), (7, 5), (40, 33)])
def test_face_energy_of_a_stack_matches_grad_norm_sq_bitwise(nx, ny, rng):
    # the face energy of each matrix of a random stack, summed from gradient
    g = Grid.over_rectangle(nx, ny, 1.3, 0.8)
    for U in rng.normal(size=(5, ny, nx)):
        u = ScalarField(g, U)
        F = gradient(u)
        assert grad_norm_sq(u) == g.cell_area * float((F.xfaces ** 2).sum()
                                                      + (F.yfaces ** 2).sum())


def test_gradient_energy_overflow_raises(rng):
    g = Grid.over_rectangle(4, 3)
    stack = rng.normal(size=(3, 3, 4))
    stack[1, 1, 2] = 1e200
    with pytest.raises(ValueError, match=r"gradient energy overflows a double "
                                         r"\(max \|u\| = 1e\+200\)"):
        grad_norm_sq(ScalarField(g, stack[1]))
    assert all(math.isfinite(grad_norm_sq(ScalarField(g, U))) for U in stack[[0, 2]])


def test_field_file_rejects_mismatched_count(tmp_path):
    path = tmp_path / "bad.field"
    path.write_text("# field 2 2 0 0 0.5 0.5\n1.0 2.0 3.0\n")
    with pytest.raises(ValueError, match="expected 4 values"):
        read_field(path)


def test_field_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.field"
    path.write_text("# notafield 2 2 0 0 0.5 0.5\n1 2 3 4\n")
    with pytest.raises(ValueError, match="malformed field header"):
        read_field(path)


def test_field_file_rejects_nonfinite_header(tmp_path):
    path = tmp_path / "bad.field"
    path.write_text("# field 2 2 nan 0 0.5 0.5\n1 2 3 4\n")
    with pytest.raises(ValueError, match="grid origin must be finite"):
        read_field(path)
    path.write_text("# field 2 2 0 0 inf 0.5\n1 2 3 4\n")
    with pytest.raises(ValueError, match="mesh widths must be positive and finite"):
        read_field(path)
