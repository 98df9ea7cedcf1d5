import math

import numpy as np
import pytest

from kirchlab import linalg
from kirchlab.grid import (FaceField, Grid, ScalarField, divergence,
                           dirichlet_lambda1, gradient, laplacian)
from kirchlab.grid import KirchlabError
from kirchlab.linalg import (NoConvergence, apply_weighted_laplacian, lobpcg_smallest_positive,
                             _lobpcg_stack, _sine_basis, poisson_solve)

import dense_oracle
from conftest import field_from, positive_random, unit_grid
from dense_oracle import (Pencil, assemble_weighted_laplacian, pencil_eigensolve,
                          smallest_positive)


def test_assembly_row_sums_and_symmetry(rng):
    g = unit_grid(6)
    w = positive_random(g, rng)
    A = assemble_weighted_laplacian(w)
    assert np.abs(A - A.T).max() == 0.0
    ones = assemble_weighted_laplacian(ScalarField.full(g, 1.0))
    row_sums = ones.sum(axis=1).reshape(g.ny, g.nx)
    assert row_sums[1:-1, 1:-1] == pytest.approx(np.zeros((4, 4)), abs=1e-12)


@pytest.mark.parametrize("nx,ny,lx,ly", [(9, 9, 1.0, 1.0), (1, 1, 2.0, 0.7),
                                         (9, 6, 2.0, 0.7), (13, 7, 2.0, 0.7)])
def test_assembly_matches_grid_operators(nx, ny, lx, ly, rng):
    # independent reference: grid.gradient/divergence with hand-built face weights
    g = Grid.over_rectangle(nx, ny, lx, ly)
    w = positive_random(g, rng)
    A = assemble_weighted_laplacian(w)
    X = rng.normal(size=(g.n_nodes, 3))
    wf_x = np.empty((g.ny, g.nx + 1))
    wf_y = np.empty((g.ny + 1, g.nx))
    W = w.mat
    wf_x[:, 1:-1] = 0.5 * (W[:, :-1] + W[:, 1:])
    wf_x[:, 0], wf_x[:, -1] = W[:, 0], W[:, -1]
    wf_y[1:-1, :] = 0.5 * (W[:-1, :] + W[1:, :])
    wf_y[0, :], wf_y[-1, :] = W[0, :], W[-1, :]
    ref = np.empty_like(X)
    for k in range(X.shape[1]):
        F = gradient(ScalarField(g, X[:, k]))
        ref[:, k] = -divergence(FaceField(g, wf_x * F.xfaces, wf_y * F.yfaces)).values
    assert A @ X[:, 0] == pytest.approx(ref[:, 0], rel=1e-12, abs=1e-12)
    assert apply_weighted_laplacian(w, X) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_assembly_rejects_nonpositive_weight():
    g = unit_grid(3)
    with pytest.raises(ValueError, match=r"^min weight 0 <= 0$"):
        assemble_weighted_laplacian(ScalarField.zeros(g))


def test_assembly_refuses_oversized_grid():
    # refused before the dense 10100 x 10100 array is allocated
    g = Grid.over_rectangle(101, 100)
    with pytest.raises(ValueError, match=r"^dense operator limited to n <= 10000, got 10100$"):
        assemble_weighted_laplacian(ScalarField.full(g, 1.0))


@pytest.mark.parametrize("nx,ny,k", [(1, 1, 3), (9, 6, 1), (13, 7, 5)])
def test_stencil_matches_dense_assembly(nx, ny, k, rng):
    g = Grid.over_rectangle(nx, ny, 2.0, 0.7)
    w = positive_random(g, rng)
    A = assemble_weighted_laplacian(w)
    X = rng.normal(size=(g.n_nodes, k))
    AX = apply_weighted_laplacian(w, X)
    assert AX.shape == X.shape
    assert np.abs(AX - A @ X).max() <= 1e-12 * np.abs(A @ X).max()
    Ax = apply_weighted_laplacian(w, X[:, 0])
    assert Ax.shape == (g.n_nodes,)
    assert np.abs(Ax - AX[:, 0]).max() <= 1e-12 * np.abs(Ax).max()


def test_stencil_dimension_mismatch():
    g = unit_grid(3)
    with pytest.raises(ValueError, match=r"^block shape \(8, 2\) != \(9,\) or \(9, k\)$"):
        apply_weighted_laplacian(ScalarField.full(g, 1.0), np.ones((8, 2)))


def test_smallest_eigenvalue_analytic_3x3():
    g = unit_grid(3)
    A = assemble_weighted_laplacian(ScalarField.full(g, 1.0))
    lam, v = smallest_positive(Pencil(A, np.ones(9)))
    ref = 128.0 * math.sin(math.pi / 8) ** 2
    assert lam == pytest.approx(ref, rel=1e-10)
    assert (v > 0).all()


def test_poisson_recovers_sine_mode_rectangular():
    # hx != hy: 9 nodes over width 2, 6 nodes over height 0.7
    g = Grid.over_rectangle(9, 6, 2.0, 0.7)
    assert g.hx != g.hy
    k, l = 3, 2
    X, Y = g.node_coords()
    mode = ScalarField(g, (np.sin(k * np.pi * X / g.lx)
                           * np.sin(l * np.pi * Y / g.ly)).reshape(-1))
    lam = (4.0 / g.hx ** 2 * math.sin(k * math.pi * g.hx / (2 * g.lx)) ** 2
           + 4.0 / g.hy ** 2 * math.sin(l * math.pi * g.hy / (2 * g.ly)) ** 2)
    u = poisson_solve(g, lam * mode.values)
    assert np.abs(u - mode.values).max() <= 1e-12


@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 6), (13, 13), (37, 20)])
def test_poisson_relative_residual(nx, ny, rng):
    g = Grid.over_rectangle(nx, ny, 1.0 + 0.1 * nx, 1.0)
    rhs = rng.normal(size=g.n_nodes)
    u = ScalarField(g, poisson_solve(g, rhs))
    assert np.linalg.norm(-laplacian(u).values - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_poisson_takes_one_right_hand_side(rng):
    g = Grid.over_rectangle(11, 6, 1.3, 1.0)
    with pytest.raises(ValueError, match=r"^rhs shape \(66, 2\) != \(66,\)$"):
        poisson_solve(g, rng.normal(size=(g.n_nodes, 2)))


def test_sine_basis_is_cached_and_read_only():
    g = unit_grid(7)
    basis = _sine_basis(g)
    assert all(a is b for a, b in zip(_sine_basis(Grid.over_rectangle(7, 7)), basis))
    Sy, Sx, ly, lx, weight = basis
    assert Sy is Sx and ly is lx
    for a in basis:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0
    expected = g.cell_area / (ly[:, None] + lx[None, :])
    assert np.array_equal(weight.view(np.int64), expected.view(np.int64))
    Sy, Sx, ly, lx, weight = _sine_basis(Grid.over_rectangle(7, 4, 1.0, 2.0))
    assert Sy.shape == (4, 4) and Sx.shape == (7, 7) and weight.shape == (4, 7)


def test_poisson_zero_rhs():
    g = unit_grid(4)
    assert (poisson_solve(g, np.zeros(16)) == 0.0).all()


def test_poisson_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^rhs shape \(3,\) != \(4,\)$"):
        poisson_solve(unit_grid(2), np.ones(3))


def test_poisson_analytic_oracle():
    g = unit_grid(64)
    rhs = field_from(g, lambda X, Y: 2 * np.pi ** 2 * np.sin(np.pi * X) * np.sin(np.pi * Y))
    x = poisson_solve(g, rhs.values)
    exact = field_from(g, lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y))
    assert np.abs(x - exact.values).max() <= 2e-3


def test_pencil_identity_scaled():
    A = np.diag([1.0, 1.0, 1.0, 1.0])
    pairs = pencil_eigensolve(Pencil(A, 2.0 * np.ones(4)))
    assert len(pairs) == 4
    for lam, _ in pairs:
        assert lam == pytest.approx(0.5, rel=1e-12)


def test_pencil_negative_weight_gives_negative_spectrum():
    g = unit_grid(4)
    A = assemble_weighted_laplacian(ScalarField.full(g, 1.0))
    pairs = pencil_eigensolve(Pencil(A, -np.ones(16)))
    assert pairs and all(lam < 0 for lam, _ in pairs)
    assert smallest_positive(Pencil(A, -np.ones(16))) is None


def test_pencil_requires_positive_definite():
    A = np.diag([1.0, -1.0])
    with pytest.raises(KirchlabError, match=r"^Cholesky failed: "):
        pencil_eigensolve(Pencil(A, np.ones(2)))


def test_pencil_dimension_mismatch():
    A = np.diag([1.0, 2.0])
    with pytest.raises(ValueError, match=r"^weight length 3 != matrix dimension 2$"):
        Pencil(A, np.ones(3))


def test_pencil_residuals_small():
    g = unit_grid(6)
    A = assemble_weighted_laplacian(ScalarField.full(g, 1.0))
    X, Y = g.node_coords()
    B = (X - 0.45).reshape(-1)  # indefinite weight
    for lam, v in pencil_eigensolve(Pencil(A, B)):
        r = np.linalg.norm(A @ v - lam * B * v)
        assert r <= 1e-8 * np.linalg.norm(A @ v)


def test_smallest_positive_indefinite_weight_sign_definite(rng):
    # weight with both signs: the principal eigenvector still does not change sign
    from kirchlab.eigen import eigen_weight
    g = unit_grid(12)
    # downward bump: positive Laplacian flips the weight negative inside while
    # the gradient term keeps it positive near the edges
    c = field_from(g, lambda X, Y: 2.0 - 0.8 * np.sin(np.pi * X) * np.sin(np.pi * Y))
    alpha = 0.1
    m = eigen_weight(c, alpha)
    assert m.values.min() < 0 < m.values.max()
    w = ScalarField(g, 1.0 / (c.values + alpha))
    A = g.cell_area * assemble_weighted_laplacian(w)
    lam, v = smallest_positive(Pencil(A, g.cell_area * m.values))
    assert lam > 0
    assert float(v.min() * v.max()) >= -1e-8 * float(v.max()) ** 2


def test_smallest_positive_laplacian_first_mode():
    g = unit_grid(7)
    A = assemble_weighted_laplacian(ScalarField.full(g, 1.0))
    lam, v = smallest_positive(Pencil(A, np.ones(g.n_nodes)))
    assert lam == pytest.approx(dirichlet_lambda1(g), rel=1e-10)
    assert (v > 0).all()


def test_smallest_positive_orients_by_entry_sum(monkeypatch):
    # a negative sign-definite eigenvector whose largest entry is a roundoff-level
    # positive value: the orientation must still make it positive
    v = np.array([-1.0, -2.0, 1e-17, -0.5])
    monkeypatch.setattr(dense_oracle, "pencil_eigensolve",
                        lambda P: [(-3.0, np.ones(4)), (2.0, v)])
    lam, u = smallest_positive(Pencil(np.eye(4), np.ones(4)))
    assert lam == 2.0
    assert (u == -v).all()


def dense_smallest_positive(w, B):
    return smallest_positive(Pencil(assemble_weighted_laplacian(w), B))


def test_lobpcg_analytic_3x3():
    g = unit_grid(3)
    lam, v, iterations, residual = lobpcg_smallest_positive(ScalarField.full(g, 1.0), np.ones(9))
    assert lam == pytest.approx(128.0 * math.sin(math.pi / 8) ** 2, rel=1e-12)
    assert (v > 0).all()
    assert iterations >= 1 and residual <= 1e-10


def test_lobpcg_reraises_the_stack_failure(monkeypatch):
    failure = NoConvergence("LOBPCG stalled")
    monkeypatch.setattr(linalg, "_lobpcg_stack", lambda g, W, B, where: [failure])
    g = unit_grid(3)
    with pytest.raises(NoConvergence) as err:
        lobpcg_smallest_positive(ScalarField.full(g, 1.0), np.ones(9))
    assert err.value is failure


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("bad", ["w", "B"])
def test_lobpcg_refuses_non_finite_weights(bad, value):
    # a ScalarField is finite when made, but its values can be written after
    g = unit_grid(3)
    w, B = ScalarField.full(g, 1.0), np.ones(9)
    (w.values if bad == "w" else B)[4] = value
    with pytest.raises(ValueError, match=r"^pencil weights w and B must be finite$"):
        lobpcg_smallest_positive(w, B)


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 3), (5, 4)])
def test_lobpcg_grids_smaller_than_the_block(nx, ny, rng):
    # tiny grids, down to a single node, where the first Ritz pair is exact
    g = Grid.over_rectangle(nx, ny, 1.0, 1.5)
    w = positive_random(g, rng)
    B = rng.uniform(-0.5, 1.0, size=g.n_nodes)
    B[0] = 1.0
    lam, v, _, residual = lobpcg_smallest_positive(w, B)
    ref, _ = dense_smallest_positive(w, B)
    assert lam == pytest.approx(ref, rel=1e-10)
    assert residual <= 1e-10


def test_lobpcg_laplacian_first_mode_rectangular():
    g = Grid.over_rectangle(23, 17, 2.0, 1.0)
    lam, v, _, _ = lobpcg_smallest_positive(ScalarField.full(g, 1.0), np.ones(g.n_nodes))
    assert lam == pytest.approx(dirichlet_lambda1(g), rel=1e-10)
    assert (v > 0).all()


def test_lobpcg_indefinite_weight_matches_dense(rng):
    g = Grid.over_rectangle(14, 9, 1.0, 0.8)
    w = positive_random(g, rng)
    X, Y = g.node_coords()
    B = (X - 0.45).reshape(-1)
    lam, v, _, residual = lobpcg_smallest_positive(w, B)
    ref, v_ref = dense_smallest_positive(w, B)
    assert lam == pytest.approx(ref, rel=1e-10)
    assert residual <= 1e-10
    A = assemble_weighted_laplacian(w)
    assert np.linalg.norm(A @ v - lam * B * v) <= 1e-10 * np.linalg.norm(A @ v)
    assert float(v.min()) >= -1e-8 * float(v.max())


def test_lobpcg_rejects_bad_input():
    g = unit_grid(4)
    with pytest.raises(ValueError, match=r"^pencil weight is nowhere positive: no positive "):
        lobpcg_smallest_positive(ScalarField.full(g, 1.0), -np.ones(16))
    with pytest.raises(ValueError, match=r"^min weight 0 <= 0$"):
        lobpcg_smallest_positive(ScalarField.zeros(g), np.ones(16))
    with pytest.raises(ValueError, match=r"^weight length 15 != grid nodes 16$"):
        lobpcg_smallest_positive(ScalarField.full(g, 1.0), np.ones(15))


def random_pencils(g, rng, k):
    ws = [positive_random(g, rng, wobble=0.8) for _ in range(k)]
    X, Y = g.node_coords()
    B = np.stack([(X - 0.2 - 0.2 * i).reshape(-1) for i in range(k)])
    return ws, np.stack([w.values for w in ws]), B


def same_bits(a, b):
    lam, x, iterations, residual = a
    return (lam, x.tobytes(), iterations, residual) == (b[0], b[1].tobytes(), b[2], b[3])


def test_lobpcg_stack_gives_each_pencil_its_bits_alone(rng):
    g = Grid.over_rectangle(13, 9, 1.0, 0.8)
    ws, W, B = random_pencils(g, rng, 3)
    stacked = _lobpcg_stack(g, W, B, ["a", "b", "c"])
    for i, (w, out) in enumerate(zip(ws, stacked)):
        assert same_bits(out, lobpcg_smallest_positive(w, B[i]))
        assert same_bits(out, _lobpcg_stack(g, W[i:i + 1], B[i:i + 1], [""])[0])
        assert out[0] == pytest.approx(dense_smallest_positive(w, B[i])[0], rel=1e-10)
    # the pencils converge at different steps, so each left the stack on its own
    assert len({out[2] for out in stacked}) > 1


def test_lobpcg_stack_failures_stay_with_their_pencil(rng, monkeypatch):
    g = Grid.over_rectangle(13, 9, 1.0, 0.8)
    ws, W, B = random_pencils(g, rng, 3)
    monkeypatch.setattr(linalg, "LOBPCG_MAX_ITER", 2)
    outs = _lobpcg_stack(g, W, B, [" at a", " at b", " at c"])
    for out, name in zip(outs, "abc"):
        assert isinstance(out, NoConvergence)
        assert str(out).endswith(f"after 2 iterations at {name}")
        assert out.iterate.shape == (g.n_nodes,)


def test_rayleigh_ritz_drops_a_numerically_null_direction(rng):
    # [s1, s2, s1 + 1e-13 noise] spans [s1, s2] up to roundoff, so its Ritz
    # value is theirs; noise of 1e-9 would move the kept span, and mu, by ~1e-9
    g = Grid.over_rectangle(13, 9, 1.0, 0.8)
    ws, W, B = random_pencils(g, rng, 2)
    wx, wy = linalg._face_weights(g, W)
    s1, s2 = rng.normal(size=(2, 2, g.n_nodes))
    S = np.stack([s1, s2, s1 + 1e-13 * rng.normal(size=s1.shape)], axis=2)
    S /= np.linalg.norm(S, axis=1)[:, None, :]
    buffers = linalg._stencil_buffers(g, 2, 3)
    mu, x, ax, p = linalg._rayleigh_ritz(g, wx, wy, B, S, buffers)
    assert np.isfinite(x).all() and np.isfinite(ax).all() and np.isfinite(p).all()
    assert mu == pytest.approx(np.einsum("kn,kn->k", x, B * x) / np.einsum("kn,kn->k", x, ax),
                               rel=1e-12)
    two = linalg._rayleigh_ritz(g, wx, wy, B, S[:, :, :2], buffers)[0]
    assert mu == pytest.approx(two, rel=1e-10)


def test_lobpcg_stack_steps_share_the_stencil_buffers(rng, monkeypatch):
    g = Grid.over_rectangle(13, 9, 1.0, 0.8)
    ws, W, B = random_pencils(g, rng, 3)
    outputs, apply = [], linalg._weighted_laplacian

    def recorded(*args):
        outputs.append(apply(*args))
        return outputs[-1]

    monkeypatch.setattr(linalg, "_weighted_laplacian", recorded)
    _lobpcg_stack(g, W, B, ["", "", ""])
    assert len(outputs) > 2 and np.shares_memory(outputs[0], outputs[1])
