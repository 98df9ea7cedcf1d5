"""Bit-identity oracles for the one ghost-zero face stencil and the face means.

gradient, the gradient energy and the weighted Laplacian all difference
through grid._ghost_difference, one axis at a time. Each is compared here, bit
for bit (by tobytes, so that -0.0 and +0.0 differ), against a reference
written the way it was before the three were merged: the gradient on a
ghost-padded node matrix, the energy from its own np.diff face differences,
and the weighted Laplacian on an (ny, nx, k) block. The eigensolver's stacked
kernel is compared with the one-block operator. The face means of face_average
and of the stacked face weights are compared with the column-by-column
reference they replaced. The coefficient gradient and the eigen weight flux,
built on the same two axis kernels, are compared with the column-by-column
operators they replaced. The inputs spread over ten decades, and some carry
exact +-0.0 on the edge rows and columns, where the ghost differences and the
boundary face means act.
"""

import numpy as np
import pytest

from kirchlab.eigen import weight_flux
from kirchlab.grid import (Grid, ScalarField, _face_mean, _ghost_difference, coeff_node_gradient,
                           face_average, grad_norm_sq, gradient)
from kirchlab.linalg import _face_weights, _weighted_laplacian, apply_weighted_laplacian

from conftest import positive_random

# hx != hy on every grid
GRIDS = [(1, 1, 1.0, 0.7), (2, 3, 1.0, 1.3), (7, 5, 1.4, 0.9), (37, 20, 1.2, 0.8)]
GRID_IDS = ["1x1", "2x3", "7x5", "37x20"]


def ref_gradient(u: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    g = u.grid
    p = np.zeros((g.ny + 2, g.nx + 2))
    p[1:-1, 1:-1] = u.mat
    return (p[1:-1, 1:] - p[1:-1, :-1]) / g.hx, (p[1:, 1:-1] - p[:-1, 1:-1]) / g.hy


def ref_face_energy(grid: Grid, U: np.ndarray) -> np.ndarray:
    xf = np.diff(U, axis=-1, prepend=0.0, append=0.0) / grid.hx
    yf = np.diff(U, axis=-2, prepend=0.0, append=0.0) / grid.hy
    return grid.cell_area * ((xf ** 2).sum(axis=(-2, -1)) + (yf ** 2).sum(axis=(-2, -1)))


def ref_column_faces(U: np.ndarray) -> np.ndarray:
    """face_average on the faces between the columns of the node matrix U."""
    f = np.empty((U.shape[0], U.shape[1] + 1))
    f[:, 1:-1] = 0.5 * (U[:, :-1] + U[:, 1:])
    f[:, 0] = U[:, 0]
    f[:, -1] = U[:, -1]
    return f


def ref_face_average(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return ref_column_faces(U), ref_column_faces(U.T).T.copy()


def ref_column_gradient(U: np.ndarray, h: float) -> np.ndarray:
    """coeff_node_gradient across the columns of the node matrix U, spacing h."""
    gu = np.zeros(U.shape)
    if U.shape[1] > 1:
        d = (U[:, 1:] - U[:, :-1]) / h
        gu[:, 0] = d[:, 0]
        gu[:, -1] = d[:, -1]
        if U.shape[1] > 2:
            gu[:, 1:-1] = 0.5 * (d[:, :-1] + d[:, 1:])
    return gu


def ref_column_flux(U: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """weight_flux on the faces between the columns of the node matrix U, spacing h."""
    f = np.zeros((U.shape[0], U.shape[1] + 1))
    if U.shape[1] >= 2:
        cf = 0.5 * (U[:, 1:] + U[:, :-1])
        with np.errstate(over="ignore"):
            sq = (cf + alpha) ** 2
        f[:, 1:-1] = (U[:, 1:] - U[:, :-1]) / h / sq
        if U.shape[1] >= 3:
            f[:, 0] = 2.0 * f[:, 1] - f[:, 2]
            f[:, -1] = 2.0 * f[:, -2] - f[:, -3]
        else:
            f[:, 0] = f[:, 1]
            f[:, -1] = f[:, 1]
    return f


def ref_weighted_laplacian(w: ScalarField, X: np.ndarray) -> np.ndarray:
    g = w.grid
    wx, wy = ref_face_average(w.mat)
    U = X.reshape(g.ny, g.nx, -1)
    fx = (wx / g.hx ** 2)[:, :, None] * np.diff(U, axis=1, prepend=0.0, append=0.0)
    fy = (wy / g.hy ** 2)[:, :, None] * np.diff(U, axis=0, prepend=0.0, append=0.0)
    return -(np.diff(fx, axis=1) + np.diff(fy, axis=0)).reshape(X.shape)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def wide_values(rng, shape) -> np.ndarray:
    """Normal samples spread over ten decades, so that rounding differs from node to node."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-5, 5, size=shape)


def zero_edges(U: np.ndarray, axes=(-2, -1)) -> np.ndarray:
    """A copy of U whose node matrices, on the (y, x) axes, hold +0.0 and -0.0 in
    turn on their edge rows and columns."""
    V = np.moveaxis(U.copy(), axes, (-2, -1))
    zeros = np.where(np.arange(V.size).reshape(V.shape) % 2 == 0, 0.0, -0.0)
    for edge in (np.s_[..., 0, :], np.s_[..., -1, :], np.s_[..., :, 0], np.s_[..., :, -1]):
        V[edge] = zeros[edge]
    return np.moveaxis(V, (-2, -1), axes)


@pytest.mark.parametrize("nx,ny,lx,ly", GRIDS, ids=GRID_IDS)
def test_gradient_matches_padded_reference(nx, ny, lx, ly, rng):
    g = Grid.over_rectangle(nx, ny, lx, ly)
    for U in [*wide_values(rng, (3, ny, nx)), zero_edges(wide_values(rng, (ny, nx)))]:
        u = ScalarField(g, U)
        F, (xf, yf) = gradient(u), ref_gradient(u)
        assert same_bits(F.xfaces, xf)
        assert same_bits(F.yfaces, yf)


@pytest.mark.parametrize("nx,ny,lx,ly", GRIDS, ids=GRID_IDS)
def test_face_differences_of_a_stack_match_each_matrix(nx, ny, lx, ly, rng):
    g = Grid.over_rectangle(nx, ny, lx, ly)
    stack = np.concatenate((wide_values(rng, (2, ny, nx)),
                            zero_edges(wide_values(rng, (2, ny, nx)))))
    dx, dy = _ghost_difference(stack, -1), _ghost_difference(stack, -2)
    assert dx.shape == (4, ny, nx + 1) and dy.shape == (4, ny + 1, nx)
    for U, dxu, dyu in zip(stack, dx, dy):
        xf, yf = ref_gradient(ScalarField(g, U))
        assert same_bits(dxu / g.hx, xf)
        assert same_bits(dyu / g.hy, yf)
    # the same stack with the node axes first, as the weighted Laplacian holds a block
    last = np.moveaxis(stack, 0, -1)
    dx_last, dy_last = _ghost_difference(last, 1), _ghost_difference(last, 0)
    assert same_bits(np.moveaxis(dx_last, -1, 0), dx)
    assert same_bits(np.moveaxis(dy_last, -1, 0), dy)


@pytest.mark.parametrize("nx,ny,lx,ly", GRIDS, ids=GRID_IDS)
def test_face_energy_matches_reference(nx, ny, lx, ly, rng):
    g = Grid.over_rectangle(nx, ny, lx, ly)
    for U in [*wide_values(rng, (5, ny, nx)), zero_edges(wide_values(rng, (ny, nx)))]:
        assert grad_norm_sq(ScalarField(g, U)) == float(ref_face_energy(g, U))


@pytest.mark.parametrize("nx,ny,lx,ly", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("shape", ["vector", "n x 1", "n x 24"])
def test_weighted_laplacian_matches_reference(nx, ny, lx, ly, shape, rng):
    g = Grid.over_rectangle(nx, ny, lx, ly)
    w = positive_random(g, rng, wobble=0.8)
    X = wide_values(rng, {"vector": (g.n_nodes,), "n x 1": (g.n_nodes, 1),
                          "n x 24": (g.n_nodes, 24)}[shape])
    for V in (X, zero_edges(X.reshape(ny, nx, -1), axes=(0, 1)).reshape(X.shape)):
        assert same_bits(apply_weighted_laplacian(w, V), ref_weighted_laplacian(w, V))


def test_stacked_weighted_laplacian_matches_each_block(rng):
    # every grid up to 9x9: rows of 8 nodes once met a numpy kernel that wrote
    # wrong values into a strided output view
    for nx in range(1, 10):
        for ny in range(1, 10):
            g = Grid.over_rectangle(nx, ny, 1.0, 0.7)
            for k in (1, 2, 3):
                ws = [positive_random(g, rng, wobble=0.8) for _ in range(k)]
                for m in (1, 2, 3):
                    X = wide_values(rng, (k, g.n_nodes, m))
                    AX = _weighted_laplacian(g, *_face_weights(g, np.stack([w.values for w in ws])), X)
                    assert AX.shape == X.shape
                    for w, Xi, AXi in zip(ws, X, AX):
                        assert same_bits(AXi, apply_weighted_laplacian(w, Xi))
                        assert same_bits(AXi, ref_weighted_laplacian(w, Xi))


@pytest.mark.parametrize("nx,ny,lx,ly", GRIDS, ids=GRID_IDS)
def test_face_means_match_column_reference(nx, ny, lx, ly, rng):
    g = Grid.over_rectangle(nx, ny, lx, ly)
    stack = np.concatenate((wide_values(rng, (2, ny, nx)),
                            zero_edges(wide_values(rng, (2, ny, nx)))))
    fx, fy = _face_mean(stack, -1), _face_mean(stack, -2)
    wx, wy = _face_weights(g, stack.reshape(4, -1))
    for a in (fx, fy, wx, wy):
        assert a.flags.c_contiguous
    for U, fxu, fyu, wxu, wyu in zip(stack, fx, fy, wx, wy):
        xf, yf = ref_face_average(U)
        wf = face_average(ScalarField(g, U))
        assert same_bits(fxu, xf) and same_bits(fyu, yf)
        assert same_bits(wf.xfaces, xf) and same_bits(wf.yfaces, yf)
        assert same_bits(wxu[..., 0], xf / g.hx ** 2) and same_bits(wyu[..., 0], yf / g.hy ** 2)


# every node count per axis from 1 to 4 meets its own end-face rule
COEFF_SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 3), (4, 2), (5, 7),
                (8, 8), (33, 20), (64, 64)]
ALPHAS = [0.0, 1e-3, 0.5, 10.0, 1e150, 1e155, 1e300]


@pytest.mark.parametrize("nx,ny", COEFF_SHAPES, ids=[f"{nx}x{ny}" for nx, ny in COEFF_SHAPES])
@pytest.mark.parametrize("lx,ly", [(1.0, 0.7), (1.3, 1.0)], ids=["wide", "tall"])
def test_coefficient_operators_match_column_references(nx, ny, lx, ly, rng):
    # positive ratio fields over ten decades and smooth ones; past alpha ~ 1.3e154
    # the squared face value overflows and the flux is 0
    g = Grid.over_rectangle(nx, ny, lx, ly)
    for c in (ScalarField(g, 10.0 ** rng.uniform(-5, 5, size=g.n_nodes)),
              positive_random(g, rng, wobble=0.8)):
        gx, gy = coeff_node_gradient(c)
        for got, ref in ((gx, ref_column_gradient(c.mat, g.hx)),
                         (gy, ref_column_gradient(c.mat.T, g.hy).T.copy())):
            assert got.flags.c_contiguous and same_bits(got, ref)
        for alpha in ALPHAS:
            F = weight_flux(c, alpha)
            for got, ref in ((F.xfaces, ref_column_flux(c.mat, g.hx, alpha)),
                             (F.yfaces, ref_column_flux(c.mat.T, g.hy, alpha).T.copy())):
                assert got.flags.c_contiguous and same_bits(got, ref)
