"""Bit-identity oracles for the one ghost-zero face stencil.

gradient, the gradient energy and the weighted Laplacian all difference
through grid._face_differences.  Each is compared here, with np.array_equal,
against a reference written the way it was before the three were merged:
the gradient on a ghost-padded node matrix, the energy from its own np.diff
face differences, and the weighted Laplacian on an (ny, nx, k) block.  The
eigensolver's stacked kernel is compared with the one-block operator.
"""

import numpy as np
import pytest

from kirchlab.grid import (Grid, ScalarField, _face_differences, face_average, grad_norm_sq,
                           gradient)
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


def ref_weighted_laplacian(w: ScalarField, X: np.ndarray) -> np.ndarray:
    g = w.grid
    wf = face_average(w)
    U = X.reshape(g.ny, g.nx, -1)
    fx = (wf.xfaces / g.hx ** 2)[:, :, None] * np.diff(U, axis=1, prepend=0.0, append=0.0)
    fy = (wf.yfaces / g.hy ** 2)[:, :, None] * np.diff(U, axis=0, prepend=0.0, append=0.0)
    return -(np.diff(fx, axis=1) + np.diff(fy, axis=0)).reshape(X.shape)


def wide_values(rng, shape) -> np.ndarray:
    """Normal samples spread over ten decades, so that rounding differs from node to node."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-5, 5, size=shape)


@pytest.mark.parametrize("nx,ny,lx,ly", GRIDS, ids=GRID_IDS)
def test_gradient_matches_padded_reference(nx, ny, lx, ly, rng):
    g = Grid.over_rectangle(nx, ny, lx, ly)
    for _ in range(3):
        u = ScalarField(g, wide_values(rng, g.n_nodes))
        F, (xf, yf) = gradient(u), ref_gradient(u)
        assert np.array_equal(F.xfaces, xf)
        assert np.array_equal(F.yfaces, yf)


@pytest.mark.parametrize("nx,ny,lx,ly", GRIDS, ids=GRID_IDS)
def test_face_differences_of_a_stack_match_each_matrix(nx, ny, lx, ly, rng):
    g = Grid.over_rectangle(nx, ny, lx, ly)
    stack = wide_values(rng, (4, ny, nx))
    dx, dy = _face_differences(stack)
    assert dx.shape == (4, ny, nx + 1) and dy.shape == (4, ny + 1, nx)
    for U, dxu, dyu in zip(stack, dx, dy):
        xf, yf = ref_gradient(ScalarField(g, U))
        assert np.array_equal(dxu / g.hx, xf)
        assert np.array_equal(dyu / g.hy, yf)
    # the same stack with the node axes first, as the weighted Laplacian holds a block
    dx_last, dy_last = _face_differences(np.moveaxis(stack, 0, -1), axes=(0, 1))
    assert np.array_equal(np.moveaxis(dx_last, -1, 0), dx)
    assert np.array_equal(np.moveaxis(dy_last, -1, 0), dy)


@pytest.mark.parametrize("nx,ny,lx,ly", GRIDS, ids=GRID_IDS)
def test_face_energy_matches_reference(nx, ny, lx, ly, rng):
    g = Grid.over_rectangle(nx, ny, lx, ly)
    for U in wide_values(rng, (5, ny, nx)):
        assert grad_norm_sq(ScalarField(g, U)) == float(ref_face_energy(g, U))


@pytest.mark.parametrize("nx,ny,lx,ly", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("shape", ["vector", "n x 1", "n x 24"])
def test_weighted_laplacian_matches_reference(nx, ny, lx, ly, shape, rng):
    g = Grid.over_rectangle(nx, ny, lx, ly)
    w = positive_random(g, rng, wobble=0.8)
    X = wide_values(rng, {"vector": (g.n_nodes,), "n x 1": (g.n_nodes, 1),
                          "n x 24": (g.n_nodes, 24)}[shape])
    AX = apply_weighted_laplacian(w, X)
    assert AX.shape == X.shape
    assert np.array_equal(AX, ref_weighted_laplacian(w, X))


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
                    AX = _weighted_laplacian(g, *_face_weights(g, [face_average(w) for w in ws]), X)
                    assert AX.shape == X.shape
                    for w, Xi, AXi in zip(ws, X, AX):
                        assert np.array_equal(AXi, apply_weighted_laplacian(w, Xi))
                        assert np.array_equal(AXi, ref_weighted_laplacian(w, Xi))
