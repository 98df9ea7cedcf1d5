import numpy as np
import pytest

from kirchlab.grid import Grid, ScalarField


def unit_grid(n: int) -> Grid:
    return Grid.over_rectangle(n, n)


def field_from(grid: Grid, fn) -> ScalarField:
    """Sample a python function fn(X, Y) of coordinate meshgrids."""
    X, Y = grid.node_coords()
    return ScalarField(grid, np.asarray(fn(X, Y), dtype=float).reshape(-1))


def smooth_random(grid: Grid, rng: np.random.Generator, modes: int = 3,
                  amp: float = 1.0) -> ScalarField:
    """Random low-frequency combination of Dirichlet sine modes."""
    X, Y = grid.node_coords()
    sx = (X - grid.x0) / grid.lx
    sy = (Y - grid.y0) / grid.ly
    vals = np.zeros_like(X)
    for k in range(1, modes + 1):
        for l in range(1, modes + 1):
            vals += rng.normal() / (k * l) * np.sin(k * np.pi * sx) * np.sin(l * np.pi * sy)
    return ScalarField(grid, (amp * vals).reshape(-1))


def sign_changing(grid: Grid, rng: np.random.Generator) -> ScalarField:
    """A smooth forcing term guaranteed to take both signs."""
    for _ in range(100):
        f = smooth_random(grid, rng)
        if f.values.min() < -1e-6 and f.values.max() > 1e-6:
            return f
    raise AssertionError("could not draw a sign-changing field")


def positive_random(grid: Grid, rng: np.random.Generator, base: float = 1.0,
                    wobble: float = 0.4) -> ScalarField:
    """Random smooth strictly positive coefficient field."""
    X, Y = grid.node_coords()
    sx = (X - grid.x0) / grid.lx
    sy = (Y - grid.y0) / grid.ly
    vals = base * np.ones_like(X)
    for k in range(1, 3):
        for l in range(1, 3):
            vals += wobble * rng.uniform(-1, 1) / (k + l) \
                * np.sin(k * np.pi * sx) * np.sin(l * np.pi * sy)
    vals = np.maximum(vals, 0.2 * base)
    return ScalarField(grid, vals.reshape(-1))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


# Eight-strip coefficients on a 64x1 grid (node i in strip i // 8) with three
# fixed points, near s = 0.01460, 0.02293 and 0.06931.
THREE_ROOT_STRIPS = {
    "a": [1350.99, 505.324, 0.00203151, 2.23609, 0.0149147, 31.4686, 2.2886, 22.8997],
    "b": [1.21559, 2973.66, 9.57186, 0.00288197, 147.095, 0.22566, 147.42, 3.07095],
    "h": [-0.4991, -12.8058, -0.591349, 15.845, -14.2632, 153.657, -9.63217, -2.21766e-05],
}


def three_root_fields() -> dict:
    """The coefficients a, b, h of the three-root problem as fields."""
    grid = Grid.over_rectangle(64, 1)
    strip = np.arange(64) // 8
    return {k: ScalarField(grid, np.array(v)[strip]) for k, v in THREE_ROOT_STRIPS.items()}
