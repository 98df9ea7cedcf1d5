"""Linear algebra for the five-point operators.

Two pieces: an exact Dirichlet Poisson solve by the discrete sine transform,
and, for the weighted eigenproblem, dense assembly of weighted Dirichlet
Laplacians with a generalized eigensolver for pencils A x = lambda diag(B) x
with A positive definite and B possibly indefinite (reduce with the Cholesky
factor of A and invert the spectrum, which keeps the indefinite weight on the
harmless side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarField, face_average

DENSE_MAX_NODES = 10_000


class NonPositiveWeight(Exception):
    pass


class NoConvergence(Exception):
    """Iteration budget exhausted; carries the last iterate when available."""

    def __init__(self, message: str, iterate=None, residual=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


class NotPositiveDefinite(Exception):
    pass


class DimensionMismatch(Exception):
    pass


@dataclass
class Pencil:
    """Pair (A, B) for A x = lambda diag(B) x; A dense SPD, B any sign pattern."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=float).reshape(-1)
        if self.B.size != self.A.shape[0]:
            raise DimensionMismatch(
                f"weight length {self.B.size} != matrix dimension {self.A.shape[0]}")


def _sine_basis(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal symmetric sine matrix of the 1-D Dirichlet second difference
    on n interior nodes of width h, with its eigenvalues."""
    k = np.arange(1, n + 1)
    S = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
    lam = 4.0 / h ** 2 * np.sin(0.5 * np.pi * k / (n + 1)) ** 2
    return S, lam


def poisson_solve(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Exact solve of -Lap u = rhs for the five-point Dirichlet Laplacian.

    The sine basis diagonalizes both one-dimensional second differences, so
    u = Sy ((Sy F Sx) / (lam_y + lam_x)) Sx with F the (ny, nx) right-hand
    side (Buzbee, Golub & Nielson 1970).  Only roundoff separates the result
    from the exact discrete solution; a zero right-hand side gives exactly zero.
    """
    rhs = np.asarray(rhs, dtype=float).reshape(-1)
    if rhs.size != grid.n_nodes:
        raise DimensionMismatch(f"rhs length {rhs.size} != grid nodes {grid.n_nodes}")
    Sx, lx = _sine_basis(grid.nx, grid.hx)
    Sy, ly = _sine_basis(grid.ny, grid.hy)
    F = rhs.reshape(grid.ny, grid.nx)
    return (Sy @ ((Sy @ F @ Sx) / (ly[:, None] + lx[None, :])) @ Sx).reshape(-1)


def assemble_weighted_laplacian(w: ScalarField, grid: Grid | None = None) -> np.ndarray:
    """Dense matrix of u -> -divergence(w_face * gradient(u)) on the interior nodes.

    Face weights are arithmetic means of the two adjacent node values of w;
    boundary faces take the bare interior node value.  The result is exactly
    symmetric and, for w > 0, positive definite.  Grids above 10000 nodes are
    refused before the n x n array is allocated.
    """
    g = grid if grid is not None else w.grid
    if g != w.grid:
        raise DimensionMismatch("weight field lives on a different grid")
    if float(w.values.min()) <= 0.0:
        raise NonPositiveWeight(f"min weight {w.values.min():.6g} <= 0")
    n = g.n_nodes
    if n > DENSE_MAX_NODES:
        raise DimensionMismatch(f"dense operator limited to n <= {DENSE_MAX_NODES}, got {n}")

    wf = face_average(w)
    wE = wf.xfaces[:, 1:]   # (ny, nx) weight on the face right of each node
    wW = wf.xfaces[:, :-1]
    wN = wf.yfaces[1:, :]
    wS = wf.yfaces[:-1, :]

    idx = np.arange(n).reshape(g.ny, g.nx)
    hx2, hy2 = g.hx ** 2, g.hy ** 2

    A = np.zeros((n, n))
    A[idx, idx] = (wE + wW) / hx2 + (wN + wS) / hy2
    A[idx[:, :-1], idx[:, 1:]] = -wE[:, :-1] / hx2   # east neighbour
    A[idx[:, 1:], idx[:, :-1]] = -wW[:, 1:] / hx2    # west neighbour
    A[idx[:-1, :], idx[1:, :]] = -wN[:-1, :] / hy2   # north neighbour
    A[idx[1:, :], idx[:-1, :]] = -wS[1:, :] / hy2    # south neighbour
    return A


def pencil_eigensolve(P: Pencil) -> list[tuple[float, np.ndarray]]:
    """Full real spectrum of A x = lambda diag(B) x, sorted by eigenvalue.

    Dense desk-scale path: with A = L L^T the substitution y = L^T x turns the
    pencil into the symmetric problem (L^-1 diag(B) L^-T) y = (1/lambda) y, so
    the indefinite weight never has to be factored.  Eigenvalues mu of that
    matrix below the roundoff floor correspond to lambda = infinity and are
    dropped.  Eigenvectors come back in original coordinates, normalized to
    |x^T diag(B) x| = 1 where that quadratic form is nonzero.
    """
    n = P.A.shape[0]
    if n > DENSE_MAX_NODES:
        raise DimensionMismatch(f"dense eigensolve limited to n <= {DENSE_MAX_NODES}, got {n}")
    try:
        L = np.linalg.cholesky(P.A)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(f"Cholesky failed: {err}") from None

    Z = np.linalg.solve(L, np.diag(P.B))
    C = np.linalg.solve(L, Z.T)
    C = 0.5 * (C + C.T)
    mu, Y = np.linalg.eigh(C)
    X = np.linalg.solve(L.T, Y)

    floor = n * np.finfo(float).eps * max(float(np.abs(mu).max()), 1e-300)
    pairs = []
    for k in range(n):
        if abs(mu[k]) <= floor:
            continue
        lam = 1.0 / mu[k]
        v = X[:, k]
        q = float(v @ (P.B * v))
        if abs(q) > 0.0:
            v = v / np.sqrt(abs(q))
        pairs.append((float(lam), v))
    pairs.sort(key=lambda t: t[0])
    return pairs


def smallest_positive(P: Pencil) -> tuple[float, np.ndarray] | None:
    """Least positive eigenvalue of the pencil with its eigenvector.

    None when the weight is nowhere positive (no positive eigenvalue can
    exist).  The eigenvector is flipped so its maximum entry is positive.
    """
    if float(P.B.max()) <= 0.0:
        return None
    positives = [(lam, v) for lam, v in pencil_eigensolve(P) if lam > 0.0]
    if not positives:
        return None
    lam, v = positives[0]
    if float(v.max()) <= 0.0:
        v = -v
    return lam, v
