"""Linear algebra for the five-point operators.

Three pieces: an exact Dirichlet Poisson solve of one right-hand side by the
discrete sine transform; the weighted Dirichlet Laplacian
u -> -div(w grad u), applied matrix-free to a block of vectors; and the
principal eigenpair of the pencil A x = lambda diag(B) x (A that weighted
Laplacian, B an indefinite weight) by single-vector LOBPCG preconditioned
with the Poisson solve, in O(n) memory.  The dense reference the tests
compare that eigensolver against lives in tests/dense_oracle.py.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grid import Grid, KirchlabError, ScalarField, _face_differences, face_average

LOBPCG_TOL = 1e-10        # relative pencil residual of the principal pair
LOBPCG_MAX_ITER = 2000    # about 2x the most steps seen (1023, 64x64 bump at alpha = 5)


class NonPositiveWeight(KirchlabError):
    pass


class NoConvergence(KirchlabError):
    """Iteration budget exhausted; carries the last iterate when available."""

    def __init__(self, message: str, iterate=None, residual=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


class NotPositiveDefinite(KirchlabError):
    pass


class DimensionMismatch(KirchlabError):
    pass


@functools.lru_cache(maxsize=8)
def _sine_basis(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal symmetric sine matrix of the 1-D Dirichlet second difference
    on n interior nodes of width h, with its eigenvalues.

    Cached per (n, h) and shared by every caller, so both arrays are read-only.
    """
    k = np.arange(1, n + 1)
    S = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
    lam = 4.0 / h ** 2 * np.sin(0.5 * np.pi * k / (n + 1)) ** 2
    S.setflags(write=False)
    lam.setflags(write=False)
    return S, lam


def poisson_solve(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Exact solve of -Lap u = rhs for the five-point Dirichlet Laplacian.

    The sine basis diagonalizes both one-dimensional second differences, so
    u = Sy ((Sy F Sx) / (lam_y + lam_x)) Sx with F the (ny, nx) right-hand
    side (Buzbee, Golub & Nielson 1970).  Only roundoff separates the result
    from the exact discrete solution; a zero right-hand side gives exactly zero.
    rhs is one vector of length n.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (grid.n_nodes,):
        raise DimensionMismatch(f"rhs shape {rhs.shape} != ({grid.n_nodes},)")
    Sx, lx = _sine_basis(grid.nx, grid.hx)
    Sy, ly = _sine_basis(grid.ny, grid.hy)
    F = rhs.reshape(grid.ny, grid.nx)
    U = Sy @ ((Sy @ F @ Sx) / (ly[:, None] + lx[None, :])) @ Sx
    return U.reshape(-1)


def apply_weighted_laplacian(w: ScalarField, X: np.ndarray) -> np.ndarray:
    """u -> -divergence(w_face * gradient(u)) on a vector or each column of an (n, k) block.

    The face weights (face_average of w) multiply the ghost-zero face
    differences of grid.gradient, taken on an (ny, nx, k) stack.  This is the
    one five-point stencil of the weighted operator; lobpcg_smallest_positive
    calls its kernel with face weights built once.
    """
    g = w.grid
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[0] != g.n_nodes:
        raise DimensionMismatch(f"block shape {X.shape} != ({g.n_nodes},) or "
                                f"({g.n_nodes}, k)")
    return _weighted_laplacian(g, *_face_weights(w), X)


def _face_weights(w: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """The x- and y-face weights of the stencil, face_average(w) over hx^2 and hy^2,
    each with a trailing axis for the block columns."""
    g = w.grid
    wf = face_average(w)
    return (wf.xfaces / g.hx ** 2)[:, :, None], (wf.yfaces / g.hy ** 2)[:, :, None]


def _weighted_laplacian(g: Grid, wx: np.ndarray, wy: np.ndarray, X: np.ndarray) -> np.ndarray:
    """apply_weighted_laplacian with the face weights of _face_weights and no checks."""
    fx, fy = _face_differences(X.reshape(g.ny, g.nx, -1), axes=(0, 1))
    fx *= wx
    fy *= wy
    return -((fx[:, 1:] - fx[:, :-1]) + (fy[1:] - fy[:-1])).reshape(X.shape)


def _lowest_sine_mode(grid: Grid) -> np.ndarray:
    """The lowest Dirichlet sine mode of the five-point Laplacian, a positive n-vector."""
    Sx, _ = _sine_basis(grid.nx, grid.hx)
    Sy, _ = _sine_basis(grid.ny, grid.hy)
    return np.outer(Sy[:, 0], Sx[:, 0]).reshape(-1)


def lobpcg_smallest_positive(w: ScalarField, B: np.ndarray) -> tuple[float, np.ndarray, int, float]:
    """Least positive eigenvalue of A x = lambda diag(B) x, A the operator of
    apply_weighted_laplacian(w, .).

    Matrix-free single-vector LOBPCG (Knyazev 2001) for the largest eigenvalue
    mu of diag(B) x = mu A x, the extremal end of a definite pencil, and
    lambda = 1/mu.  The residual is preconditioned by the exact Poisson solve,
    spectrally equivalent to A within max(w)/min(w).  Each step normalizes the
    columns of [x, w, p] (Ritz vector, preconditioned residual, previous
    direction), orthonormalizes them by Householder QR, and does the
    Rayleigh-Ritz step on that 3-column basis with the Cholesky factor of its
    A-Gram matrix: one Poisson solve and three stencil applications, with the
    face weights of A built once per call.  The start vector is the lowest
    sine mode; nothing is random, so equal inputs give equal bits.

    Returns (lambda, x, iterations, residual): x is oriented to a positive
    entry sum (so a sign-definite x is positive) and residual is
    |A x - lambda B x| / |A x|, recomputed from x.  The iteration stops once
    the Ritz pair's residual reaches LOBPCG_TOL.
    Raises NonPositiveWeight when B is nowhere positive (no positive
    eigenvalue exists) and NoConvergence after LOBPCG_MAX_ITER steps.
    """
    g = w.grid
    B = np.asarray(B, dtype=float).reshape(-1)
    if B.size != g.n_nodes:
        raise DimensionMismatch(f"weight length {B.size} != grid nodes {g.n_nodes}")
    if float(w.values.min()) <= 0.0:
        raise NonPositiveWeight(f"min weight {w.values.min():.6g} <= 0")
    if float(B.max()) <= 0.0:
        raise NonPositiveWeight("pencil weight is nowhere positive: no positive eigenvalue")
    wx, wy = _face_weights(w)
    b = B[:, None]

    S = _lowest_sine_mode(g)[:, None]
    rel = math.inf
    for iteration in range(1, LOBPCG_MAX_ITER + 1):
        Q = np.linalg.qr(S)[0]
        AQ = _weighted_laplacian(g, wx, wy, Q)
        try:
            L = np.linalg.cholesky(Q.T @ AQ)
        except np.linalg.LinAlgError as err:
            raise NotPositiveDefinite(f"Cholesky of the Gram matrix failed: {err}") from None
        Linv = np.linalg.inv(L)
        C = Linv @ (Q.T @ (b * Q)) @ Linv.T
        mus, Z = np.linalg.eigh(0.5 * (C + C.T))
        mu, y = mus[-1], Linv.T @ Z[:, -1]
        x, ax = Q @ y, AQ @ y
        r = B * x - mu * ax
        if mu > 0.0:
            rel = float(np.linalg.norm(r) / (mu * np.linalg.norm(ax)))
            if rel <= LOBPCG_TOL:
                break
        columns = [x, poisson_solve(g, r)]
        if Q.shape[1] > 1:
            # p: the part of the new Ritz vector outside the span of the old one
            columns.append(Q[:, 1:] @ y[1:])
        S = np.column_stack(columns)
        # unit columns: at large alpha |B| ~ 1e-9, and residual directions that
        # small would be swamped by the Ritz vector in the QR
        norms = np.linalg.norm(S, axis=0)
        S = S / np.where(norms > 0.0, norms, 1.0)
    else:
        raise NoConvergence(f"LOBPCG: residual {rel:.3e} after {LOBPCG_MAX_ITER} "
                            f"iterations", iterate=x, residual=rel)

    lam = 1.0 / float(mu)
    if float(x.sum()) <= 0.0:
        x = -x
    Ax = _weighted_laplacian(g, wx, wy, x)
    return lam, x, iteration, float(np.linalg.norm(Ax - lam * B * x) / np.linalg.norm(Ax))
