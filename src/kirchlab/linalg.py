"""Linear algebra for the five-point operators.

Three pieces: an exact Dirichlet Poisson solve by the discrete sine transform;
the weighted Dirichlet Laplacian u -> -div(w grad u), applied matrix-free to a
block of vectors; and the principal eigenpair of the pencil
A x = lambda diag(B) x (A that weighted Laplacian, B an indefinite weight) by
block LOBPCG preconditioned with the Poisson solve, in O(n) memory.

The dense assembly and the dense generalized eigensolver (reduce with the
Cholesky factor of A and invert the spectrum, which keeps the indefinite
weight on the harmless side) are kept as the small-grid reference that the
tests compare the iterative solver against; no other module calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarField, face_average

DENSE_MAX_NODES = 10_000

LOBPCG_BLOCK = 8          # holds the four-fold clusters of edge-localized modes
LOBPCG_TOL = 1e-10        # relative pencil residual of the principal pair
LOBPCG_MAX_ITER = 2000    # about 8x the most steps seen (244, 64x64 bump)


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
    rhs is one vector of length n or an (n, k) block solved column by column.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != grid.n_nodes:
        raise DimensionMismatch(f"rhs shape {rhs.shape} != ({grid.n_nodes},) or "
                                f"({grid.n_nodes}, k)")
    Sx, lx = _sine_basis(grid.nx, grid.hx)
    Sy, ly = _sine_basis(grid.ny, grid.hy)
    batch = rhs.shape[1:]
    F = rhs.T.reshape(batch + (grid.ny, grid.nx))
    U = Sy @ ((Sy @ F @ Sx) / (ly[:, None] + lx[None, :])) @ Sx
    return U.reshape(batch + (grid.n_nodes,)).T


def apply_weighted_laplacian(w: ScalarField, X: np.ndarray) -> np.ndarray:
    """Matrix-free assemble_weighted_laplacian(w) @ X for a vector or an (n, k) block.

    The same face weights (face_average of w) multiply the face differences,
    with the zero Dirichlet ghosts outside the boundary; the products agree
    with the dense matrix to roundoff.
    """
    g = w.grid
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[0] != g.n_nodes:
        raise DimensionMismatch(f"block shape {X.shape} != ({g.n_nodes},) or "
                                f"({g.n_nodes}, k)")
    wf = face_average(w)
    U = X.reshape(g.ny, g.nx, -1)
    fx = (wf.xfaces / g.hx ** 2)[:, :, None] * np.diff(U, axis=1, prepend=0.0, append=0.0)
    fy = (wf.yfaces / g.hy ** 2)[:, :, None] * np.diff(U, axis=0, prepend=0.0, append=0.0)
    return -(np.diff(fx, axis=1) + np.diff(fy, axis=0)).reshape(X.shape)


def assemble_weighted_laplacian(w: ScalarField, grid: Grid | None = None) -> np.ndarray:
    """Dense matrix of u -> -divergence(w_face * gradient(u)) on the interior nodes.

    Face weights are arithmetic means of the two adjacent node values of w;
    boundary faces take the bare interior node value.  The result is exactly
    symmetric and, for w > 0, positive definite.  Grids above 10000 nodes are
    refused before the n x n array is allocated.  Reference for
    apply_weighted_laplacian in the tests.
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

    Dense small-grid reference for lobpcg_smallest_positive: with A = L L^T
    the substitution y = L^T x turns the pencil into the symmetric problem
    (L^-1 diag(B) L^-T) y = (1/lambda) y, so the indefinite weight never has
    to be factored.  Eigenvalues mu of that matrix below the roundoff floor
    correspond to lambda = infinity and are dropped.  Eigenvectors come back
    in original coordinates, normalized to |x^T diag(B) x| = 1 where that
    quadratic form is nonzero.
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
    """Least positive eigenvalue of the pencil with its eigenvector (dense reference).

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


def _lowest_sine_modes(grid: Grid, k: int) -> np.ndarray:
    """(n, k) block of the k lowest Dirichlet sine modes of the five-point Laplacian."""
    Sx, lx = _sine_basis(grid.nx, grid.hx)
    Sy, ly = _sine_basis(grid.ny, grid.hy)
    order = np.argsort((ly[:, None] + lx[None, :]).reshape(-1), kind="stable")[:k]
    jy, ix = np.divmod(order, grid.nx)
    return (Sy[:, jy][:, None, :] * Sx[:, ix][None, :, :]).reshape(grid.n_nodes, k)


def lobpcg_smallest_positive(w: ScalarField, B: np.ndarray) -> tuple[float, np.ndarray, int, float]:
    """Least positive eigenvalue of A x = lambda diag(B) x, A = assemble_weighted_laplacian(w).

    Matrix-free block LOBPCG (Knyazev 2001) for the largest eigenvalue mu of
    diag(B) x = mu A x, the extremal end of a definite pencil, and
    lambda = 1/mu.  The residual block is preconditioned by the exact Poisson
    solve, spectrally equivalent to A within max(w)/min(w).  Each step
    normalizes the columns of [X, W, P] (Ritz block, preconditioned residuals,
    previous directions), orthonormalizes them by Householder QR, and does the
    Rayleigh-Ritz step with the Cholesky factor of the A-Gram matrix of that
    basis.  The start block is the LOBPCG_BLOCK lowest sine modes; nothing is
    random, so equal inputs give equal bits.

    Returns (lambda, x, iterations, residual): x is oriented to a positive
    entry sum (so a sign-definite x is positive) and residual is
    |A x - lambda B x| / |A x|, recomputed from x.  The iteration stops once
    the principal Ritz pair's residual reaches LOBPCG_TOL.
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
    k = min(LOBPCG_BLOCK, g.n_nodes)
    b = B[:, None]

    S = _lowest_sine_modes(g, k)
    rel = math.inf
    for iteration in range(1, LOBPCG_MAX_ITER + 1):
        Q = np.linalg.qr(S)[0]
        AQ = apply_weighted_laplacian(w, Q)
        try:
            L = np.linalg.cholesky(Q.T @ AQ)
        except np.linalg.LinAlgError as err:
            raise NotPositiveDefinite(f"Cholesky of the Gram matrix failed: {err}") from None
        Linv = np.linalg.inv(L)
        C = Linv @ (Q.T @ (b * Q)) @ Linv.T
        mu, Z = np.linalg.eigh(0.5 * (C + C.T))
        mu = mu[::-1][:k]
        Y = Linv.T @ Z[:, ::-1][:, :k]
        X, AX = Q @ Y, AQ @ Y
        R = b * X - AX * mu
        if mu[0] > 0.0:
            rel = float(np.linalg.norm(R[:, 0]) / (mu[0] * np.linalg.norm(AX[:, 0])))
            if rel <= LOBPCG_TOL:
                break
        W = poisson_solve(g, R)
        blocks = [X, W]
        if Q.shape[1] > k:
            # P: the part of the new Ritz block outside the span of the old one
            blocks.append(Q[:, k:] @ Y[k:, :])
        S = np.hstack(blocks)
        # unit columns: at large alpha |B| ~ 1e-9, and residual directions that
        # small would be swamped by the Ritz block in the QR
        norms = np.linalg.norm(S, axis=0)
        S = S / np.where(norms > 0.0, norms, 1.0)
    else:
        raise NoConvergence(f"LOBPCG: principal residual {rel:.3e} after "
                            f"{LOBPCG_MAX_ITER} iterations", iterate=X[:, 0], residual=rel)

    lam = 1.0 / float(mu[0])
    x = X[:, 0] if float(X[:, 0].sum()) > 0.0 else -X[:, 0]
    Ax = apply_weighted_laplacian(w, x)
    return lam, x, iteration, float(np.linalg.norm(Ax - lam * B * x) / np.linalg.norm(Ax))
