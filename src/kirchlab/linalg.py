"""Linear algebra for the five-point operators.

Three pieces: an exact Dirichlet Poisson solve by the discrete sine
transform, whose basis is built once per grid and shared with
kirchhoff._phi; the weighted Dirichlet Laplacian u -> -div(w grad u),
applied matrix-free to a block of vectors; and the principal eigenpair of the
pencil A x = lambda diag(B) x (A that weighted Laplacian, B an indefinite
weight) by single-vector LOBPCG preconditioned with the w-scaled Poisson solve,
in O(n) memory.  The eigensolver advances a stack of pencils on one grid in
lockstep, each with the bits it gets alone.  The dense reference the tests
compare it against lives in tests/dense_oracle.py.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grid import Grid, KirchlabError, ScalarField, _face_mean, _ghost_difference

LOBPCG_TOL = 1e-10        # relative pencil residual of the principal pair
LOBPCG_MAX_ITER = 2000    # about 2x the most steps seen (1023, 64x64 bump at alpha = 5)


class NoConvergence(KirchlabError):
    """Iteration budget exhausted; carries the last iterate when available."""

    def __init__(self, message: str, iterate=None, residual=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


@functools.lru_cache(maxsize=8)
def _sine_basis(grid: Grid) -> tuple:
    """(Sy, Sx, ly, lx, weight): the orthonormal symmetric sine matrices of the 1-D
    Dirichlet second differences along y and x, their eigenvalues, and the energy
    weight area / (ly + lx) of kirchhoff._phi, an (ny, nx) matrix.

    Cached per grid and shared by every caller, so every array is read-only; the
    two axes share one matrix when their node counts and widths match.
    """
    def axis(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
        k = np.arange(1, n + 1)
        S = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
        return S, 4.0 / h ** 2 * np.sin(0.5 * np.pi * k / (n + 1)) ** 2

    Sx, lx = axis(grid.nx, grid.hx)
    Sy, ly = (Sx, lx) if (grid.ny, grid.hy) == (grid.nx, grid.hx) else axis(grid.ny, grid.hy)
    basis = (Sy, Sx, ly, lx, grid.cell_area / (ly[:, None] + lx[None, :]))
    for a in basis:
        a.setflags(write=False)
    return basis


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
        raise ValueError(f"rhs shape {rhs.shape} != ({grid.n_nodes},)")
    return _sine_solve(grid, rhs.reshape(grid.ny, grid.nx)).reshape(-1)


def _sine_solve(grid: Grid, F: np.ndarray) -> np.ndarray:
    """poisson_solve of the (ny, nx) matrix F, or of each matrix of a (k, ny, nx)
    stack F with the bits it gets in any stack: the one sine solve.  One matrix
    goes through 2-D products, which numpy runs 5-12% faster than a stack of one."""
    Sy, Sx, ly, lx, _ = _sine_basis(grid)
    return Sy @ ((Sy @ F @ Sx) / (ly[:, None] + lx[None, :])) @ Sx


def apply_weighted_laplacian(w: ScalarField, X: np.ndarray) -> np.ndarray:
    """u -> -divergence(w_face * gradient(u)) on a vector or each column of an (n, k) block.

    The face weights (face_average of w) multiply the ghost-zero face
    differences of grid.gradient.  This is the one five-point stencil of the
    weighted operator; the eigensolver calls its kernel on stacks of blocks,
    with face weights built once per stack of node weights.
    """
    g = w.grid
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[0] != g.n_nodes:
        raise ValueError(f"block shape {X.shape} != ({g.n_nodes},) or ({g.n_nodes}, k)")
    AX = _weighted_laplacian(g, *_face_weights(g, w.values[None]), X.reshape(1, g.n_nodes, -1))
    return AX.reshape(X.shape)


def _face_weights(g: Grid, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x- and y-face weights of the stencil for each node weight of the (k, n)
    stack W (its face averages), over hx^2 and hy^2: C-contiguous (k, ny, nx+1, 1)
    and (k, ny+1, nx, 1), the last axis for the block columns."""
    W = W.reshape(-1, g.ny, g.nx)
    return (_face_mean(W, 2) / g.hx ** 2)[..., None], (_face_mean(W, 1) / g.hy ** 2)[..., None]


def _weighted_laplacian(g: Grid, wx: np.ndarray, wy: np.ndarray, X: np.ndarray,
                        buffers: tuple | None = None) -> np.ndarray:
    """apply_weighted_laplacian of each (n, m) block of the (k, n, m) stack X, block i
    with the face weights wx[i], wy[i] of _face_weights; no checks.  The face
    differences, the result and a temporary go into the leading part of buffers
    (from _stencil_buffers for at least k blocks of m columns), so the result is a
    view that the next call with the same buffers overwrites."""
    k, m = len(X), X.shape[-1]
    bx, by, bax, bdy = _stencil_buffers(g, k, m) if buffers is None else buffers
    X4 = X.reshape(k, g.ny, g.nx, m)
    fx = _ghost_difference(X4, 2, out=_leading(bx, (k, g.ny, g.nx + 1, m)))
    fy = _ghost_difference(X4, 1, out=_leading(by, (k, g.ny + 1, g.nx, m)))
    fx *= wx
    fy *= wy
    # -((fx[1:] - fx[:-1]) + (fy[1:] - fy[:-1]))
    AX = np.subtract(fx[:, :, 1:], fx[:, :, :-1], out=_leading(bax, X4.shape))
    AX += np.subtract(fy[:, 1:], fy[:, :-1], out=_leading(bdy, X4.shape))
    np.negative(AX, out=AX)
    return AX.reshape(X.shape)


def _stencil_buffers(g: Grid, k: int, m: int) -> tuple:
    """Flat scratch arrays for _weighted_laplacian on up to k blocks of m columns:
    its x- and y-face differences, its result and its y-difference temporary."""
    return tuple(np.empty(k * m * size) for size in
                 (g.ny * (g.nx + 1), (g.ny + 1) * g.nx, g.n_nodes, g.n_nodes))


def _leading(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading part of the flat buffer as a C-contiguous array of the given shape."""
    return buffer[:math.prod(shape)].reshape(shape)


def lobpcg_smallest_positive(w: ScalarField, B: np.ndarray) -> tuple[float, np.ndarray, int, float]:
    """Least positive eigenvalue of A x = lambda diag(B) x, A the operator of
    apply_weighted_laplacian(w, .).

    Matrix-free single-vector LOBPCG (Knyazev 2001) for the largest eigenvalue
    mu of diag(B) x = mu A x, the extremal end of a definite pencil, and
    lambda = 1/mu: the one-pencil case of _lobpcg_stack, which describes the
    iteration.

    Returns (lambda, x, iterations, residual): x is oriented to a positive
    entry sum (so a sign-definite x is positive) and residual is
    |A x - lambda B x| / |A x|, recomputed from x.  The iteration stops once
    the Ritz pair's residual reaches LOBPCG_TOL.
    Raises ValueError when w or B is not finite or B is nowhere positive (no
    positive eigenvalue exists), and NoConvergence after LOBPCG_MAX_ITER steps.
    """
    g = w.grid
    B = np.asarray(B, dtype=float).reshape(-1)
    if B.size != g.n_nodes:
        raise ValueError(f"weight length {B.size} != grid nodes {g.n_nodes}")
    if not (np.isfinite(w.values).all() and np.isfinite(B).all()):
        raise ValueError("pencil weights w and B must be finite")
    if float(w.values.min()) <= 0.0:
        raise ValueError(f"min weight {w.values.min():.6g} <= 0")
    if float(B.max()) <= 0.0:
        raise ValueError("pencil weight is nowhere positive: no positive eigenvalue")
    out, = _lobpcg_stack(g, w.values[None], B[None], [""])
    if isinstance(out, KirchlabError):
        raise out
    return out


def _lobpcg_stack(g: Grid, W: np.ndarray, B: np.ndarray, where: list[str]) -> list:
    """lobpcg_smallest_positive for k pencils on the grid g, advanced in lockstep.

    Pencil i has the node weight W[i] > 0 (the stencil takes its face averages,
    built once per stack) and the pencil weight B[i], positive somewhere; W and B
    are (k, n).  Each step scales the columns of [x, w, p] (Ritz vector,
    preconditioned residual, previous direction) to unit norm and does the
    Rayleigh-Ritz step on that 3-column basis whitened by the eigendecomposition
    of its A-Gram matrix, less its numerically null directions (_rayleigh_ritz):
    one sine solve and three stencil applications per pencil, each numpy call
    taking the whole (k, n, 3) stack.
    The stencil writes into buffers allocated once per call.
    The residual r is preconditioned by s * L^-1 (s * r) with s = 1/sqrt(W) and L
    the Poisson operator: symmetric positive definite by congruence, and closer to
    A^-1 than L^-1 alone where W varies.  The start vector is the lowest sine
    mode; nothing is random, and every call acts on each pencil alone, so a pencil
    gets the same bits whatever the stack holds.  A pencil leaves the stack once
    its Ritz pair's residual reaches LOBPCG_TOL.

    Returns one entry per pencil: (lambda, x, iterations, residual) as
    lobpcg_smallest_positive returns them, or the NoConvergence it failed with,
    its message ending in where[i].
    """
    k = len(B)
    wx, wy = _face_weights(g, W)
    buffers = _stencil_buffers(g, k, 3)
    scale = 1.0 / np.sqrt(W)
    live = np.arange(k)
    results = [None] * k
    rel = np.full(k, math.inf)
    Sy, Sx = _sine_basis(g)[:2]          # start: the lowest sine mode, positive
    S = np.tile(np.outer(Sy[:, 0], Sx[:, 0]).reshape(-1, 1), (k, 1, 1))
    for iteration in range(1, LOBPCG_MAX_ITER + 1):
        mu, x, ax, p = _rayleigh_ritz(g, wx, wy, B, S, buffers)
        r = B * x - mu[:, None] * ax
        pos = mu > 0.0
        rel[pos] = (np.linalg.norm(r[pos], axis=1)
                    / (mu[pos] * np.linalg.norm(ax[pos], axis=1)))
        done = pos & (rel <= LOBPCG_TOL)
        if done.any():
            pairs = _ritz_pairs(g, wx[done], wy[done], B[done], mu[done], x[done])
            for i, (lam, v, resid) in zip(live[done], pairs):
                results[i] = (lam, v, iteration, resid)
        keep = ~done
        if not keep.all():
            live, wx, wy, scale, B, rel, x, r = (
                a[keep] for a in (live, wx, wy, scale, B, rel, x, r))
            p = None if p is None else p[keep]
        if not live.size or iteration == LOBPCG_MAX_ITER:
            break
        S = _next_basis(g, scale, x, r, p)
    for i, v, reli in zip(live, x, rel):
        results[i] = NoConvergence(f"LOBPCG: residual {reli:.3e} after {LOBPCG_MAX_ITER} "
                                   f"iterations{where[i]}", iterate=v, residual=float(reli))
    return results


def _rayleigh_ritz(g: Grid, wx: np.ndarray, wy: np.ndarray, B: np.ndarray, S: np.ndarray,
                   buffers: tuple):
    """The Rayleigh-Ritz step of _lobpcg_stack on the (k, n, m) stack S of bases of
    unit columns, the stencil writing into buffers (see _weighted_laplacian).

    With (d, V) the eigendecomposition of the A-Gram matrix S^T A S, the basis is
    whitened by Q = V diag(d)^-1/2 over the directions with d > m eps max(d), and
    Q has zero columns along the others, which are numerically null (SVQB;
    Duersch, Shao, Yang & Gu 2018).  With (mu, z) the largest eigenpair of
    C = Q^T S^T diag(B) S Q, the Ritz vector is x = S y and A x = (A S) y, y = Q z.
    No basis makes the step fail.  A dependent one gives the largest Ritz pair of
    the span it keeps when its mu is positive, and mu = 0 with x = 0 when not.

    Returns mu (the largest Ritz value of each pencil), its Ritz vectors x and
    A x as (k, n) stacks, and p (x less its term along the first column of the
    basis, None when S has one column).
    """
    AS = _weighted_laplacian(g, wx, wy, S, buffers)
    d, V = np.linalg.eigh(S.transpose(0, 2, 1) @ AS)
    cut = S.shape[2] * np.finfo(float).eps * d[:, -1:]
    Q = V / np.sqrt(np.where(d > cut, d, np.inf))[:, None, :]     # 0 where d <= cut
    C = Q.transpose(0, 2, 1) @ (S.transpose(0, 2, 1) @ (B[:, :, None] * S)) @ Q
    mus, Z = np.linalg.eigh(0.5 * (C + C.transpose(0, 2, 1)))
    y = Q @ Z[:, :, -1:]
    # p: the new Ritz vector less its term along the old one
    p = (S[:, :, 1:] @ y[:, 1:])[:, :, 0] if S.shape[2] > 1 else None
    return mus[:, -1], (S @ y)[:, :, 0], (AS @ y)[:, :, 0], p


def _next_basis(g: Grid, scale: np.ndarray, x: np.ndarray, r: np.ndarray, p) -> np.ndarray:
    """The (k, n, 3) stack of unit columns [x, s * L^-1 (s * r), p] (no p column when
    p is None) for the next Rayleigh-Ritz step."""
    columns = [x, scale * _sine_solve(g, (scale * r).reshape(-1, g.ny, g.nx)).reshape(r.shape)]
    if p is not None:
        columns.append(p)
    # unit columns: at large alpha |B| ~ 1e-9, and residual directions that
    # small would be swamped by the Ritz vector in the Gram matrices
    return np.stack([v / _row_norms(v)[:, None] for v in columns], axis=2)


def _row_norms(V: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of V, with 1 standing in for a zero norm."""
    norms = np.linalg.norm(V, axis=1)
    return np.where(norms > 0.0, norms, 1.0)


def _ritz_pairs(g: Grid, wx: np.ndarray, wy: np.ndarray, B: np.ndarray, mu: np.ndarray,
                X: np.ndarray) -> list:
    """(lambda, x, residual) of each converged Ritz pair (mu, X[i]): lambda = 1/mu, x
    oriented to a positive entry sum, and |A x - lambda B x| / |A x| recomputed."""
    lam = 1.0 / mu
    X = np.where(X.sum(axis=1)[:, None] <= 0.0, -X, X)
    AX = _weighted_laplacian(g, wx, wy, X[:, :, None])[:, :, 0]
    resid = np.linalg.norm(AX - lam[:, None] * B * X, axis=1) / np.linalg.norm(AX, axis=1)
    return list(zip(lam.tolist(), X, resid.tolist()))
