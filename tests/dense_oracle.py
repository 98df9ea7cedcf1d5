"""Dense small-grid reference for the weighted eigenproblem.

The dense assembly and the dense generalized eigensolver (reduce with the
Cholesky factor of A and invert the spectrum, which keeps the indefinite
weight on the harmless side) are the reference that the tests compare
kirchlab.linalg.lobpcg_smallest_positive against; the library never calls
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kirchlab.grid import KirchlabError, ScalarField
from kirchlab.linalg import apply_weighted_laplacian

DENSE_MAX_NODES = 10_000
CLUSTER_RTOL = 1e-10      # the tightest gap the tests' pencils need is 1.9e-8


@dataclass
class Pencil:
    """Pair (A, B) for A x = lambda diag(B) x; A dense SPD, B any sign pattern."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=float).reshape(-1)
        if self.B.size != self.A.shape[0]:
            raise ValueError(
                f"weight length {self.B.size} != matrix dimension {self.A.shape[0]}")


def assemble_weighted_laplacian(w: ScalarField) -> np.ndarray:
    """Dense matrix of u -> -divergence(w_face * gradient(u)) on the interior nodes.

    Face weights are arithmetic means of the two adjacent node values of w;
    boundary faces take the bare interior node value.  The matrix is
    apply_weighted_laplacian applied to the identity, which is exactly
    symmetric and, for w > 0, positive definite; that application peaks at
    about 5 n^2 doubles.  Grids above 10000 nodes are refused before anything
    n x n is allocated.
    """
    if float(w.values.min()) <= 0.0:
        raise ValueError(f"min weight {w.values.min():.6g} <= 0")
    n = w.grid.n_nodes
    if n > DENSE_MAX_NODES:
        raise ValueError(f"dense operator limited to n <= {DENSE_MAX_NODES}, got {n}")
    return apply_weighted_laplacian(w, np.eye(n))


def pencil_eigensolve(P: Pencil) -> list[tuple[float, np.ndarray]]:
    """Full real spectrum of A x = lambda diag(B) x, sorted by eigenvalue.

    With A = L L^T the substitution y = L^T x turns the pencil into the
    symmetric problem (L^-1 diag(B) L^-T) y = (1/lambda) y, so the indefinite
    weight never has to be factored.  Eigenvalues mu of that matrix below the
    roundoff floor correspond to lambda = infinity and are dropped.
    Eigenvectors come back in original coordinates, normalized to
    |x^T diag(B) x| = 1 where that quadratic form is nonzero.
    """
    n = P.A.shape[0]
    if n > DENSE_MAX_NODES:
        raise ValueError(f"dense eigensolve limited to n <= {DENSE_MAX_NODES}, got {n}")
    try:
        L = np.linalg.cholesky(P.A)
    except np.linalg.LinAlgError as err:
        raise KirchlabError(f"Cholesky failed: {err}") from None

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
    exist).  The eigenvector is oriented to a positive entry sum, as in
    lobpcg_smallest_positive, so a sign-definite eigenvector is positive even
    when roundoff leaves one of its entries on the other side of zero.
    Raises KirchlabError when the next positive eigenvalue lies within
    CLUSTER_RTOL of the least: the dense solver then returns some vector of
    the cluster's span, not the principal one.
    """
    if float(P.B.max()) <= 0.0:
        return None
    positives = [(lam, v) for lam, v in pencil_eigensolve(P) if lam > 0.0]
    if not positives:
        return None
    lam, v = positives[0]
    if len(positives) > 1 and positives[1][0] - lam <= CLUSTER_RTOL * lam:
        raise KirchlabError(f"least positive eigenvalue {lam:.17g} is within {CLUSTER_RTOL:g} "
                            f"relative of the next, {positives[1][0]:.17g}")
    if float(v.sum()) <= 0.0:
        v = -v
    return lam, v
