"""Small dense linear algebra for the classifiers: sample statistics, the
symmetric eigensolver (LAPACK), the one ridge rule for numerically singular
matrices, normal-equation least squares, and the hard-margin SVM problem as a
nonnegative least squares.  Every solver is exact and finite; none takes an
iteration cap or a tolerance parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

# Largest shortfall below 1 that qp_hard_margin accepts in a margin.
MARGIN_TOL = 1e-6


class NonSeparable(ValueError):
    """No hyperplane separates the two classes of a hard-margin problem."""


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues in descending order with matching orthonormal eigenvector
    columns."""

    values: np.ndarray
    vectors: np.ndarray


def mean_and_covariance(samples: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Sample mean and 1/N-normalized covariance."""
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need a nonempty list of equal-dimension vectors")
    mu = X.mean(axis=0)
    D = X - mu
    C = D.T @ D / X.shape[0]
    return mu, C


def sym_eigen(C: np.ndarray) -> EigenResult:
    """Full spectrum of a symmetric matrix (LAPACK, via numpy's eigh)."""
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("matrix must be square")
    norm = np.abs(C).max() if C.size else 0.0
    if C.size and np.abs(C - C.T).max() > 1e-10 * max(1.0, norm):
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh(C)
    return EigenResult(values[::-1], vectors[:, ::-1])


def ridge_if_singular(G: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The symmetric matrix G, with a deterministic ridge added when G is
    numerically singular, and whether the ridge was added, as a numpy bool.
    A stack of matrices (..., d, d) is repaired matrix by matrix, with one
    flag each.

    G counts as singular when its smallest eigenvalue is below 1e-12 times the
    largest, or the largest is not positive; the ridge is then
    (1e-8 * max(trace(G), 1e-300) / dim + tiny) * I.
    """
    evals = np.linalg.eigvalsh(G)
    lam_max = evals[..., -1]
    singular = ~((lam_max > 0.0) & (evals[..., 0] >= 1e-12 * lam_max))
    if singular.any():
        dim = G.shape[-1]
        ridge = (1e-8 * np.maximum(np.trace(G, axis1=-2, axis2=-1), 1e-300) / dim
                 + np.finfo(float).tiny)
        G = np.where(singular[..., None, None], G + ridge[..., None, None] * np.eye(dim), G)
    return G, singular


def least_squares(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normal-equation solve of min ||Av - b||, with the ridge of
    ridge_if_singular when A'A is numerically singular.  A stack of matrices
    A (..., N, d) solves one problem per matrix, against one b (N,) or one
    b each (..., N)."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim < 2 or A.shape[-2] == 0 or A.shape[-1] == 0:
        raise ValueError("A must be a nonempty matrix or stack of matrices")
    if A.shape[-2] != b.shape[-1]:
        raise ValueError("row count of A must match len(b)")
    At = np.swapaxes(A, -1, -2)
    G, _ = ridge_if_singular(At @ A)
    return np.linalg.solve(G, At @ b[..., None])[..., 0]


def qp_hard_margin(A: np.ndarray) -> np.ndarray:
    """Minimize w'w subject to Aw >= 1 (rows of A are y_k z_k').

    A least-distance program, solved as one nonnegative least squares
    (Lawson & Hanson, ch. 23): u >= 0 minimizing ||Eu - f|| with
    E = [A'; 1'] and f = (0, ..., 0, 1).  With r = Eu - f, the optimum is
    w = -r[:d] / r[d].  A zero residual means u >= 0, sum(u) = 1 and
    A'u = 0, so no w separates the rows (Gordan); NonSeparable is raised
    then, and whenever the recovered w misses a margin by more than
    MARGIN_TOL.
    """
    # scipy.optimize takes most of the package's import time; only this
    # solver needs it
    from scipy.optimize import nnls

    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] == 0:
        raise ValueError("A must be a nonempty 2-d matrix")
    n, d = A.shape
    E = np.vstack([A.T, np.ones((1, n))])
    f = np.zeros(d + 1)
    f[d] = 1.0
    u, _ = nnls(E, f)
    r = E @ u - f
    if r[d] < 0.0:
        w = -r[:d] / r[d]
        if (A @ w).min() >= 1.0 - MARGIN_TOL:
            return w
    raise NonSeparable("no hyperplane separates the training classes")
