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


def ridge_if_singular(G: np.ndarray) -> Tuple[np.ndarray, bool]:
    """The symmetric matrix G, with a deterministic ridge added when G is
    numerically singular, and whether the ridge was added.

    G counts as singular when its smallest eigenvalue is below 1e-12 times the
    largest, or the largest is not positive; the ridge is then
    (1e-8 * max(trace(G), 1e-300) / dim + tiny) * I.
    """
    evals = np.linalg.eigvalsh(G)
    lam_max = float(evals[-1])
    if lam_max > 0.0 and float(evals[0]) >= 1e-12 * lam_max:
        return G, False
    ridge = 1e-8 * max(np.trace(G), 1e-300) / G.shape[0] + np.finfo(float).tiny
    return G + ridge * np.eye(G.shape[0]), True


def least_squares(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normal-equation solve of min ||Av - b||, with the ridge of
    ridge_if_singular when A'A is numerically singular."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] == 0 or A.shape[1] == 0:
        raise ValueError("A must be a nonempty 2-d matrix")
    if A.shape[0] != b.shape[0]:
        raise ValueError("row count of A must match len(b)")
    G, _ = ridge_if_singular(A.T @ A)
    return np.linalg.solve(G, A.T @ b)


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
