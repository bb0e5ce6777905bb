"""Small dense linear algebra for the classifiers: sample statistics, the
symmetric eigensolver (LAPACK), the one ridge rule for numerically singular
matrices, normal-equation least squares, and the L2 soft-margin SVM by finite
Newton.  Every solver is exact and finite; none takes an iteration cap or a
tolerance parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

# The weight C of the squared margin violations in soft_margin_svm.
SVM_C = 1.0
# Most cells of one d x d matrix a fit builds: the class covariances, the
# Gram matrix A'A, the SVM's Newton system and their ridge repair.  2^24
# float64 cells are 128 MiB, d = 4,096 columns; a fit holds a few such
# matrices at once, and the repair and the solve are O(d^3).
FIT_CELLS = 1 << 24


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues in descending order with matching orthonormal eigenvector
    columns."""

    values: np.ndarray
    vectors: np.ndarray


def check_fit_cells(d: int) -> None:
    """Raise ValueError, before anything is allocated, when a fit on d
    columns needs d x d matrices of more than FIT_CELLS cells."""
    if d * d > FIT_CELLS:
        raise ValueError(f"{d} features need {d} x {d} fit matrices, {d * d} cells each, "
                         f"over the {FIT_CELLS} budget")


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


def soft_margin_svm(Z: np.ndarray) -> np.ndarray:
    """The w minimizing f(w) = w'w + C sum_k max(0, 1 - z_k'w)^2, C = SVM_C, rows z_k of Z,
    by finite Newton (Mangasarian 2002): from w = 0, solve (I + C Za'Za) wbar = C Za'1 over
    the rows with z_k'w < 1; wbar is optimal if it has the same such rows, else line-search."""
    Z = np.asarray(Z, dtype=np.float64)
    w, f = np.zeros(Z.shape[1]), SVM_C * len(Z)
    while True:
        a = 1.0 - Z @ w
        v = a > 0.0
        Za = Z[v]
        wbar = np.linalg.solve(np.eye(len(w)) + SVM_C * Za.T @ Za, SVM_C * Za.sum(axis=0))
        if np.array_equal(Z @ wbar < 1.0, v):
            return wbar
        # Exact minimum of f on the segment: f'(w + t p) / 2 = alpha + beta t between
        # the sorted t >= 0 where row k enters or leaves the violators, and crossing
        # it adds C |q_k| (a_k, -q_k) to (alpha, beta).
        p, q = wbar - w, Z @ (wbar - w)
        t = np.divide(a, q, out=np.full_like(a, np.inf), where=(q != 0.0) & (v == (q > 0.0)))
        k = np.argsort(t)
        cq = SVM_C * np.abs(q[k])
        alpha = w @ p - SVM_C * q[v] @ a[v] + np.cumsum(np.append(0.0, cq * a[k]))
        beta = p @ p + SVM_C * q[v] @ q[v] - np.cumsum(np.append(0.0, cq * q[k]))
        j = np.argmax(alpha + beta * np.append(t[k], np.inf) >= 0.0)
        w_next = w + min(1.0, -alpha[j] / beta[j]) * p
        f_next = w_next @ w_next + SVM_C * np.sum(np.maximum(1.0 - Z @ w_next, 0.0) ** 2)
        if not f_next < f:  # only rounding can keep an exact step from lowering f
            return w
        w, f = w_next, f_next
