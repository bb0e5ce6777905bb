"""Small dense linear algebra for the classifiers: sample statistics, a Jacobi
symmetric eigensolver, the one ridge rule for numerically singular matrices,
normal-equation least squares, and a hard-margin QP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


class NonSeparable(Exception):
    """Hard-margin QP could not satisfy the margin constraints."""


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


def sym_eigen(C: np.ndarray, max_sweeps: int = 100) -> EigenResult:
    """Full spectrum of a symmetric matrix via cyclic Jacobi rotations.

    Converges when the largest off-diagonal entry drops below
    1e-12 * ||C||_inf.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("matrix must be square")
    norm = np.abs(C).max() if C.size else 0.0
    if C.size and np.abs(C - C.T).max() > 1e-10 * max(1.0, norm):
        raise ValueError("matrix is not symmetric")
    n = C.shape[0]
    A = C.copy()
    V = np.eye(n)
    if n <= 1:
        return EigenResult(np.diag(A).copy(), V)

    tol = 1e-12 * max(norm, np.finfo(float).tiny)
    for _ in range(max_sweeps):
        off = np.abs(A - np.diag(np.diag(A))).max()
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= tol / n:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                rp, rq = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq

    values = np.diag(A).copy()
    order = np.argsort(-values, kind="stable")
    return EigenResult(values[order], V[:, order])


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


def qp_hard_margin(
    A: np.ndarray,
    max_iter: int = 1_000_000,
    feas_tol: float = 1e-6,
    gap_tol: float = 1e-5,
) -> np.ndarray:
    """Minimize w'w subject to Aw >= 1 (rows of A are y_k z_k').

    Projected gradient ascent on the nonnegative dual: maximize
    sum(alpha) - alpha' A A' alpha / 2 over alpha >= 0, with w = A' alpha.
    Raises NonSeparable when the iteration cap is hit with the margin
    constraints still violated.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] == 0:
        raise ValueError("A must be a nonempty 2-d matrix")
    Q = A @ A.T
    # power iteration for a safe step size
    v = np.ones(Q.shape[0])
    lam = 1.0
    for _ in range(200):
        u = Q @ v
        nu = np.linalg.norm(u)
        if nu == 0.0:
            break
        lam = nu / np.linalg.norm(v)
        v = u / nu
    step = 1.0 / (lam * 1.01 + 1e-12)

    alpha = np.zeros(Q.shape[0])
    w = A.T @ alpha
    for it in range(max_iter):
        grad = 1.0 - Q @ alpha
        alpha = np.maximum(0.0, alpha + step * grad)
        if it % 50 == 0 or it == max_iter - 1:
            w = A.T @ alpha
            margins = A @ w
            if margins.min() >= 1.0 - feas_tol:
                primal = 0.5 * w @ w
                dual = alpha.sum() - 0.5 * alpha @ Q @ alpha
                if primal - dual <= gap_tol * max(1.0, primal):
                    return w
    raise NonSeparable("margin constraints not satisfied within iteration cap")
