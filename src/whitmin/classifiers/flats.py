"""Principal-component flat models and the two distance classifiers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..numerics import mean_and_covariance, ridge_if_singular, sym_eigen
from .base import LabeledSet, choose_threshold, threshold_labels

DEFAULT_ZERO_TOL = 1e-8


@dataclass(frozen=True)
class FlatModel:
    """Affine flat fitted to a point cloud: mean plus the orthonormal basis of
    the (near-)zero-variance directions.  Membership test: ||T'(x - mu)|| = 0.
    """

    mu: np.ndarray
    T: np.ndarray  # d x (d - K), columns = zero-eigenvalue eigenvectors
    tol: float

    def residual(self, x: np.ndarray) -> float:
        if self.T.shape[1] == 0:
            return 0.0
        return float(np.linalg.norm(self.T.T @ (np.asarray(x, float) - self.mu)))


def fit_flat(samples: Sequence[np.ndarray], tol: float = 1e-9) -> FlatModel:
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    mu, C = mean_and_covariance(samples)
    eig = sym_eigen(C)
    lam_max = float(eig.values[0])
    if lam_max <= 0.0:
        keep = np.ones(len(eig.values), dtype=bool)
    else:
        keep = eig.values < tol * lam_max
    return FlatModel(mu, eig.vectors[:, keep], tol)


def classify_by_flats(
    x: np.ndarray,
    flat1: FlatModel,
    flat2: FlatModel,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> str:
    """Four-way outcome: 'class1', 'class2', 'both', or 'neither'."""
    in1 = flat1.residual(x) < zero_tol
    in2 = flat2.residual(x) < zero_tol
    if in1 and in2:
        return "both"
    if in1:
        return "class1"
    if in2:
        return "class2"
    return "neither"


def _inv_with_ridge(C: np.ndarray) -> Tuple[np.ndarray, bool]:
    C, repaired = ridge_if_singular(C)
    inv = np.linalg.inv(C)
    return (inv + inv.T) / 2.0, repaired


@dataclass(frozen=True)
class DistanceModel:
    """Two-class classifier on a distance discriminant.

    variant 'flat':        f(x) = ||T1'(x-mu1)|| - ||T2'(x-mu2)||
    variant 'mahalanobis': f(x) = (x-mu1)'C1^-1(x-mu1) - (x-mu2)'C2^-1(x-mu2)

    The threshold / orientation pair minimizes the training error under the
    convention  f(x) <= theta -> orientation class.
    """

    variant: str
    mu1: np.ndarray
    mu2: np.ndarray
    theta: float
    orientation: int
    flat1: Optional[FlatModel] = None
    flat2: Optional[FlatModel] = None
    inv_cov1: Optional[np.ndarray] = None
    inv_cov2: Optional[np.ndarray] = None
    ridge_repaired: bool = False
    training_error: float = 0.0

    def scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self.variant == "flat":
            return np.array([self.flat1.residual(x) - self.flat2.residual(x) for x in X])
        # Row by row: a matrix form sums in another order, which moves the low
        # bits of nearly every score and so the fitted theta.
        out = np.empty(X.shape[0])
        for i, x in enumerate(X):
            d1 = x - self.mu1
            d2 = x - self.mu2
            out[i] = d1 @ self.inv_cov1 @ d1 - d2 @ self.inv_cov2 @ d2
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        return threshold_labels(self.scores(X), self.theta, self.orientation)


def fit_distance(
    data: LabeledSet,
    variant: str = "mahalanobis",
    flat_tol: float = 1e-9,
) -> DistanceModel:
    if data.num_classes != 2:
        raise ValueError("distance classifier is two-class")
    if variant not in ("flat", "mahalanobis"):
        raise ValueError(f"unknown variant {variant!r}")
    X1 = data.class_rows(1)
    X2 = data.class_rows(2)
    if len(X1) == 0 or len(X2) == 0:
        raise ValueError("both classes must be nonempty")
    mu1, C1 = mean_and_covariance(X1)
    mu2, C2 = mean_and_covariance(X2)

    if variant == "flat":
        model = DistanceModel(
            "flat", mu1, mu2, 0.0, 1,
            flat1=fit_flat(X1, flat_tol), flat2=fit_flat(X2, flat_tol))
    else:
        inv1, rep1 = _inv_with_ridge(C1)
        inv2, rep2 = _inv_with_ridge(C2)
        model = DistanceModel(
            "mahalanobis", mu1, mu2, 0.0, 1,
            inv_cov1=inv1, inv_cov2=inv2, ridge_repaired=rep1 or rep2)

    scores = model.scores(data.features)
    theta, orient, err = choose_threshold(scores, data.labels)
    object.__setattr__(model, "theta", theta)
    object.__setattr__(model, "orientation", orient)
    object.__setattr__(model, "training_error", err)
    return model
