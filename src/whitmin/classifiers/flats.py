"""The Mahalanobis distance classifier."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..numerics import mean_and_covariance, ridge_if_singular
from .base import LabeledSet, choose_threshold, threshold_labels


def _inv_with_ridge(C: np.ndarray) -> Tuple[np.ndarray, bool]:
    C, repaired = ridge_if_singular(C)
    inv = np.linalg.inv(C)
    return (inv + inv.T) / 2.0, repaired


def _discriminant(X, mu1, mu2, inv1, inv2) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    D1, D2 = X - mu1, X - mu2
    # every row's (1, d) @ (d, d) @ (d, 1) product in one stack: the same
    # BLAS calls as a loop over the rows, so the same bits
    return (D1[:, None, :] @ inv1 @ D1[:, :, None]
            - D2[:, None, :] @ inv2 @ D2[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class DistanceModel:
    """Two-class classifier on the Mahalanobis discriminant

        f(x) = (x-mu1)'C1^-1(x-mu1) - (x-mu2)'C2^-1(x-mu2)

    The threshold / orientation pair minimizes the training error under the
    convention  f(x) <= theta -> orientation class.
    """

    mu1: np.ndarray
    mu2: np.ndarray
    inv_cov1: np.ndarray
    inv_cov2: np.ndarray
    theta: float
    orientation: int
    ridge_repaired: bool = False
    training_error: float = 0.0

    def scores(self, X: np.ndarray) -> np.ndarray:
        return _discriminant(X, self.mu1, self.mu2, self.inv_cov1, self.inv_cov2)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return threshold_labels(self.scores(X), self.theta, self.orientation)


def fit_distance(data: LabeledSet) -> DistanceModel:
    X1 = data.class_rows(1)
    X2 = data.class_rows(2)
    if len(X1) == 0 or len(X2) == 0:
        raise ValueError("both classes must be nonempty")
    mu1, C1 = mean_and_covariance(X1)
    mu2, C2 = mean_and_covariance(X2)
    inv1, rep1 = _inv_with_ridge(C1)
    inv2, rep2 = _inv_with_ridge(C2)
    scores = _discriminant(data.features, mu1, mu2, inv1, inv2)
    theta, orient, err = choose_threshold(scores, data.labels)
    return DistanceModel(mu1, mu2, inv1, inv2, theta, orient, rep1 or rep2, err)
