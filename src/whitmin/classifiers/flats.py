"""The Mahalanobis distance classifier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import check_fit_cells, ridge_if_singular
from .base import LabeledSet, choose_threshold, threshold_labels


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
    check_fit_cells(data.features.shape[1])
    (_, mu1, C1), (_, mu2, C2) = data.class_moments()
    C, repaired = ridge_if_singular(np.stack([C1, C2]))
    inv = np.linalg.inv(C)
    inv1, inv2 = (inv + np.swapaxes(inv, 1, 2)) / 2.0
    scores = _discriminant(data.features, mu1, mu2, inv1, inv2)
    theta, orient, err = choose_threshold(scores, data.labels)
    return DistanceModel(mu1, mu2, inv1, inv2, theta, orient, bool(repaired.any()), err)
