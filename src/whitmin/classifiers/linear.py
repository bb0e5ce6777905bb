"""Linear two-class classifiers: regression, Fisher discriminant, L2
soft-margin support vector machine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..numerics import check_fit_cells, least_squares, ridge_if_singular, soft_margin_svm
from .base import LabeledSet, choose_threshold, threshold_labels
from .quantize import Quantizer

# The methods fit_linear takes, in the order the CLI lists them.
LINEAR_METHODS = ("regression", "fisher", "svm")


@dataclass(frozen=True)
class LinearModel:
    """Discriminant f(x) = v'x with a learned threshold; if a quantizer is
    attached the label comes from the score's quantizing interval instead."""

    weights: np.ndarray
    theta: float
    orientation: int
    method: str
    quantizer: Optional[Quantizer] = None
    training_error: float = 0.0

    def scores(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weights

    def predict(self, X: np.ndarray) -> np.ndarray:
        s = self.scores(X)
        if self.quantizer is not None:
            return self.quantizer.classify(s)
        return threshold_labels(s, self.theta, self.orientation)


def _fisher_weights(data: LabeledSet) -> np.ndarray:
    (n1, mu1, C1), (n2, mu2, C2) = data.class_moments()
    Sw, _ = ridge_if_singular(n1 / (n1 + n2) * C1 + n2 / (n1 + n2) * C2)
    return np.linalg.solve(Sw, mu1 - mu2)


def fit_linear(data: LabeledSet, method: str = "regression") -> LinearModel:
    """Fit the weight vector by the chosen method, then pick the threshold and
    orientation minimizing the training error.

    regression: v = argmin ||Av - b|| with b = 0 for class 1 and 1 for class 2
    fisher:     v = Sw^-1 (mu1 - mu2), unit multiplicative constant
    svm:        v = numerics.soft_margin_svm of the rows y_k z_k (labels +1 / -1)

    A fit on more columns than numerics.FIT_CELLS allows raises ValueError
    before any d x d matrix is built.
    """
    if not ((data.labels == 1).any() and (data.labels == 2).any()):
        raise ValueError("both classes must be nonempty")
    X = data.features
    check_fit_cells(X.shape[1])
    if method == "regression":
        b = (data.labels == 2).astype(np.float64)
        v = least_squares(X, b)
    elif method == "fisher":
        v = _fisher_weights(data)
    elif method == "svm":
        y = np.where(data.labels == 1, 1.0, -1.0)
        v = soft_margin_svm(X * y[:, None])
    else:
        raise ValueError(f"unknown method {method!r}")
    if not np.any(v):
        raise ValueError("degenerate weight vector")
    scores = X @ v
    theta, orient, err = choose_threshold(scores, data.labels)
    return LinearModel(v, theta, orient, method, training_error=err)
