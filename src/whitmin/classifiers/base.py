"""Shared classifier types: labeled sets and threshold selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class LabeledSet:
    """Feature matrix with class labels in 1..num_classes."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("features must be a nonempty N x d matrix")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be one per row")
        if y.min() < 1 or y.max() > self.num_classes:
            raise ValueError("labels out of range")

    def class_rows(self, c: int) -> np.ndarray:
        return self.features[self.labels == c]


def choose_threshold(scores: np.ndarray, labels: np.ndarray) -> Tuple[float, int, float]:
    """Pick (theta, orientation, training_error_rate) minimizing the error of
    the rule  score <= theta -> orientation class, else the other class.

    Candidates are the midpoints between adjacent sorted scores of differing
    labels; both orientations are tried; ties resolve to the smallest theta
    and then to orientation 1.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = scores.shape[0]
    if n == 0 or not ((labels == 1).any() and (labels == 2).any()):
        raise ValueError("need at least one score per class")
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    y = labels[order]

    cands = sorted({(s[i] + s[i + 1]) / 2.0 for i in range(n - 1) if y[i] != y[i + 1]})
    # the max score covers the constant rules (everything on one side)
    cands.append(float(s[-1]))

    # at threshold theta, errors = (#class2 with score <= theta) +
    # (#class1 with score > theta) for orientation 1, mirrored for 2
    ones = np.cumsum(y == 1)
    twos = np.cumsum(y == 2)
    n1, n2 = int(ones[-1]), int(twos[-1])
    best = None
    for theta in cands:
        k = int(np.searchsorted(s, theta, side="right"))
        le1 = int(ones[k - 1]) if k else 0
        le2 = int(twos[k - 1]) if k else 0
        for orient, err in ((1, le2 + (n1 - le1)), (2, le1 + (n2 - le2))):
            cand = (err, theta, orient)
            if best is None or cand < best:
                best = cand
    err, theta, orient = best
    return float(theta), int(orient), err / n


def threshold_labels(scores: np.ndarray, theta: float, orientation: int) -> np.ndarray:
    """Scores <= theta map to the orientation's class, the rest to the other one."""
    other = 2 if orientation == 1 else 1
    return np.where(np.asarray(scores) <= theta, orientation, other).astype(np.int64)
