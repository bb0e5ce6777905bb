"""Shared classifier types: labeled sets, sorted class counts and threshold
selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class LabeledSet:
    """Feature matrix with class labels 1 (minimal) and 2 (nonminimal)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("features must be a nonempty N x d matrix")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be one per row")
        if y.min() < 1 or y.max() > 2:
            raise ValueError("labels out of range")

    def class_rows(self, c: int) -> np.ndarray:
        return self.features[self.labels == c]


def sorted_class_counts(values: np.ndarray, labels: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stably sorted values and labels, and the cumulative class counts, of
    an (N,) array or, column by column, of an (N, d) one: row k of the
    (N+1) x 2 (or (N+1) x d x 2) counts holds classes 1 and 2 among the first
    k sorted values, so the counts at or below theta are row
    searchsorted(values, theta, "right")."""
    order = np.argsort(values, axis=0, kind="stable")
    v = np.take_along_axis(values, order, axis=0)
    y = labels[order]
    counts = np.zeros((len(v) + 1, *v.shape[1:], 2), dtype=np.int64)
    for c in (0, 1):
        np.cumsum(y == c + 1, axis=0, out=counts[1:, ..., c])
    return v, y, counts


def choose_threshold(scores: np.ndarray, labels: np.ndarray) -> Tuple[float, int, float]:
    """Pick (theta, orientation, training_error_rate) minimizing the error of
    the rule  score <= theta -> orientation class, else the other class.

    Candidates are the midpoints between adjacent sorted scores of differing
    labels, plus the max score (the constant rules); both orientations are
    tried; ties resolve to the smallest theta and then to orientation 1.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = scores.shape[0]
    if n == 0 or not ((labels == 1).any() and (labels == 2).any()):
        raise ValueError("need at least one score per class")
    s, y, counts = sorted_class_counts(scores, labels)
    change = y[:-1] != y[1:]
    cands = np.unique(np.append((s[:-1][change] + s[1:][change]) / 2.0, s[-1]))

    # at threshold theta, errors = (#class2 with score <= theta) +
    # (#class1 with score > theta) for orientation 1, mirrored for 2
    le1, le2 = counts[np.searchsorted(s, cands, side="right")].T
    n1, n2 = counts[-1]
    err = np.stack([le2 + (n1 - le1), le1 + (n2 - le2)], axis=1)
    k, orient = divmod(int(np.argmin(err)), 2)  # row-major: theta, then orientation
    return float(cands[k]), orient + 1, int(err[k, orient]) / n


def threshold_labels(scores: np.ndarray, theta: float, orientation: int) -> np.ndarray:
    """Scores <= theta map to the orientation's class, the rest to the other one."""
    other = 2 if orientation == 1 else 1
    return np.where(np.asarray(scores) <= theta, orientation, other).astype(np.int64)
