"""Shared classifier types: labeled sets, sorted class counts and threshold
selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from ..numerics import mean_and_covariance


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

    def class_moments(self) -> Tuple[Tuple[int, np.ndarray, np.ndarray], ...]:
        """(n, mean, 1/n-normalized covariance) of class 1, then of class 2."""
        rows = [self.features[self.labels == c] for c in (1, 2)]
        if not (len(rows[0]) and len(rows[1])):
            raise ValueError("both classes must be nonempty")
        return tuple((len(X), *mean_and_covariance(X)) for X in rows)


def sorted_class_counts(values: np.ndarray, labels: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stably sorted values and labels, and the cumulative class counts, of
    an (N,) array or, column by column, of an (N, d) one: row k of the
    (N+1) x 2 (or (N+1) x d x 2) counts holds classes 1 and 2 among the first
    k sorted values, so the counts at or below theta are row
    searchsorted(values, theta, "right")."""
    order = np.argsort(values, axis=0, kind="stable")
    v = values[order] if values.ndim == 1 else values[order, np.arange(values.shape[1])]
    y = labels[order]
    counts = np.empty((len(v) + 1, *v.shape[1:], 2), dtype=np.int64)
    counts[0] = 0
    counts[1:, ..., 0] = y == 1
    counts[1:, ..., 1] = y == 2
    np.cumsum(counts[1:], axis=0, out=counts[1:])
    return v, y, counts


def choose_threshold(scores: np.ndarray, labels: np.ndarray) -> Tuple[float, int, float]:
    """Pick (theta, orientation, training_error_rate) minimizing the error of
    the rule  score <= theta -> orientation class, else the other class.

    Candidates are the midpoints between adjacent sorted scores of differing
    labels, plus the max score (the constant rules); both orientations are
    tried; ties resolve to the smallest theta and then to orientation 1.
    """
    scores = np.asarray(scores, dtype=np.float64)
    theta, orient, err = _column_thresholds(scores[:, None], labels)
    return theta.item(), int(orient[0]), int(err[0]) / scores.shape[0]


def _column_thresholds(scores: np.ndarray, labels: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """choose_threshold's rule on each column of the (N, c) scores: the c
    thetas, orientations and error counts."""
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape[0] == 0 or not ((labels == 1).any() and (labels == 2).any()):
        raise ValueError("need at least one score per class")
    v, y, counts = sorted_class_counts(scores, labels)
    n, c = v.shape
    lo, hi = v[:-1], v[1:]
    # candidate rows in theta order: the midpoints, then the max
    theta = np.empty((n, c))
    with np.errstate(over="ignore"):
        np.add(lo, hi, out=theta[:-1])
    theta[:-1] /= 2.0
    theta[-1] = v[-1]
    mid = theta[:-1]
    # at[i]: how many values lie at or below candidate i.  A value counts to
    # the end of its run of ties; a midpoint counts what its lower value
    # does, or what its upper value does when it rounds onto that, or the
    # -inf values when it overflows below both.
    at = np.full((n, c), n)
    np.copyto(at[:-1], np.arange(1, n)[:, None], where=lo != hi)
    np.minimum.accumulate(at[::-1], axis=0, out=at[::-1])
    np.copyto(at[:-1], at[1:], where=mid >= hi)
    below = mid < lo
    if below.any():
        np.copyto(at[:-1], at[0] * (v[0] == -np.inf), where=below)
    # errors at theta: class 2 at or below it plus class 1 above it for
    # orientation 1, mirrored for orientation 2
    cols = np.arange(c)
    diff = (counts[..., 1] - counts[..., 0])[at, cols]
    err1 = counts[-1, :, 0] + diff
    err = np.minimum(err1, counts[-1, :, 1] - diff)
    # a midpoint is a candidate where the class changes; one that overflows
    # above the max counts what the max counts, and the max is the smaller theta
    np.copyto(err[:-1], n + 1, where=(y[:-1] == y[1:]) | ~(mid <= hi))
    # per column, the first least error: the smallest theta, then orientation 1
    row = err.argmin(axis=0)
    least = err[row, cols]
    return theta[row, cols], (err1[row, cols] != least) + 1, least


def threshold_labels(scores: np.ndarray, theta: Union[float, np.ndarray],
                     orientation: Union[int, np.ndarray]) -> np.ndarray:
    """Scores <= theta map to the orientation's class, the rest to the other
    one; array thetas and orientations apply column by column."""
    orientation = np.asarray(orientation, dtype=np.int64)
    return np.where(np.asarray(scores) <= theta, orientation, 3 - orientation)
