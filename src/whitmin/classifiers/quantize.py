"""Score quantizers: equal-interval, equal-probability, and min-error bins."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .base import sorted_class_counts

# Most back-pointer cells the min-error DP keeps, (bins - 1) x (distinct
# scores + 1) int64s: 128 MiB.
MIN_ERROR_CELLS = 1 << 24


@dataclass(frozen=True)
class Quantizer:
    """Intervals over the score line, each labelled with a class.

    ``boundaries`` are the strictly increasing interior cut points; interval i
    covers scores in (boundaries[i-1], boundaries[i]] with open ends at the
    extremes, so every real score falls into exactly one interval.
    """

    kind: str
    boundaries: Tuple[float, ...]
    interval_labels: Tuple[int, ...]
    degenerate: bool = False

    def __post_init__(self):
        if len(self.interval_labels) != len(self.boundaries) + 1:
            raise ValueError("need one label per interval")
        bs = self.boundaries
        if any(bs[i] >= bs[i + 1] for i in range(len(bs) - 1)):
            raise ValueError("boundaries must be strictly increasing")

    def classify(self, scores: np.ndarray) -> np.ndarray:
        """Label of the interval holding each score."""
        idx = np.searchsorted(np.asarray(self.boundaries, dtype=np.float64), scores,
                              side="left")
        return np.asarray(self.interval_labels, dtype=np.int64)[idx]


def _majority_labels(
    s: np.ndarray, counts: np.ndarray, boundaries: List[float]
) -> List[int]:
    """Majority class per bin (ties to class 1), from the sorted scores and
    their cumulative class counts.  An empty bin takes the label of the last
    nonempty bin before it; leading empty bins take the first nonempty bin's."""
    ends = np.searchsorted(s, np.asarray(boundaries, dtype=np.float64), side="right")
    per_bin = np.diff(counts[np.concatenate([[0], ends, [len(s)]])], axis=0)
    labs = np.where(per_bin[:, 0] >= per_bin[:, 1], 1, 2)
    filled = per_bin.sum(axis=1) > 0
    source = np.where(filled, np.arange(len(labs)), np.argmax(filled))
    return labs[np.maximum.accumulate(source)].tolist()


def _dedupe(boundaries: List[float]) -> List[float]:
    out: List[float] = []
    for b in boundaries:
        if not out or b > out[-1]:
            out.append(b)
    return out


def build_quantizer(
    scores: np.ndarray,
    labels: np.ndarray,
    num_intervals: int,
    kind: str = "equal_interval",
) -> Quantizer:
    """Fit a quantizer on training scores.

    equal_interval:    M equal-width bins over [min, max]
    equal_probability: M bins with per-bin counts differing by at most one
    min_error:         dynamic-programming boundary placement minimizing the
                       majority-vote training error (O(M n) in the number n of
                       distinct scores; ValueError past MIN_ERROR_CELLS cells)
    """
    if num_intervals < 2:
        raise ValueError("need at least 2 intervals")
    if kind not in ("equal_interval", "equal_probability", "min_error"):
        raise ValueError(f"unknown quantizer kind {kind!r}")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape[0] == 0:
        raise ValueError("no scores")
    s, _, counts = sorted_class_counts(scores, labels)
    lo, hi = float(s[0]), float(s[-1])
    if hi <= lo:
        return Quantizer(kind, (), tuple(_majority_labels(s, counts, [])), degenerate=True)

    if kind == "equal_interval":
        bounds = [lo + (hi - lo) * i / num_intervals for i in range(1, num_intervals)]
        bounds = _dedupe(bounds)
    elif kind == "equal_probability":
        # the first n % M bins hold one score more; cut where two nonempty meet
        q, r = divmod(len(s), num_intervals)
        i = np.arange(1, num_intervals)
        starts = i * q + np.minimum(i, r)
        starts = starts[starts < len(s)]
        bounds = _dedupe(((s[starts - 1] + s[starts]) / 2.0).tolist())
    else:
        bounds = _min_error_boundaries(s, counts, num_intervals)

    return Quantizer(kind, tuple(bounds), tuple(_majority_labels(s, counts, bounds)))


def _running_min(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Running minimum of a, and the first position that attains each one."""
    run = np.minimum.accumulate(a)
    new = np.ones(len(a), dtype=bool)
    new[1:] = a[1:] < run[:-1]
    return run, np.maximum.accumulate(np.where(new, np.arange(len(a)), 0))


def _min_error_boundaries(s: np.ndarray, counts: np.ndarray, m: int) -> List[float]:
    """DP over distinct sorted scores; candidate cuts are midpoints between
    consecutive distinct values.  O(m n) in the n distinct values."""
    vals = np.unique(s)
    n = len(vals)
    m = min(m, n)
    if (m - 1) * (n + 1) > MIN_ERROR_CELLS:
        raise ValueError(f"{m} min-error bins over {n} distinct scores need too much memory")
    # p1[j], p2[j]: class counts over the first j distinct values
    p1, p2 = counts[np.concatenate([[0], np.searchsorted(s, vals, side="right")])].T

    # prev[j]: least error covering values 0..j-1 with k - 1 bins
    prev = np.minimum(p1, p2)
    choice: List[np.ndarray] = []
    for k in range(2, m + 1):
        # With k bins the least error over values 0..j-1 (j = k..n, entry
        # j - k) is the least over cuts i = k-1..j-1 of prev[i] +
        # min(p1[j] - p1[i], p2[j] - p2[i]), a bin erring on its minority
        # count.  That is the smaller of p1[j] + min(prev[i] - p1[i]) and
        # p2[j] + min(prev[i] - p2[i]): two running minima over i.  The cut
        # kept is the leftmost argmin: the smaller first position of the
        # running minima that attain the row's value.
        t1, f1 = _running_min(prev[k - 1:n] - p1[k - 1:n])
        t2, f2 = _running_min(prev[k - 1:n] - p2[k - 1:n])
        t1 += p1[k:]
        t2 += p2[k:]
        row = np.minimum(t1, t2)
        cur = np.zeros(n + 1, dtype=np.int64)
        ch = np.zeros(n + 1, dtype=np.int64)
        cur[k:] = row
        ch[k:] = k - 1 + np.minimum(np.where(t1 == row, f1, n), np.where(t2 == row, f2, n))
        choice.append(ch)
        prev = cur

    cuts: List[int] = []
    j = n
    for k in range(m, 1, -1):
        i = choice[k - 2][j]
        cuts.append(i)
        j = i
    cuts.reverse()
    return _dedupe([float((vals[i - 1] + vals[i]) / 2.0) for i in cuts if 0 < i < n])
