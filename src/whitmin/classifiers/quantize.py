"""Score quantizers: equal-interval, equal-probability, and min-error bins."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


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

    @property
    def num_intervals(self) -> int:
        return len(self.interval_labels)

    def classify(self, scores: np.ndarray) -> np.ndarray:
        """Label of the interval holding each score."""
        idx = np.searchsorted(np.asarray(self.boundaries, dtype=np.float64), scores,
                              side="left")
        return np.asarray(self.interval_labels, dtype=np.int64)[idx]


def _majority_labels(
    scores: np.ndarray, labels: np.ndarray, boundaries: List[float]
) -> List[int]:
    """Majority class per bin; empty bins inherit the nearest labelled
    neighbour's label (ties toward the left)."""
    idx = np.searchsorted(np.asarray(boundaries), scores, side="left")
    m = len(boundaries) + 1
    labs: List[int] = []
    for i in range(m):
        in_bin = labels[idx == i]
        if len(in_bin) == 0:
            labs.append(0)
        else:
            c1 = int((in_bin == 1).sum())
            c2 = int((in_bin == 2).sum())
            labs.append(1 if c1 >= c2 else 2)
    for i in range(m):
        if labs[i] == 0:
            best = None
            for j in range(m):
                if labs[j] != 0:
                    d = abs(j - i)
                    if best is None or d < best[0]:
                        best = (d, labs[j])
            labs[i] = best[1]
    return labs


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
                       majority-vote training error (O(n^2 M) in the number of
                       distinct scores, one numpy row per bin count and end)
    """
    if num_intervals < 2:
        raise ValueError("need at least 2 intervals")
    if kind not in ("equal_interval", "equal_probability", "min_error"):
        raise ValueError(f"unknown quantizer kind {kind!r}")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape[0] == 0:
        raise ValueError("no scores")
    lo, hi = float(scores.min()), float(scores.max())
    if hi <= lo:
        lab = 1 if int((labels == 1).sum()) >= int((labels == 2).sum()) else 2
        return Quantizer(kind, (), (lab,), degenerate=True)

    order = np.argsort(scores, kind="stable")
    s = scores[order]
    y = labels[order]

    if kind == "equal_interval":
        bounds = [lo + (hi - lo) * i / num_intervals for i in range(1, num_intervals)]
        bounds = _dedupe(bounds)
    elif kind == "equal_probability":
        chunks = np.array_split(np.arange(len(s)), num_intervals)
        bounds = []
        for i in range(len(chunks) - 1):
            if len(chunks[i]) == 0 or len(chunks[i + 1]) == 0:
                continue
            bounds.append((s[chunks[i][-1]] + s[chunks[i + 1][0]]) / 2.0)
        bounds = _dedupe(bounds)
    else:
        bounds = _min_error_boundaries(s, y, num_intervals)

    return Quantizer(kind, tuple(bounds), tuple(_majority_labels(scores, labels, bounds)))


def _min_error_boundaries(s: np.ndarray, y: np.ndarray, m: int) -> List[float]:
    """DP over distinct sorted scores; candidate cuts are midpoints between
    consecutive distinct values."""
    vals = np.unique(s)
    n = len(vals)
    # per-distinct-value class counts, then prefix sums
    cnt1 = np.zeros(n, dtype=np.int64)
    cnt2 = np.zeros(n, dtype=np.int64)
    pos = np.searchsorted(vals, s)
    np.add.at(cnt1, pos[y == 1], 1)
    np.add.at(cnt2, pos[y == 2], 1)
    p1 = np.concatenate([[0], np.cumsum(cnt1)])
    p2 = np.concatenate([[0], np.cumsum(cnt2)])

    m = min(m, n)
    # prev[j]: least error covering values 0..j-1 with k - 1 bins; a bin over
    # values i..j-1 errs on its minority count
    prev = np.minimum(p1, p2)
    choice: List[np.ndarray] = []
    for k in range(2, m + 1):
        cur = np.zeros(n + 1, dtype=np.int64)
        ch = np.zeros(n + 1, dtype=np.int64)
        for j in range(k, n + 1):
            c = prev[k - 1:j] + np.minimum(p1[j] - p1[k - 1:j], p2[j] - p2[k - 1:j])
            i = int(np.argmin(c))  # the first minimum, the leftmost cut
            cur[j] = c[i]
            ch[j] = k - 1 + i
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


def quantizer_error(q: Quantizer, scores: np.ndarray, labels: np.ndarray) -> float:
    preds = q.classify(np.asarray(scores, dtype=np.float64))
    return float((preds != np.asarray(labels)).mean())
