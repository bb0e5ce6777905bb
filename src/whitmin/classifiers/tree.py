"""Binary classification trees split on single feature components, scored by
the entropy purity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .base import LabeledSet, sorted_class_counts

# Nodes with fewer samples become leaves.
MIN_NODE = 10
# A split whose chi-square falls below this is not made: the 95th percentile
# of chi-square with one degree of freedom, scipy.special.chdtri(1, 1.0 - 0.95).
CHI2_CUTOFF = 3.841458820694124


def node_stats(counts_left: np.ndarray, counts_right: np.ndarray):
    """Purity and chi-square of K splits, one per row of the K x 2 per-class
    left and right counts, as two length-K arrays.

    PR = sum_c (n_Lc ln p_Lc + n_Rc ln p_Rc) with 0 ln 0 = 0;
    chi2 = PR - sum_c N_c ln(N_c / N).
    """
    nl = np.asarray(counts_left, dtype=np.float64)
    nr = np.asarray(counts_right, dtype=np.float64)
    if (nl < 0).any() or (nr < 0).any():
        raise ValueError("counts must be nonnegative")
    NL = nl.sum(-1, keepdims=True)
    NR = nr.sum(-1, keepdims=True)
    N = NL + NR
    if (N == 0).any():
        raise ValueError("all counts are zero")

    def xlogq(x: np.ndarray, q: np.ndarray) -> np.ndarray:
        # x ln(x / q) per class in class order, 0 where x = 0
        return (x * np.log(np.divide(x, q, out=np.ones_like(x), where=x > 0))).sum(-1)

    pr = xlogq(nl, NL) + xlogq(nr, NR)
    return pr, pr - xlogq(nl + nr, N)


@dataclass(frozen=True)
class TreeNode:
    feature: int
    threshold: float
    left: "TreeNodeOrLeaf"
    right: "TreeNodeOrLeaf"


@dataclass(frozen=True)
class TreeLeaf:
    label: int


TreeNodeOrLeaf = Union[TreeNode, TreeLeaf]


@dataclass(frozen=True)
class TreeModel:
    root: TreeNodeOrLeaf

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=np.int64)

        def walk(node: TreeNodeOrLeaf, rows: np.ndarray) -> None:
            if isinstance(node, TreeLeaf):
                out[rows] = node.label
                return
            left = X[rows, node.feature] <= node.threshold
            walk(node.left, rows[left])
            walk(node.right, rows[~left])

        walk(self.root, np.arange(X.shape[0]))
        return out


def _majority(labels: np.ndarray) -> int:
    """The more frequent label, 1 on a tie."""
    return 2 if (labels == 2).sum() > (labels == 1).sum() else 1


def _best_split(X: np.ndarray, y: np.ndarray):
    """(feature, theta, chi2) of the node's purest (component, threshold)
    candidate, or None.  A column's candidates are the midpoints between
    adjacent distinct sorted values where the class changes; ties go to the
    smallest feature, then the smallest theta."""
    v, ys, counts = sorted_class_counts(X, y)
    cut = (ys[:-1] != ys[1:]) & (v[:-1] < v[1:])
    j, i = np.nonzero(cut.T)  # column-major: by feature, then by theta
    lo, hi = v[i, j], v[i + 1, j]
    with np.errstate(over="ignore"):
        thetas = (lo + hi) / 2.0
    nl = counts[i + 1, j]
    # a midpoint that rounds onto its upper neighbour, or overflows, counts
    # every value of its column at or below it
    for k in np.flatnonzero(~((lo <= thetas) & (thetas < hi))):
        nl[k] = counts[np.searchsorted(v[:, j[k]], thetas[k], side="right"), j[k]]
    nr = counts[-1, j] - nl
    # ... and may leave a side empty
    ok = (nl.sum(-1) > 0) & (nr.sum(-1) > 0)
    if not ok.any():
        return None
    pr, chi2 = node_stats(nl[ok], nr[ok])
    k = int(np.argmax(pr))
    return int(j[ok][k]), thetas[ok][k].item(), chi2[k].item()


def fit_tree(data: LabeledSet) -> TreeModel:
    """Grow the tree top-down, splitting each node on its purest (component,
    threshold) candidate.  Expansion stops at depth log2(N) - 1 (at least 1),
    below MIN_NODE samples, on a pure node, on no candidate, or when the
    split's chi-square is below CHI2_CUTOFF."""
    N = data.features.shape[0]
    if N < 2:
        raise ValueError("need at least 2 training samples")
    max_depth = max(1, int(math.log2(N)) - 1)

    def grow(X: np.ndarray, y: np.ndarray, depth: int) -> TreeNodeOrLeaf:
        if depth >= max_depth or len(y) < MIN_NODE or len(np.unique(y)) == 1:
            return TreeLeaf(_majority(y))
        split = _best_split(X, y)
        if split is None or split[2] < CHI2_CUTOFF:
            return TreeLeaf(_majority(y))
        j, theta, _ = split
        mask = X[:, j] <= theta
        return TreeNode(
            j, float(theta),
            grow(X[mask], y[mask], depth + 1),
            grow(X[~mask], y[~mask], depth + 1),
        )

    return TreeModel(grow(data.features, data.labels, 0))
