"""Binary classification trees split on single feature components, scored by
the entropy purity (or by misclassification with type I/II error caps)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np
from scipy.special import chdtri

from .base import LabeledSet


def node_stats(counts_left: np.ndarray, counts_right: np.ndarray) -> Tuple[float, float]:
    """Purity and chi-square of a split given per-class left/right counts.

    PR = sum_c (n_Lc ln p_Lc + n_Rc ln p_Rc) with 0 ln 0 = 0;
    chi2 = PR - sum_c N_c ln(N_c / N).
    """
    nl = np.asarray(counts_left, dtype=np.float64)
    nr = np.asarray(counts_right, dtype=np.float64)
    if (nl < 0).any() or (nr < 0).any():
        raise ValueError("counts must be nonnegative")
    NL, NR = nl.sum(), nr.sum()
    N = NL + NR
    if N == 0:
        raise ValueError("all counts are zero")

    def xlogq(x: np.ndarray, q: float) -> float:
        mask = x > 0
        if q <= 0:
            return 0.0
        return float((x[mask] * np.log(x[mask] / q)).sum())

    pr = xlogq(nl, NL) + xlogq(nr, NR)
    nc = nl + nr
    const = float((nc[nc > 0] * np.log(nc[nc > 0] / N)).sum())
    return pr, pr - const


@dataclass(frozen=True)
class TreeParams:
    max_depth: Optional[int] = None       # default: log2(N) - 1 at the root
    min_node: int = 10
    chi2_cutoff: Optional[float] = None   # default: 95th pct of chi2(M-1)
    criterion: str = "purity"             # 'purity' or 'misclassification'
    eps_type1: Optional[float] = None     # only with 'misclassification'
    eps_type2: Optional[float] = None


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
    num_classes: int
    params: TreeParams

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

    def depth(self) -> int:
        def rec(node) -> int:
            if isinstance(node, TreeLeaf):
                return 0
            return 1 + max(rec(node.left), rec(node.right))
        return rec(self.root)


def _majority(labels: np.ndarray, num_classes: int) -> int:
    counts = np.bincount(labels, minlength=num_classes + 1)
    return int(np.argmax(counts[1:]) + 1)


def _candidate_thresholds(values: np.ndarray, labels: np.ndarray) -> List[float]:
    """Midpoints between adjacent sorted values where the class changes."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    y = labels[order]
    cands = set()
    for i in range(len(v) - 1):
        if y[i] != y[i + 1] and v[i] < v[i + 1]:
            cands.add((v[i] + v[i + 1]) / 2.0)
    return sorted(cands)


def _split_counts(values: np.ndarray, labels: np.ndarray, theta: float,
                  num_classes: int) -> Tuple[np.ndarray, np.ndarray]:
    left = values <= theta
    nl = np.bincount(labels[left], minlength=num_classes + 1)[1:]
    nr = np.bincount(labels[~left], minlength=num_classes + 1)[1:]
    return nl, nr


def _type_errors(nl: np.ndarray, nr: np.ndarray) -> Tuple[float, float]:
    """Type I / II errors of the split, with class c grouped on the side that
    holds the majority of its samples (ties toward the left)."""
    left_classes = nl >= nr
    nL_own = nl[left_classes].sum()
    nL_cross = nr[left_classes].sum()      # left-group units sent right
    nR_own = nr[~left_classes].sum()
    nR_cross = nl[~left_classes].sum()     # right-group units sent left
    t1 = nL_cross / (nL_own + nL_cross) if (nL_own + nL_cross) else 0.0
    t2 = nR_cross / (nR_own + nR_cross) if (nR_own + nR_cross) else 0.0
    return float(t1), float(t2)


def fit_tree(data: LabeledSet, params: TreeParams = TreeParams()) -> TreeModel:
    """Grow the tree top-down.  At each node every (component, threshold)
    candidate is scored; expansion stops on depth, small chi-square, small
    node, or no admissible threshold."""
    N = data.features.shape[0]
    if N < 2:
        raise ValueError("need at least 2 training samples")
    M = data.num_classes
    max_depth = params.max_depth
    if max_depth is None:
        max_depth = max(1, int(math.log2(N)) - 1)
    chi2_cutoff = params.chi2_cutoff
    if chi2_cutoff is None:
        chi2_cutoff = float(chdtri(max(M - 1, 1), 1.0 - 0.95))
    if params.criterion not in ("purity", "misclassification"):
        raise ValueError(f"unknown criterion {params.criterion!r}")

    def grow(X: np.ndarray, y: np.ndarray, depth: int) -> TreeNodeOrLeaf:
        if depth >= max_depth or len(y) < params.min_node or len(np.unique(y)) == 1:
            return TreeLeaf(_majority(y, M))
        best = None  # (key, feature, theta, chi2)
        for j in range(X.shape[1]):
            col = X[:, j]
            for theta in _candidate_thresholds(col, y):
                nl, nr = _split_counts(col, y, theta, M)
                if nl.sum() == 0 or nr.sum() == 0:
                    continue
                pr, chi2 = node_stats(nl, nr)
                if params.criterion == "purity":
                    key = (-pr, j, theta)
                else:
                    t1, t2 = _type_errors(nl, nr)
                    if params.eps_type1 is not None and t1 >= params.eps_type1:
                        continue
                    if params.eps_type2 is not None and t2 >= params.eps_type2:
                        continue
                    mis = (nl.sum() - nl.max()) + (nr.sum() - nr.max())
                    key = (mis, j, theta)
                if best is None or key < best[0]:
                    best = (key, j, theta, chi2)
        if best is None or best[3] < chi2_cutoff:
            return TreeLeaf(_majority(y, M))
        _, j, theta, _ = best
        mask = X[:, j] <= theta
        return TreeNode(
            j, float(theta),
            grow(X[mask], y[mask], depth + 1),
            grow(X[~mask], y[~mask], depth + 1),
        )

    return TreeModel(grow(data.features, data.labels, 0), M, params)
