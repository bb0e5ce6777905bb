"""Binary classification trees split on single feature components, scored by
the entropy purity (or by misclassification with type I/II error caps)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
from scipy.special import chdtri

from .base import LabeledSet, sorted_class_counts


def node_stats(counts_left: np.ndarray, counts_right: np.ndarray):
    """Purity and chi-square of a split given per-class left/right counts.

    PR = sum_c (n_Lc ln p_Lc + n_Rc ln p_Rc) with 0 ln 0 = 0;
    chi2 = PR - sum_c N_c ln(N_c / N).  On K x M counts, one split per row:
    returns two length-K arrays instead of two floats.
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
    chi2 = pr - xlogq(nl + nr, N)
    if nl.ndim == 1:
        return float(pr), float(chi2)
    return pr, chi2


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


def _type_errors(nl: np.ndarray, nr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Type I / II errors of each split (row), with class c grouped on the side
    that holds the majority of its samples (ties toward the left)."""
    left_classes = nl >= nr
    nL_own = np.where(left_classes, nl, 0).sum(-1)
    nL_cross = np.where(left_classes, nr, 0).sum(-1)    # left-group units sent right
    nR_own = np.where(left_classes, 0, nr).sum(-1)
    nR_cross = np.where(left_classes, 0, nl).sum(-1)    # right-group units sent left

    def rate(cross: np.ndarray, own: np.ndarray) -> np.ndarray:
        total = own + cross
        return np.divide(cross, total, out=np.zeros(total.shape), where=total > 0)

    return rate(nL_cross, nL_own), rate(nR_cross, nR_own)


def _best_split(col: np.ndarray, y: np.ndarray, M: int, params: TreeParams):
    """(key, theta, chi2) of the column's best admissible threshold, or None.
    Candidates are the midpoints between adjacent distinct sorted values
    where the class changes; ties go to the smallest theta."""
    v, ys, counts = sorted_class_counts(col, y, M)
    cut = (ys[:-1] != ys[1:]) & (v[:-1] < v[1:])
    thetas = np.unique((v[:-1][cut] + v[1:][cut]) / 2.0)
    nl = counts[np.searchsorted(v, thetas, side="right")]
    nr = counts[-1] - nl
    ok = (nl.sum(-1) > 0) & (nr.sum(-1) > 0)
    if params.criterion == "misclassification":
        t1, t2 = _type_errors(nl, nr)
        if params.eps_type1 is not None:
            ok &= t1 < params.eps_type1
        if params.eps_type2 is not None:
            ok &= t2 < params.eps_type2
    if not ok.any():
        return None
    thetas, nl, nr = thetas[ok], nl[ok], nr[ok]
    pr, chi2 = node_stats(nl, nr)
    if params.criterion == "purity":
        keys = -pr
    else:
        keys = (nl.sum(-1) - nl.max(-1)) + (nr.sum(-1) - nr.max(-1))
    i = int(np.argmin(keys))
    return keys[i].item(), thetas[i].item(), chi2[i].item()


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
            split = _best_split(X[:, j], y, M, params)
            if split is not None:
                key, theta, chi2 = split
                if best is None or (key, j, theta) < best[:3]:
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
