"""Binary classification trees split on single feature components, scored by
the entropy purity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .base import LabeledSet

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
    # the two classes as columns: class 1 plus class 2, in that order
    l1, l2, r1, r2 = nl[..., 0], nl[..., 1], nr[..., 0], nr[..., 1]
    NL, NR = l1 + l2, r1 + r2
    N = NL + NR
    if (N == 0).any():
        raise ValueError("all counts are zero")
    # x ln(x / q) for each class count x of the left, the right and the
    # whole node, 0 where x = 0 (and q may be 0 too, on an empty side)
    x = np.array((l1, l2, r1, r2, l1 + r1, l2 + r2))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = x / np.array((NL, NL, NR, NR, N, N))
    ratio[x == 0] = 1.0
    t = x * np.log(ratio)
    pr = (t[0] + t[1]) + (t[2] + t[3])
    return pr, pr - (t[4] + t[5])


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
        # (node, the rows that reach it), walked by a loop: a recursive
        # closure would hold X in a reference cycle until the next collection
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if isinstance(node, TreeLeaf):
                out[rows] = node.label
            else:
                left = X[rows, node.feature] <= node.threshold
                stack += ((node.right, rows[~left]), (node.left, rows[left]))
        return out


def _best_split(v: np.ndarray, ones: np.ndarray):
    """(feature, theta, chi2, rows at or below theta) of the node's purest
    (component, threshold) candidate, or None.  Row j of the d x n v holds
    component j's values in ascending order, and the same row of ones marks
    which of them belong to class 1.  A column's candidates are the midpoints
    between adjacent distinct sorted values where the class changes; ties go
    to the smallest feature, then the smallest theta."""
    n = v.shape[1]
    # c1[j, k]: class-1 rows among the k smallest values of component j
    c1 = np.zeros((v.shape[0], n + 1), dtype=np.int64)
    np.cumsum(ones, axis=1, out=c1[:, 1:])
    cut = (ones[:, :-1] != ones[:, 1:]) & (v[:, :-1] < v[:, 1:])
    j, i = np.nonzero(cut)  # by feature, then by theta
    # flat indices: take beats 2-d indexing
    lo = v.take(j * n + i)
    hi = v.take(j * n + i + 1)
    with np.errstate(over="ignore"):
        thetas = (lo + hi) / 2.0
    at = i + 1
    # a midpoint that rounds onto its upper neighbour, or overflows, counts
    # every value of its column at or below it, and may leave a side empty
    over = np.flatnonzero(~((lo <= thetas) & (thetas < hi)))
    if over.size:
        for k in over:
            at[k] = np.searchsorted(v[j[k]], thetas[k], side="right")
        ok = (at > 0) & (at < n)
        j, thetas, at = j[ok], thetas[ok], at[ok]
    if not at.size:
        return None
    l1 = c1.take(j * (n + 1) + at)
    r1 = c1[0, n] - l1
    pr, chi2 = node_stats(np.array((l1, at - l1)).T, np.array((r1, n - at - r1)).T)
    k = int(np.argmax(pr))
    return int(j[k]), thetas[k].item(), chi2[k].item(), int(at[k])


def _grow(XT: np.ndarray, is1: np.ndarray, order: np.ndarray, depth: int,
          max_depth: int) -> TreeNodeOrLeaf:
    """The subtree of the rows in order, whose row j lists them in ascending
    order of component j of the d x N XT; is1 marks the class-1 rows.  A
    child keeps its parent's order of each component filtered by the split,
    which is the stable order of its own rows, so no node sorts.  (A module
    function: a recursive closure would hold XT in a reference cycle.)"""
    d, n = order.shape
    n1 = int(np.count_nonzero(is1[order[0]]))
    majority = TreeLeaf(2 if n - n1 > n1 else 1)  # 1 on a tie
    if depth >= max_depth or n < MIN_NODE or n1 in (0, n):
        return majority
    N = XT.shape[1]
    # flat indices of XT: one take, and compress below, beat 2-d indexing
    split = _best_split(XT.take(order + N * np.arange(d)[:, None]), is1[order])
    if split is None or split[2] < CHI2_CUTOFF:
        return majority
    j, theta, _, n_left = split
    left = np.zeros(N, dtype=bool)
    left[order[j, :n_left]] = True
    goes_left = left[order].ravel()
    rows = order.ravel()
    return TreeNode(j, float(theta),
                    _grow(XT, is1, rows.compress(goes_left).reshape(d, n_left),
                          depth + 1, max_depth),
                    _grow(XT, is1, rows.compress(~goes_left).reshape(d, n - n_left),
                          depth + 1, max_depth))


def fit_tree(data: LabeledSet) -> TreeModel:
    """Grow the tree top-down, splitting each node on its purest (component,
    threshold) candidate.  Expansion stops at depth log2(N) - 1 (at least 1),
    below MIN_NODE samples, on a pure node, on no candidate, or when the
    split's chi-square is below CHI2_CUTOFF.  Each component is sorted once,
    stably, at the root (the presorted attribute lists of SLIQ)."""
    N = data.features.shape[0]
    if N < 2:
        raise ValueError("need at least 2 training samples")
    XT = np.ascontiguousarray(data.features.T)
    return TreeModel(_grow(XT, data.labels == 1, np.argsort(XT, axis=1, kind="stable"), 0,
                           max(1, int(math.log2(N)) - 1)))
