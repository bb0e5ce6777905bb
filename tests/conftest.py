import importlib
import itertools

import numpy as np
import pytest

from whitmin.automorphisms import NIELSEN_MOVES, TypeII, apply_automorphism
from whitmin.numerics import SVM_C
from whitmin.words import MIN_RANK, CyclicWord

# the classifiers package exports the function kmeans under its module's name
kmeans_module = importlib.import_module("whitmin.classifiers.kmeans")


def enumerate_type2(rank):
    """All proper type-II automorphisms, multiplier ascending then A-bitmask
    ascending: the minimality oracle.  Excludes A = {a} (identity) and
    A = everything but a^-1 (an inner automorphism).  There are
    2r (2^(2r-2) - 2) of them, so keep the rank small."""
    if rank < MIN_RANK:
        raise ValueError(f"rank must be >= {MIN_RANK}, got {rank}")
    result = []
    m = 2 * rank
    for a in range(m):
        others = [c for c in range(m) if c != a and c != a ^ 1]
        full = (1 << len(others)) - 1
        for mask in range(1, full):
            subset = frozenset([a] + [others[i] for i in range(len(others))
                                      if mask >> i & 1])
            result.append(TypeII(rank, a, subset))
    return result


def all_reduced_words(rank, length):
    """Every freely reduced code tuple of the given length."""
    if length == 0:
        yield ()
        return
    m = 2 * rank

    def rec(prefix):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for c in range(m):
            if prefix and c == prefix[-1] ^ 1:
                continue
            yield from rec(prefix + [c])

    yield from rec([])


def all_cyclic_words(rank, length):
    """Every distinct cyclically reduced word (canonical form) of the length."""
    seen = set()
    for codes in all_reduced_words(rank, length):
        if length >= 2 and codes[0] == codes[-1] ^ 1:
            continue
        w = CyclicWord(codes, rank)
        if w.letters not in seen:
            seen.add(w.letters)
            yield w


def bfs_orbit_min(w: CyclicWord) -> int:
    """Independent minimization oracle: breadth-first closure of the orbit
    under all proper type-II automorphisms, never exceeding the start length,
    returning the smallest cyclic length seen."""
    autos = enumerate_type2(w.rank)
    best = len(w)
    seen = {w.letters}
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            for t in autos:
                v = apply_automorphism(t, u)
                if len(v) <= len(u) and v.letters not in seen:
                    seen.add(v.letters)
                    best = min(best, len(v))
                    nxt.append(v)
        frontier = nxt
    return best


def nielsen_minimize(w: CyclicWord):
    """Rank-2 minimization oracle: steepest descent over the four Nielsen
    moves, priced by applying them.  Each step takes the shortest image,
    first in NIELSEN_MOVES order, while it is shorter than the word; returns
    the word reached and the chain of moves taken."""
    chain = []
    while len(w) > 1:
        images = [apply_automorphism(m.automorphism, w) for m in NIELSEN_MOVES]
        best = min(range(len(images)), key=lambda i: len(images[i]))
        if len(images[best]) >= len(w):
            break
        chain.append(NIELSEN_MOVES[best].automorphism)
        w = images[best]
    return w, chain


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def kmeans_objectives(monkeypatch, X, init):
    """The squared-distance objective after each assignment-and-update round
    of kmeans(X, init).  Each one-round call (MAX_ITER = 1) repeats one round
    of the full run from the centers the last call returned, for as many
    rounds as the full run takes."""
    rounds = kmeans_module.kmeans(X, init).iterations
    history, centers = [], init
    with monkeypatch.context() as mp:
        mp.setattr(kmeans_module, "MAX_ITER", 1)
        for _ in range(rounds):
            model = kmeans_module.kmeans(X, centers)
            history.append(float(((X - model.centers[model.assignments]) ** 2).sum()))
            centers = model.centers
    return history


def unique_candidates_threshold(scores, labels):
    """choose_threshold as one 1-d search: the unique candidates in theta
    order, one searchsorted, the first least (theta, orientation) error."""
    order = np.argsort(scores, kind="stable")
    s, y = scores[order], labels[order]
    change = y[:-1] != y[1:]
    with np.errstate(over="ignore"):
        cands = np.unique(np.append((s[:-1][change] + s[1:][change]) / 2.0, s[-1]))
    k = np.searchsorted(s, cands, side="right")
    le1 = np.concatenate([[0], np.cumsum(y == 1)])[k]
    le2 = np.concatenate([[0], np.cumsum(y == 2)])[k]
    n1, n2 = (y == 1).sum(), (y == 2).sum()
    err = np.stack([le2 + (n1 - le1), le1 + (n2 - le2)], axis=1)
    k, orient = divmod(int(np.argmin(err)), 2)
    return float(cands[k]), orient + 1, int(err[k, orient]) / len(s)


def one_matrix_least_squares(A, b):
    """Normal-equation least squares of one matrix, with the ridge rule
    written out."""
    G = A.T @ A
    evals = np.linalg.eigvalsh(G)
    if not (evals[-1] > 0.0 and evals[0] >= 1e-12 * evals[-1]):
        ridge = 1e-8 * max(np.trace(G), 1e-300) / G.shape[0] + np.finfo(float).tiny
        G = G + ridge * np.eye(G.shape[0])
    return np.linalg.solve(G, A.T @ b)


def svm_kkt_residual(Z, w):
    """The largest component of the soft-margin SVM's gradient,
    w - C Z'max(0, 1 - Zw), relative to the largest of w."""
    g = w - SVM_C * Z.T @ np.maximum(1.0 - Z @ w, 0.0)
    return np.abs(g).max() / np.abs(w).max()
