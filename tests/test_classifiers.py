import dataclasses
import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import chdtri

from whitmin.classifiers import (LabeledSet, Quantizer, build_quantizer, choose_threshold,
                                 fit_distance, fit_linear, fit_tree, kmeans,
                                 node_stats, threshold_labels)
from whitmin.classifiers.base import _column_thresholds, sorted_class_counts
from whitmin.classifiers.flats import _discriminant
from whitmin.classifiers import quantize, tree as tree_module
from whitmin.classifiers.quantize import (_dedupe, _majority_labels,
                                          _min_error_boundaries)
from whitmin.classifiers.serialize import (ModelFormatError, model_from_dict,
                                           model_to_dict, to_json)
from whitmin.classifiers.tree import TreeLeaf, TreeNode
from whitmin import numerics
from whitmin.numerics import mean_and_covariance, ridge_if_singular

from conftest import kmeans_objectives, svm_kkt_residual, unique_candidates_threshold


def json_round_trip(model, dim=3):
    return model_from_dict(json.loads(json.dumps(model_to_dict(model))), dim)


def quantizer_error(q, scores, labels):
    return float((q.classify(scores) != labels).mean())


def tree_depth(model):
    def rec(node):
        if isinstance(node, TreeLeaf):
            return 0
        return 1 + max(rec(node.left), rec(node.right))
    return rec(model.root)


def random_scores(rng, n):
    """Continuous, tied, tiny or huge scores."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return rng.normal(size=n)
    if kind == 1:
        return rng.integers(0, 5, size=n).astype(float)
    if kind == 2:
        return rng.normal(size=n) * 10.0 ** int(rng.integers(-300, 308))
    return np.round(rng.normal(size=n) * 1e6, 1)


THRESHOLD_CASES = ("ties", "constant", "one_of_a_class", "adjacent", "overflow")


def two_blob_set(rng, n=60, d=3, sep=4.0):
    # blobs at +-sep/2 so the homogeneous (no-bias) discriminants apply
    X1 = rng.normal(size=(n, d)) - sep / 2.0
    X2 = rng.normal(size=(n, d)) + sep / 2.0
    X = np.vstack([X1, X2])
    y = np.array([1] * n + [2] * n)
    return LabeledSet(X, y)


class TestLabeledSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledSet(np.ones((2, 2)), np.array([1, 3]))
        with pytest.raises(ValueError):
            LabeledSet(np.ones((2, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            LabeledSet(np.ones((2, 2)), np.array([1]))

    def test_class_moments(self):
        s = LabeledSet(np.arange(6).reshape(3, 2), np.array([1, 2, 1]))
        (n1, mu1, C1), (n2, mu2, C2) = s.class_moments()
        assert (n1, n2) == (2, 1)
        assert mu1.tolist() == [2.0, 3.0] and mu2.tolist() == [2.0, 3.0]
        assert C1.shape == C2.shape == (2, 2)
        with pytest.raises(ValueError, match="both classes must be nonempty"):
            LabeledSet(np.ones((2, 2)), np.array([2, 2])).class_moments()


class TestThreshold:
    def test_perfectly_separated(self):
        theta, orient, err = choose_threshold(
            np.array([0.0, 1.0, 10.0, 11.0]), np.array([1, 1, 2, 2]))
        assert theta == 5.5 and orient == 1 and err == 0.0

    def test_orientation_flip(self):
        theta, orient, err = choose_threshold(
            np.array([0.0, 1.0, 10.0, 11.0]), np.array([2, 2, 1, 1]))
        assert orient == 2 and err == 0.0
        assert threshold_labels(np.array([0.5, 10.5]), theta, orient).tolist() == [2, 1]

    def test_minimizes_error_exhaustively(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 25))
            scores = rng.normal(size=n)
            labels = rng.integers(1, 3, size=n)
            if not ((labels == 1).any() and (labels == 2).any()):
                continue
            theta, orient, err = choose_threshold(scores, labels)
            preds = threshold_labels(scores, theta, orient)
            assert abs((preds != labels).mean() - err) < 1e-12
            # brute force over a fine grid of thresholds
            grid = np.concatenate([scores - 1e-9, scores + 1e-9, [scores.min() - 1]])
            best = min(
                min(((np.where(scores <= t, o, 3 - o)) != labels).mean()
                    for o in (1, 2))
                for t in grid)
            assert err <= best + 1e-12


    def test_matches_candidate_loop(self):
        rng = np.random.default_rng(27)
        checked = 0
        while checked < 2000:
            n = int(rng.integers(2, 40))
            scores, labels = random_scores(rng, n), rng.integers(1, 3, size=n)
            if not ((labels == 1).any() and (labels == 2).any()):
                continue
            got = choose_threshold(scores, labels)
            want = _loop_threshold(scores, labels)
            assert got == want and [type(x) for x in got] == [float, int, float]
            checked += 1

    @pytest.mark.parametrize("kind", THRESHOLD_CASES)
    def test_columns_match_one_column_oracle(self, kind):
        rng = np.random.default_rng(THRESHOLD_CASES.index(kind))
        for _ in range(300):
            n, c = int(rng.integers(2, 30)), int(rng.integers(1, 6))
            S = np.column_stack([threshold_case(rng, kind, n) for _ in range(c)])
            labels = rng.integers(1, 3, size=n)
            if kind == "one_of_a_class":
                labels[:] = rng.integers(1, 3)
                labels[rng.integers(n)] = 3 - labels[0]
            if not ((labels == 1).any() and (labels == 2).any()):
                continue
            with np.errstate(all="raise"):
                theta, orient, err = _column_thresholds(S, labels)
                ones = [choose_threshold(S[:, j], labels) for j in range(c)]
            for j in range(c):
                want = _bits(unique_candidates_threshold(S[:, j], labels))
                assert _bits((theta[j].item(), int(orient[j]), int(err[j]) / n)) == want
                assert _bits(ones[j]) == want


def threshold_case(rng, kind, n):
    """One column of scores of the given kind."""
    if kind == "ties":
        return rng.integers(0, 4, size=n).astype(float)
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "one_of_a_class":
        return random_scores(rng, n)
    if kind == "adjacent":
        return adjacent_floats(rng, n)
    # midpoints of these overflow to +-inf
    return rng.choice([-1.7e308, -1.6e308, -1e308, 0.0, 1e308, 1.6e308, 1.7e308], size=n)


def _bits(result):
    theta, orient, err = result
    return float.hex(theta), orient, float.hex(err)


def _loop_threshold(scores, labels):
    """One searchsorted per candidate, the least (error, theta, orientation)
    tuple."""
    order = np.argsort(scores, kind="stable")
    s, y = scores[order], labels[order]
    n = len(s)
    cands = sorted({(s[i] + s[i + 1]) / 2.0 for i in range(n - 1) if y[i] != y[i + 1]})
    cands.append(float(s[-1]))
    ones, twos = np.cumsum(y == 1), np.cumsum(y == 2)
    best = None
    for theta in cands:
        k = int(np.searchsorted(s, theta, side="right"))
        le1 = int(ones[k - 1]) if k else 0
        le2 = int(twos[k - 1]) if k else 0
        for orient, err in ((1, le2 + (ones[-1] - le1)), (2, le1 + (twos[-1] - le2))):
            if best is None or (err, theta, orient) < best:
                best = (err, theta, orient)
    err, theta, orient = best
    return float(theta), int(orient), int(err) / n


class TestSortedClassCounts:
    def test_rows_count_each_prefix(self):
        rng = np.random.default_rng(28)
        values = rng.integers(0, 6, size=50).astype(float)
        labels = rng.integers(1, 3, size=50)
        v, y, counts = sorted_class_counts(values, labels)
        order = np.argsort(values, kind="stable")
        assert np.array_equal(v, values[order]) and np.array_equal(y, labels[order])
        assert counts.shape == (51, 2) and counts.dtype == np.int64
        for theta in np.arange(-1.0, 7.0, 0.5):
            row = counts[np.searchsorted(v, theta, side="right")]
            assert row.tolist() == [int(((values <= theta) & (labels == c)).sum())
                                    for c in (1, 2)]

    def test_columns_match_one_dimensional_calls(self):
        rng = np.random.default_rng(29)
        for n, d in [(1, 1), (2, 3), (50, 4), (200, 7)]:
            X = rng.integers(0, 4, size=(n, d)).astype(float)  # ties in every column
            X[:, -1] = rng.normal(size=n)
            labels = np.resize([1, 2], n)
            rng.shuffle(labels)
            v, y, counts = sorted_class_counts(X, labels)
            assert v.shape == y.shape == (n, d) and counts.shape == (n + 1, d, 2)
            assert counts.dtype == np.int64
            for j in range(d):
                vj, yj, cj = sorted_class_counts(X[:, j], labels)
                assert v[:, j].tobytes() == vj.tobytes()
                assert np.array_equal(y[:, j], yj) and np.array_equal(counts[:, j], cj)


class TestDistance:
    def test_mahalanobis_separates_blobs(self):
        rng = np.random.default_rng(3)
        data = two_blob_set(rng, sep=6.0)
        model = fit_distance(data)
        preds = model.predict(data.features)
        assert (preds == data.labels).mean() > 0.97

    def test_mahalanobis_accounts_for_scale(self):
        rng = np.random.default_rng(4)
        # class 1 wide, class 2 narrow; the point sits 2 units from both means
        X1 = rng.normal(scale=4.0, size=(400, 1))
        X2 = rng.normal(scale=0.25, size=(400, 1)) + 4.0
        data = LabeledSet(np.vstack([X1, X2]), np.array([1] * 400 + [2] * 400))
        model = fit_distance(data)
        assert model.predict(np.array([[2.0]])).tolist() == [1]

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        data = two_blob_set(rng)
        model = fit_distance(data)
        clone = json_round_trip(model)
        X = data.features[:10]
        assert np.array_equal(clone.predict(X), model.predict(X))
        assert np.array_equal(clone.scores(X), model.scores(X))

    def test_scores_match_row_formula(self):
        # scores(X) must be bit-equal to the one-row formulas, or the fitted
        # theta moves
        rng = np.random.default_rng(25)
        data = two_blob_set(rng, d=5)
        X = data.features
        m = fit_distance(data)
        rows = [float((x - m.mu1) @ m.inv_cov1 @ (x - m.mu1)
                      - (x - m.mu2) @ m.inv_cov2 @ (x - m.mu2)) for x in X]
        assert m.scores(X).tolist() == rows

    @pytest.mark.parametrize("n", [1, 2, 300])
    @pytest.mark.parametrize("d", [1, 2, 60])
    def test_stacked_scores_match_row_loop(self, n, d):
        # guards the stacked product against a numpy or BLAS routing change
        rng = np.random.default_rng(n * 100 + d)
        X1 = rng.integers(0, 4, size=(40, d)).astype(float)
        # class 1 repeats a column, so its covariance needs the ridge
        X1[:, 0] = X1[:, -1]
        X2 = rng.normal(size=(40, d)) + 1.0
        m = fit_distance(LabeledSet(np.vstack([X1, X2]), np.repeat([1, 2], 40)))
        assert m.ridge_repaired == (d > 1)
        for X in (rng.normal(size=(n, d)), rng.integers(0, 5, size=(n, d)) / 7.0):
            args = (X, m.mu1, m.mu2, m.inv_cov1, m.inv_cov2)
            assert _discriminant(*args).tobytes() == _row_loop_discriminant(*args).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 60])
    @pytest.mark.parametrize("singular", [(), (1,), (2,), (1, 2)])
    def test_stacked_inverses_match_one_matrix_at_a_time(self, d, singular):
        rng = np.random.default_rng(d * 10 + len(singular))
        classes = []
        for c in (1, 2):
            X = rng.normal(size=(200, d)) * rng.uniform(0.5, 3.0, size=d) + c
            if c in singular:
                X[:, 0] = 0.0 if d == 1 else X[:, -1]
            classes.append(X)
        # a zero 1 x 1 covariance gets a tiny ridge, so its scores overflow
        with np.errstate(over="ignore", invalid="ignore"):
            m = fit_distance(LabeledSet(np.vstack(classes), np.repeat([1, 2], 200)))
        (inv1, rep1), (inv2, rep2) = (_inv_with_ridge(mean_and_covariance(X)[1])
                                      for X in classes)
        assert (rep1, rep2) == (1 in singular, 2 in singular)
        assert m.inv_cov1.tobytes() == inv1.tobytes()
        assert m.inv_cov2.tobytes() == inv2.tobytes()
        assert m.ridge_repaired is bool(singular)


def _inv_with_ridge(C):
    """One covariance's ridge repair and symmetrized inverse, on its own."""
    C, repaired = ridge_if_singular(C)
    inv = np.linalg.inv(C)
    return (inv + inv.T) / 2.0, repaired


def _row_loop_discriminant(X, mu1, mu2, inv1, inv2):
    """The discriminant one row at a time."""
    out = np.empty(X.shape[0])
    for i, x in enumerate(np.asarray(X, dtype=np.float64)):
        d1 = x - mu1
        d2 = x - mu2
        out[i] = d1 @ inv1 @ d1 - d2 @ inv2 @ d2
    return out


class TestLinear:
    @pytest.mark.parametrize("method", ["regression", "fisher", "svm"])
    def test_separates_blobs(self, method):
        rng = np.random.default_rng(6)
        data = two_blob_set(rng, sep=6.0)
        model = fit_linear(data, method=method)
        preds = model.predict(data.features)
        assert (preds == data.labels).mean() > 0.97

    def test_svm_margins(self):
        # the weights are the soft-margin optimum of the rows y_k x_k
        rng = np.random.default_rng(8)
        data = two_blob_set(rng, sep=8.0)
        model = fit_linear(data, method="svm")
        y = np.where(data.labels == 1, 1.0, -1.0)
        assert svm_kkt_residual(data.features * y[:, None], model.weights) < 1e-12

    def test_unknown_method(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            fit_linear(two_blob_set(rng), method="perceptron")

    @pytest.mark.parametrize("method", ["regression", "fisher", "svm", "distance"])
    def test_fit_cell_budget(self, monkeypatch, method):
        # d x d = 9 cells: refused below, fitted at the budget; a tree needs
        # no d x d matrix
        fit = fit_distance if method == "distance" else lambda d: fit_linear(d, method)
        data = two_blob_set(np.random.default_rng(11))
        monkeypatch.setattr(numerics, "FIT_CELLS", 8)
        with pytest.raises(ValueError, match="budget"):
            fit(data)
        fit_tree(data)
        monkeypatch.setattr(numerics, "FIT_CELLS", 9)
        fit(data)

    def test_round_trip_with_quantizer(self):
        rng = np.random.default_rng(10)
        data = two_blob_set(rng)
        model = fit_linear(data, method="regression")
        q = build_quantizer(model.scores(data.features), data.labels, 10)
        model = dataclasses.replace(model, quantizer=q)
        clone = json_round_trip(model)
        assert np.array_equal(clone.weights, model.weights)
        assert clone.quantizer == model.quantizer
        X = data.features[:10]
        assert np.array_equal(clone.predict(X), model.predict(X))


class TestQuantizers:
    def test_equal_interval_bounds(self):
        scores = np.linspace(0.0, 1.0, 101)
        labels = np.where(scores < 0.5, 1, 2)
        q = build_quantizer(scores, labels, 4, kind="equal_interval")
        assert q.boundaries == (0.25, 0.5, 0.75)
        assert q.interval_labels == (1, 1, 2, 2)

    def test_equal_probability_balanced(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=1000)
        labels = np.where(scores < 0, 1, 2)
        q = build_quantizer(scores, labels, 10, kind="equal_probability")
        idx = np.searchsorted(np.asarray(q.boundaries), scores, side="left")
        counts = np.bincount(idx, minlength=len(q.interval_labels))
        assert counts.max() - counts.min() <= 2

    def test_min_error_beats_equal_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            scores = rng.normal(size=120)
            labels = np.where(scores + rng.normal(scale=0.5, size=120) > 0, 2, 1)
            qe = build_quantizer(scores, labels, 6, kind="equal_interval")
            qm = build_quantizer(scores, labels, 6, kind="min_error")
            assert quantizer_error(qm, scores, labels) <= \
                quantizer_error(qe, scores, labels) + 1e-12
        # when classes separate perfectly, min_error reaches zero
        s = np.arange(20.0)
        y = np.where(s < 7, 1, 2)
        qm = build_quantizer(s, y, 4, kind="min_error")
        assert quantizer_error(qm, s, y) == 0.0

    def test_min_error_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(400):
            n = int(rng.integers(1, 11))
            m = int(rng.integers(2, 5))
            scores = rng.integers(0, 6, size=n).astype(float)
            labels = rng.integers(1, 3, size=n)
            q = build_quantizer(scores, labels, m, kind="min_error")
            errors = round(quantizer_error(q, scores, labels) * n)
            assert errors == _least_binned_error(scores, labels, m)

    def test_min_error_matches_quadratic_dp(self):
        rng = np.random.default_rng(33)
        for _ in range(2000):
            n = int(rng.integers(1, 90))
            scores = random_scores(rng, n) if rng.random() < 0.5 else \
                rng.integers(0, int(rng.integers(1, 60)), size=n).astype(float)
            labels = rng.integers(1, 3, size=n)
            m = int(rng.integers(2, 12))
            s, counts = _sorted_counts(scores, labels)
            assert _min_error_boundaries(s, counts, m) == \
                _quadratic_min_error_boundaries(s, counts, m)

    def test_min_error_on_10000_scores_in_100_bins(self):
        rng = np.random.default_rng(34)
        scores = rng.normal(size=10000)
        labels = np.where(scores + rng.normal(scale=0.7, size=10000) > 0, 2, 1)
        assert len(np.unique(scores)) == 10000
        t = time.perf_counter()
        qm = build_quantizer(scores, labels, 100, kind="min_error")
        assert time.perf_counter() - t < 2.0
        assert len(qm.interval_labels) <= 100
        for kind in ("equal_interval", "equal_probability"):
            q = build_quantizer(scores, labels, 100, kind=kind)
            assert quantizer_error(qm, scores, labels) <= quantizer_error(q, scores, labels)

    def test_min_error_over_cell_budget(self, monkeypatch):
        # 10 distinct scores in m bins keep (m - 1) x 11 back-pointer cells
        monkeypatch.setattr(quantize, "MIN_ERROR_CELLS", 3 * 11)
        scores = np.arange(10.0)
        labels = np.tile([1, 2], 5)
        assert len(build_quantizer(scores, labels, 4, kind="min_error").boundaries) == 3
        with pytest.raises(ValueError, match="5 min-error bins over 10 distinct scores"):
            build_quantizer(scores, labels, 5, kind="min_error")
        build_quantizer(scores, labels, 5, kind="equal_interval")

    def test_intervals_partition_the_line(self):
        q = Quantizer("equal_interval", (0.0, 1.0), (1, 2, 1))
        assert q.classify(-5.0) == 1
        assert q.classify(0.0) == 1    # right-closed intervals
        assert q.classify(0.5) == 2
        assert q.classify(1.0) == 2
        assert q.classify(9.0) == 1
        scores = np.array([-5.0, 0.0, 0.5, 1.0, 9.0])
        assert q.classify(scores).tolist() == [1, 1, 2, 2, 1]

    def test_empty_bins_inherit_neighbour(self):
        scores = np.array([0.0, 0.01, 10.0, 10.01])
        labels = np.array([1, 1, 2, 2])
        q = build_quantizer(scores, labels, 8, kind="equal_interval")
        assert 0 not in q.interval_labels
        assert q.classify(3.0) in (1, 2)

    @pytest.mark.parametrize("scores, labels, bounds, want", [
        ([5.0, 6.0], [2, 2], [0.0, 1.0, 5.5], [2, 2, 2, 2]),        # leading
        ([0.0, 0.5, 3.0], [1, 1, 2], [1.0, 2.0], [1, 1, 2]),      # inner
        ([0.0, 3.0], [2, 1], [1.0, 4.0, 5.0], [2, 1, 1, 1]),      # trailing
        ([0.0, 0.0, 4.0, 4.0], [1, 2, 2, 2], [1.0, 2.0, 3.0], [1, 1, 1, 2]),  # tie to 1
    ])
    def test_empty_bins_take_the_last_label_before(self, scores, labels, bounds, want):
        scores, labels = np.array(scores), np.array(labels)
        got = _majority_labels(*_sorted_counts(scores, labels), bounds)
        assert got == want == _loop_majority_labels(scores, labels, bounds)

    def test_majority_labels_match_fill_loop(self):
        rng = np.random.default_rng(29)
        for _ in range(3000):
            n = int(rng.integers(1, 30))
            scores, labels = random_scores(rng, n), rng.integers(1, 3, size=n)
            pool = np.concatenate([scores, rng.normal(size=4) * np.abs(scores).max()])
            bounds = sorted(set(rng.choice(pool, size=int(rng.integers(0, 10))).tolist()))
            got = _majority_labels(*_sorted_counts(scores, labels), bounds)
            assert got == _loop_majority_labels(scores, labels, bounds)
            assert all(type(x) is int for x in got)

    def test_degenerate_all_equal(self):
        q = build_quantizer(np.zeros(5), np.array([1, 1, 1, 2, 2]), 4)
        assert q.degenerate and q.classify(0.0) == 1


def _sorted_counts(scores, labels):
    s, _, counts = sorted_class_counts(scores, labels)
    return s, counts


def _quadratic_min_error_boundaries(s, counts, m):
    """The min-error DP with one numpy row per bin count and end j, each
    taking the first argmin over every cut i < j: O(m n^2)."""
    vals = np.unique(s)
    n = len(vals)
    p1, p2 = counts[np.concatenate([[0], np.searchsorted(s, vals, side="right")])].T
    m = min(m, n)
    prev = np.minimum(p1, p2)
    choice = []
    for k in range(2, m + 1):
        cur = np.zeros(n + 1, dtype=np.int64)
        ch = np.zeros(n + 1, dtype=np.int64)
        for j in range(k, n + 1):
            c = prev[k - 1:j] + np.minimum(p1[j] - p1[k - 1:j], p2[j] - p2[k - 1:j])
            i = int(np.argmin(c))
            cur[j] = c[i]
            ch[j] = k - 1 + i
        choice.append(ch)
        prev = cur
    cuts = []
    j = n
    for k in range(m, 1, -1):
        j = int(choice[k - 2][j])
        cuts.append(j)
    cuts.reverse()
    return _dedupe([float((vals[i - 1] + vals[i]) / 2.0) for i in cuts if 0 < i < n])


def _loop_majority_labels(scores, labels, boundaries):
    """One mask per bin, then the in-place fill: each empty bin takes the
    label of the nearest bin labelled so far, ties toward the left."""
    idx = np.searchsorted(np.asarray(boundaries), scores, side="left")
    m = len(boundaries) + 1
    labs = []
    for i in range(m):
        in_bin = labels[idx == i]
        if len(in_bin) == 0:
            labs.append(0)
        else:
            labs.append(1 if (in_bin == 1).sum() >= (in_bin == 2).sum() else 2)
    for i in range(m):
        if labs[i] == 0:
            _, j = min((abs(j - i), j) for j in range(m) if labs[j])
            labs[i] = labs[j]
    return labs


def _least_binned_error(scores, labels, m):
    """Least majority-vote error over every set of at most m - 1 cuts at
    midpoints between distinct scores."""
    vals = np.unique(scores)
    mids = (vals[:-1] + vals[1:]) / 2.0
    best = len(scores)
    for k in range(min(m - 1, len(mids)) + 1):
        for cuts in itertools.combinations(mids, k):
            bins = np.searchsorted(np.array(cuts), scores)
            err = sum(min(int(((bins == b) & (labels == 1)).sum()),
                          int(((bins == b) & (labels == 2)).sum()))
                      for b in range(k + 1))
            best = min(best, err)
    return best


class TestNodeStats:
    def test_pure_split_maximizes_purity(self):
        (pr_pure, pr_mixed), (chi_pure, chi_mixed) = node_stats([[10, 0], [5, 5]],
                                                                [[0, 10], [5, 5]])
        assert pr_pure > pr_mixed
        assert chi_pure > chi_mixed
        assert abs(chi_mixed) < 1e-12

    def test_chi2_is_shifted_purity(self):
        # chi2 - PR depends only on the class totals, not on the split
        rng = np.random.default_rng(13)
        for _ in range(50):
            tot = rng.integers(1, 30, size=2)
            left = rng.integers(0, tot + 1, size=(5, 2))
            pr, chi = node_stats(left, tot - left)
            assert np.ptp(chi - pr) < 1e-9

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            node_stats([[-1, 2]], [[0, 0]])
        with pytest.raises(ValueError):
            node_stats([[0, 0]], [[0, 0]])
        with pytest.raises(ValueError):
            node_stats([[1, 2], [0, 0]], [[3, 0], [0, 0]])

    def test_rows_match_single_calls_bit_for_bit(self):
        rng = np.random.default_rng(30)
        for _ in range(6):
            nl = rng.integers(0, 40, size=(50, 2))
            nr = rng.integers(0, 40, size=(50, 2))
            nl[rng.random(nl.shape) < 0.3] = 0
            nr[0] = 0   # one-sided splits score too
            nl[0, 0] += 1
            nr[1:, 0] += 1
            pr, chi2 = node_stats(nl, nr)
            assert pr.shape == chi2.shape == (50,)
            for k in range(50):
                one = [float(x[0]) for x in node_stats(nl[k:k + 1], nr[k:k + 1])]
                assert [float.hex(x) for x in one] == \
                    [float.hex(float(pr[k])), float.hex(float(chi2[k]))]
                assert tuple(one) == _masked_node_stats(nl[k], nr[k])


def _masked_node_stats(nl, nr):
    """PR and chi2 summing only the positive counts' terms."""
    nl, nr = np.asarray(nl, dtype=np.float64), np.asarray(nr, dtype=np.float64)

    def xlogq(x, q):
        x = x[x > 0]
        return float((x * np.log(x / q)).sum()) if q > 0 else 0.0

    nc = nl + nr
    pr = xlogq(nl, nl.sum()) + xlogq(nr, nr.sum())
    return pr, pr - xlogq(nc, nc.sum())


class TestTree:
    def test_learns_interval_class(self):
        rng = np.random.default_rng(14)
        X = rng.uniform(-2, 2, size=(400, 2))
        y = np.where(np.abs(X[:, 0]) < 1.0, 1, 2)  # needs two splits on x0
        data = LabeledSet(X, y)
        model = fit_tree(data)
        preds = model.predict(X)
        assert (preds == y).mean() > 0.95
        assert tree_depth(model) >= 2

    def test_depth_cap(self, monkeypatch):
        # log2(N) - 1, at least 1, once nothing else stops the growth
        monkeypatch.setattr(tree_module, "CHI2_CUTOFF", 0.0)
        monkeypatch.setattr(tree_module, "MIN_NODE", 2)
        rng = np.random.default_rng(15)
        for n, cap in [(200, 6), (12, 2), (3, 1)]:
            X = rng.uniform(size=(n, 3))
            y = np.resize([1, 2], n)
            assert tree_depth(fit_tree(LabeledSet(X, y))) == cap

    def test_chi2_cutoff_stops_noise_splits(self, monkeypatch):
        rng = np.random.default_rng(16)
        X = rng.uniform(size=(60, 1))
        y = rng.integers(1, 3, size=60)
        monkeypatch.setattr(tree_module, "CHI2_CUTOFF", 0.0)
        assert tree_depth(fit_tree(LabeledSet(X, y))) > 0
        monkeypatch.setattr(tree_module, "CHI2_CUTOFF", 1e9)
        assert tree_depth(fit_tree(LabeledSet(X, y))) == 0

    def test_default_chi2_cutoff_is_the_95th_percentile(self):
        # scipy.stats and scipy.special are the references; the package
        # imports neither
        assert tree_module.CHI2_CUTOFF == float(stats.chi2.ppf(0.95, 1))
        assert tree_module.CHI2_CUTOFF == float(chdtri(1, 1.0 - 0.95))

    def test_round_trip(self):
        rng = np.random.default_rng(18)
        data = two_blob_set(rng)
        model = fit_tree(data)
        clone = json_round_trip(model)
        assert np.array_equal(clone.predict(data.features), model.predict(data.features))

    def test_predict_matches_single_row_walk(self, monkeypatch):
        monkeypatch.setattr(tree_module, "CHI2_CUTOFF", 0.0)
        monkeypatch.setattr(tree_module, "MIN_NODE", 2)
        rng = np.random.default_rng(26)
        data = two_blob_set(rng, d=4, sep=1.0)
        model = fit_tree(data)
        assert tree_depth(model) >= 3

        def walk(x):
            node = model.root
            while isinstance(node, TreeNode):
                node = node.left if x[node.feature] <= node.threshold else node.right
            return node.label

        assert model.predict(data.features).tolist() == [walk(x) for x in data.features]


    def test_matches_per_threshold_scan(self, monkeypatch):
        """Random scores in 1..3 components; then 1..8 components mixing
        random scores, duplicated columns (a tie across components goes to
        the smaller one), constant columns, pairs of adjacent floats, whose
        midpoint can round onto the upper value, and values whose midpoints
        overflow to -inf or inf."""
        cases = []
        rng = np.random.default_rng(31)
        for it in range(120):
            n, d = int(rng.integers(2, 100)), int(rng.integers(1, 4))
            X = np.column_stack([random_scores(rng, n) for _ in range(d)])
            y = rng.integers(1, 3, size=n)
            cases.append((X, y, int(rng.integers(2, 12)), it))
        rng = np.random.default_rng(32)
        rounded_up = 0
        for it in range(160):
            n, d = int(rng.integers(2, 100)), int(rng.integers(1, 9))
            columns = []
            for _ in range(d):
                kind = int(rng.integers(0, 5))
                if kind == 1 and columns:
                    columns.append(columns[int(rng.integers(0, len(columns)))])
                elif kind == 2:
                    columns.append(np.full(n, float(rng.normal())))
                elif kind == 3:
                    columns.append(adjacent_floats(rng, n))
                    v = np.unique(columns[-1])
                    rounded_up += int(((v[:-1] + v[1:]) / 2.0 == v[1:]).sum())
                elif kind == 4:
                    columns.append(rng.choice([-1.0, 1.0], size=n)
                                   * rng.choice([1.0, 1.5, 1.7], size=n) * 1e308)
                else:
                    columns.append(random_scores(rng, n))
            y = rng.integers(1, 3, size=n)
            cases.append((np.column_stack(columns), y, int(rng.integers(2, 12)), it))
        assert rounded_up > 20
        for X, y, min_node, it in cases:
            cutoff = float(chdtri(1, 0.05)) if it % 4 else 0.0
            monkeypatch.setattr(tree_module, "MIN_NODE", min_node)
            monkeypatch.setattr(tree_module, "CHI2_CUTOFF", cutoff)
            data = LabeledSet(X, y)
            got = fit_tree(data).root
            want = _scan_tree(data, min_node, cutoff)
            assert _tree_text(got) == _tree_text(want)

    def test_matches_per_threshold_scan_where_the_presort_partitions(self, monkeypatch):
        """Deep trees (no chi-square cutoff, nodes down to two rows) on
        duplicated, constant and adjacent-float columns beside one noisy
        column: each node's sorted order comes from its parent's by the split,
        so children of one or two rows, ties carried down many levels and
        adjacent-float splits at depth 3 or more must match the scan."""
        monkeypatch.setattr(tree_module, "MIN_NODE", 2)
        monkeypatch.setattr(tree_module, "CHI2_CUTOFF", 0.0)
        rng = np.random.default_rng(33)
        tiny_children = deep_adjacent = 0
        for _ in range(60):
            n = int(rng.integers(16, 120))
            adjacent = [adjacent_floats(rng, n) for _ in range(int(rng.integers(1, 4)))]
            columns = adjacent + [adjacent[0], np.full(n, float(rng.normal())),
                                  rng.normal(size=n)]
            order = rng.permutation(len(columns))
            X = np.column_stack([columns[k] for k in order])
            adjacent_features = {int(np.flatnonzero(order == k)[0]) for k in range(len(adjacent))}
            adjacent_features.add(int(np.flatnonzero(order == len(adjacent))[0]))
            # labels that follow the first adjacent-float column, one in four flipped
            y = np.where(adjacent[0] > np.median(adjacent[0]), 2, 1)
            y = np.where(rng.random(n) < 0.25, 3 - y, y)
            data = LabeledSet(X, y)
            got = fit_tree(data).root
            assert _tree_text(got) == _tree_text(_scan_tree(data, 2, 0.0))
            for depth, feature, n_left, n_right in _splits(got, X, np.arange(n)):
                tiny_children += min(n_left, n_right) <= 2
                deep_adjacent += depth >= 3 and feature in adjacent_features
        assert tiny_children > 50 and deep_adjacent > 20


def adjacent_floats(rng, n):
    """Values drawn from one to three pairs (a, nextafter(a, inf)).  Their
    midpoint rounds onto the upper value when a's last mantissa bit is 1."""
    lows = rng.normal(size=int(rng.integers(1, 4))) * 10.0 ** int(rng.integers(-3, 4))
    pairs = np.concatenate([lows, np.nextafter(lows, np.inf)])
    return pairs[rng.integers(0, len(pairs), size=n)]


def _splits(node, X, rows, depth=0):
    """(depth, feature, left rows, right rows) of each split of a tree
    fitted on the rows of X."""
    if isinstance(node, TreeLeaf):
        return []
    left = X[rows, node.feature] <= node.threshold
    return ([(depth, node.feature, int(left.sum()), int((~left).sum()))]
            + _splits(node.left, X, rows[left], depth + 1)
            + _splits(node.right, X, rows[~left], depth + 1))

def _tree_text(node):
    if isinstance(node, TreeLeaf):
        return str(node.label)
    return (f"({node.feature} {float.hex(node.threshold)} "
            f"{_tree_text(node.left)} {_tree_text(node.right)})")


def _scan_tree(data, min_node, cutoff):
    """Top-down growth scoring every (feature, theta) with its own masks and
    bincounts, the least (-purity, feature, theta) winning."""
    max_depth = max(1, int(np.log2(len(data.labels))) - 1)

    def majority(y):
        return TreeLeaf(int(np.argmax(np.bincount(y, minlength=3)[1:]) + 1))

    def grow(X, y, depth):
        if depth >= max_depth or len(y) < min_node or len(np.unique(y)) == 1:
            return majority(y)
        best = None
        for j in range(X.shape[1]):
            order = np.argsort(X[:, j], kind="stable")
            v, ys = X[order, j], y[order]
            with np.errstate(over="ignore"):
                thetas = sorted({(v[i] + v[i + 1]) / 2.0 for i in range(len(v) - 1)
                                 if ys[i] != ys[i + 1] and v[i] < v[i + 1]})
            for theta in thetas:
                left = X[:, j] <= theta
                nl = np.bincount(y[left], minlength=3)[1:]
                nr = np.bincount(y[~left], minlength=3)[1:]
                if nl.sum() == 0 or nr.sum() == 0:
                    continue
                pr, chi2 = _masked_node_stats(nl, nr)
                key = (-pr, j, theta)
                if best is None or key < best[0]:
                    best = (key, chi2)
        if best is None or best[1] < cutoff:
            return majority(y)
        _, j, theta = best[0]
        mask = X[:, j] <= theta
        return TreeNode(j, float(theta), grow(X[mask], y[mask], depth + 1),
                        grow(X[~mask], y[~mask], depth + 1))

    return grow(data.features, data.labels, 0)


class TestKMeans:
    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(19)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        X = np.vstack([rng.normal(size=(50, 2)) + c for c in centers])
        model = kmeans(X, X[np.random.default_rng(0).choice(len(X), 3, replace=False)])
        got = model.centers[np.lexsort(model.centers.T)]
        want = centers[np.lexsort(centers.T)]
        assert np.abs(got - want).max() < 1.0

    def test_objective_nonincreasing(self, monkeypatch):
        rng = np.random.default_rng(20)
        for _ in range(10):
            X = rng.normal(size=(80, 3))
            init = X[rng.choice(len(X), 4, replace=False)]
            h = kmeans_objectives(monkeypatch, X, init)
            assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))

    def test_one_iteration_chain_matches_full_run(self, monkeypatch):
        rng = np.random.default_rng(22)
        for _ in range(10):
            X = rng.normal(size=(60, 2))
            init = X[rng.choice(len(X), 3, replace=False)]
            full = kmeans(X, init)
            steps = kmeans_objectives(monkeypatch, X, init)
            assert steps[-1] == float(((X - full.centers[full.assignments]) ** 2).sum())

    def test_explicit_init_deterministic(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(50, 2))
        init = X[:4].copy()
        a = kmeans(X, init)
        b = kmeans(X, init)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.assignments, b.assignments)

    def test_empty_cluster_reseeded(self):
        X = np.array([[0.0], [0.1], [10.0]])
        init = np.array([[0.05], [100.0]])  # second center captures nothing
        model = kmeans(X, init)
        assert len(np.unique(model.assignments)) == 2

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 1)), np.zeros((4, 1)))
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 1)), np.zeros((0, 1)))
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), np.zeros((2, 1)))


# Floats whose reprs take every form: signed zero, subnormal, exponent, NaN
# and infinities among them.
JSON_FLOATS = st.sampled_from([-0.0, 5e-324, 1e16, 1e-5, 0.1]) | st.floats()
def _json_containers(children):
    """Lists, tuples (which json writes as lists) and dicts of children, some
    dicts with keys that json converts to strings."""
    return (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(st.text(max_size=5), children, max_size=4)
            | st.dictionaries(st.integers() | st.booleans() | st.none(), children, max_size=2))


# Nested float arrays with empty rows, beside ints, bools, None and strings
# (some holding json's item separator), in containers.
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_FLOATS
    | st.text(max_size=5) | st.sampled_from(["1, 2", '", "'])
    | st.lists(JSON_FLOATS, max_size=5) | st.lists(st.lists(JSON_FLOATS, max_size=4), max_size=4),
    _json_containers, max_leaves=12)


class TestSerialization:
    def test_rejects_bad_schema(self):
        rng = np.random.default_rng(23)
        doc = model_to_dict(fit_linear(two_blob_set(rng)))
        doc["schema_version"] = 99
        with pytest.raises(ModelFormatError):
            model_from_dict(doc, 3)

    def test_rejects_garbage(self):
        with pytest.raises(ModelFormatError):
            model_from_dict({"schema_version": 1, "method": "mystery"}, 3)

    def test_rejects_arrays_not_sized_by_dim(self):
        rng = np.random.default_rng(27)
        data = two_blob_set(rng)
        for model in (fit_linear(data), fit_distance(data)):
            doc = model_to_dict(model)
            model_from_dict(doc, 3)
            for dim in (2, 4):
                with pytest.raises(ModelFormatError, match="shape"):
                    model_from_dict(doc, dim)

    def test_rejects_tree_feature_outside_dim(self):
        leaf = {"leaf": 1}
        doc = {"schema_version": 1, "method": "tree",
               "tree": {"feature": 3, "threshold": 0.0, "left": leaf, "right": leaf}}
        assert isinstance(model_from_dict(doc, 4).root, TreeNode)
        for dim in (0, 3):
            with pytest.raises(ModelFormatError, match="feature 3"):
                model_from_dict(doc, dim)

    @pytest.mark.parametrize("field", ["orientation", "interval_labels", "leaf"])
    @pytest.mark.parametrize("label", [0, 3, -1])
    def test_rejects_labels_other_than_1_and_2(self, field, label):
        rng = np.random.default_rng(28)
        data = two_blob_set(rng)
        if field == "leaf":
            doc = {"schema_version": 1, "method": "tree", "tree": {"leaf": label}}
        else:
            model = fit_linear(data)
            model = dataclasses.replace(model, quantizer=build_quantizer(
                model.scores(data.features), data.labels, 4))
            doc = model_to_dict(model)
            if field == "orientation":
                doc["orientation"] = label
            else:
                doc["quantizer"]["interval_labels"][0] = label
        with pytest.raises(ModelFormatError, match="neither 1 nor 2"):
            model_from_dict(doc, 3)

    def test_rejects_deeply_nested_tree(self):
        rng = np.random.default_rng(25)
        doc = model_to_dict(fit_tree(two_blob_set(rng)))
        node = {"leaf": 1}
        for _ in range(5000):
            node = {"feature": 0, "threshold": 0.0, "left": node, "right": {"leaf": 2}}
        doc["tree"] = node
        with pytest.raises(ModelFormatError):
            model_from_dict(doc, 3)

    @settings(max_examples=400, deadline=None)
    @given(doc=JSON_DOCS)
    @example(doc={"\x00": [1.0]})  # a key that reads as the placeholder
    @example(doc=['"\x00', [2.5]])  # a string whose text holds the placeholder's
    @example(doc={"a": [1.0, float("nan")], "b": [float("inf"), -float("inf")]})
    @example(doc=(0.5, -0.0))
    @example(doc=[np.float64(0.1), np.float64(5e-324)])
    @example(doc=[1e16, 1e-05])
    @example(doc=[])
    @example(doc={"rows": [[1.0, 2.0], [], [3.0]]})
    def test_to_json_is_json_dumps_indent_2(self, doc):
        assert to_json(doc) == json.dumps(doc, indent=2)

    def test_json_text_stable(self):
        rng = np.random.default_rng(24)
        model = fit_linear(two_blob_set(rng))
        text = json.dumps(model_to_dict(model))
        assert json.dumps(model_to_dict(json_round_trip(model))) == text
