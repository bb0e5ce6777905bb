import itertools

import numpy as np
import pytest
from scipy import stats
from scipy.special import chdtri

from whitmin.classifiers import (DistanceModel, KMeansModel, LabeledSet,
                                 LinearModel, Quantizer, TreeParams,
                                 build_quantizer, choose_threshold,
                                 classify_by_flats, fit_distance, fit_flat,
                                 fit_linear, fit_tree, kmeans, node_stats,
                                 quantizer_error, scatter_matrices,
                                 threshold_labels)
from whitmin.classifiers.serialize import (ModelFormatError, dumps, loads,
                                           model_from_dict, model_to_dict)
from whitmin.classifiers.tree import TreeNode


def two_blob_set(rng, n=60, d=3, sep=4.0):
    # blobs at +-sep/2 so the homogeneous (no-bias) discriminants apply
    X1 = rng.normal(size=(n, d)) - sep / 2.0
    X2 = rng.normal(size=(n, d)) + sep / 2.0
    X = np.vstack([X1, X2])
    y = np.array([1] * n + [2] * n)
    return LabeledSet(X, y, 2)


class TestLabeledSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledSet(np.ones((2, 2)), np.array([1, 3]), 2)
        with pytest.raises(ValueError):
            LabeledSet(np.ones((2, 2)), np.array([1]), 2)

    def test_class_rows(self):
        s = LabeledSet(np.arange(6).reshape(3, 2), np.array([1, 2, 1]), 2)
        assert s.class_rows(1).shape == (2, 2)


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


class TestFlats:
    def test_plane_recovered(self):
        rng = np.random.default_rng(1)
        # points on the z = 2 plane
        pts = np.column_stack([rng.normal(size=40), rng.normal(size=40),
                               np.full(40, 2.0)])
        flat = fit_flat(pts)
        assert flat.T.shape[1] == 1
        assert flat.residual(np.array([5.0, -3.0, 2.0])) < 1e-9
        assert flat.residual(np.array([0.0, 0.0, 3.0])) > 0.5

    def test_classify_outcomes(self):
        rng = np.random.default_rng(2)
        f1 = fit_flat(np.column_stack([rng.normal(size=30), np.zeros(30)]))
        f2 = fit_flat(np.column_stack([np.zeros(30), rng.normal(size=30)]))
        assert classify_by_flats(np.array([3.0, 0.0]), f1, f2) == "class1"
        assert classify_by_flats(np.array([0.0, 3.0]), f1, f2) == "class2"
        assert classify_by_flats(np.array([0.0, 0.0]), f1, f2) == "both"
        assert classify_by_flats(np.array([1.0, 1.0]), f1, f2) == "neither"


class TestDistance:
    def test_mahalanobis_separates_blobs(self):
        rng = np.random.default_rng(3)
        data = two_blob_set(rng, sep=6.0)
        model = fit_distance(data, variant="mahalanobis")
        preds = model.predict(data.features)
        assert (preds == data.labels).mean() > 0.97

    def test_flat_variant_separates_planar_classes(self):
        rng = np.random.default_rng(3)
        # class 1 hugs the z = 0 plane, class 2 the x = 0 plane
        n = 80
        X1 = np.column_stack([rng.normal(size=n) + 1.0, rng.normal(size=n),
                              rng.normal(scale=0.01, size=n)])
        X2 = np.column_stack([rng.normal(scale=0.01, size=n),
                              rng.normal(size=n), rng.normal(size=n) + 1.0])
        data = LabeledSet(np.vstack([X1, X2]), np.array([1] * n + [2] * n), 2)
        model = fit_distance(data, variant="flat", flat_tol=1e-2)
        preds = model.predict(data.features)
        assert (preds == data.labels).mean() > 0.97

    def test_mahalanobis_accounts_for_scale(self):
        rng = np.random.default_rng(4)
        # class 1 wide, class 2 narrow; the point sits 2 units from both means
        X1 = rng.normal(scale=4.0, size=(400, 1))
        X2 = rng.normal(scale=0.25, size=(400, 1)) + 4.0
        data = LabeledSet(np.vstack([X1, X2]), np.array([1] * 400 + [2] * 400), 2)
        model = fit_distance(data, variant="mahalanobis")
        assert model.predict(np.array([[2.0]])).tolist() == [1]

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        data = two_blob_set(rng)
        for variant in ("flat", "mahalanobis"):
            model = fit_distance(data, variant=variant)
            clone = loads(dumps(model))
            X = data.features[:10]
            assert np.array_equal(clone.predict(X), model.predict(X))
            assert np.array_equal(clone.scores(X), model.scores(X))

    def test_scores_match_row_formula(self):
        # scores(X) must be bit-equal to the one-row formulas: a matrix form
        # sums in another order and moves the fitted theta
        rng = np.random.default_rng(25)
        data = two_blob_set(rng, d=5)
        X = data.features
        m = fit_distance(data, variant="mahalanobis")
        rows = [float((x - m.mu1) @ m.inv_cov1 @ (x - m.mu1)
                      - (x - m.mu2) @ m.inv_cov2 @ (x - m.mu2)) for x in X]
        assert m.scores(X).tolist() == rows
        f = fit_distance(data, variant="flat", flat_tol=0.5)
        rows = [float(np.linalg.norm(f.flat1.T.T @ (x - f.flat1.mu))
                      - np.linalg.norm(f.flat2.T.T @ (x - f.flat2.mu))) for x in X]
        assert f.scores(X).tolist() == rows


class TestLinear:
    @pytest.mark.parametrize("method", ["regression", "fisher", "svm"])
    def test_separates_blobs(self, method):
        rng = np.random.default_rng(6)
        data = two_blob_set(rng, sep=6.0)
        model = fit_linear(data, method=method)
        preds = model.predict(data.features)
        assert (preds == data.labels).mean() > 0.97

    def test_scatter_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            data = two_blob_set(rng, n=int(rng.integers(3, 20)),
                                d=int(rng.integers(1, 5)), sep=rng.normal())
            S, Sw, Sb = scatter_matrices(data)
            assert np.abs(S - (Sw + Sb)).max() < 1e-10 * max(1.0, np.abs(S).max())

    def test_svm_margins(self):
        rng = np.random.default_rng(8)
        data = two_blob_set(rng, sep=8.0)
        model = fit_linear(data, method="svm")
        y = np.where(data.labels == 1, 1.0, -1.0)
        margins = y * (data.features @ model.weights)
        assert margins.min() >= 1.0 - 1e-5

    def test_unknown_method(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            fit_linear(two_blob_set(rng), method="perceptron")

    def test_round_trip_with_quantizer(self):
        rng = np.random.default_rng(10)
        data = two_blob_set(rng)
        model = fit_linear(data, method="regression")
        q = build_quantizer(model.scores(data.features), data.labels, 10)
        model = model.with_quantizer(q)
        clone = loads(dumps(model))
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
        counts = np.bincount(idx, minlength=q.num_intervals)
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

    def test_degenerate_all_equal(self):
        q = build_quantizer(np.zeros(5), np.array([1, 1, 1, 2, 2]), 4)
        assert q.degenerate and q.classify(0.0) == 1


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
        pr_pure, chi_pure = node_stats([10, 0], [0, 10])
        pr_mixed, chi_mixed = node_stats([5, 5], [5, 5])
        assert pr_pure > pr_mixed
        assert chi_pure > chi_mixed
        assert abs(chi_mixed) < 1e-12

    def test_chi2_is_shifted_purity(self):
        # chi2 - PR depends only on the class totals, not on the split
        rng = np.random.default_rng(13)
        for _ in range(50):
            tot = rng.integers(1, 30, size=3)
            a = np.array([int(rng.integers(0, t + 1)) for t in tot])
            a2 = np.array([int(rng.integers(0, t + 1)) for t in tot])
            pr, chi = node_stats(a, tot - a)
            pr2, chi2_ = node_stats(a2, tot - a2)
            assert abs((chi - pr) - (chi2_ - pr2)) < 1e-9

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            node_stats([-1, 2], [0, 0])
        with pytest.raises(ValueError):
            node_stats([0, 0], [0, 0])


class TestTree:
    def test_learns_interval_class(self):
        rng = np.random.default_rng(14)
        X = rng.uniform(-2, 2, size=(400, 2))
        y = np.where(np.abs(X[:, 0]) < 1.0, 1, 2)  # needs two splits on x0
        data = LabeledSet(X, y, 2)
        model = fit_tree(data)
        preds = model.predict(X)
        assert (preds == y).mean() > 0.95
        assert model.depth() >= 2

    def test_depth_cap(self):
        rng = np.random.default_rng(15)
        X = rng.uniform(size=(200, 3))
        y = rng.integers(1, 3, size=200)
        model = fit_tree(LabeledSet(X, y, 2), TreeParams(max_depth=2, chi2_cutoff=0.0))
        assert model.depth() <= 2

    def test_chi2_cutoff_stops_noise_splits(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(size=(60, 1))
        y = rng.integers(1, 3, size=60)
        strict = fit_tree(LabeledSet(X, y, 2), TreeParams(chi2_cutoff=1e9))
        assert strict.depth() == 0

    def test_default_chi2_cutoff_is_the_95th_percentile(self):
        # scipy.stats is the reference; the package uses scipy.special alone
        rng = np.random.default_rng(18)
        for M in range(2, 7):
            cutoff = float(stats.chi2.ppf(0.95, M - 1))
            assert float(chdtri(M - 1, 1.0 - 0.95)) == cutoff
            data = LabeledSet(rng.uniform(size=(80, 2)),
                              rng.integers(1, M + 1, size=80), M)
            explicit = fit_tree(data, TreeParams(chi2_cutoff=cutoff))
            assert fit_tree(data).root == explicit.root

    def test_misclassification_criterion_with_caps(self):
        rng = np.random.default_rng(17)
        data = two_blob_set(rng, sep=6.0)
        model = fit_tree(data, TreeParams(criterion="misclassification",
                                          eps_type1=0.2, eps_type2=0.2))
        preds = model.predict(data.features)
        assert (preds == data.labels).mean() > 0.95

    def test_round_trip(self):
        rng = np.random.default_rng(18)
        data = two_blob_set(rng)
        model = fit_tree(data)
        clone = loads(dumps(model))
        assert np.array_equal(clone.predict(data.features), model.predict(data.features))

    def test_predict_matches_single_row_walk(self):
        rng = np.random.default_rng(26)
        data = two_blob_set(rng, d=4, sep=1.0)
        model = fit_tree(data, TreeParams(chi2_cutoff=0.0, min_node=2))
        assert model.depth() >= 3

        def walk(x):
            node = model.root
            while isinstance(node, TreeNode):
                node = node.left if x[node.feature] <= node.threshold else node.right
            return node.label

        assert model.predict(data.features).tolist() == [walk(x) for x in data.features]


class TestKMeans:
    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(19)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        X = np.vstack([rng.normal(size=(50, 2)) + c for c in centers])
        model = kmeans(X, 3, rng=np.random.default_rng(0))
        got = model.centers[np.lexsort(model.centers.T)]
        want = centers[np.lexsort(centers.T)]
        assert np.abs(got - want).max() < 1.0

    def test_objective_nonincreasing(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            X = rng.normal(size=(80, 3))
            model = kmeans(X, 4, rng=rng, track_objective=True)
            h = model.objective_history
            assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))

    def test_explicit_init_deterministic(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(50, 2))
        init = X[:4].copy()
        a = kmeans(X, 4, init_centers=init)
        b = kmeans(X, 4, init_centers=init)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.assignments, b.assignments)

    def test_empty_cluster_reseeded(self):
        X = np.array([[0.0], [0.1], [10.0]])
        init = np.array([[0.05], [100.0]])  # second center captures nothing
        model = kmeans(X, 2, init_centers=init)
        assert len(np.unique(model.assignments)) == 2

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 1)), 4)

    def test_round_trip(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(30, 2))
        model = kmeans(X, 3, rng=rng)
        clone = loads(dumps(model))
        assert np.array_equal(clone.centers, model.centers)
        assert clone.objective == model.objective


class TestSerialization:
    def test_rejects_bad_schema(self):
        rng = np.random.default_rng(23)
        doc = model_to_dict(fit_linear(two_blob_set(rng)))
        doc["schema_version"] = 99
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    def test_rejects_garbage(self):
        with pytest.raises(ModelFormatError):
            loads("not json at all {")
        with pytest.raises(ModelFormatError):
            model_from_dict({"schema_version": 1, "method": "mystery"})

    def test_json_text_stable(self):
        rng = np.random.default_rng(24)
        model = fit_linear(two_blob_set(rng))
        assert dumps(model) == dumps(loads(dumps(model)))
