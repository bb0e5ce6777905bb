"""End-to-end acceptance checks.  Each test prints one pass/fail line on the
real stdout (bypassing capture) so the criteria can be read off a plain
pytest run."""

import hashlib
import time

import numpy as np
import pytest

from whitmin.automorphisms import minimize
from whitmin.classifiers import build_quantizer
from whitmin.classifiers.tree import node_stats
from whitmin.clustering import clustering_experiment
from whitmin.datasets import DatasetSpec, generate_dataset, save_tsv
from whitmin.features import builtin_map
from whitmin.numerics import least_squares, mean_and_covariance, soft_margin_svm, sym_eigen
from whitmin.pipeline import (Pipeline, PipelineConfig, evaluate, featurize, fit_model,
                              pipeline_to_json, train_pipeline)

from conftest import all_cyclic_words, bfs_orbit_min, kmeans_objectives, svm_kkt_residual


def _report(capsys, label, ok, detail=""):
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
              + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def dataset_cache():
    cache = {}

    def get(kind, seed, max_length=1000, per_length=10):
        key = (kind, seed, max_length, per_length)
        if key not in cache:
            cache[key] = generate_dataset(DatasetSpec(
                kind, max_length=max_length, per_length=per_length, seed=seed))
        return cache[key]

    return get


def _train_eval(train, test, feature_map):
    cfg = PipelineConfig(feature_map=feature_map, method="regression",
                         quantizer_kind="equal_interval", quantizer_bins=100)
    pipeline = train_pipeline(train, cfg)
    report = evaluate(pipeline, test)
    return pipeline, report


def test_c1_exhaustive_minimization_oracle(capsys):
    """Greedy minimization matches the breadth-first orbit oracle on every
    rank-2 cyclic word of length at most 8."""
    t0 = time.monotonic()
    checked = 0
    mismatches = 0
    for n in range(1, 9):
        for w in all_cyclic_words(2, n):
            checked += 1
            m, _ = minimize(w)
            if len(m) != bfs_orbit_min(w):
                mismatches += 1
    dt = time.monotonic() - t0
    ok = mismatches == 0 and dt < 300.0
    _report(capsys, "C1 exhaustive minimization vs orbit oracle", ok,
            f"{checked} words, {mismatches} mismatches, {dt:.1f}s")


def test_c2_f6_accuracy_and_stability(capsys, dataset_cache):
    """f6 + regression + 100-bin equal-interval quantizer, trained on the
    substitution set and evaluated out of sample, across three seed pairs."""
    t0 = time.monotonic()
    overall = []
    long_acc = []
    for seed in (11, 13, 15):
        train = dataset_cache("D", seed)
        test = dataset_cache("Se", seed + 1)
        _, report = _train_eval(train, test, "f6")
        overall.append(report.accuracy(0))
        long_acc.append(report.accuracy(100))
    dt = time.monotonic() - t0
    spread = max(overall) - min(overall)
    ok = (min(overall) >= 0.95 and min(long_acc) >= 0.97
          and spread <= 0.03 and dt < 600.0)
    _report(capsys, "C2 f6 accuracy and seed stability", ok,
            f"overall {['%.4f' % a for a in overall]}, "
            f"|w|>100 {['%.4f' % a for a in long_acc]}, "
            f"spread {spread:.4f}, {dt:.0f}s")


def test_c3_fstar_and_f1_accuracy(capsys, dataset_cache):
    train = dataset_cache("D", 11)
    test = dataset_cache("Se", 12)
    _, rep_star = _train_eval(train, test, "fstar")
    _, rep_f1 = _train_eval(train, test, "f1")
    a_star = rep_star.accuracy(0)
    a_f1 = rep_f1.accuracy(0)
    ok = a_star >= 0.96 and a_f1 >= 0.92
    _report(capsys, "C3 fstar / f1 accuracy", ok,
            f"fstar {a_star:.4f}, f1 {a_f1:.4f}")


def test_c4_clustering_recovers_reducing_moves(capsys):
    """4-means on 4000+ nonminimal words: the estimated-center run aligns each
    cluster with one Nielsen move and beats random initialization."""
    t0 = time.monotonic()
    ds = generate_dataset(DatasetSpec("D", max_length=800, per_length=10, seed=21))
    nonmin = ds.subset(ds.labels() == 2)
    fmap = builtin_map("f2", 2)
    est = clustering_experiment(nonmin, fmap, init="estimated", seed=5)
    rnd = clustering_experiment(nonmin, fmap, init="random", seed=5)
    dt = time.monotonic() - t0
    ok = (len(nonmin) >= 4000 and est.avg_r_max >= 0.90
          and est.avg_r_max >= rnd.avg_r_max and dt < 300.0)
    _report(capsys, "C4 4-means length-reduction clustering", ok,
            f"{len(nonmin)} words, estimated avg R_max {est.avg_r_max:.4f}, "
            f"random {rnd.avg_r_max:.4f}, {dt:.0f}s")


def test_c5_f6_score_histogram_overlap(capsys, dataset_cache):
    """The class-conditional f6 score distributions barely overlap around the
    0.5 decision point."""
    train = dataset_cache("D", 11)
    test = dataset_cache("Se", 12)
    _, report = _train_eval(train, test, "f6")
    overlap = report.histogram.overlap_fraction()
    ok = len(report.histogram.bin_centers) == 50 and overlap <= 0.05
    _report(capsys, "C5 f6 histogram overlap", ok, f"overlap {overlap:.4f}")


def test_c6_numerics_property_suite(capsys, monkeypatch):
    """1000 randomized instances per numerical property."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    failures = []

    for trial in range(1000):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(2, 30))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)

        # covariance PSD under our eigensolver
        _, C = mean_and_covariance(X)
        ev = sym_eigen(C).values
        if ev[-1] < -1e-9 * max(1.0, ev[0]):
            failures.append(("covariance-psd", trial))

        # eigen reconstruction
        M = rng.normal(size=(d, d))
        S = M + M.T
        r = sym_eigen(S)
        scale = max(1.0, np.abs(S).max())
        if np.abs(r.vectors @ np.diag(r.values) @ r.vectors.T - S).max() >= 1e-9 * scale:
            failures.append(("eigen-reconstruction", trial))

        # least squares stationarity, relative to the problem scale
        b = rng.normal(size=n)
        v = least_squares(X, b)
        scale = max(1.0, np.trace(X.T @ X)) * max(1.0, np.abs(v).max(),
                                                  np.abs(b).max())
        if np.abs(X.T @ (X @ v - b)).max() >= 1e-8 * scale:
            failures.append(("least-squares", trial))

    for trial in range(1000):
        # chi2 - PR depends only on the class totals
        tot = rng.integers(1, 40, size=2)
        left = rng.integers(0, tot + 1, size=(2, 2))
        pr, chi = node_stats(left, tot - left)
        if abs((chi[0] - pr[0]) - (chi[1] - pr[1])) >= 1e-9:
            failures.append(("chi2-shift", trial))

    for trial in range(1000):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(4, 25))
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        pts = rng.normal(size=(n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        proj = pts @ direction
        pts += np.outer(y * rng.uniform(0.5, 2.0, size=n) - proj, direction)
        A = pts * y[:, None]
        if svm_kkt_residual(A, soft_margin_svm(A)) >= 1e-10:
            failures.append(("svm-kkt", trial))

    for trial in range(1000):
        X = rng.normal(size=(int(rng.integers(10, 40)), int(rng.integers(1, 4))))
        k = int(rng.integers(2, 5))
        h = kmeans_objectives(monkeypatch, X, X[rng.choice(len(X), k, replace=False)])
        if any(h[i + 1] > h[i] + 1e-9 for i in range(len(h) - 1)):
            failures.append(("kmeans-monotone", trial))

        scores = rng.normal(size=60)
        labels = rng.integers(1, 3, size=60)
        qe = build_quantizer(scores, labels, 6, kind="equal_interval")
        qm = build_quantizer(scores, labels, 6, kind="min_error")
        if (qm.classify(scores) != labels).mean() > \
                (qe.classify(scores) != labels).mean() + 1e-12:
            failures.append(("min-error-optimality", trial))

    dt = time.monotonic() - t0
    ok = not failures and dt < 120.0
    _report(capsys, "C6 numerics property suite", ok,
            f"{len(failures)} failures, {dt:.1f}s"
            + (f", first {failures[:3]}" if failures else ""))


def test_c7_determinism(capsys, tmp_path):
    """Identical seeds give byte-identical datasets, models, and reports."""
    spec = DatasetSpec("D", max_length=60, per_length=4, seed=11)
    d1 = generate_dataset(spec)
    d2 = generate_dataset(spec)
    p1, p2 = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
    save_tsv(d1, p1)
    save_tsv(d2, p2)
    data_same = open(p1, "rb").read() == open(p2, "rb").read()

    cfg = PipelineConfig(feature_map="f6")
    pipe1 = train_pipeline(d1, cfg)
    pipe2 = train_pipeline(d2, cfg)
    model_same = pipeline_to_json(pipe1) == pipeline_to_json(pipe2)

    test_set = generate_dataset(DatasetSpec("Se", max_length=60, per_length=4, seed=12))
    r1 = evaluate(pipe1, test_set)
    r2 = evaluate(pipe2, test_set)
    report_same = (r1.strata_csv() == r2.strata_csv()
                   and r1.histogram.csv() == r2.histogram.csv())

    big = generate_dataset(DatasetSpec("D", max_length=200, per_length=5, seed=21))
    nonmin = big.subset(big.labels() == 2)
    fmap = builtin_map("f2", 2)
    c1 = clustering_experiment(nonmin, fmap, seed=5)
    c2 = clustering_experiment(nonmin, fmap, seed=5)
    cluster_same = c1.summary_csv() == c2.summary_csv()

    ok = data_same and model_same and report_same and cluster_same
    _report(capsys, "C7 seed determinism", ok,
            f"dataset {data_same}, model {model_same}, "
            f"report {report_same}, clustering {cluster_same}")


# SHA-256 of the paper-scale tree's model file (D seed 11, f6), as written
# when every node sorted its own rows; one sort per fit must give the same.
C8_TREE_SHA256 = "39bdc0c6e2b5422898537b6d9e646bf5bbdd6520651a5c14708ea7e8f5169fc1"


def test_c8_every_method_at_paper_scale(capsys, dataset_cache):
    """Every method the paper lists trains on the 10,000-word D set (f6) and
    classifies Se out of sample; the SVM's weights are the soft-margin optimum,
    and the tree's model file is the pinned one.  Each set is featurized once
    and shared by the five fits."""
    train = dataset_cache("D", 11)
    test = dataset_cache("Se", 12)
    t0 = time.monotonic()
    fmap = builtin_map("f6", 2)
    train_rows, test_rows = featurize(train, fmap), featurize(test, fmap)
    long_words = test.lengths() > 100
    configs = {
        "fisher+prob": PipelineConfig(method="fisher", quantizer_kind="equal_probability"),
        "regression+minerr8": PipelineConfig(quantizer_kind="min_error", quantizer_bins=8),
        "svm": PipelineConfig(method="svm"),
        "distance": PipelineConfig(method="distance"),
        "tree": PipelineConfig(method="tree"),
    }
    results = []
    for name, cfg in configs.items():
        t = time.monotonic()
        model = fit_model(train_rows, cfg)
        hits = model.predict(test_rows.features) == test_rows.labels
        results.append((name, hits.mean(), hits[long_words].mean(), time.monotonic() - t))
        if name == "svm":
            y = np.where(train_rows.labels == 1, 1.0, -1.0)
            kkt = svm_kkt_residual(train_rows.features * y[:, None], model.weights)
        if name == "tree":
            text = pipeline_to_json(Pipeline(fmap, model, cfg))
            tree_same = hashlib.sha256(text.encode()).hexdigest() == C8_TREE_SHA256
    dt = time.monotonic() - t0
    ok = (len(train) >= 10000 and kkt < 1e-10 and tree_same and dt < 120.0
          and all(acc >= 0.97 and long_acc >= 0.99 for _, acc, long_acc, _ in results))
    _report(capsys, "C8 every method at paper scale", ok,
            ", ".join(f"{name} {acc:.4f} / |w|>100 {long_acc:.4f} in {s:.1f}s"
                      for name, acc, long_acc, s in results)
            + f", svm KKT residual {kkt:.1e}, tree file pinned {tree_same}, {dt:.0f}s")
