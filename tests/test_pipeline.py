import json
import time

import numpy as np
import pytest

from whitmin import features, pipeline
from whitmin.classifiers import ModelFormatError
from whitmin.datasets import DatasetSpec, generate_dataset
from whitmin.features import FeatureMap, builtin_map, feature_matrix, pattern_pool
from whitmin.pipeline import (MAX_BINS, EvaluationReport, Pipeline, PipelineConfig,
                              evaluate, featurize, fit_model, greedy_feature_selection,
                              pipeline_from_json, pipeline_to_json, train_pipeline)
from whitmin.words import parse_cyclic_word

from conftest import one_matrix_least_squares, unique_candidates_threshold
from test_golden import PIPELINES


@pytest.fixture(scope="module")
def train_set():
    return generate_dataset(DatasetSpec("D", max_length=60, per_length=5, seed=101))


@pytest.fixture(scope="module")
def test_set():
    return generate_dataset(DatasetSpec("Se", max_length=60, per_length=5, seed=102))


@pytest.fixture(scope="module")
def trained(train_set):
    return train_pipeline(train_set, PipelineConfig(feature_map="f6"))


class TestTraining:
    def test_regression_learns(self, trained, train_set):
        preds = trained.model.predict(feature_matrix(train_set.words(), trained.fmap))
        assert (preds == train_set.labels()).mean() > 0.9

    def test_generalizes(self, trained, test_set):
        # small training set: accuracy is well below the full-scale figure
        rep = evaluate(trained, test_set)
        assert rep.accuracy(0) > 0.78

    @pytest.mark.parametrize("method", ["fisher", "distance", "tree"])
    def test_other_methods_train(self, train_set, test_set, method):
        p = train_pipeline(train_set, PipelineConfig(feature_map="f1",
                                                     method=method,
                                                     quantizer_kind=None))
        rep = evaluate(p, test_set)
        assert rep.accuracy(0) > 0.7

    def test_unknown_method(self, train_set):
        with pytest.raises(ValueError):
            train_pipeline(train_set, PipelineConfig(method="forest"))

    def test_quantizer_needs_two_bins(self):
        with pytest.raises(ValueError):
            PipelineConfig(method="fisher", quantizer_bins=1)
        with pytest.raises(ValueError):
            PipelineConfig(quantizer_bins=MAX_BINS + 1)
        PipelineConfig(quantizer_bins=MAX_BINS)
        # no quantizer, or a method without a score: the bin count is unused
        PipelineConfig(quantizer_kind=None, quantizer_bins=1)
        PipelineConfig(method="tree", quantizer_bins=1)

    @pytest.mark.parametrize("method", ["regression", "tree"])
    def test_unknown_quantizer_kind(self, method):
        with pytest.raises(ValueError, match="^unknown quantizer kind 'bogus'$"):
            PipelineConfig(method=method, quantizer_kind="bogus")

    def test_map_resolved_at_training_rank(self):
        train = generate_dataset(DatasetSpec("D", rank=3, max_length=12, per_length=4,
                                             seed=103))
        p = train_pipeline(train, PipelineConfig(feature_map="f1", quantizer_kind=None))
        assert p.fmap.rank == 3 and p.fmap.dim == 30
        clone = pipeline_from_json(pipeline_to_json(p))
        assert clone.fmap.rank == 3
        X = feature_matrix(train.words(), p.fmap)
        assert np.array_equal(clone.model.predict(X), p.model.predict(X))


class TestFeaturizeAndFit:
    @pytest.mark.parametrize("feature_map", ["f6", "f2"])
    @pytest.mark.parametrize("method,kind,bins", PIPELINES)
    def test_train_pipeline_is_featurize_then_fit(self, train_set, feature_map, method,
                                                  kind, bins):
        cfg = PipelineConfig(feature_map, method, kind, bins)
        fmap = builtin_map(feature_map, 2)
        split = Pipeline(fmap, fit_model(featurize(train_set, fmap), cfg), cfg)
        assert pipeline_to_json(train_pipeline(train_set, cfg)) == pipeline_to_json(split)


class TestEvaluation:
    def test_features_extracted_once(self, trained, test_set, monkeypatch):
        import whitmin.pipeline as pl
        calls = []

        def counting(words, fmap):
            calls.append(len(words))
            return feature_matrix(words, fmap)

        monkeypatch.setattr(pl, "feature_matrix", counting)
        rep = evaluate(trained, test_set)
        assert calls == [len(test_set)]
        assert rep.histogram is not None
        train_pipeline(test_set, PipelineConfig(feature_map="f6"))
        assert calls == [len(test_set)] * 2

    def test_cell_budget_checked_before_counting(self, trained, train_set, test_set,
                                                 monkeypatch):
        """train_pipeline and evaluate refuse an over-budget feature matrix."""
        cells = 60 * min(len(train_set), len(test_set))
        monkeypatch.setattr(features, "MAX_SELECTION_CELLS", cells - 1)
        monkeypatch.setattr(features, "feature_vector", None)  # never reached
        with pytest.raises(ValueError, match="budget"):
            evaluate(trained, test_set)
        with pytest.raises(ValueError, match="budget"):
            train_pipeline(train_set, PipelineConfig(feature_map="f6"))

    def test_empty_test_set_rejected(self, trained, test_set):
        with pytest.raises(ValueError):
            evaluate(trained, test_set.subset([False] * len(test_set)))

    def test_strata_counts(self, trained, test_set):
        rep = evaluate(trained, test_set, strata=(0, 4, 30))
        lengths = test_set.lengths()
        for lo in (0, 4, 30):
            n, acc = rep.strata[lo]
            assert n == int((lengths > lo).sum())
            assert acc is None or 0.0 <= acc <= 1.0

    def test_empty_stratum(self, trained, test_set):
        rep = evaluate(trained, test_set, strata=(1000,))
        assert rep.strata[1000] == (0, None)

    def test_confusion_totals(self, trained, test_set):
        rep = evaluate(trained, test_set)
        assert rep.confusion.sum() == len(test_set)
        correct = rep.confusion[0, 0] + rep.confusion[1, 1]
        assert abs(correct / len(test_set) - rep.accuracy(0)) < 1e-12

    def test_strata_csv(self, trained, test_set):
        rep = evaluate(trained, test_set)
        csv = rep.strata_csv()
        assert csv.startswith("stratum,n,accuracy")
        assert "|w|>0," in csv

    def test_histogram_bins_bounded(self, trained, test_set):
        evaluate(trained, test_set, bins=MAX_BINS)
        for bins in (1, MAX_BINS + 1):
            with pytest.raises(ValueError):
                evaluate(trained, test_set, bins=bins)

    def test_histogram_properties(self, trained, test_set):
        hist = evaluate(trained, test_set, bins=40).histogram
        y = test_set.labels()
        assert hist.counts_class1.sum() == int((y == 1).sum())
        assert hist.counts_class2.sum() == int((y == 2).sum())
        assert 0.0 <= hist.overlap_fraction() <= 1.0

    def test_overlap_zero_when_disjoint(self):
        from whitmin.pipeline import ScoreHistogram
        h = ScoreHistogram(np.arange(4.0),
                           np.array([5, 5, 0, 0]), np.array([0, 0, 5, 5]))
        assert h.overlap_fraction() == 0.0
        h2 = ScoreHistogram(np.arange(2.0), np.array([5, 0]), np.array([5, 0]))
        assert h2.overlap_fraction() == 1.0


class TestSelection:
    def test_selects_informative_patterns(self, train_set, test_set):
        pool = pattern_pool(2, 1, 1)
        picked = greedy_feature_selection(pool, train_set, test_set,
                                          max_features=4)
        assert 1 <= len(picked) <= 4
        assert len(set(picked)) == len(picked)

    def test_empty_pool(self, train_set, test_set):
        with pytest.raises(ValueError):
            greedy_feature_selection([], train_set, test_set)

    @pytest.mark.parametrize("count", [0, -3])
    def test_max_features_below_one(self, train_set, test_set, count):
        with pytest.raises(ValueError, match="max_features"):
            greedy_feature_selection(pattern_pool(2, 1, 1), train_set, test_set,
                                     max_features=count)

    def test_cell_budget_checked_before_counting(self, train_set, test_set, monkeypatch):
        pool = pattern_pool(2, 1, 1)
        cells = len(pool) * (len(train_set) + len(test_set))
        monkeypatch.setattr(features, "MAX_SELECTION_CELLS", cells - 1)
        monkeypatch.setattr(features, "feature_vector", None)  # never reached
        with pytest.raises(ValueError, match="budget"):
            greedy_feature_selection(pool, train_set, test_set)
        monkeypatch.undo()
        monkeypatch.setattr(features, "MAX_SELECTION_CELLS", cells)
        assert greedy_feature_selection(pool, train_set, test_set, max_features=1)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("max_features", [3, None])
    def test_fit_sized_candidates_match_one_fit_loop(self, monkeypatch, seed, max_features):
        # the sizes of perfbench's fit-methods workload; with no cap the
        # selection stops on MIN_IMPROVEMENT
        train, validation = (generate_dataset(DatasetSpec(kind, max_length=100,
                                                          per_length=3, seed=seed))
                             for kind in ("D", "Se"))
        picked = _assert_candidates_match(monkeypatch, pattern_pool(2, 1, 1), train,
                                          validation, max_features)
        assert len(picked) < len(pattern_pool(2, 1, 1))

    def test_rank3_pool_candidates_match_one_fit_loop(self, monkeypatch):
        pool = pattern_pool(3, 1, 1)
        assert len(pool) == 150
        train, validation = (generate_dataset(DatasetSpec(kind, rank=3, max_length=40,
                                                          per_length=3, seed=seed))
                             for kind, seed in (("D", 3), ("Se", 4)))
        _assert_candidates_match(monkeypatch, pool, train, validation, None)

    def test_exhausted_pool_matches_one_fit_loop(self, monkeypatch, train_set, test_set):
        monkeypatch.setattr(pipeline, "MIN_IMPROVEMENT", -1.0)
        pool = pattern_pool(2, 1, 1)[:6]
        picked = _assert_candidates_match(monkeypatch, pool, train_set, test_set, None)
        assert sorted(picked) == list(range(6))

    def test_chunked_candidates_match_one_fit_loop(self, monkeypatch, train_set, test_set):
        # one candidate per stack
        monkeypatch.setattr(pipeline, "STACK_CELLS", 1)
        _assert_candidates_match(monkeypatch, pattern_pool(2, 1, 1), train_set, test_set, 3)

    def test_rank3_pool_selected_in_bounded_time(self):
        train, validation = (generate_dataset(DatasetSpec(kind, rank=3, max_length=100,
                                                          per_length=3, seed=seed))
                             for kind, seed in (("D", 5), ("Se", 6)))
        start = time.perf_counter()
        picked = greedy_feature_selection(pattern_pool(3, 1, 1), train, validation)
        assert time.perf_counter() - start < 2.0
        assert picked


class TestSerialization:
    def test_round_trip_predictions(self, trained, test_set):
        clone = pipeline_from_json(pipeline_to_json(trained))
        words = test_set.words()[:50]
        X = feature_matrix(words, trained.fmap)
        assert np.array_equal(clone.model.predict(X), trained.model.predict(X))
        assert np.allclose(clone.model.scores(X), trained.model.scores(X))

    def test_json_text_stable(self, trained):
        text = pipeline_to_json(trained)
        assert text == pipeline_to_json(pipeline_from_json(text))
        assert text == pipeline_to_json(pipeline_from_json(text.encode("ascii")))

    @pytest.mark.parametrize("key", ["feature_map", "method", "quantizer_kind",
                                     "quantizer_bins", "threshold_override", "rank"])
    def test_config_key_is_required(self, trained, key):
        doc = json.loads(pipeline_to_json(trained))
        del doc["config"][key]
        with pytest.raises(ModelFormatError, match=key):
            pipeline_from_json(json.dumps(doc))

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"\x81", b"{\"a\": \"\xe9\"}"])
    def test_undecodable_bytes(self, data):
        with pytest.raises(ModelFormatError):
            pipeline_from_json(data)

    def test_single_word_predict(self, trained):
        X = feature_matrix([parse_cyclic_word("abAB", 2)], trained.fmap)
        assert trained.model.predict(X)[0] in (1, 2)


def _one_fit_selection(pool, train, validation, max_features):
    """Greedy selection with one least-squares fit and one threshold per
    candidate: the selection, and each step's candidate solutions and
    validation accuracies."""
    X = feature_matrix(train.words() + validation.words(),
                       FeatureMap("pool", tuple(pool), train.rank))
    Xtr, Xva = X[:len(train)], X[len(train):]
    ytr, yva = train.labels(), validation.labels()
    btr = (ytr == 2).astype(np.float64)
    selected, steps, best_acc = [], [], 0.0
    limit = max_features if max_features is not None else len(pool)
    while len(selected) < limit:
        best, solutions, accuracies = None, [], []
        for j in range(len(pool)):
            if j in selected:
                continue
            A = Xtr[:, selected + [j]]
            v = one_matrix_least_squares(A, btr)
            theta, orient, _ = unique_candidates_threshold(A @ v, ytr)
            preds = np.where(Xva[:, selected + [j]] @ v <= theta, orient, 3 - orient)
            acc = float((preds == yva).mean())
            solutions.append(v)
            accuracies.append(acc)
            if best is None or acc > best[0]:
                best = (acc, j)
        if best is not None:
            steps.append((np.array(solutions), np.array(accuracies)))
        if best is None or best[0] < best_acc + pipeline.MIN_IMPROVEMENT:
            break
        best_acc = best[0]
        selected.append(best[1])
    return selected, steps


def _assert_candidates_match(monkeypatch, pool, train, validation, max_features):
    """Run greedy_feature_selection, recording each stacked solve and each
    chunk's accuracies, and assert every candidate's solution and accuracy,
    not only the selection, are bit-equal to the one-fit loop's."""
    solves, scored = [], []

    def record(fn, out):
        def wrapper(*args):
            out.append(fn(*args))
            return out[-1]
        return wrapper

    monkeypatch.setattr(pipeline, "least_squares", record(pipeline.least_squares, solves))
    monkeypatch.setattr(pipeline, "_accuracies", record(pipeline._accuracies, scored))
    picked = greedy_feature_selection(pool, train, validation, max_features)
    want, steps = _one_fit_selection(pool, train, validation, max_features)
    assert picked == want
    assert len(solves) == len(scored)
    width = [v.shape[1] for v in solves]
    assert sorted(set(width)) == list(range(1, len(steps) + 1))
    for m, (solutions, accuracies) in enumerate(steps, 1):
        got_v = np.concatenate([v for v, w in zip(solves, width) if w == m])
        got_acc = np.concatenate([a for a, w in zip(scored, width) if w == m])
        assert got_v.tobytes() == solutions.tobytes()
        assert got_acc.tobytes() == accuracies.tobytes()
    return picked
