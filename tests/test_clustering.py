import numpy as np
import pytest

from whitmin.automorphisms import NIELSEN_MOVES, reducing_moves
from whitmin.clustering import (ClusterReport, EmptyPureSet,
                                centers_from_json, centers_to_json,
                                clustering_experiment, estimate_initial_centers,
                                predict_reducer, report_centers_by_move)
from whitmin.datasets import DatasetSpec, LabeledWordSet, WordRecord, generate_dataset
from whitmin.features import builtin_map
from whitmin.words import parse_cyclic_word


@pytest.fixture(scope="module")
def nonmin_set():
    ds = generate_dataset(DatasetSpec("D", max_length=120, per_length=6, seed=77))
    return ds.subset(ds.labels() == 2)


@pytest.fixture(scope="module")
def f2map():
    return builtin_map("f2", 2)


class TestInitialCenters:
    def test_shapes_and_moves(self, nonmin_set, f2map):
        centers = estimate_initial_centers(nonmin_set.words(), f2map)
        assert set(centers) == set(NIELSEN_MOVES)
        for v in centers.values():
            assert v.shape == (16,)

    def test_empty_pure_set_raises(self, f2map):
        # a single word cannot populate all four pure sets
        with pytest.raises(EmptyPureSet):
            estimate_initial_centers([parse_cyclic_word("abab", 2)], f2map)

    def test_center_is_pure_set_mean(self, nonmin_set, f2map):
        from whitmin.features import feature_matrix
        words = nonmin_set.words()
        centers = estimate_initial_centers(words, f2map)
        m = NIELSEN_MOVES[0]
        pure = [w for w in words if reducing_moves(w) == [m]]
        assert np.allclose(centers[m], feature_matrix(pure, f2map).mean(axis=0))


class TestExperiment:
    def test_estimated_init_report(self, nonmin_set, f2map):
        rep = clustering_experiment(nonmin_set, f2map, init="estimated", seed=5)
        assert rep.init_kind == "estimated"
        assert len(rep.r_max) == 4
        assert sum(rep.cluster_sizes) <= len(nonmin_set)
        assert rep.rates.shape == (4, len(NIELSEN_MOVES))
        assert ((0.0 <= rep.rates) & (rep.rates <= 1.0)).all()
        assert all(r == max(rates) for r, rates in zip(rep.r_max, rep.rates))
        # the list forms agree with numpy's max, first argmax and mean
        assert rep.assignment == [NIELSEN_MOVES[j] for j in rep.rates.argmax(axis=1)]
        assert rep.avg_r_max == float(np.mean(rep.rates.max(axis=1)))
        # clusters should align with reducing moves far better than chance
        assert rep.avg_r_max > 0.6

    def test_random_init_runs_on_same_remainder(self, nonmin_set, f2map):
        est = clustering_experiment(nonmin_set, f2map, init="estimated", seed=5)
        rnd = clustering_experiment(nonmin_set, f2map, init="random", seed=5)
        assert sum(est.cluster_sizes) == sum(rnd.cluster_sizes)

    def test_deterministic(self, nonmin_set, f2map):
        a = clustering_experiment(nonmin_set, f2map, seed=9)
        b = clustering_experiment(nonmin_set, f2map, seed=9)
        assert np.array_equal(a.centers, b.centers)
        assert a.assignment == b.assignment

    def test_rejects_minimal_words(self, f2map):
        ds = generate_dataset(DatasetSpec("D", max_length=20, per_length=4, seed=1))
        with pytest.raises(ValueError):
            clustering_experiment(ds, f2map)

    def test_unknown_init(self, nonmin_set, f2map):
        with pytest.raises(ValueError):
            clustering_experiment(nonmin_set, f2map, init="plusplus")

    def test_empty_clusters_are_zero_rows(self, f2map):
        # four equal random centers: every word joins cluster 0; abab is
        # shortened by A_BINV_A and B_AINV_B, and the tie goes to the first
        w = parse_cyclic_word("abab", 2)
        ds = LabeledWordSet([WordRecord(w, "nonmin")] * 20, 2)
        rep = clustering_experiment(ds, f2map, init="random", seed=0)
        assert rep.cluster_sizes.tolist() == [18, 0, 0, 0]
        zero = "0.000000,0.000000,0.000000,0.000000,0.000000"
        assert rep.summary_csv() == (
            "cluster,size,move,R_A_AB,R_A_BINV_A,R_B_BA,R_B_AINV_B,R_max\n"
            "0,18,A_BINV_A,0.000000,1.000000,0.000000,1.000000,1.000000\n"
            f"1,0,A_AB,{zero}\n2,0,A_AB,{zero}\n3,0,A_AB,{zero}\n"
            "avg_r_max,,,,,,,0.250000\nmax_r_max,,,,,,,1.000000\n"
            "min_r_max,,,,,,,0.000000\n")

    def test_summary_csv(self, nonmin_set, f2map):
        rep = clustering_experiment(nonmin_set, f2map, seed=5)
        csv = rep.summary_csv()
        assert csv.startswith("cluster,size,move,")
        assert "avg_r_max" in csv


class TestPredictReducer:
    def test_predicts_a_valid_move(self, nonmin_set, f2map):
        centers = estimate_initial_centers(nonmin_set.words(), f2map)
        hits = 0
        total = 0
        for w in nonmin_set.words()[:200]:
            moves = reducing_moves(w)
            if not moves:
                continue
            total += 1
            if predict_reducer(w, centers, f2map) in moves:
                hits += 1
        assert hits / total > 0.6

    def test_centers_json_round_trip(self, nonmin_set, f2map):
        centers = estimate_initial_centers(nonmin_set.words(), f2map)
        text = centers_to_json(centers, "f2")
        back, name = centers_from_json(text)
        assert name == "f2"
        for m in NIELSEN_MOVES:
            assert np.array_equal(back[m], centers[m])

    def test_missing_move_rejected(self):
        with pytest.raises((ValueError, KeyError)):
            centers_from_json('{"schema_version": 1, "centers": {"A_AB": [0.0]}}')

    def test_move_without_center_rejected(self, nonmin_set, f2map):
        # two clusters assigned the same move leave report_centers_by_move
        # three centers, as a random init can
        rep = ClusterReport(np.eye(4)[[0, 1, 3, 3]], np.zeros((4, 16)),
                            np.array([5, 4, 3, 2]), "random")
        centers = report_centers_by_move(rep)
        assert len(centers) == 3
        with pytest.raises(ValueError, match=NIELSEN_MOVES[2].name):
            predict_reducer(nonmin_set.words()[0], centers, f2map)

    def test_report_centers_by_move(self, nonmin_set, f2map):
        rep = clustering_experiment(nonmin_set, f2map, seed=5)
        by_move = report_centers_by_move(rep)
        for m, c in by_move.items():
            assert m in rep.assignment
            assert c.shape == (16,)
