import itertools

import numpy as np
import pytest

from whitmin import datasets
from whitmin.automorphisms import edge_tables, is_minimal
from whitmin.datasets import (_RNG_BLOCK, KINDS, LABEL_MIN, LABEL_NONMIN,
                              MAX_RECORDS, DataFormatError, DatasetSpec,
                              LabeledWordSet, WordRecord, _record_rngs,
                              generate_dataset, generate_records, load_tsv, save_tsv)
from whitmin.words import parse_cyclic_word


def labels_verified(ds):
    """Every label agrees with the minimality test."""
    return all((r.label == LABEL_MIN) == is_minimal(r.word) for r in ds.records)


@pytest.fixture(scope="module")
def small_d():
    return generate_dataset(DatasetSpec("D", max_length=30, per_length=5, seed=7))


class TestSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DatasetSpec("X")

    def test_bad_length(self):
        with pytest.raises(ValueError):
            DatasetSpec("D", max_length=0)

    @pytest.mark.parametrize("rank", [1, 27])
    def test_rank_outside_minimality_bound(self, rank):
        with pytest.raises(ValueError):
            DatasetSpec("SR", rank=rank)

    @pytest.mark.parametrize("kind, sizes", [
        ("SR", dict(size=2**32)),
        ("SP", dict(size=2**40)),
        ("D", dict(max_length=2**16, per_length=2**16)),
        ("S10", dict(max_length=2**31, per_length=3)),
    ])
    def test_record_count_below_2_to_the_32(self, kind, sizes):
        with pytest.raises(ValueError, match="record count"):
            DatasetSpec(kind, **sizes)

    def test_largest_record_count_accepted(self):
        assert DatasetSpec("SR", size=MAX_RECORDS).record_count == 2**32 - 1
        assert DatasetSpec("Se", max_length=2**16 + 1,
                           per_length=2**16 - 1).record_count == 2**32 - 1

    def test_largest_spec_streams_its_first_records(self):
        # 2**32 - 1 records could never be held at once; the first five come
        # out as they are drawn, the records of the same seed at size 5
        first = list(itertools.islice(generate_records(
            DatasetSpec("SR", max_length=10, size=MAX_RECORDS, seed=1)), 5))
        assert first == generate_dataset(
            DatasetSpec("SR", max_length=10, size=5, seed=1)).records

    def test_primitives_labelled_by_length_at_rank_6(self):
        # a primitive element is minimal exactly when it is one letter
        sp = generate_dataset(DatasetSpec("SP", rank=6, size=60, seed=3))
        assert {r.label for r in sp.records} == {LABEL_MIN, LABEL_NONMIN}
        for r in sp.records:
            assert (r.label == LABEL_MIN) == (len(r.word) == 1)


class TestRecordStreams:
    """_record_rngs hashes SeedSequence's entropy in blocks; each stream must
    be the one numpy.random.default_rng([seed, kind, index]) gives."""

    INDICES = (0, 1, _RNG_BLOCK - 1, _RNG_BLOCK, _RNG_BLOCK + 1)
    # the documented kind entropy words, written out so that the test does not
    # read them from the code under test
    KIND_INDEX = {"D": 0, "Se": 1, "SR": 2, "SP": 3, "S10": 4}

    @staticmethod
    def assert_oracle(rng, seed, kind, idx):
        oracle = np.random.default_rng([seed, TestRecordStreams.KIND_INDEX[kind], idx])
        assert rng.bit_generator.state == oracle.bit_generator.state, (seed, kind, idx)
        assert (rng.integers(0, 2**62, 50) == oracle.integers(0, 2**62, 50)).all()

    @pytest.mark.parametrize("kind", sorted(KIND_INDEX))
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 5, 2**64 + 7])
    def test_matches_default_rng(self, kind, seed):
        spec = DatasetSpec(kind, seed=seed)
        rngs = list(_record_rngs(spec, _RNG_BLOCK + 2))
        assert len(rngs) == _RNG_BLOCK + 2
        for idx in self.INDICES:
            self.assert_oracle(rngs[idx], seed, kind, idx)

    def test_count_is_built_one_block_at_a_time(self):
        # 2**32 - 1 states at once would be 128 GiB; the first needs one block
        spec = DatasetSpec("SR", seed=9)
        rngs = _record_rngs(spec, MAX_RECORDS)
        for idx in range(3):
            self.assert_oracle(next(rngs), 9, "SR", idx)

    def test_short_and_empty_counts(self):
        spec = DatasetSpec("D", seed=4)
        assert list(_record_rngs(spec, 0)) == []
        (rng,) = _record_rngs(spec, 1)
        self.assert_oracle(rng, 4, "D", 0)


class TestGenerateD(object):
    def test_size_and_labels(self, small_d):
        assert len(small_d) == 30 * 5
        labs = {r.label for r in small_d.records}
        assert labs == {LABEL_MIN, LABEL_NONMIN}

    def test_labels_verified_correct(self, small_d):
        assert labels_verified(small_d)

    def test_minimal_records_are_minimal(self, small_d):
        for r in small_d.records:
            assert (r.label == LABEL_MIN) == is_minimal(r.word)

    def test_roughly_balanced(self, small_d):
        frac = (small_d.labels() == 2).mean()
        assert 0.25 < frac < 0.65

    def test_deterministic(self, small_d):
        again = generate_dataset(DatasetSpec("D", max_length=30, per_length=5, seed=7))
        assert [(str(r.word), r.label) for r in again.records] == \
               [(str(r.word), r.label) for r in small_d.records]

    def test_seed_changes_content(self, small_d):
        other = generate_dataset(DatasetSpec("D", max_length=30, per_length=5, seed=8))
        assert [str(r.word) for r in other.records] != \
               [str(r.word) for r in small_d.records]

    def test_d_and_se_differ(self, small_d):
        se = generate_dataset(DatasetSpec("Se", max_length=30, per_length=5, seed=7))
        assert [str(r.word) for r in se.records] != \
               [str(r.word) for r in small_d.records]


class TestGenerateOthers:
    def test_s10_verifies(self):
        ds = generate_dataset(DatasetSpec("S10", max_length=15, per_length=4, seed=3))
        assert len(ds) == 60
        assert labels_verified(ds)

    def test_sr_label_matches_test(self):
        ds = generate_dataset(DatasetSpec("SR", max_length=40, size=150, seed=5))
        assert len(ds) == 150
        assert labels_verified(ds)
        assert (ds.labels() == 2).any() and (ds.labels() == 1).any()

    def test_sp_words_are_primitive_images(self):
        from whitmin.automorphisms import minimize
        ds = generate_dataset(DatasetSpec("SP", size=60, seed=6))
        assert labels_verified(ds)
        for r in ds.records:
            m, _ = minimize(r.word)
            assert len(m) == 1  # primitive: orbit minimum is a single letter


class TestBlocks:
    """Records are drawn a block at a time; where the blocks end changes no
    record."""

    SPECS = dict(D=dict(max_length=80, per_length=3), Se=dict(max_length=80, per_length=3),
                 S10=dict(max_length=10, per_length=40), SR=dict(max_length=60, size=300),
                 SP=dict(size=500))

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_block_size_changes_no_record(self, monkeypatch, kind, rank):
        spec = DatasetSpec(kind, rank=rank, seed=rank, **self.SPECS[kind])
        blocks = []
        monkeypatch.setattr(datasets, "edge_tables",
                            lambda words, r: blocks.append(words) or edge_tables(words, r))
        ds = generate_dataset(spec)
        assert len(blocks) > 1 and labels_verified(ds)
        assert all(len(b) == 1 or sum(len(w) + 4 * rank * rank for w in b)
                   <= datasets._BLOCK_LETTERS for b in blocks)
        # 1 and 7: one word per block; 100: a few short words per block
        for size in (1, 7, 100):
            monkeypatch.setattr(datasets, "_BLOCK_LETTERS", size)
            assert generate_dataset(spec).records == ds.records, size

    def test_blocks_count_table_cells(self, monkeypatch):
        # a rank-26 table has 2,704 cells: short words go at most three to a
        # block, where a cap on letters alone would take all 60 at once
        blocks = []
        monkeypatch.setattr(datasets, "edge_tables",
                            lambda words, r: blocks.append(words) or edge_tables(words, r))
        generate_dataset(DatasetSpec("SR", rank=26, max_length=3, size=60, seed=1))
        assert blocks and max(map(len, blocks)) <= 3


class TestLabeledWordSet:
    def test_label_encoding(self):
        ds = LabeledWordSet([
            WordRecord(parse_cyclic_word("a", 2), LABEL_MIN),
            WordRecord(parse_cyclic_word("abab", 2), LABEL_NONMIN),
        ], 2)
        assert ds.labels().tolist() == [1, 2]
        assert ds.lengths().tolist() == [1, 4]

    def test_subset(self, small_d):
        mask = small_d.lengths() > 10
        sub = small_d.subset(mask)
        assert len(sub) == int(mask.sum())
        assert (sub.lengths() > 10).all()


class TestTsv:
    def test_round_trip(self, small_d, tmp_path):
        path = str(tmp_path / "d.tsv")
        save_tsv(small_d, path)
        back = load_tsv(path, rank=2)
        assert [(str(r.word), r.label) for r in back.records] == \
               [(str(r.word), r.label) for r in small_d.records]

    def test_bytes_deterministic(self, small_d, tmp_path):
        p1, p2 = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        save_tsv(small_d, p1)
        save_tsv(small_d, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    @pytest.mark.parametrize("line", [
        "abab\tnonmin",                 # missing column
        "abab\tmaybe\t4",               # bad label
        "ab1b\tmin\t4",                 # bad character
        "abab\tnonmin\t5",              # wrong length
        "abA\tmin\t3",                  # not cyclically reduced
        "\tmin\t0",                     # empty word
        "ab\tmin\tx",                   # non-numeric length
        "\u00e9b\tmin\t2",              # non-ASCII byte
    ])
    def test_malformed_rejected(self, tmp_path, line):
        path = tmp_path / "bad.tsv"
        path.write_text("# word\tlabel\tlength\n" + line + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_tsv(str(path), rank=2)

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "ok.tsv"
        path.write_text("# word\tlabel\tlength\n\n# comment\nab\tmin\t2\n")
        assert len(load_tsv(str(path), rank=2)) == 1
