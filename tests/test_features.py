import itertools
import time

import numpy as np
import pytest

from whitmin.automorphisms import apply_automorphism, edge_table, length_change
from whitmin.features import (FeatureMap, Pattern, _pair_patterns, builtin_map,
                              count_pattern, feature_matrix, feature_vector,
                              pattern_pool, resolve_map)
from whitmin.words import CyclicWord, parse_codes, parse_cyclic_word, random_word

from conftest import enumerate_type2


def cw(text):
    return parse_cyclic_word(text, 2)


def naive_cyclic_count(w, p):
    """Independent oracle: literal scan of every start position of the
    cyclic word, none when the pattern's span exceeds |w|."""
    n = len(w)
    if p.offsets[-1] >= n:
        return 0
    return sum(all(w.letters[(i + o) % n] == c for c, o in zip(p.letters, p.offsets))
               for i in range(n))


def rotation_count(w, p):
    """Independent oracle: how many rotations of w carry the pattern's
    letters at its offsets; none when its span exceeds |w|."""
    n = len(w)
    if p.span > n:
        return 0
    rotations = [w.letters[i:] + w.letters[:i] for i in range(n)]
    return sum(all(r[o] == c for c, o in zip(p.letters, p.offsets)) for r in rotations)


# a cyclically reduced 40-letter word: its window code would need a 4^40 table
LONG_WORD = parse_codes("abABaabbAABBabaBAbabaaBBabABabbaBABaabab")

HAND_BUILT = (
    Pattern(parse_codes("abBaa"), (0, 1, 3, 5, 6)),                     # three segments
    Pattern.pair(0, 5, 2),                                              # wide gap
    Pattern.from_word(LONG_WORD),                                       # table too large
    Pattern(parse_codes("abaBAbaBabA"), tuple(range(0, 22, 2))),        # table too large
    Pattern.from_word((0, 5)),                                          # letter c^-1
)


class TestCountPattern:
    def test_fixed_word_examples(self):
        assert count_pattern(cw("abab"), Pattern.from_word(parse_codes("ab"))) == 2
        p_mid = Pattern.pair(0, 1, 0)  # a . U1 . a
        assert count_pattern(cw("abab"), p_mid) == 2

    def test_single_letters_sum_to_length(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            w = random_word(int(rng.integers(1, 20)), 2, rng=rng)
            total = sum(count_pattern(w, Pattern.from_word((c,))) for c in range(4))
            assert total == len(w)

    # no fixed letters matches only the empty word, whatever offsets come with them
    @pytest.mark.parametrize("fixed, gaps", [((), ()), ((), (0,)), ((), (0, 2))])
    def test_pattern_matching_only_the_empty_word_rejected(self, fixed, gaps):
        with pytest.raises(ValueError, match="only the empty word"):
            Pattern(fixed, gaps)

    @pytest.mark.parametrize("offsets", [(0,), (0, 1, 2), (1, 2), (0, 0), (0, 3, 2)])
    def test_offsets_checked(self, offsets):
        with pytest.raises(ValueError):
            Pattern((0, 2), offsets)

    def test_span_exceeding_length_is_zero(self):
        assert count_pattern(cw("ab"), Pattern.from_word(parse_codes("ababab"))) == 0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        p = Pattern.pair(0, 2, 3)
        for _ in range(30):
            w = random_word(int(rng.integers(4, 15)), 2, rng=rng)
            base = count_pattern(w, p)
            for i in range(len(w)):
                rot = w.letters[i:] + w.letters[:i]
                assert count_pattern(CyclicWord(rot, 2), p) == base

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        pats = [
            Pattern.from_word(parse_codes("ab")),
            Pattern.pair(1, 2, 2),
            Pattern.pair(0, 3, 0),
            Pattern(parse_codes("aba"), (0, 2, 4)),
        ]
        for _ in range(40):
            w = random_word(int(rng.integers(2, 14)), 2, rng=rng)
            for p in pats:
                assert count_pattern(w, p) == naive_cyclic_count(w, p)


class TestFeatureVector:
    def test_f0_example(self):
        v = feature_vector(cw("abab"), builtin_map("f0", 2))
        assert np.allclose(v, [0.5, 0.0, 0.5, 0.0])

    def test_fstar_example(self):
        v = feature_vector(cw("AbAb"), builtin_map("fstar", 2))
        assert np.allclose(v, [0.5, 0.0])

    def test_f0_sums_to_one(self):
        rng = np.random.default_rng(4)
        f0 = builtin_map("f0", 2)
        for _ in range(30):
            w = random_word(int(rng.integers(1, 30)), 2, rng=rng)
            assert abs(feature_vector(w, f0).sum() - 1.0) < 1e-12

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            feature_vector(CyclicWord((), 2), builtin_map("f0", 2))

    def test_rank_mismatch_rejected(self):
        # a rank-3 word on a rank-2 map would count its c-letters nowhere
        with pytest.raises(ValueError, match="rank-3 word"):
            feature_vector(CyclicWord((0, 4, 2), 3), builtin_map("f1", 2))
        with pytest.raises(ValueError, match="rank-2 word"):
            feature_matrix([cw("ab"), cw("aab")], builtin_map("f1", 3))

    def test_dimension_always_matches(self):
        rng = np.random.default_rng(5)
        for name in ["f0", "f1", "f2", "f3", "f4", "f5", "f6", "fstar"]:
            fmap = builtin_map(name, 2)
            w = random_word(int(rng.integers(1, 20)), 2, rng=rng)
            assert feature_vector(w, fmap).shape == (fmap.dim,)

    @pytest.mark.parametrize("name, rank", [
        *[(n, 2) for n in ("f0", "f1", "f2", "f3", "f4", "f5", "f6", "fstar",
                           "pool:1-3", "hand-built")],
        ("f6", 3)])
    def test_fast_paths_match_generic_counts(self, name, rank):
        rng = np.random.default_rng(6)
        words = [random_word(n, rank, rng=rng) for n in range(1, 26)]
        fmap = (FeatureMap(name, HAND_BUILT, rank) if name == "hand-built"
                else resolve_map(name, rank))
        if name == "hand-built":
            # short words holding a match that the pattern's span excludes
            words += [cw(t) for t in ("ab", "aab", "abaa", "AAA")]
            words.append(CyclicWord(LONG_WORD, rank))
        for w in words:
            fast = feature_vector(w, fmap)
            slow = np.array([naive_cyclic_count(w, p) for p in fmap.patterns]) / len(w)
            assert fast.tobytes() == slow.tobytes(), (str(w), name)

    @pytest.mark.parametrize("rank", [2, 3, 5])
    def test_every_pattern_kind_matches_oracle(self, rank):
        """Random (letters, offsets) patterns, with letters that may fall
        outside the alphabet, groups whose (2r)^k code table exceeds 2^16 and
        spans longer than the word, counted together in one map."""
        rng = np.random.default_rng(rank)
        m = 2 * rank
        source = random_word(30, rank, rng=rng)
        pats = list(HAND_BUILT) + [Pattern.from_word(source.letters[3:15])]
        while len(pats) < 60:
            k = int(rng.integers(1, 10))
            gaps = rng.integers(1, 4, size=k - 1) * (rng.random(k - 1) < 0.4)
            offsets = tuple(int(o) for o in np.concatenate(([0], np.cumsum(gaps + 1))))
            letters = tuple(int(c) for c in rng.integers(0, m + 1, size=k))
            pats.append(Pattern(letters, offsets))
        assert any(m ** len(p.offsets) > 1 << 16 for p in pats[len(HAND_BUILT):])
        fmap = FeatureMap("random", tuple(pats), rank)
        words = [random_word(n, rank, rng=rng) for n in range(1, 16)]
        nonzero = 0
        for w in words + [source, random_word(60, rank, rng=rng)]:
            exact = [naive_cyclic_count(w, p) for p in pats]
            nonzero += sum(map(bool, exact))
            slow = np.array(exact) / len(w)
            assert feature_vector(w, fmap).tobytes() == slow.tobytes(), str(w)
            assert [count_pattern(w, p) for p in pats] == exact
        assert nonzero > 20

    @pytest.mark.parametrize("name", ["f5", "f6", "pool:1-3", "mixed"])
    def test_many_groups_match_rotation_oracle(self, name):
        """Maps of several offset groups, words of every length from 1 to the
        longest span + 1.  The mixed rank-9 map counts its pairs and 3-letter
        subwords by window codes and its 5- and 6-letter patterns, whose
        (2r)^k codes exceed 2^16, by Counter, into one vector."""
        rng = np.random.default_rng(12)
        rank = 9 if name == "mixed" else 2
        words = []
        if name == "mixed":
            source = random_word(12, rank, rng=rng).letters
            short = random_word(5, rank, rng=rng).letters
            gapped = (0, 1, 3, 4, 6)
            pats = (_pair_patterns(rank, 0) + _pair_patterns(rank, 2)
                    + [Pattern.from_word(source[i:i + 3]) for i in range(4)]
                    + [Pattern.pair(source[0], 5, source[6]),
                       Pattern.from_word(source[:5]),
                       Pattern(tuple(source[o] for o in gapped), gapped),
                       # matches the 5-letter word only if read past its end
                       Pattern.from_word(short + short[:1])])
            assert (2 * rank) ** 3 <= 1 << 16 < (2 * rank) ** 5
            fmap = FeatureMap(name, tuple(pats), rank)
            words += [CyclicWord(source, rank), CyclicWord(short, rank)]
        else:
            fmap = resolve_map(name, rank)
        assert len({p.offsets for p in fmap.patterns}) >= 2
        longest = max(p.span for p in fmap.patterns)
        words += [random_word(n, rank, rng=rng) for n in range(1, longest + 2) for _ in range(4)]
        for w in words:
            exact = [rotation_count(w, p) for p in fmap.patterns]
            if name == "mixed" and w == words[0]:
                assert all(exact[-4:-1])  # the source holds its patterns
            slow = np.array(exact) / len(w)
            assert feature_vector(w, fmap).tobytes() == slow.tobytes(), (str(w), name)

    def test_large_pool_counted_in_bounded_time(self):
        fmap = resolve_map("pool:7-7", 2)
        rng = np.random.default_rng(10)
        words = [random_word(100, 2, rng=rng) for _ in range(3)]
        start = time.perf_counter()
        X = feature_matrix(words, fmap)
        assert time.perf_counter() - start < 2.0
        found = np.flatnonzero(X.any(axis=0))
        for j in [*rng.choice(found, 20), *rng.choice(fmap.dim, 20)]:
            exact = np.array([naive_cyclic_count(w, fmap.patterns[j]) for w in words])
            assert X[:, j].tobytes() == (exact / 100).tobytes()

    def test_patterns_classified_once(self, monkeypatch):
        calls = []
        span = Pattern.span

        def counting(p):
            calls.append(p)
            return span.fget(p)

        monkeypatch.setattr(Pattern, "span", property(counting))
        fmap = builtin_map("f6", 2)
        rng = np.random.default_rng(9)
        feature_matrix([random_word(30, 2, rng=rng) for _ in range(5)], fmap)
        feature_vector(random_word(7, 2, rng=rng), fmap)
        assert calls == list(fmap.patterns)

    def test_empty_word_list(self):
        X = feature_matrix([], builtin_map("f6", 2))
        assert X.shape == (0, 60) and X.dtype == np.float64

    def test_partition_identity(self):
        # summing x1 . U_k . x2 over all ordered pairs covers every position
        rng = np.random.default_rng(7)
        for k in (1, 2, 3):
            fmap = builtin_map(f"f{k + 1}", 2)
            for _ in range(10):
                w = random_word(int(rng.integers(k + 2, 25)), 2, rng=rng)
                counts = feature_vector(w, fmap) * len(w)
                assert abs(counts.sum() - len(w)) < 1e-9


def chained_builtin_patterns(name, rank):
    """Independent oracle: the built-in maps' patterns as an if/elif chain
    over the map names, f5 and f6 concatenating the pair maps."""
    if name == "fstar":
        return (Pattern.from_word((1, 2)), Pattern.from_word((3, 0)))
    if name == "f0":
        return tuple(Pattern.from_word((c,)) for c in range(2 * rank))
    elif name == "f1":
        return tuple(_pair_patterns(rank, 0))
    elif name in ("f2", "f3", "f4"):
        return tuple(_pair_patterns(rank, int(name[1]) - 1))
    elif name == "f5":
        return tuple(_pair_patterns(rank, 0) + _pair_patterns(rank, 1))
    elif name == "f6":
        return tuple(itertools.chain.from_iterable(
            _pair_patterns(rank, g) for g in range(4)))
    raise ValueError(name)


class TestBuiltinMaps:
    @pytest.mark.parametrize("rank", [2, 3, 26])
    def test_patterns_match_chained_oracle(self, rank):
        names = [f"f{i}" for i in range(7)] + (["fstar"] if rank == 2 else [])
        for name in names:
            fmap = builtin_map(name, rank)
            assert (fmap.name, fmap.rank) == (name, rank)
            assert fmap.patterns == chained_builtin_patterns(name, rank), (name, rank)

    def test_dimensions(self):
        assert builtin_map("f0", 2).dim == 4
        assert builtin_map("f1", 2).dim == 12
        assert builtin_map("f2", 2).dim == 16
        assert builtin_map("f5", 2).dim == 28
        assert builtin_map("f6", 2).dim == 60

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_map("f9", 2)

    def test_fstar_requires_rank_2(self):
        with pytest.raises(ValueError):
            builtin_map("fstar", 3)

    def test_resolve_pool_name(self):
        fmap = resolve_map("pool:1-2", 2)
        assert fmap.dim == 36 + 108

    def test_pattern_texts(self):
        """The strings select-features prints: x.U<g>.y, and composite words."""
        letters = "aAbB"
        for gap in (1, 2, 3):
            expect = [f"{x}.U{gap}.{y}" for x in letters for y in letters]
            assert [p.text() for p in builtin_map(f"f{gap + 1}", 2).patterns] == expect
        reduced = [w for n in (3, 4) for w in map("".join, itertools.product(letters, repeat=n))
                   if all(y != x.swapcase() for x, y in zip(w, w[1:]))]
        assert [p.text() for p in resolve_map("pool:1-2", 2).patterns] == reduced
        assert HAND_BUILT[0].text() == "ab.U1.B.U1.aa"

    @pytest.mark.parametrize("rank", [1, 27, 10**9])
    @pytest.mark.parametrize("name", ["f0", "f6", "fstar", "pool:1-1"])
    def test_rank_bounded(self, name, rank):
        with pytest.raises(ValueError, match="rank must be in 2..26"):
            resolve_map(name, rank)


class TestPatternPool:
    def test_sizes(self):
        assert len(pattern_pool(2, 1, 3)) == 468
        assert len(pattern_pool(2, 1, 1)) == 36

    def test_all_composites_reduced(self):
        for p in pattern_pool(2, 1, 2):
            assert p.offsets == tuple(range(len(p.letters)))
            assert all(b != a ^ 1 for a, b in zip(p.letters, p.letters[1:]))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            pattern_pool(2, 0, 3)

    @pytest.mark.parametrize("rank, lo, hi", [(2, 1, 12), (2, 10**9, 10**9), (26, 1, 2)])
    def test_size_bounded_before_enumeration(self, rank, lo, hi):
        with pytest.raises(ValueError, match="more than 262144"):
            pattern_pool(rank, lo, hi)


class TestWhiteheadForms:
    """|t(w)| - |w| = cap(A) - deg(a) makes each proper type II t = (A, a) a
    linear form with integer coefficients on w's f1 counts.  Pattern xy is
    the Whitehead-graph edge {x, y^-1}: +1 when exactly one end lies in A,
    -1 for each end equal to a.  f1 counts no pattern in a one-letter word,
    whose one pattern is longer than the word, so words have 2 letters or
    more."""

    @staticmethod
    def form(fmap, t):
        A, a = t.subset, t.multiplier
        return [((x in A) != (y ^ 1 in A)) - (x == a) - (y ^ 1 == a)
                for x, y in (p.letters for p in fmap.patterns)]

    @pytest.mark.parametrize("rank, count", [(2, 100), (3, 40), (4, 20)])
    def test_f1_counts_give_length_change(self, rank, count):
        rng = np.random.default_rng(rank)
        fmap = builtin_map("f1", rank)
        autos = enumerate_type2(rank)
        forms = np.array([self.form(fmap, t) for t in autos])
        for _ in range(count):
            w = random_word(int(rng.integers(2, 16)), rank, rng=rng)
            counts = np.rint(feature_vector(w, fmap) * len(w)).astype(np.int64)
            cap = edge_table(w.letters, rank)
            for t, change in zip(autos, (forms @ counts).tolist()):
                assert change == length_change(cap, t), (str(w), t)
                assert change == len(apply_automorphism(t, w)) - len(w), (str(w), t)
