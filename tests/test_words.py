import itertools
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitmin import words
from whitmin.automorphisms import (apply_automorphism, edge_table, minimize,
                                   random_primitive, random_type2)
from whitmin.datasets import DatasetSpec, generate_dataset, load_tsv, save_tsv
from whitmin.words import (CyclicWord, InvalidLetterError, check_codes,
                           cyclic_reduce, format_codes, least_rotation,
                           parse_codes, parse_cyclic_word, random_word,
                           reduce_codes, window_codes)


def codes(text):
    return parse_codes(text)


class TestLetters:
    def test_order_matches_spec(self):
        # a < a^-1 < b < b^-1
        assert codes("aAbB") == bytes((0, 1, 2, 3))

    def test_invalid(self):
        with pytest.raises(InvalidLetterError):
            check_codes([7], 2)
        with pytest.raises(InvalidLetterError):
            cyclic_reduce([7], 2)
        # checked before reduction: c C cancels, but c is no rank-2 letter
        with pytest.raises(InvalidLetterError, match="letter code 4 "):
            cyclic_reduce(codes("cbC"), 2)


class TestFreeReduce:
    def test_adjacent_cancellation(self):
        assert reduce_codes(codes("abBa")) == codes("aa")

    def test_identity_cases(self):
        assert reduce_codes(()) == b""
        assert reduce_codes(codes("aA")) == b""

    def test_idempotent_and_nonincreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            raw = rng.integers(0, 4, size=int(rng.integers(0, 30))).tolist()
            w = reduce_codes(raw)
            assert len(w) <= len(raw)
            assert reduce_codes(w) == w

    @given(st.lists(st.integers(0, 5), max_size=40))
    def test_reduced_invariant(self, raw):
        out = reduce_codes(raw)
        for i in range(len(out) - 1):
            assert out[i] != out[i + 1] ^ 1


def inverse(letters):
    return bytes(c ^ 1 for c in reversed(letters))


class TestCyclicReduce:
    @pytest.mark.parametrize("word,core,conj", [
        ("Bab", "a", "B"),
        ("abab", "abab", ""),
        ("Baab", "aa", "B"),
    ])
    def test_examples(self, word, core, conj):
        assert cyclic_reduce(codes(word), 2).letters == CyclicWord(codes(core), 2).letters
        # word = conj core conj^-1
        g = codes(conj)
        assert reduce_codes(g + codes(core) + inverse(g)) == codes(word)

    def test_conjugation_identity(self):
        # g c g^-1, any rotation of c, unreduced, has the cyclic word c
        rng = np.random.default_rng(1)
        for _ in range(200):
            rank = int(rng.integers(2, 4))
            c = random_word(int(rng.integers(0, 12)), rank, rng=rng)
            r = int(rng.integers(0, max(len(c), 1)))
            g = bytes(rng.integers(0, 2 * rank, size=int(rng.integers(0, 6))).tolist())
            raw = g + c.letters[r:] + c.letters[:r] + inverse(g)
            assert cyclic_reduce(raw, rank) == c


def naive_least_rotation(s):
    return min(s[i:] + s[:i] for i in range(len(s))) if s else b""


def fibonacci_word(n):
    a, b = bytes((0,)), bytes((0, 2))
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


class TestCanonicalRotation:
    def test_matches_min_of_all_rotations(self):
        # every word over 2 letters up to length 12, over 3 up to length 8
        for letters, max_len in ((2, 12), (3, 8)):
            for n in range(max_len + 1):
                for s in map(bytes, itertools.product(range(letters), repeat=n)):
                    assert least_rotation(s) == naive_least_rotation(s), s

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=6),
           st.integers(1, 12), st.integers(-1, 5))
    def test_periodic_and_near_periodic(self, u, power, last):
        # u^power, and with last >= 0 the same word with its last letter set
        s = bytes(u) * power
        if last >= 0:
            s = s[:-1] + bytes((last,))
        assert least_rotation(s) == naive_least_rotation(s)

    def test_accepts_bytes(self):
        assert least_rotation(bytes((3, 1, 2, 1))) == bytes((1, 2, 1, 3))

    @pytest.mark.parametrize("name", ["a^n", "b^(n-1)a", "a^(n-1)b", "(ab)^(n/2)",
                                      "(aab)^k B", "fibonacci"])
    def test_adversarial_words_finish_fast(self, name):
        n = 10 ** 6
        word = {"a^n": bytes((0,)) * n,
                "b^(n-1)a": bytes((2,)) * (n - 1) + bytes((0,)),
                "a^(n-1)b": bytes((0,)) * (n - 1) + bytes((2,)),
                "(ab)^(n/2)": bytes((0, 2)) * (n // 2),
                "(aab)^k B": bytes((0, 0, 2)) * ((n - 1) // 3) + bytes((3,)),
                "fibonacci": fibonacci_word(n)}[name]
        t0 = time.perf_counter()
        canon = least_rotation(word)
        assert time.perf_counter() - t0 < 5.0
        if name == "fibonacci":
            rng = np.random.default_rng(0)
            for k in rng.integers(0, n, size=50).tolist():
                assert canon <= word[k:] + word[:k]
        elif name == "b^(n-1)a":
            assert canon == word[-1:] + word[:-1]
        else:
            assert canon == word

    def test_rotations_share_canonical_form(self):
        w = parse_cyclic_word("aabab", 2)
        for i in range(len(w)):
            assert CyclicWord(w.letters[i:] + w.letters[:i], 2).letters == w.letters

    def test_rejects_cyclically_unreduced(self):
        with pytest.raises(ValueError):
            CyclicWord(codes("abA"), 2)


class TestPairCounts:
    """The cyclic pairs xy of a word, counted as the Whitehead graph's edges
    {x, y^-1} by automorphisms.edge_table."""

    def test_counts_every_cyclic_pair(self):
        # aab: the pairs aa, ab, ba give the edges {a, A}, {a, B}, {b, A}
        t = edge_table(codes("aab"), 2)
        assert t == [list(col) for col in zip(*t)] and sum(map(sum, t)) == 2 * 3
        assert (t[0][1], t[0][3], t[2][1]) == (1, 1, 1)

    def test_short_word_wraps_onto_itself(self):
        # the Whitehead graph of a one-letter word x has the edge {x, x^-1}
        assert edge_table(codes("B"), 2)[3][2] == 1
        assert sum(map(sum, edge_table(b"", 2))) == 0

    def test_window_codes_read_each_cyclic_window(self):
        # the empty word, one to 14 letters at ranks 3 and 26, and every
        # rank-26 code 0..51 in one word; one to six offsets, some beyond |w|
        rng = np.random.default_rng(5)
        cases = [(b"", 2), (bytes(range(52)), 26)] + [
            (random_word(n, rank, rng=rng).letters, rank)
            for rank in (3, 26) for n in range(1, 15)]
        for w, rank in cases:
            n = len(w)
            expect = {}
            for offsets in ((0,), (2, 0), (1, 4, 9), (0, 1, 2, 3, 4, 5),
                            (n, 2 * n + 3), (60,)):
                expect[offsets] = [sum(w[(i + o) % n] * (2 * rank) ** (len(offsets) - 1 - j)
                                       for j, o in enumerate(offsets)) for i in range(n)]
                got = window_codes(w, ((offsets, 0),), rank).tolist()
                assert got == expect[offsets], (w, offsets)
            # three groups with nonzero bases: each group's codes plus its
            # base, one group after another
            groups = (((1, 4, 9), 7), ((0,), 1000), ((2, 0), 123456))
            got = window_codes(w, groups, rank).tolist()
            assert got == [c + base for offsets, base in groups
                           for c in expect[offsets]], w
        assert window_codes(b"", (((0, 1), 0),), 2).shape == (0,)


class TestBytesLetters:
    """A word's letters have one format, bytes, whichever function made the
    word and whatever sequence of codes it was built from."""

    def test_every_producer_gives_bytes(self, tmp_path):
        rng = np.random.default_rng(6)
        w = random_word(12, 2, rng=rng)
        made = [w, random_word(0, 2, rng=rng), cyclic_reduce([2, 0, 2, 3, 1, 3], 2),
                parse_cyclic_word("abAB", 2), apply_automorphism(random_type2(2, rng), w),
                minimize(w)[0], minimize(parse_cyclic_word("abab", 2))[0],
                random_primitive(3, 4, rng)]
        for kind in ("D", "Se", "S10", "SR", "SP"):
            ds = generate_dataset(DatasetSpec(kind, 2, max_length=12, per_length=2,
                                              size=20, seed=1))
            path = str(tmp_path / f"{kind}.tsv")
            save_tsv(ds, path)
            made += ds.words() + load_tsv(path).words()
        for w in made:
            assert type(w.letters) is bytes, (str(w), type(w.letters))

    def test_any_sequence_of_codes_gives_one_word(self):
        seq = (2, 0, 3, 3, 1)
        words = [CyclicWord(c, 2) for c in (seq, list(seq), bytes(seq), iter(seq))]
        assert all(w == words[0] and hash(w) == hash(words[0]) for w in words)
        assert words[0].letters == bytes((0, 3, 3, 1, 2))


class TestTextEncoding:
    def test_round_trip(self):
        for text in ["", "a", "abAB", "aaBBa"]:
            assert format_codes(parse_codes(text)) == text

    def test_invalid_character(self):
        with pytest.raises(ValueError):
            parse_cyclic_word("ab1", 2)

    def test_all_codes_round_trip(self):
        codes52 = bytes(range(52))
        text = format_codes(codes52)
        assert text == "".join(c + c.upper() for c in "abcdefghijklmnopqrstuvwxyz")
        assert parse_codes(text) == codes52
        assert parse_codes(f"  {text}\n") == codes52

    @pytest.mark.parametrize("text,bad", [("ab1", "1"), ("a b", " "), ("aéb", "é"),
                                          ("aB\x00", "\x00")])
    def test_parse_names_bad_character(self, text, bad):
        with pytest.raises(ValueError, match=re.escape(f"invalid character {bad!r} ")):
            parse_codes(text)

    @pytest.mark.parametrize("codes", [(52,), (-1,), (0, -1), (300,), (2, 60, 1)])
    def test_format_rejects_codes_outside_encoding(self, codes):
        with pytest.raises(ValueError):
            format_codes(codes)


class TestLetterChecks:
    @pytest.mark.parametrize("bad", [-1, 4, 300])
    def test_names_first_bad_code(self, bad):
        with pytest.raises(InvalidLetterError, match=f"letter code {bad} invalid for rank 2"):
            check_codes((0, 3, bad, 2, -7, 5), 2)
        with pytest.raises(InvalidLetterError, match=f"letter code {bad} "):
            CyclicWord((0, bad), 2)

    def test_returns_bytes(self):
        assert check_codes([0, 5, 3], 3) == bytes((0, 5, 3))
        assert check_codes(iter((1, 2)), 2) == bytes((1, 2))

    @pytest.mark.parametrize("cls", [CyclicWord])
    def test_reports_first_cancelling_position(self, cls):
        # c C at position 1 comes before a A at 3 and b B at 5
        letters = (2, 4, 5, 0, 1, 2, 3, 4)
        with pytest.raises(ValueError, match="not freely reduced at position 1$"):
            cls(letters, 3)
        with pytest.raises(ValueError, match="not freely reduced at position 0$"):
            cls((3, 2), 2)


class TestRandomWord:
    def test_single_letter_uniform(self):
        rng = np.random.default_rng(3)
        counts = np.zeros(4)
        for _ in range(4000):
            w = random_word(1, 2, rng=rng)
            counts[w.letters[0]] += 1
        assert (np.abs(counts / 4000 - 0.25) < 0.03).all()

    def test_always_reduced(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            w = random_word(int(rng.integers(1, 40)), 2, rng=rng)
            CyclicWord(w.letters, 2)  # validates cyclic reducedness

    def test_cyclic_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            w = random_word(n, 2, rng=rng)
            assert isinstance(w, CyclicWord)
            assert len(w) == n

    def test_seed_determinism(self):
        a = random_word(50, 2, rng=np.random.default_rng(42))
        b = random_word(50, 2, rng=np.random.default_rng(42))
        assert a.letters == b.letters

    def test_length_zero_degenerate(self):
        assert len(random_word(0, 2, rng=np.random.default_rng(0))) == 0


def per_letter_walk(length, rank, rng):
    """random_word's letters drawn one letter per step: the reference the
    k-letter walk must reproduce draw for draw."""
    m = 2 * rank
    draws = rng.integers(0, m - 1, size=length).tolist()
    letters = [int(rng.integers(0, m))]
    for i in range(1, length):
        c = draws[i]
        if c >= letters[-1] ^ 1:
            c += 1
        letters.append(c)
    if length >= 2:
        banned_prev = letters[-2] ^ 1
        while letters[-1] == letters[0] ^ 1:
            c = int(rng.integers(0, m - 1))
            if c >= banned_prev:
                c += 1
            letters[-1] = c
    return tuple(letters)


class TestWalk:
    @pytest.mark.parametrize("rank,k", [(2, 6), (3, 4), (5, 2), (17, 1), (26, 1)])
    def test_matches_per_letter_loop(self, rank, k):
        assert words._walk_table(rank)[0] == k
        for length in list(range(1, 3 * k + 2)) + [1000]:
            for seed in range(20):
                got, ref = (np.random.default_rng([seed, length, rank]) for _ in range(2))
                assert words._random_letters(length, rank, got) == \
                    bytes(per_letter_walk(length, rank, ref)), (length, seed)
                # the walk consumed exactly the draws the loop did
                assert got.integers(0, 2**62) == ref.integers(0, 2**62)

    def test_random_word_is_the_walk_canonicalized(self):
        for length in (1, 2, 7, 50):
            a, b = np.random.default_rng(length), np.random.default_rng(length)
            assert random_word(length, 3, rng=a) == CyclicWord(per_letter_walk(length, 3, b), 3)

    def test_tables_stay_small(self):
        for rank in range(2, 27):
            k, span, _, table = words._walk_table(rank)
            assert len(table) == 2 * rank * span <= 4096
            assert span == (2 * rank - 1) ** k

    def test_import_builds_no_table(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = "import whitmin.words as w; print(w._walk_table.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", "import whitmin; " + code],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"
