import functools
import itertools
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from whitmin import automorphisms, datasets
from whitmin.automorphisms import (NIELSEN_MOVES, NielsenMove, TypeI, TypeII,
                                   apply_automorphism, edge_table, is_minimal,
                                   length_change, minimize,
                                   random_automorphism, random_primitive,
                                   random_type2, reducing_moves, type2_count)
from whitmin.words import (CyclicWord, cyclic_core, cyclic_reduce,
                           parse_cyclic_word, random_word, reduce_codes)

from conftest import all_cyclic_words, bfs_orbit_min, enumerate_type2, nielsen_minimize


def cw(text):
    return parse_cyclic_word(text, 2)


def apply_to_word(t, letters):
    """t(w) for a plain (not cyclic) word: each letter's image, then free
    reduction."""
    return reduce_codes([d for c in letters for d in t.letter_image(c)])


def mixed_words(rank, count, seed):
    """Random cyclic words, every other one pushed off minimality by a
    random type-II automorphism."""
    rng = np.random.default_rng(seed)
    words = []
    for i in range(count):
        w = random_word(int(rng.integers(1, 25)), rank, rng=rng)
        if i % 2:
            w = apply_automorphism(random_type2(rank, rng), w)
        words.append(w)
    return words


def trial_descent(w):
    """Reference minimization: apply every candidate, keep the strictly
    shortest image (first in scan order), until none shortens the word."""
    if w.rank == 2:
        candidates = [m.automorphism for m in NIELSEN_MOVES]
    else:
        candidates = enumerate_type2(w.rank)
    chain = []
    current = w
    while len(current) > 1:
        best = None
        for t in candidates:
            img = apply_automorphism(t, current)
            if len(img) < (len(best[1]) if best else len(current)):
                best = (t, img)
        if best is None:
            break
        chain.append(best[0])
        current = best[1]
    return current, chain


@st.composite
def cyclic_words(draw, min_rank=2, max_rank=4):
    rank = draw(st.integers(min_rank, max_rank))
    raw = draw(st.lists(st.integers(0, 2 * rank - 1), min_size=1, max_size=40))
    core = cyclic_reduce(raw, rank)
    assume(len(core) >= 1)
    return core


@st.composite
def pushed_words(draw):
    """Cyclic words at ranks 3-5, half of them pushed off minimality by a
    random type-II automorphism, as in mixed_words."""
    w = draw(cyclic_words(3, 5))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        w = apply_automorphism(random_type2(w.rank, rng), w)
    return w


@functools.lru_cache(maxsize=None)
def _enumeration(rank):
    autos = enumerate_type2(rank)
    member = np.array([[c in t.subset for c in range(2 * rank)] for t in autos],
                      dtype=np.int64)
    return autos, member, np.array([t.multiplier for t in autos])


def enumerated_changes(w):
    """cap(A) - deg(a) of every proper type II in enumeration order."""
    autos, member, multipliers = _enumeration(w.rank)
    edges = np.array(edge_table(w.letters, w.rank))
    return autos, (((member @ edges) * (1 - member)).sum(1)
                   - edges.sum(1)[multipliers])


class TestTypeII:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TypeII(2, 0, frozenset({2}))          # multiplier not in A
        with pytest.raises(ValueError):
            TypeII(2, 0, frozenset({0, 1}))       # inverse of multiplier in A

    def test_nielsen_actions(self):
        # t = a->ab on w = ab gives ab^2
        assert apply_automorphism(NielsenMove.A_AB.automorphism, cw("ab")) == cw("abb")
        # t = a->b^-1 a on ab: b^-1 a b cyclically reduces to a
        assert apply_automorphism(NielsenMove.A_BINV_A.automorphism, cw("ab")) == cw("a")
        # t = b->a^-1 b on ab: a a^-1 b = b
        assert apply_automorphism(NielsenMove.B_AINV_B.automorphism, cw("ab")) == cw("b")

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            apply_automorphism(NielsenMove.A_AB.automorphism,
                               CyclicWord((0,), 3))

    def test_homomorphism_property(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = random_type2(2, rng)
            u = random_word(int(rng.integers(1, 15)), 2, rng=rng).letters
            v = random_word(int(rng.integers(1, 15)), 2, rng=rng).letters
            img_prod = apply_to_word(t, reduce_codes(u + v))
            prod_img = reduce_codes(apply_to_word(t, u) + apply_to_word(t, v))
            assert img_prod == prod_img


class TestTypeI:
    def test_permutation_validated(self):
        with pytest.raises(ValueError):
            TypeI(2, (2, 1, 0, 3))  # does not commute with inversion
        with pytest.raises(ValueError):
            TypeI(2, (0, 0, 2, 3))  # not a permutation
        # swapping a <-> b is fine
        t = TypeI(2, (2, 3, 0, 1))
        assert apply_automorphism(t, cw("ab")) == cw("ba")

    def test_preserves_length(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            t = random_automorphism(2, rng)
            w = random_word(int(rng.integers(1, 20)), 2, rng=rng)
            if isinstance(t, TypeI):
                assert len(apply_automorphism(t, w)) == len(w)


def oracle_image(t, letters):
    """The cyclic core of t(w) from per-letter images, stack reduction and
    stripping the conjugating ends, in the rotation that w's letters give."""
    return cyclic_core(apply_to_word(t, letters))


def signed_permutation(rank, gens, flips):
    perm = [0] * (2 * rank)
    for g in range(rank):
        perm[2 * g] = 2 * gens[g] + flips[g]
        perm[2 * g + 1] = perm[2 * g] ^ 1
    return TypeI(rank, tuple(perm))


@st.composite
def moves_and_words(draw):
    """A type I or a (possibly improper) type II (A, a) at rank 2-6 and a
    cyclic word built from random letters and runs of a and a^-1."""
    rank = draw(st.integers(2, 6))
    m = 2 * rank
    a = draw(st.integers(0, m - 1))
    if draw(st.booleans()):
        t = signed_permutation(rank, draw(st.permutations(range(rank))),
                               draw(st.lists(st.integers(0, 1), min_size=rank,
                                             max_size=rank)))
    else:
        others = [c for c in range(m) if c not in (a, a ^ 1)]
        chosen = draw(st.lists(st.sampled_from(others), unique=True))
        t = TypeII(rank, a, frozenset([a, *chosen]))
    runs = st.tuples(st.sampled_from((a, a ^ 1)), st.integers(1, 4)).map(
        lambda run: [run[0]] * run[1])
    pieces = draw(st.lists(st.one_of(st.integers(0, m - 1).map(lambda c: [c]), runs),
                           min_size=1, max_size=12))
    w = cyclic_reduce([c for piece in pieces for c in piece], rank)
    assume(len(w) >= 1)
    return t, w


class TestCyclicImage:
    """The bytes image (one replace of a a^-1 for a type II, a translate for
    a type I) against per-letter images and stack reduction, in every
    rotation of the input."""

    @settings(max_examples=400, deadline=None)
    @given(moves_and_words())
    @example((TypeII(2, 0, frozenset({0, 2})), CyclicWord((0, 0, 3, 1, 1, 2), 2)))
    @example((TypeII(3, 1, frozenset({1, 2, 3, 4})), CyclicWord((1, 1, 2, 0, 0, 5), 3)))
    def test_matches_oracle_in_every_rotation(self, case):
        t, w = case
        s = w.letters
        for i in range(len(s)):
            rot = s[i:] + s[:i]
            assert automorphisms._cyclic_image(t, rot) == oracle_image(t, rot)

    @pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
    def test_matches_oracle_on_short_words(self, rank):
        """Every cyclic word of length 1-3 in every rotation, under every
        type II at ranks 2 and 3 and a fixed sample of both types above."""
        rng = np.random.default_rng(rank)
        if rank <= 3:
            moves = enumerate_type2(rank)
        else:
            moves = [random_type2(rank, rng) for _ in range(12)]
        moves += [signed_permutation(rank, rng.permutation(rank), rng.integers(0, 2, rank))
                  for _ in range(4)]
        for n in (1, 2, 3):
            for w in all_cyclic_words(rank, n):
                s = w.letters
                for t in moves:
                    for i in range(n):
                        rot = s[i:] + s[:i]
                        assert automorphisms._cyclic_image(t, rot) == \
                            oracle_image(t, rot), (t, rot)


class TestEnumerateType2:
    def test_counts(self):
        assert len(enumerate_type2(2)) == 8 == type2_count(2)
        assert len(enumerate_type2(3)) == 84 == type2_count(3)  # 6 * (2^4 - 2)

    def test_contains_b_to_ba(self):
        target = TypeII(2, 0, frozenset({0, 2}))
        assert target in enumerate_type2(2)
        assert apply_automorphism(target, cw("b")) == cw("ba")

    def test_rejects_rank_below_2(self):
        with pytest.raises(ValueError):
            enumerate_type2(1)

    def test_all_proper(self):
        for t in enumerate_type2(2):
            assert len(t.subset) not in (1, 3)  # not identity, not inner


class TestReducingMoves:
    def test_examples(self):
        assert set(reducing_moves(cw("ab"))) == {NielsenMove.A_BINV_A,
                                                 NielsenMove.B_AINV_B}
        assert reducing_moves(cw("abAB")) == []
        assert reducing_moves(cw("a")) == []

    def test_matches_direct_scan(self):
        # every word of 2-3 letters, then random words of 2-300 letters, every
        # other one pushed off minimality so that moves are found
        rng = np.random.default_rng(3)
        words = [w for n in (2, 3) for w in all_cyclic_words(2, n)]
        for i in range(80):
            w = random_word(int(rng.integers(2, 301)), 2, rng=rng)
            words.append(apply_automorphism(random_type2(2, rng), w) if i % 2 else w)
        found = 0
        for w in words:
            expected = [m for m in NIELSEN_MOVES
                        if len(apply_automorphism(m.automorphism, w)) < len(w)]
            assert reducing_moves(w) == expected, str(w)
            found += len(expected)
        assert found > 0

    def test_matches_direct_scan_rank3(self):
        autos = enumerate_type2(3)
        found = 0
        for w in mixed_words(3, 60, seed=13):
            expected = [t for t in autos if len(apply_automorphism(t, w)) < len(w)]
            assert is_minimal(w) == (not expected)
            found += len(expected)
        assert found > 0

    def test_rank_2_only(self):
        with pytest.raises(ValueError):
            reducing_moves(CyclicWord((0, 2, 0, 2), 3))


def oracle_edge_table(letters, rank):
    """The Whitehead graph by its definition: each cyclic subword xy adds
    one edge {x, y^-1}."""
    table = [[0] * (2 * rank) for _ in range(2 * rank)]
    for i, x in enumerate(letters):
        z = letters[(i + 1) % len(letters)] ^ 1
        table[x][z] += 1
        table[z][x] += 1
    return table


class TestEdgeTables:
    """One pair count for a block of words: each word's table must be the
    one its own cyclic subwords give, whatever its neighbours."""

    @pytest.mark.parametrize("rank", [2, 3, 6, 26])
    def test_blocks_match_oracle(self, rank):
        rng = np.random.default_rng(rank)
        long = datasets._BLOCK_LETTERS + 5
        for _ in range(12):
            # any letter sequences: empty, one letter, short, and longer
            # than a generated block
            sizes = rng.choice([0, 1, 2, 7, 40, long], size=int(rng.integers(1, 9)))
            words = [rng.integers(0, 2 * rank, size=n).astype(np.uint8).tobytes()
                     for n in sizes]
            tables = automorphisms.edge_tables(words, rank)
            assert tables == [oracle_edge_table(w, rank) for w in words]
            assert [edge_table(w, rank) for w in words] == tables

    def test_empty_list_and_empty_word(self):
        assert automorphisms.edge_tables([], 3) == []
        assert automorphisms.edge_tables([b"", b""], 2) == [[[0] * 4] * 4] * 2
        assert edge_table(b"", 2) == [[0] * 4] * 4


class TestLengthChange:
    @settings(max_examples=150, deadline=None)
    @given(cyclic_words())
    @example(CyclicWord((3,), 3))
    @example(CyclicWord((0,), 2))
    def test_matches_applied_length_change(self, w):
        cap = edge_table(w.letters, w.rank)
        for t in enumerate_type2(w.rank):
            image = cyclic_core(apply_to_word(t, w.letters))
            assert length_change(cap, t) == len(image) - len(w)

    def test_edge_table_is_whitehead_graph(self):
        # abAB: subwords ab, bA, AB, Ba give edges {a,B}, {b,a}, {A,b}, {B,A}
        edges = edge_table(cw("abAB").letters, 2)
        assert edges == [list(col) for col in zip(*edges)] and sum(map(sum, edges)) == 2 * 4
        assert (edges[0][3], edges[2][0], edges[1][2], edges[3][1]) == (1, 1, 1, 1)


class TestMinimality:
    def test_examples(self):
        assert not is_minimal(cw("abab"))
        assert is_minimal(cw("abAB"))
        assert is_minimal(CyclicWord((), 2))

    def test_minimize_examples(self):
        m, chain = minimize(cw("abab"))
        assert len(m) == 2
        m2, chain2 = minimize(cw("abAB"))
        assert m2 == cw("abAB") and chain2 == []
        m3, _ = minimize(cw("ab"))
        assert len(m3) == 1

    def test_chain_replays_and_strictly_decreases(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            w = random_word(int(rng.integers(1, 25)), 2, rng=rng)
            m, chain = minimize(w)
            assert is_minimal(m)
            current = w
            for t in chain:
                nxt = apply_automorphism(t, current)
                assert len(nxt) < len(current)
                current = nxt
            assert current == m

    def test_rank2_matches_nielsen_rule_exhaustive(self):
        """Rank 2 descends by min cuts too; the first shortest Nielsen image
        in NIELSEN_MOVES order is the reference for every word and chain."""
        for n in range(9):
            for w in all_cyclic_words(2, n):
                m, chain = nielsen_minimize(w)
                assert minimize(w) == (m, chain), str(w)
                assert is_minimal(w) == (chain == []), str(w)

    def test_rank2_matches_nielsen_rule_random(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            w = random_word(int(rng.integers(1, 1001)), 2, rng=rng)
            for _ in range(int(rng.integers(0, 4))):
                w = apply_automorphism(random_type2(2, rng), w)
            m, chain = nielsen_minimize(w)
            assert minimize(w) == (m, chain), str(w)
            assert is_minimal(w) == (chain == []), str(w)

    def test_greedy_matches_bfs_oracle_small(self):
        # full agreement up to length 6 here; the acceptance suite goes to 8
        for n in range(1, 7):
            for w in all_cyclic_words(2, n):
                m, _ = minimize(w)
                assert len(m) == bfs_orbit_min(w), str(w)

    @settings(max_examples=150, deadline=None)
    @given(pushed_words())
    @example(CyclicWord((0, 2, 0, 2), 3))
    def test_cut_matches_enumeration(self, w):
        """Above rank 2 the verdict and the first move come from min cuts;
        the enumeration's first argmin is the reference."""
        autos, changes = enumerated_changes(w)
        assert is_minimal(w) == (changes.min() >= 0)
        if changes.min() < 0:
            assert minimize(w)[1][0] == autos[int(np.argmin(changes))]

    def test_best_cut_matches_exhaustive_cut(self):
        """(cut - deg(a), least source side) against every vertex set A with
        a in A and a^-1 outside, on random symmetric capacity matrices."""
        rng = np.random.default_rng(13)
        subsets = {n: (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
                   for n in (4, 6, 8)}
        for _ in range(3000):
            n = int(rng.choice((4, 6, 8)))
            cap = np.triu(rng.integers(0, 4, (n, n)) * (rng.random((n, n)) < 0.6), 1)
            cap += cap.T
            S = subsets[n]
            cuts = ((S @ cap) * (1 - S)).sum(axis=1)
            for a in range(n):
                allowed = (S[:, a] == 1) & (S[:, a ^ 1] == 0)
                best = cuts[allowed].min()
                change = int(best - cap[a].sum())
                # the least minimum source side is the minimizer with fewest vertices
                minimizers = S[allowed & (cuts == best)]
                side = np.flatnonzero(minimizers[minimizers.sum(axis=1).argmin()])
                expected = (change, side.tolist() if change else [])
                got = automorphisms._best_cut(cap.tolist(), a)
                assert (got[0], sorted(got[1])) == expected, (cap.tolist(), a)

    def test_best_cut_of_absent_letter(self):
        cap = edge_table(bytes([0, 2, 0, 3]), 3)
        assert automorphisms._best_cut(cap, 4) == (0, [])
        assert automorphisms._best_cut(cap, 5) == (0, [])

    def test_short_rank_26_words_match_bfs_oracle(self):
        """The BFS cannot scan rank 26's 52 (2^50 - 2) type IIs, so every
        rank-3 word up to length 3 is written on generators 25, 7 and 12 of
        rank 26 and checked against the rank-3 BFS: its rank-26 Whitehead
        graph is the rank-3 one plus isolated vertices, so a cut below deg(a)
        exists at one rank exactly when at the other."""
        gens = (25, 7, 12)
        for n in (1, 2, 3):
            for w in all_cyclic_words(3, n):
                big = CyclicWord(bytes(2 * gens[c >> 1] | c & 1 for c in w.letters), 26)
                assert is_minimal(big) == (bfs_orbit_min(w) == n), str(big)

    def test_rank_12_smoke(self):
        rng = np.random.default_rng(12)
        base = random_word(150, 12, rng=rng)
        w = base
        while len(w) < 200:
            w = apply_automorphism(random_type2(12, rng), w)
        start = time.perf_counter()
        verdict = is_minimal(w)
        m, chain = minimize(w)
        elapsed = time.perf_counter() - start
        assert not verdict and is_minimal(m)
        assert len(m) <= len(base) and chain
        current = w
        for t in chain:
            nxt = apply_automorphism(t, current)
            assert len(nxt) < len(current)
            current = nxt
        assert current == m
        assert elapsed < 1.0

    @pytest.mark.parametrize("rank", [2, 3])
    def test_matches_trial_application_descent(self, rank):
        steps = 0
        for w in mixed_words(rank, 60, seed=rank):
            m, chain = minimize(w)
            assert (m, chain) == trial_descent(w)
            steps += len(chain)
        assert steps > 0


class TestApplicationCounts:
    """Minimality is read off the Whitehead graph; only moves actually taken
    are applied."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # every application, public or inside minimize / random_primitive,
        # goes through the one image routine
        count = [0]
        original = automorphisms._cyclic_image

        def counted(t, letters):
            count[0] += 1
            return original(t, letters)

        monkeypatch.setattr(automorphisms, "_cyclic_image", counted)
        return count

    @pytest.mark.parametrize("rank", [2, 3])
    def test_minimality_applies_nothing(self, calls, rank):
        words = mixed_words(rank, 40, seed=7)
        calls[0] = 0
        for w in words:
            is_minimal(w)
            if rank == 2:
                reducing_moves(w)
        assert calls[0] == 0

    @pytest.mark.parametrize("rank", [2, 3])
    def test_minimize_applies_the_chain_only(self, calls, rank):
        steps = 0
        for w in mixed_words(rank, 40, seed=8):
            before = calls[0]
            _, chain = minimize(w)
            assert calls[0] - before == len(chain)
            steps += len(chain)
        assert steps > 0

    def test_substitution_applies_once(self, calls):
        """One application per substitution step: the rejected draws are
        only priced."""
        rng = np.random.default_rng(0)
        for w, steps in itertools.product((cw("a"), cw("aabAB"), CyclicWord((0, 2, 4), 3)),
                                          (1, 3)):
            before = calls[0]
            cap = edge_table(w.letters, w.rank)
            longer = automorphisms._substitute_longer(w.letters, cap, w.rank, steps, rng)
            assert len(longer) >= len(w) + steps
            assert calls[0] - before == steps

    def test_generation_applies_descent_and_substitutions(self, calls):
        """Generating D applies each descent step and one substitution per
        nonminimal record, and nothing else."""
        spec = datasets.DatasetSpec("D", 2, max_length=40, per_length=2, seed=3)
        ds = datasets.generate_dataset(spec)
        applied = calls[0]
        steps = sum(len(minimize(random_word(idx // spec.per_length + 1, 2,
                                             rng=np.random.default_rng(
                                                 [spec.seed, 0, idx])))[1])
                    for idx in range(len(ds)))
        nonmin = sum(r.label == datasets.LABEL_NONMIN for r in ds.records)
        assert nonmin > 0 and steps > 0
        assert applied == nonmin + steps


class TestCanonicalizeOnce:
    """minimize and random_primitive step on cyclic cores in whatever rotation
    they land in and canonicalize once; a reference that canonicalizes after
    every application must give the same word and chain."""

    @staticmethod
    def stepwise_minimize(w):
        chain = []
        while len(w) > 1:
            cap = edge_table(w.letters, w.rank)
            change, move = automorphisms._best_move(cap, w.rank)
            if change >= 0:
                break
            chain.append(move)
            w = apply_automorphism(move, w)
        return w, chain

    @staticmethod
    def stepwise_primitive(rank, num_autos, rng):
        w = CyclicWord((int(rng.integers(0, 2 * rank)),), rank)
        for _ in range(num_autos):
            w = apply_automorphism(random_automorphism(rank, rng), w)
        return w

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_minimize_matches_stepwise(self, rank):
        steps = 0
        for w in mixed_words(rank, 60, seed=10 + rank):
            m, chain = minimize(w)
            assert (m, chain) == self.stepwise_minimize(w)
            steps += len(chain)
        assert steps > 0

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_random_primitive_matches_stepwise(self, rank):
        for seed in range(60):
            autos = seed % 11
            w = random_primitive(rank, autos, np.random.default_rng(seed))
            assert w == self.stepwise_primitive(rank, autos, np.random.default_rng(seed))


class TestRandomPrimitive:
    def test_zero_autos_is_generator(self):
        w = random_primitive(2, 0, np.random.default_rng(0))
        assert len(w) == 1

    def test_minimizes_to_length_one(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            w = random_primitive(2, int(rng.integers(0, 8)), rng)
            m, _ = minimize(w)
            assert len(m) == 1

    def test_seed_reproducible(self):
        a = random_primitive(2, 6, np.random.default_rng(9))
        b = random_primitive(2, 6, np.random.default_rng(9))
        assert a == b
