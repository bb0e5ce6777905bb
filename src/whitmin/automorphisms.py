"""Whitehead automorphisms, the rank-2 Nielsen moves, and greedy minimization."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .words import MAX_RANK, CyclicWord, check_rank, cyclic_core, window_codes


@dataclass(frozen=True)
class TypeI:
    """Permutation automorphism: a signed permutation of the letters.

    ``perm[c]`` is the image code of letter code c; the map must commute with
    inversion, i.e. perm[c ^ 1] == perm[c] ^ 1.
    """

    rank: int
    perm: Tuple[int, ...]

    def __post_init__(self):
        m = 2 * self.rank
        if len(self.perm) != m or sorted(self.perm) != list(range(m)):
            raise ValueError("perm must be a permutation of the letter codes")
        for c in range(m):
            if self.perm[c ^ 1] != self.perm[c] ^ 1:
                raise ValueError("permutation does not commute with inversion")

    def letter_image(self, code: int) -> Tuple[int, ...]:
        return (self.perm[code],)


@dataclass(frozen=True)
class TypeII:
    """Multiplier automorphism (A, a): multiplier letter a with a in A and
    a^-1 not in A.  For x outside {a, a^-1}:

        x -> x a        if x in A and x^-1 not in A
        x -> a^-1 x     if x not in A and x^-1 in A
        x -> a^-1 x a   if both x and x^-1 in A
        x -> x          otherwise
    """

    rank: int
    multiplier: int
    subset: frozenset

    def __post_init__(self):
        a = self.multiplier
        if not 0 <= a < 2 * self.rank:
            raise ValueError("multiplier out of range")
        if a not in self.subset or (a ^ 1) in self.subset:
            raise ValueError("need multiplier in A and its inverse outside A")
        for c in self.subset:
            if not 0 <= c < 2 * self.rank:
                raise ValueError(f"subset letter {c} out of range")

    def letter_image(self, code: int) -> Tuple[int, ...]:
        a = self.multiplier
        if code == a or code == a ^ 1:
            return (code,)
        in_x = code in self.subset
        in_xi = (code ^ 1) in self.subset
        if in_x and not in_xi:
            return (code, a)
        if in_xi and not in_x:
            return (a ^ 1, code)
        if in_x and in_xi:
            return (a ^ 1, code, a)
        return (code,)


WhiteheadAutomorphism = Union[TypeI, TypeII]
AutomorphismChain = List[WhiteheadAutomorphism]

# the identity translation table; a type I's table is its perm, then this
_BYTES = bytes(range(256))


def _cyclic_image(t: WhiteheadAutomorphism, letters: bytes) -> bytes:
    """The core of t(w) for the cyclically reduced word w with these letters,
    in whatever rotation it lands in.  Every rotation of w gives the same
    core up to rotation, and the Whitehead graph ignores rotation, so a chain
    of moves can step on these cores and canonicalize once.

    A type I permutes the letters.  A type II (A, a) sends each letter x to
    x, x a, a^-1 x or a^-1 x a; the only pairs that cancel are a tail a or
    the letter a followed by a head a^-1 or the letter a^-1, one pair per
    junction, and removing one never brings two others together.  So one
    replace of a a^-1 reduces the joined images freely, and the conjugating
    ends that the junction of the last and first letters leaves are
    stripped."""
    m = 2 * t.rank
    if isinstance(t, TypeI):
        return letters.translate(bytes(t.perm) + _BYTES[m:])
    images = [bytes(t.letter_image(c)) for c in range(m)]
    a = t.multiplier
    joined = b"".join([images[c] for c in letters])
    return cyclic_core(joined.replace(bytes((a, a ^ 1)), b""))


def apply_automorphism(t: WhiteheadAutomorphism, w: CyclicWord) -> CyclicWord:
    """Apply letter images, freely reduce, cyclically reduce, canonicalize."""
    if t.rank != w.rank:
        raise ValueError(f"rank mismatch: automorphism {t.rank}, word {w.rank}")
    return CyclicWord(_cyclic_image(t, w.letters), w.rank)


def type2_count(rank: int) -> int:
    """Number of proper type-II automorphisms: 2r (2^(2r-2) - 2)."""
    return 2 * rank * ((1 << (2 * rank - 2)) - 2)


# ---------------------------------------------------------------------------
# rank-2 Nielsen moves
# ---------------------------------------------------------------------------

class NielsenMove(Enum):
    """The four rank-2 length-changing moves (codes: a=0, a^-1=1, b=2, b^-1=3)."""

    A_AB = "a->ab"
    A_BINV_A = "a->Ba"
    B_BA = "b->ba"
    B_AINV_B = "b->Ab"

    @property
    def automorphism(self) -> TypeII:
        return _NIELSEN_AUTOS[self]


_NIELSEN_AUTOS: Dict[NielsenMove, TypeII] = {
    NielsenMove.A_AB: TypeII(2, 2, frozenset({0, 2})),       # a -> ab
    NielsenMove.A_BINV_A: TypeII(2, 2, frozenset({1, 2})),   # a -> b^-1 a
    NielsenMove.B_BA: TypeII(2, 0, frozenset({0, 2})),       # b -> ba
    NielsenMove.B_AINV_B: TypeII(2, 0, frozenset({0, 3})),   # b -> a^-1 b
}

NIELSEN_MOVES: Tuple[NielsenMove, ...] = tuple(NielsenMove)


# ---------------------------------------------------------------------------
# minimality and minimization
# ---------------------------------------------------------------------------

# For a type-II automorphism t = (A, a) and a cyclic word w,
#     |t(w)| - |w| = cap(A) - deg(a)
# on the Whitehead graph of w: each cyclic subword xy adds the edge {x, y^-1};
# cap(A) counts the edges with one end in A and one outside, deg(a) the edges
# at a (Whitehead 1936; Roig, Ventura & Weil, IJAC 2007, arXiv:math/0608779).
# One O(|w|) pair count thus prices every candidate without applying any.

# _INVERSE[:2r][c] is the code of c^-1
_INVERSE = np.arange(2 * MAX_RANK) ^ 1


def edge_tables(words: Sequence[bytes], rank: int) -> List[List[List[int]]]:
    """Whitehead graph of each cyclic word with these letters (any rotation)
    as a symmetric 2r x 2r table of edge counts, one list per row.

    One pair count serves the whole list: each word is followed by its
    first letter, so that its cyclic pairs are plain windows of the joined
    letters; each window's code is offset by its word's index x (2r)^2, and
    the window across the junction to the next word goes to one dump bin.
    One word's windows wrap around by themselves, so it is read as it is."""
    m = 2 * rank
    cells = m * m
    dump = len(words) * cells
    if len(words) == 1:
        # no copy, offsets or junction: the word may be 2^24 letters long
        codes = window_codes(words[0], (((0, 1), 0),), rank)
    else:
        codes = window_codes(b"".join([w + w[:1] for w in words]), (((0, 1), 0),), rank)
        sizes = [len(w) + 1 if w else 0 for w in words]
        codes += np.repeat(np.arange(0, dump, cells), sizes)
        codes[[end - 1 for end, size in zip(itertools.accumulate(sizes), sizes) if size]] = dump
    pairs = np.bincount(codes, minlength=dump + 1)[:dump].reshape(-1, m, m)[:, :, _INVERSE[:m]]
    return (pairs + pairs.transpose(0, 2, 1)).tolist()


def edge_table(letters: bytes, rank: int) -> List[List[int]]:
    """Whitehead graph of the cyclic word with these letters (any rotation):
    edge_tables of the one word."""
    return edge_tables([letters], rank)[0]


def length_change(cap: List[List[int]], t: TypeII) -> int:
    """|t(w)| - |w| for the word w with Whitehead graph ``cap``."""
    inside = t.subset
    outside = [y for y in range(len(cap)) if y not in inside]
    return sum(cap[x][y] for x in inside for y in outside) - sum(cap[t.multiplier])


# The least cap(A) over the A with a in A and a^-1 outside is a minimum cut
# between a and a^-1 in the Whitehead graph (Roig, Ventura & Weil).  The
# improper A = {a} and A = all - {a^-1} both cut exactly deg(a), so some
# proper (A, a) shortens w iff the maximum flow from a to a^-1 is below deg(a).

def _best_cut(cap: List[List[int]], a: int) -> Tuple[int, List[int]]:
    """(cut - deg(a), least source side) for a minimum cut between a and a^-1
    in the undirected graph ``cap``; (0, []) once the flow reaches deg(a)."""
    target = sum(cap[a])
    if not target:  # a does not occur in the word
        return 0, []
    n = len(cap)
    t = a ^ 1
    res = [row[:] for row in cap]
    ra = res[a]
    # Paths a -> a^-1, a -> x -> a^-1 and a -> x -> y -> a^-1 carry most of
    # the flow on short words; augmenting paths (shortest first) finish it.
    # The search never re-enters a nor leaves a^-1, so these pushes skip the
    # residual updates on edges into a and out of a^-1.
    flow = ra[t]
    ra[t] = 0
    for x in range(n):
        rx = res[x]
        d = min(ra[x], rx[t])
        if d:
            ra[x] -= d
            rx[t] -= d
            flow += d
    for x in range(n):
        rx = res[x]
        for y in range(n):
            if not ra[x]:
                break
            if rx[y]:
                ry = res[y]
                d = min(ra[x], rx[y], ry[t])
                if d:
                    ra[x] -= d
                    rx[y] -= d
                    ry[x] += d
                    ry[t] -= d
                    flow += d
    while flow < target:
        parent = [-1] * n
        parent[a] = a
        queue = [a]
        for u in queue:
            ru = res[u]
            for v in range(n):
                if ru[v] and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
            if parent[t] >= 0:
                break
        if parent[t] < 0:
            # queue holds the vertices the residual graph reaches from a: the
            # source side contained in every minimum cut
            return flow - target, queue
        path = [t]
        while path[-1] != a:
            path.append(parent[path[-1]])
        steps = list(zip(path[1:], path))
        d = min(res[u][v] for u, v in steps)
        for u, v in steps:
            res[u][v] -= d
            res[v][u] += d
        flow += d
    return 0, []


def reducing_moves(w: CyclicWord) -> List[NielsenMove]:
    """The rank-2 Nielsen moves that strictly shorten w (conjugations act
    trivially on cyclic words)."""
    if w.rank != 2:
        raise ValueError(f"reducing_moves lists the rank-2 Nielsen moves; got rank {w.rank}")
    cap = edge_table(w.letters, 2)
    return [m for m in NIELSEN_MOVES if length_change(cap, m.automorphism) < 0]


def _no_shorter_cut(cap: List[List[int]]) -> bool:
    """True when no proper type II shortens the word with Whitehead graph
    cap: the flow from each a = 2g to a^-1 reaches deg(a); SR labels use it."""
    return all(_best_cut(cap, a)[0] == 0 for a in range(0, len(cap), 2))


def is_minimal(w: CyclicWord) -> bool:
    """True when no Whitehead automorphism shortens the cyclic word w: a
    word of more than one letter is tested by _no_shorter_cut on its
    Whitehead graph, as generated SR records are (SP by their length)."""
    if len(w) <= 1:
        return True
    return _no_shorter_cut(edge_table(w.letters, w.rank))


def _best_move(cap: List[List[int]], rank: int) -> Tuple[int, Optional[TypeII]]:
    """The move with the greatest length drop on the word with Whitehead
    graph cap, and that drop, first in scan order over every proper type
    II: multiplier b then a at rank 2 (the order of NIELSEN_MOVES), else
    multiplier ascending; then A-bitmask ascending."""
    best, move = 0, None
    # (A^c, a^-1) changes |w| as (A, a) does and comes later in the scan, so
    # only a = 2g is scanned; the least source side is a submask of every
    # other minimum-cut A, hence first in bitmask order.  At rank 2 it is the
    # one Nielsen move of multiplier a that can shorten w: two proper A's
    # cutting below deg(a) would, by submodularity, make {a} do so too.
    for a in ((2, 0) if rank == 2 else range(0, len(cap), 2)):
        change, side = _best_cut(cap, a)
        if change < best:
            best, move = change, TypeII(rank, a, frozenset(side))
    return best, move


def _descend(letters: bytes, cap: List[List[int]],
             rank: int) -> Tuple[bytes, List[List[int]], AutomorphismChain]:
    """minimize on the letters of a cyclically reduced word with Whitehead
    graph cap: the minimal core in whatever rotation it lands in, its
    Whitehead graph, and the chain."""
    chain: AutomorphismChain = []
    while True:
        change, move = _best_move(cap, rank)
        if change >= 0:
            return letters, cap, chain
        chain.append(move)
        letters = _cyclic_image(move, letters)
        cap = edge_table(letters, rank)


def minimize(w: CyclicWord) -> Tuple[CyclicWord, AutomorphismChain]:
    """Greedy steepest descent: repeatedly apply the move with the greatest
    length drop (ties: multiplier b before a at rank 2, else ascending;
    then A-bitmask ascending) until no move shortens the word.  The steps
    work on cyclic cores in any rotation; only the result is canonicalized."""
    letters, _, chain = _descend(w.letters, edge_table(w.letters, w.rank), w.rank)
    return (CyclicWord(letters, w.rank) if chain else w), chain


# ---------------------------------------------------------------------------
# random automorphisms and primitives
# ---------------------------------------------------------------------------

def random_type2(rank: int, rng: np.random.Generator) -> TypeII:
    """Uniform proper type-II automorphism without full enumeration."""
    m = 2 * rank
    a = int(rng.integers(0, m))
    others = [c for c in range(m) if c != a and c != a ^ 1]
    full = (1 << len(others)) - 1
    mask = int(rng.integers(1, full))
    subset = frozenset([a] + [others[i] for i in range(len(others)) if mask >> i & 1])
    return TypeII(rank, a, subset)


# Random type IIs drawn per substitution step before generation gives up.
SUBSTITUTION_RETRIES = 100


def _substitute_longer(letters: bytes, cap: List[List[int]], rank: int, steps: int,
                       rng: np.random.Generator) -> Optional[bytes]:
    """The core after `steps` strictly longer images of the cyclically
    reduced word with these letters and Whitehead graph cap, each under a
    random proper type II; None once a step finds none in
    SUBSTITUTION_RETRIES draws.  Only the accepted draws are applied; the
    others are priced on the current word's graph."""
    for step in range(steps):
        if step:
            cap = edge_table(letters, rank)
        for _ in range(SUBSTITUTION_RETRIES):
            t = random_type2(rank, rng)
            if length_change(cap, t) > 0:
                letters = _cyclic_image(t, letters)
                break
        else:
            return None
    return letters


def random_type1(rank: int, rng: np.random.Generator) -> TypeI:
    """Uniform non-identity signed permutation of the generators."""
    m = 2 * rank
    while True:
        gens = rng.permutation(rank)
        flips = rng.integers(0, 2, size=rank)
        perm = [0] * m
        for g in range(rank):
            img = 2 * int(gens[g]) + int(flips[g])
            perm[2 * g] = img
            perm[2 * g + 1] = img ^ 1
        if perm != list(range(m)):
            return TypeI(rank, tuple(perm))


def random_automorphism(rank: int, rng: np.random.Generator) -> WhiteheadAutomorphism:
    """Uniform over proper type-I and type-II automorphisms combined."""
    n_type1 = (1 << rank) * math.factorial(rank) - 1
    n_type2 = type2_count(rank)
    if rng.random() < n_type1 / (n_type1 + n_type2):
        return random_type1(rank, rng)
    return random_type2(rank, rng)


def random_primitive(rank: int, num_autos: int, rng: np.random.Generator) -> CyclicWord:
    """Image of a random generator letter under num_autos random proper
    Whitehead automorphisms (both types), cyclically reduced at each step."""
    if num_autos < 0:
        raise ValueError("num_autos must be >= 0")
    check_rank(rank)
    letters = bytes((int(rng.integers(0, 2 * rank)),))
    for _ in range(num_autos):
        letters = _cyclic_image(random_automorphism(rank, rng), letters)
    return CyclicWord(letters, rank)
