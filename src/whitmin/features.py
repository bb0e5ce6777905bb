"""Subword-counting features: patterns, the built-in maps f0..f6 and fstar,
the weighted labelled digraph of a word, and the feature-selection pattern pool.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .words import CyclicWord, Word, check_rank, format_codes, window_codes


@dataclass(frozen=True)
class Wildcard:
    """A wildcard slot in a pattern: matches any subword of an allowed length.

    kind 'exact'   -> exactly ``size`` letters
    kind 'at_most' -> 0..size letters (includes the empty word)
    kind 'empty'   -> the empty word only
    """

    kind: str
    size: int = 0

    def __post_init__(self):
        if self.kind not in ("exact", "at_most", "empty"):
            raise ValueError(f"unknown wildcard kind {self.kind!r}")
        if self.size < 0:
            raise ValueError("wildcard size must be >= 0")

    def lengths(self) -> range:
        if self.kind == "exact":
            return range(self.size, self.size + 1)
        if self.kind == "at_most":
            return range(0, self.size + 1)
        return range(0, 1)

    def text(self) -> str:
        if self.kind == "exact":
            return f"U{self.size}"
        if self.kind == "at_most":
            return f"W{self.size}"
        return ""


EMPTY = Wildcard("empty")


@dataclass(frozen=True)
class Pattern:
    """Alternating pattern U_1 v_1 U_2 ... v_K U_{K+1}.

    ``fixed`` holds the letter-code tuples v_1..v_K and ``gaps`` the K+1
    wildcard slots around them.  Matches are counted per (start position,
    wildcard length assignment); any subword of a reduced word is reduced,
    so matched instantiations are automatically freely reduced.
    """

    fixed: Tuple[Tuple[int, ...], ...]
    gaps: Tuple[Wildcard, ...]

    def __post_init__(self):
        if len(self.gaps) != len(self.fixed) + 1:
            raise ValueError("need exactly K+1 wildcards for K fixed segments")
        if sum(map(len, self.fixed)) + sum(g.lengths()[-1] for g in self.gaps) == 0:
            raise ValueError("pattern matches only the empty word")

    @staticmethod
    def from_word(codes: Sequence[int]) -> "Pattern":
        return Pattern((tuple(codes),), (EMPTY, EMPTY))

    @staticmethod
    def pair(x1: int, mid: Wildcard, x2: int) -> "Pattern":
        return Pattern(((x1,), (x2,)), (EMPTY, mid, EMPTY))

    def text(self) -> str:
        parts: List[str] = []
        for gap, seg in itertools.zip_longest(self.gaps, self.fixed):
            t = gap.text()
            if t:
                parts.append(t)
            if seg is not None:
                parts.append(format_codes(seg))
        return ".".join(parts) if len(parts) > 1 else (parts[0] if parts else "")


def count_pattern(w: Union[Word, CyclicWord], p: Pattern) -> int:
    """Number of occurrences of the pattern in the cyclic word w: one per
    start position and wildcard length assignment of total span at most |w|."""
    if not w.letters:
        return 0
    # the count is an integer below 2^53, so rounding undoes the division
    return round(feature_vector(w, FeatureMap("", (p,), w.rank))[0] * len(w))


# Each gap-length assignment of nonzero span fixes a pattern's k letters at
# fixed offsets of one cyclic window: an instance.  Instances sharing their
# offsets are counted together, by one bincount of base-2r window codes when
# the (2r)^k code table has at most this many entries, else by one Counter of
# the windows' k letters as bytes.
_MAX_WINDOW_CODES = 1 << 16


def _instances(p: Pattern, m: int) -> List[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """(offsets, letters, span) of each window p matches, one per gap-length
    assignment of nonzero span; none when a letter lies outside the m-letter
    alphabet."""
    letters = tuple(c for seg in p.fixed for c in seg)
    if not all(0 <= c < m for c in letters):
        return []
    instances = []
    for lengths in itertools.product(*(g.lengths() for g in p.gaps)):
        offsets, pos = [], lengths[0]
        for seg, gap in zip(p.fixed, lengths[1:]):
            offsets.extend(range(pos, pos + len(seg)))
            pos += len(seg) + gap
        if pos:
            instances.append((tuple(offsets), letters, pos))
    return instances


@dataclass(frozen=True)
class FeatureMap:
    """A named, ordered list of patterns over a fixed rank."""

    name: str
    patterns: Tuple[Pattern, ...]
    rank: int

    @property
    def dim(self) -> int:
        return len(self.patterns)

    @functools.cached_property
    def _plan(self) -> Tuple[list, np.ndarray, np.ndarray, int]:
        """Built on first use: one (offsets, keys) group per offset tuple, the
        keys its instances' codes (an array) or letters (bytes); each
        instance's column and span, in group order; and the longest span."""
        m = 2 * self.rank
        groups: Dict[Tuple[int, ...], list] = {}
        for i, p in enumerate(self.patterns):
            for offsets, letters, span in _instances(p, m):
                groups.setdefault(offsets, []).append((i, letters, span))
        plan = []
        for offsets, instances in groups.items():
            if m ** len(offsets) <= _MAX_WINDOW_CODES:
                keys = np.array([functools.reduce(lambda code, c: code * m + c, inst[1], 0)
                                 for inst in instances], dtype=np.int64)
            else:
                keys = [bytes(inst[1]) for inst in instances]
            plan.append((offsets, keys))
        flat = [inst for instances in groups.values() for inst in instances]
        spans = [inst[2] for inst in flat]
        return (plan, np.array([inst[0] for inst in flat], dtype=np.intp),
                np.array(spans, dtype=np.int64), max(spans, default=0))


def _window_letters(arr: np.ndarray, offsets: Sequence[int]) -> Counter:
    """How often each bytes string of letters at the given offsets appears
    over the cyclic windows of the word arr."""
    n = len(arr)
    windows = arr.astype(np.uint8)[(np.arange(n)[:, None] + offsets) % n]
    return Counter(windows.view(f"V{len(offsets)}").ravel().tolist())


def feature_vector(w: CyclicWord, fmap: FeatureMap) -> np.ndarray:
    """Per-pattern cyclic counts divided by |w|."""
    if w.rank != fmap.rank:
        raise ValueError(f"a rank-{w.rank} word does not fit the rank-{fmap.rank} "
                         f"feature map {fmap.name!r}")
    n = len(w)
    if n == 0:
        raise ValueError("feature vector undefined for the empty word")
    plan, columns, spans, longest = fmap._plan
    arr = np.asarray(w.letters, dtype=np.int64)
    hits = [np.zeros(0)]  # so that a map with no instances concatenates
    for offsets, keys in plan:
        if isinstance(keys, np.ndarray):
            hist = np.bincount(window_codes(arr, offsets, fmap.rank),
                               minlength=(2 * fmap.rank) ** len(offsets))
            hits.append(hist[keys])
        else:
            hist = _window_letters(arr, offsets)
            hits.append([hist.get(key, 0) for key in keys])
    found = np.concatenate(hits)
    if n < longest:
        found = np.where(spans <= n, found, 0)
    # the float64 counts are exact integers, so each quotient is that of
    # an integer count
    return np.bincount(columns, weights=found, minlength=fmap.dim) / n


def feature_matrix(words: Sequence[CyclicWord], fmap: FeatureMap) -> np.ndarray:
    if not len(words):
        return np.zeros((0, fmap.dim))
    return np.vstack([feature_vector(w, fmap) for w in words])


# ---------------------------------------------------------------------------
# built-in maps
# ---------------------------------------------------------------------------

def _reduced_words_of_length(rank: int, length: int) -> List[Tuple[int, ...]]:
    """All freely reduced code tuples of the given length, lexicographic."""
    words: List[Tuple[int, ...]] = [()]
    for _ in range(length):
        words = [w + (c,) for w in words for c in range(2 * rank)
                 if not w or c != w[-1] ^ 1]
    return words


def _pair_patterns(rank: int, gap: int) -> List[Pattern]:
    """x1 . U_gap . x2 over all ordered letter pairs; gap 0 keeps only the
    freely reduced two-letter composites (x2 != x1^-1)."""
    m = 2 * rank
    pats = []
    for x1 in range(m):
        for x2 in range(m):
            if gap == 0:
                if x2 == x1 ^ 1:
                    continue
                pats.append(Pattern.from_word((x1, x2)))
            else:
                pats.append(Pattern.pair(x1, Wildcard("exact", gap), x2))
    return pats


def builtin_map(name: str, rank: int) -> FeatureMap:
    """The built-in feature maps.

    f0: single letters; f1: reduced length-2 words; f2/f3/f4: letter pairs
    with a middle of exactly 1/2/3 letters; f5 = f1 + f2; f6 = f1 + f2 + f3
    + f4 (60 components at rank 2); fstar: the two counts (a^-1 b, b^-1 a),
    rank 2 only.
    """
    if name == "fstar":
        if rank != 2:
            raise ValueError("fstar is defined for rank 2 only")
        pats = (Pattern.from_word((1, 2)), Pattern.from_word((3, 0)))
        return FeatureMap("fstar", pats, rank)
    if rank < 2:
        raise ValueError("rank must be >= 2")
    if name == "f0":
        pats = tuple(Pattern.from_word((c,)) for c in range(2 * rank))
    elif name == "f1":
        pats = tuple(_pair_patterns(rank, 0))
    elif name in ("f2", "f3", "f4"):
        pats = tuple(_pair_patterns(rank, int(name[1]) - 1))
    elif name == "f5":
        pats = tuple(_pair_patterns(rank, 0) + _pair_patterns(rank, 1))
    elif name == "f6":
        pats = tuple(itertools.chain.from_iterable(
            _pair_patterns(rank, g) for g in range(4)))
    else:
        raise ValueError(f"unknown feature map {name!r}")
    return FeatureMap(name, pats, rank)


# The largest pattern pool built: building one takes about 1 kB per pattern,
# so 2^18 patterns take about 0.3 GB.
_MAX_POOL = 1 << 18


def pattern_pool(rank: int, min_mid: int, max_mid: int) -> List[Pattern]:
    """All x1 v x2 patterns with a fixed middle of length min_mid..max_mid
    whose composite word is freely reduced, ordered by length then
    lexicographically.  Raises ValueError for more than 2^18 patterns."""
    if not 1 <= min_mid <= max_mid:
        raise ValueError("need 1 <= min_mid <= max_mid")
    check_rank(rank)
    m, size = 2 * rank, 0
    for mid in range(min_mid, max_mid + 1):
        # 2r(2r - 1)^(mid + 1) patterns; (2r - 1)^19 alone exceeds the bound
        size += m * (m - 1) ** min(mid + 1, 19)
        if size > _MAX_POOL:
            raise ValueError(f"the pool has more than {_MAX_POOL} patterns")
    pool = []
    for mid in range(min_mid, max_mid + 1):
        for codes in _reduced_words_of_length(rank, mid + 2):
            pool.append(Pattern.from_word(codes))
    return pool


def resolve_map(name: str, rank: int) -> FeatureMap:
    """Feature map from a CLI-style name: f0..f6, fstar, or pool:<min>-<max>."""
    if name.startswith("pool:"):
        lo, _, hi = name[5:].partition("-")
        pats = tuple(pattern_pool(rank, int(lo), int(hi)))
        return FeatureMap(name, pats, rank)
    return builtin_map(name, rank)


# ---------------------------------------------------------------------------
# Whitehead graph
# ---------------------------------------------------------------------------

@dataclass
class WhiteheadGraph:
    """Weighted labelled digraph on the letters: edge (x, v, y) has weight
    C(w, x v y).  Only positive-weight edges are stored."""

    rank: int
    edges: Dict[Tuple[int, Tuple[int, ...], int], int] = field(default_factory=dict)

    def weight(self, x: int, label: Tuple[int, ...], y: int) -> int:
        return self.edges.get((x, tuple(label), y), 0)


def whitehead_graph(w: CyclicWord, max_label_len: int) -> WhiteheadGraph:
    if len(w) < 2:
        raise ValueError("need |w| >= 2")
    arr = np.asarray(w.letters)
    graph = WhiteheadGraph(w.rank)
    for span in range(2, min(max_label_len + 2, len(w)) + 1):
        for sub, count in _window_letters(arr, tuple(range(span))).items():
            graph.edges[(sub[0], tuple(sub[1:-1]), sub[-1])] = count
    return graph
