"""Subword-counting features: patterns, the built-in maps f0..f6 and fstar,
and the feature-selection pattern pool.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .words import CyclicWord, check_rank, format_codes, window_codes

# Most cells a feature matrix has, len(words) x dim, 8 bytes each: pool:1-5
# (4,356 patterns) on 10,000 + 10,000 words fits.
MAX_SELECTION_CELLS = 1 << 27


@dataclass(frozen=True)
class Pattern:
    """Letters at fixed offsets of one cyclic window.

    A subword v has v's letters at offsets 0..|v|-1; x1 . U_g . x2 (any g
    letters between x1 and x2) has x1 at 0 and x2 at g + 1.  Offsets start
    at 0 and strictly increase, one per letter.  Any subword of a reduced
    word is reduced, so matched instantiations are automatically freely
    reduced.
    """

    letters: Tuple[int, ...]
    offsets: Tuple[int, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("pattern matches only the empty word")
        if len(self.offsets) != len(self.letters):
            raise ValueError("need exactly one offset per letter")
        if self.offsets[0] != 0 or any(
                a >= b for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError("offsets must start at 0 and strictly increase")

    @staticmethod
    def from_word(codes: Sequence[int]) -> "Pattern":
        return Pattern(tuple(codes), tuple(range(len(codes))))

    @staticmethod
    def pair(x1: int, gap: int, x2: int) -> "Pattern":
        return Pattern((x1, x2), (0, gap + 1))

    @property
    def span(self) -> int:
        """Letters from the first offset to the last."""
        return self.offsets[-1] + 1

    def text(self) -> str:
        """The letters, with U<g> for each run of g skipped offsets: abB, a.U1.B."""
        parts = [format_codes(self.letters[:1])]
        for prev, o, c in zip(self.offsets, self.offsets[1:], self.letters[1:]):
            if o > prev + 1:
                parts += [f"U{o - prev - 1}", format_codes((c,))]
            else:
                parts[-1] += format_codes((c,))
        return ".".join(parts)


def count_pattern(w: CyclicWord, p: Pattern) -> int:
    """Number of start positions at which the pattern matches the cyclic word
    w; 0 when its span exceeds |w|."""
    if not w.letters:
        return 0
    # the count is an integer below 2^53, so rounding undoes the division
    return round(feature_vector(w, FeatureMap("", (p,), w.rank))[0] * len(w))


# Patterns sharing their offsets are counted together: by base-2r window
# codes when the (2r)^k code table has at most this many entries, all such
# groups of a map in one bincount, else by one Counter of the windows' k
# letters as bytes.
_MAX_WINDOW_CODES = 1 << 16


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
    def _plan(self) -> Tuple[tuple, list, np.ndarray, int]:
        """Built on first use, over the patterns whose letters all lie in the
        2r-letter alphabet (any other pattern counts 0), grouped by offset
        tuple.  The groups whose (2r)^k code table has at most
        _MAX_WINDOW_CODES entries share one table, each from its own base:
        their (offsets, base) pairs, their columns, the patterns' codes plus
        the bases, and the table's size.  Every other group is an (offsets,
        columns, letters as bytes) triple.  Then every pattern's span, and
        the longest span."""
        m = 2 * self.rank
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for i, p in enumerate(self.patterns):
            if all(0 <= c < m for c in p.letters):
                groups.setdefault(p.offsets, []).append(i)
        table: List[Tuple[Tuple[int, ...], int]] = []
        columns: List[int] = []
        keys: List[int] = []
        counted = []
        size = 0
        for offsets, group in groups.items():
            letters = [self.patterns[i].letters for i in group]
            if m ** len(offsets) <= _MAX_WINDOW_CODES:
                table.append((offsets, size))
                columns += group
                keys += [size + functools.reduce(lambda code, c: code * m + c, ls, 0)
                         for ls in letters]
                size += m ** len(offsets)
            else:
                counted.append((offsets, np.array(group, dtype=np.intp),
                                [bytes(ls) for ls in letters]))
        bincounted = (tuple(table), np.array(columns, dtype=np.intp),
                      np.array(keys, dtype=np.int64), size)
        spans = np.array([p.span for p in self.patterns], dtype=np.int64)
        return bincounted, counted, spans, int(spans.max(initial=0))


def _window_letters(letters: bytes, offsets: Sequence[int]) -> Counter:
    """How often each bytes string of letters at the given offsets appears
    over the cyclic windows of the word with these letters."""
    n = len(letters)
    windows = np.frombuffer(letters, dtype=np.uint8)[(np.arange(n)[:, None] + offsets) % n]
    return Counter(windows.view(f"V{len(offsets)}").ravel().tolist())


def feature_vector(w: CyclicWord, fmap: FeatureMap) -> np.ndarray:
    """Per-pattern cyclic counts divided by |w|."""
    if w.rank != fmap.rank:
        raise ValueError(f"a rank-{w.rank} word does not fit the rank-{fmap.rank} "
                         f"feature map {fmap.name!r}")
    n = len(w)
    if n == 0:
        raise ValueError("feature vector undefined for the empty word")
    (table, columns, keys, size), counted, spans, longest = fmap._plan
    counts = np.zeros(fmap.dim)
    if table:
        codes = window_codes(w.letters, table, fmap.rank)
        counts[columns] = np.bincount(codes, minlength=size)[keys]
    for offsets, group, letters in counted:
        hist = _window_letters(w.letters, offsets)
        counts[group] = [hist.get(key, 0) for key in letters]
    if n < longest:
        counts[spans > n] = 0
    return counts / n


def feature_matrix(words: Sequence[CyclicWord], fmap: FeatureMap) -> np.ndarray:
    """One feature_vector row per word.  Raises ValueError before counting
    anything when the matrix would have more than MAX_SELECTION_CELLS cells."""
    cells = len(words) * fmap.dim
    if cells > MAX_SELECTION_CELLS:
        raise ValueError(f"{len(words)} words x {fmap.dim} patterns = {cells} feature "
                         f"cells, over the {MAX_SELECTION_CELLS} budget")
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
    return [Pattern.pair(x1, gap, x2) for x1 in range(m) for x2 in range(m)
            if gap or x2 != x1 ^ 1]


# The gaps of each pair map's x1 . U_gap . x2 patterns, in column order.
_PAIR_GAPS = {"f1": (0,), "f2": (1,), "f3": (2,), "f4": (3,), "f5": (0, 1), "f6": (0, 1, 2, 3)}


def builtin_map(name: str, rank: int) -> FeatureMap:
    """The built-in feature maps.

    f0: single letters; f1: reduced length-2 words; f2/f3/f4: letter pairs
    with a middle of exactly 1/2/3 letters; f5 = f1 + f2; f6 = f1 + f2 + f3
    + f4 (60 components at rank 2); fstar: the two counts (a^-1 b, b^-1 a),
    rank 2 only.
    """
    check_rank(rank)
    if name == "fstar":
        if rank != 2:
            raise ValueError("fstar is defined for rank 2 only")
        pats = (Pattern.from_word((1, 2)), Pattern.from_word((3, 0)))
    elif name == "f0":
        pats = tuple(Pattern.from_word((c,)) for c in range(2 * rank))
    elif name in _PAIR_GAPS:
        pats = tuple(p for g in _PAIR_GAPS[name] for p in _pair_patterns(rank, g))
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
