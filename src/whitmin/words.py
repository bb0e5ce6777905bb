"""Cyclic free-group words: letters, free/cyclic reduction, text encoding,
random generation.  Minimality and the features are properties of the
cyclic word, so every word is a CyclicWord.

Letters are small integer codes: generator g with sign +1 has code 2*g, its
inverse has code 2*g + 1.  A word's letters are bytes, one code per byte,
from the draw through minimization to the feature counts; functions that
take codes from outside (CyclicWord, check_codes, cyclic_reduce) accept any
sequence of ints.  The natural order of the codes (a < a^-1 < b < b^-1 <
...) is the order of canonical cyclic rotations, so the least rotation is
the least bytes string.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

log = logging.getLogger(__name__)

MIN_RANK = 2
# The text encoding writes generators as a..z.
MAX_RANK = 26


class InvalidLetterError(ValueError):
    """A letter code is out of range for the ambient rank."""


# codes 0..2r-1 are _CODES[:2r]; _PAIRS[c] is the cancelling pair c c^-1
_CODES = bytes(range(2 * MAX_RANK))
_PAIRS = [bytes((c, c ^ 1)) for c in _CODES]


def check_codes(codes: Iterable[int], rank: int) -> bytes:
    """Raise InvalidLetterError naming the first code outside 0..2r-1; return
    the codes as bytes."""
    if isinstance(codes, bytes):
        b = codes
    else:
        if not isinstance(codes, (tuple, list)):
            # bytes() of a buffer such as an ndarray would copy its raw memory
            codes = tuple(codes)
        try:
            b = bytes(codes)
        except ValueError:      # a code outside 0..255
            b = None
    if b is None or b.translate(None, _CODES[:2 * rank]):
        bad = next(c for c in codes if not 0 <= c < 2 * rank)
        raise InvalidLetterError(f"letter code {bad} invalid for rank {rank}")
    return b


def check_rank(rank: int) -> None:
    """Raise ValueError unless rank is in MIN_RANK..MAX_RANK."""
    if not MIN_RANK <= rank <= MAX_RANK:
        raise ValueError(f"rank must be in {MIN_RANK}..{MAX_RANK} (generators a..z), got {rank}")


def reduce_codes(codes: Sequence[int]) -> bytes:
    """Freely reduce a sequence of letter codes 0..255 (stack-based, single
    pass)."""
    out: list = []
    for c in codes:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return bytes(out)


@dataclass(frozen=True)
class CyclicWord:
    """A cyclically reduced word, stored as the bytes of its least rotation.

    The constructor accepts any rotation of a cyclically reduced sequence of
    codes and canonicalizes it; it rejects sequences that are not cyclically
    reduced.
    """

    letters: bytes
    rank: int

    def __post_init__(self):
        check_rank(self.rank)
        b = check_codes(self.letters, self.rank)
        hits = [i for i in map(b.find, _PAIRS[:2 * self.rank]) if i >= 0]
        if hits:
            raise ValueError(f"word not freely reduced at position {min(hits)}")
        if len(b) >= 2 and b[0] == b[-1] ^ 1:
            raise ValueError("word not cyclically reduced")
        canon = least_rotation(b)
        if canon != self.letters:
            object.__setattr__(self, "letters", canon)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_codes(self.letters)


def least_rotation(letters: bytes) -> bytes:
    """Lexicographically least rotation of a word's letters.

    Candidate elimination (after Shiloach, Fast canonization of circular
    strings, J. Algorithms 1981) on bytes.  The candidates are the starts of
    the longest cyclic runs of the least letter; they share a prefix of length
    L = that run length.  Each round keeps the candidates whose next L letters
    are least, doubles L, and drops every candidate within L of the one before
    it.  The drop is sound: if i < j share their first L letters and
    j - i <= L, then rot(j) < rot(i) implies rot(2j - i) < rot(j), so j is
    never the only least rotation and the leftmost least candidate survives.
    Survivors lie more than L apart, so a round costs O(n) bytes work in
    O(n / L) steps: O(n log n) in all, whatever the word.
    """
    n = len(letters)
    if n <= 1:
        return letters
    d = letters + letters
    least = bytes((min(letters),))
    # lo ends as the longest cyclic run of the least letter: every run of d
    # lies inside a cyclic run, and each cyclic run lies whole in d
    lo, hi = 1, 2
    while least * hi in d:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if least * mid in d:
            lo = mid
        else:
            hi = mid
    run = least * lo
    cands = []
    i = d.find(run)
    while 0 <= i < n:
        cands.append(i)
        i = d.find(run, i + lo + 1)
    L = lo
    while len(cands) > 1 and L < n:
        L2 = min(2 * L, n)
        blocks = [d[i + L:i + L2] for i in cands]
        best = min(blocks)
        cands = [i for i, blk in zip(cands, blocks) if blk == best]
        L = L2
        cands = [j for i, j in zip([-2 * n] + cands, cands) if j - i > L]
    return d[cands[0]:cands[0] + n]


def cyclic_core(codes: bytes) -> bytes:
    """The cyclically reduced c of freely reduced letters g c g^-1, in the
    rotation it had inside them."""
    i, j = 0, len(codes)
    while j - i >= 2 and codes[i] == codes[j - 1] ^ 1:
        i += 1
        j -= 1
    return codes[i:j]


def cyclic_reduce(codes: Sequence[int], rank: int) -> CyclicWord:
    """The cyclic word of any letter-code sequence: its letters checked
    against the rank, then freely reduced, stripped of the conjugating ends
    g ... g^-1 and canonicalized.  Raises InvalidLetterError for a letter
    outside the alphabet, even one that would cancel."""
    return CyclicWord(cyclic_core(reduce_codes(check_codes(codes, rank))), rank)


def window_codes(letters: bytes, groups: Sequence[Tuple[Sequence[int], int]],
                 rank: int) -> np.ndarray:
    """Base-2r codes of the cyclic windows of w, one (offsets, base) group
    after another, from one read of the letters: a group's entry i has the
    digits w[i + o] (indices mod |w|) for o in its offsets, the first offset
    most significant, plus its base.  Every group has at least one offset;
    the caller keeps each code within int64."""
    n = len(letters)
    wrap = max(n, 1)
    m = 2 * rank
    # the letters twice over, so that every cyclic window is one slice
    doubled = np.frombuffer(letters + letters, dtype=np.uint8).astype(np.int64)
    out = []
    for offsets, base in groups:
        s = offsets[0] % wrap
        codes = doubled[s:s + n].copy()
        for o in offsets[1:]:
            codes *= m
            s = o % wrap
            codes += doubled[s:s + n]
        if base:
            codes += base
        out.append(codes)
    return out[0] if len(out) == 1 else np.concatenate(out)


# ---------------------------------------------------------------------------
# text encoding: a..z generators, A..Z inverses, one word per line
# ---------------------------------------------------------------------------

# _TEXT[c] is the character of code c; translation tables both ways, with
# _NOT_TEXT for every byte that is no letter
_TEXT = bytes(c for g in range(MAX_RANK) for c in (ord("a") + g, ord("A") + g))
_TO_TEXT = bytes.maketrans(_CODES, _TEXT)
_NOT_TEXT = 0xFF
_FROM_TEXT = bytes(_TEXT.index(c) if c in _TEXT else _NOT_TEXT for c in range(256))


def format_codes(codes: Sequence[int]) -> str:
    return check_codes(codes, MAX_RANK).translate(_TO_TEXT).decode("ascii")


def parse_codes(text: str) -> bytes:
    s = text.strip()
    # a non-ASCII character encodes as one "?", so byte i is still s[i]
    b = s.encode("ascii", errors="replace").translate(_FROM_TEXT)
    bad = b.find(_NOT_TEXT)
    if bad >= 0:
        raise ValueError(f"invalid character {s[bad]!r} in word {text!r}")
    return b


def parse_cyclic_word(text: str, rank: int) -> CyclicWord:
    return CyclicWord(parse_codes(text), rank)


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------

# The walk takes k letters per Python step from a table keyed by the previous
# letter and k draws, with k the largest that keeps 2r (2r-1)^k entries within
# _WALK_TABLE_ENTRIES: k = 6 at rank 2, 4 at rank 3, 3 at rank 4, 2 at ranks
# 5-8 and 1 from rank 9 on.
_WALK_TABLE_ENTRIES = 4096


@functools.lru_cache(maxsize=None)
def _walk_table(rank: int) -> Tuple[int, int, np.ndarray, list]:
    """(k, span, weights, table) for the k-letter walk at this rank, with
    span = (2r-1)^k.  The k draws d_1..d_k (each in 0..2r-2, d_1 most
    significant) have the code weights . d; entry p * span + code is
    (letters, q * span): the k letters the walk takes after letter p, the
    last of them q."""
    m = 2 * rank
    base = m - 1
    k = 1
    while m * base ** (k + 1) <= _WALK_TABLE_ENTRIES:
        k += 1
    span = base ** k
    # the draw d after letter p is the letter d, or d + 1 from p^-1 on
    step = [[d + (d >= p ^ 1) for d in range(base)] for p in range(m)]
    starts = [q * span for q in range(m)]
    table = []
    for prev in range(m):
        level = [(b"", prev)]
        for _ in range(k):
            level = [(piece + _CODES[c:c + 1], c)
                     for piece, last in level for c in step[last]]
        table += [(piece, starts[last]) for piece, last in level]
    weights = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return k, span, weights, table


def _random_letters(length: int, rank: int, rng: np.random.Generator) -> bytes:
    """The letters of random_word(length, rank, rng) for length >= 1, from
    the same draws, as a cyclically reduced word in the rotation drawn."""
    m = 2 * rank
    draws = rng.integers(0, m - 1, size=length)
    first = int(rng.integers(0, m))
    k, span, weights, table = _walk_table(rank)
    # draws[0] is unused; the rest are read k at a time, the last block
    # padded with zeros whose letters are cut off
    n = length - 1
    blocks = -(-n // k)
    padded = np.zeros(blocks * k, dtype=np.int64)
    padded[:n] = draws[1:]
    parts = [_CODES[first:first + 1]]
    offset = first * span
    for code in padded.reshape(blocks, k).dot(weights).tolist():
        piece, offset = table[offset + code]
        parts.append(piece)
    b = b"".join(parts)[:length]

    if b[-1] == b[0] ^ 1:
        # length >= 3 here: a one-letter word ends in its own first letter,
        # and the second letter never cancels the first
        banned_prev = b[-2] ^ 1
        c = b[-1]
        while c == b[0] ^ 1:
            c = int(rng.integers(0, m - 1))
            if c >= banned_prev:
                c += 1
        b = b[:-1] + _CODES[c:c + 1]
    return b


def random_word(length: int, rank: int, rng: np.random.Generator) -> CyclicWord:
    """Uniform Markov word: first letter uniform on the alphabet, each next
    letter uniform on the alphabet minus the inverse of its predecessor, and
    the last letter resampled until it differs from the inverse of the first.
    """
    check_rank(rank)
    if length == 0:
        log.warning("random_word called with length 0; returning identity")
        return CyclicWord(b"", rank)
    return CyclicWord(_random_letters(length, rank, rng), rank)
