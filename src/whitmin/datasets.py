"""Labeled word datasets: generation recipes, TSV round-trip, verification.

Kinds:
  D / Se : per length l = 1..max_length, ``per_length`` random cyclic words;
           each is minimized, then with probability 0.5 replaced by a strictly
           longer image under a random type-II automorphism (label nonmin).
  S10    : like D, but 1..10 consecutive length-increasing substitutions.
  SR     : random cyclically reduced words, labeled by the minimality test.
  SP     : random primitive elements, labeled min iff one letter (Whitehead).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, List

import numpy as np

from .automorphisms import (_descend, _no_shorter_cut, _substitute_longer, edge_tables,
                           random_primitive)
from .words import CyclicWord, _random_letters, check_rank, format_codes, parse_codes

log = logging.getLogger(__name__)

LABEL_MIN = "min"
LABEL_NONMIN = "nonmin"

# The dataset kinds.  A kind's position is an entropy word of each record's
# stream seed (_record_rngs), so reordering them changes every dataset.
KINDS = ("D", "Se", "SR", "SP", "S10")
# A record's index is one 32-bit entropy word of its stream's seed.
MAX_RECORDS = 2**32 - 1
# Longest word a spec may ask for: one such SR word plus its minimality test
# takes 1.5 s and peaks at 543 MB (one process on a 2-CPU Intel Xeon host).
MAX_LENGTH = 1 << 24


class DataFormatError(ValueError):
    """Dataset file is malformed."""


@dataclass(frozen=True)
class WordRecord:
    word: CyclicWord
    label: str

    @property
    def length(self) -> int:
        return len(self.word)


@dataclass
class LabeledWordSet:
    records: List[WordRecord]
    rank: int

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[WordRecord]:
        return iter(self.records)

    def words(self) -> List[CyclicWord]:
        return [r.word for r in self.records]

    def labels(self) -> np.ndarray:
        # class 1 = minimal, class 2 = nonminimal
        return np.array([1 if r.label == LABEL_MIN else 2 for r in self.records],
                        dtype=np.int64)

    def lengths(self) -> np.ndarray:
        return np.array([r.length for r in self.records], dtype=np.int64)

    def subset(self, mask: Iterable[bool]) -> "LabeledWordSet":
        return LabeledWordSet([r for r, m in zip(self.records, mask) if m], self.rank)


@dataclass(frozen=True)
class DatasetSpec:
    kind: str                 # one of KINDS
    rank: int = 2
    max_length: int = 1000
    per_length: int = 10
    seed: int = 0
    size: int = 5000          # SR / SP only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        check_rank(self.rank)
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.per_length < 1:
            raise ValueError("per_length must be >= 1")
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.record_count > MAX_RECORDS:
            raise ValueError(f"record count {self.record_count} exceeds {MAX_RECORDS}")
        if self.max_length > MAX_LENGTH:
            raise ValueError(f"max_length {self.max_length} exceeds {MAX_LENGTH}")

    @property
    def record_count(self) -> int:
        if self.kind in ("SR", "SP"):
            return self.size
        return self.max_length * self.per_length


# NumPy's SeedSequence (NEP 19): the 4-word pool hash of the entropy words,
# then generate_state's hash of the pool into PCG64's seed words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_RNG_BLOCK = 1024


def _uint32_words(n: int) -> List[int]:
    """n's little-endian 32-bit words, as SeedSequence reads an int."""
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


def _seed_states(prefix: List[int], indices: np.ndarray) -> np.ndarray:
    """Row j is what SeedSequence(prefix + [indices[j]]).generate_state(4,
    uint64) returns, for the 32-bit words prefix and indices below 2**32;
    the hash runs on every row at once in uint32 arithmetic."""
    u32 = np.uint32
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * u32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = x * u32(_MIX_MULT_L) - y * u32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    entropy = [np.full(len(indices), w, dtype=u32) for w in prefix]
    entropy.append(indices.astype(u32))
    entropy += [np.zeros(len(indices), dtype=u32)] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ u32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * u32(hash_const)
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # uint64 word k is 32-bit words 2k (low) and 2k+1 (high)
    return np.stack([state[k] | state[k + 1] << np.uint64(32)
                     for k in range(0, 2 * _POOL_SIZE, 2)], axis=1)


def _record_rngs(spec: DatasetSpec) -> Iterator[np.random.Generator]:
    """The generators of the spec's records, in index order.

    Record i of kind k (D=0, Se=1, SR=2, SP=3, S10=4) under seed s draws
    from the stream numpy.random.default_rng([s, k, i]) gives: one
    independent stream per record, parallel-safe and order-independent, so
    fixed-seed files stay byte-identical.  The seed states are hashed
    _RNG_BLOCK records at a time, never all at once; i < 2**32
    (MAX_RECORDS bounds a spec's record count)."""
    # here, not at module level: importing whitmin does not load numpy.random
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        """A precomputed PCG64 seed: the one generate_state(4, uint64) row."""

        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a precomputed seed state holds 4 uint64 words only")
            return self.row

    prefix = _uint32_words(spec.seed) + [KINDS.index(spec.kind)]
    for start in range(0, spec.record_count, _RNG_BLOCK):
        indices = np.arange(start, min(start + _RNG_BLOCK, spec.record_count), dtype=np.uint64)
        for row in _seed_states(prefix, indices):
            yield np.random.Generator(np.random.PCG64(SeedState(row)))


# D, Se, S10 and SR records are drawn a block at a time, and one edge_tables
# call gives the Whitehead graphs of a block's words.  A block holds at most
# this many letters and table cells, each word counting its letters plus its
# table's (2r)^2 cells, so its transient stays small whatever its record
# count and rank; a larger word is a block of its own.
_BLOCK_LETTERS = 1 << 13


def _blocks(drawn: Iterable[tuple], rank: int) -> Iterator[list]:
    """The (letters, ...) draws in order, in lists of at most _BLOCK_LETTERS
    letters and table cells, or of one larger word."""
    cells = 4 * rank * rank
    block: list = []
    size = 0
    for item in drawn:
        n = len(item[0]) + cells
        if block and size + n > _BLOCK_LETTERS:
            yield block
            block, size = [], 0
        block.append(item)
        size += n
    if block:
        yield block


def generate_records(spec: DatasetSpec) -> Iterator[WordRecord]:
    """The spec's records in index order, each from its own stream.  By
    Whitehead's theorem a primitive cyclic word is minimal iff it is one
    letter, so SP needs no graph.  The other kinds draw raw letters, a block
    of at most _BLOCK_LETTERS letters and table cells at a time, with one
    edge_tables call per block: memory stays flat in the record count, and
    the block size changes no record.  Each word is canonicalized once, as
    its record's CyclicWord."""
    rank, kind = spec.rank, spec.kind
    rngs = _record_rngs(spec)
    if kind == "SP":
        for rng in rngs:
            rng.integers(1, spec.max_length + 1)  # SR's length: unused, but part of the stream
            w = random_primitive(rank, int(rng.integers(1, 11)), rng)
            yield WordRecord(w, LABEL_MIN if len(w) == 1 else LABEL_NONMIN)
        return
    # SR draws its length from the stream; D, Se and S10 take it from the index
    drawn = ((_random_letters(int(rng.integers(1, spec.max_length + 1)) if kind == "SR"
                              else idx // spec.per_length + 1, rank, rng), rng)
             for idx, rng in enumerate(rngs))
    for block in _blocks(drawn, rank):
        # a one-letter SR word is minimal and needs no graph
        caps = iter(edge_tables([letters for letters, _ in block
                                 if kind != "SR" or len(letters) > 1], rank))
        for letters, rng in block:
            if kind == "SR":
                minimal = len(letters) <= 1 or _no_shorter_cut(next(caps))
            else:
                l = len(letters)
                letters, cap, _ = _descend(letters, next(caps), rank)
                minimal = True
                if rng.random() < 0.5:
                    steps = int(rng.integers(1, 11)) if kind == "S10" else 1
                    longer = _substitute_longer(letters, cap, rank, steps, rng)
                    if longer is None:
                        log.warning("substitution retries exhausted at l=%d; keeping minimal", l)
                    else:
                        letters, minimal = longer, False
            yield WordRecord(CyclicWord(letters, rank), LABEL_MIN if minimal else LABEL_NONMIN)


def generate_dataset(spec: DatasetSpec) -> LabeledWordSet:
    """Deterministic given the spec (including its seed)."""
    return LabeledWordSet(list(generate_records(spec)), spec.rank)


# ---------------------------------------------------------------------------
# TSV files: "# word<TAB>label<TAB>length" header, one record per line
# ---------------------------------------------------------------------------

def save_tsv(records: Iterable[WordRecord], path: str) -> int:
    """Write each record as it comes (a LabeledWordSet iterates its records);
    returns how many were written."""
    count = 0
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# word\tlabel\tlength\n")
        for count, r in enumerate(records, 1):
            fh.write(f"{format_codes(r.word.letters)}\t{r.label}\t{r.length}\n")
    return count


def load_tsv(path: str, rank: int = 2) -> LabeledWordSet:
    records = []
    # surrogateescape defers a non-ASCII byte to the per-line check below,
    # which can name the line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.isascii():
                raise DataFormatError(f"{path}:{lineno}: non-ASCII byte")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected 3 columns")
            text, label, length = parts
            if label not in (LABEL_MIN, LABEL_NONMIN):
                raise DataFormatError(f"{path}:{lineno}: bad label {label!r}")
            try:
                word = CyclicWord(parse_codes(text), rank)
            except ValueError as e:
                raise DataFormatError(f"{path}:{lineno}: {e}") from e
            if not word.letters:
                raise DataFormatError(f"{path}:{lineno}: empty word")
            try:
                expected = int(length)
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: bad length {length!r}") from None
            if len(word) != expected:
                raise DataFormatError(f"{path}:{lineno}: length column mismatch")
            records.append(WordRecord(word, label))
    return LabeledWordSet(records, rank)
