"""Labeled word datasets: generation recipes, TSV round-trip, verification.

Kinds:
  D / Se : per length l = 1..max_length, ``per_length`` random cyclic words;
           each is minimized, then with probability 0.5 replaced by a strictly
           longer image under a random type-II automorphism (label nonmin).
  S10    : like D, but 1..10 consecutive length-increasing substitutions.
  SR     : random cyclically reduced words, labeled by the minimality test.
  SP     : random primitive elements, labeled by the minimality test.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from .automorphisms import _descend, _substitute_longer, is_minimal, random_primitive
from .words import (CyclicWord, _random_letters, check_rank, format_codes, parse_codes,
                    random_word)

log = logging.getLogger(__name__)

LABEL_MIN = "min"
LABEL_NONMIN = "nonmin"

SUBSTITUTION_RETRIES = 100


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
    kind: str                 # D | Se | SR | SP | S10
    rank: int = 2
    max_length: int = 1000
    per_length: int = 10
    seed: int = 0
    size: int = 5000          # SR / SP only

    def __post_init__(self):
        if self.kind not in ("D", "Se", "SR", "SP", "S10"):
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


_KIND_INDEX = {"D": 0, "Se": 1, "SR": 2, "SP": 3, "S10": 4}


def _record_rng(spec: DatasetSpec, index: int) -> np.random.Generator:
    # one independent stream per record: parallel-safe, order-independent
    return np.random.default_rng([spec.seed, _KIND_INDEX[spec.kind], index])


def _generate_substitution(spec: DatasetSpec, max_steps: int) -> LabeledWordSet:
    """Each record's word stays raw letters, in any rotation, from the draw
    to the record, and is checked and canonicalized once, as its
    CyclicWord."""
    records = []
    idx = 0
    rank = spec.rank
    for l in range(1, spec.max_length + 1):
        for _ in range(spec.per_length):
            rng = _record_rng(spec, idx)
            idx += 1
            letters, cap, _ = _descend(_random_letters(l, rank, rng), rank)
            label = LABEL_MIN
            if rng.random() < 0.5:
                steps = 1 if max_steps == 1 else int(rng.integers(1, max_steps + 1))
                longer = _substitute_longer(letters, cap, rank, steps, rng,
                                            SUBSTITUTION_RETRIES)
                if longer is None:
                    log.warning("substitution retries exhausted at l=%d; keeping minimal", l)
                else:
                    letters, label = longer, LABEL_NONMIN
            records.append(WordRecord(CyclicWord(letters, rank), label))
    return LabeledWordSet(records, spec.rank)


def _generate_tested(spec: DatasetSpec) -> LabeledWordSet:
    records = []
    for idx in range(spec.size):
        rng = _record_rng(spec, idx)
        l = int(rng.integers(1, spec.max_length + 1))
        if spec.kind == "SR":
            w = random_word(l, spec.rank, rng=rng)
        else:
            w = random_primitive(spec.rank, int(rng.integers(1, 11)), rng)
        label = LABEL_MIN if is_minimal(w) else LABEL_NONMIN
        records.append(WordRecord(w, label))
    return LabeledWordSet(records, spec.rank)


def generate_dataset(spec: DatasetSpec) -> LabeledWordSet:
    """Deterministic given the spec (including its seed)."""
    if spec.kind in ("D", "Se"):
        return _generate_substitution(spec, max_steps=1)
    if spec.kind == "S10":
        return _generate_substitution(spec, max_steps=10)
    return _generate_tested(spec)


# ---------------------------------------------------------------------------
# TSV files: "# word<TAB>label<TAB>length" header, one record per line
# ---------------------------------------------------------------------------

def save_tsv(ds: LabeledWordSet, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# word\tlabel\tlength\n")
        for r in ds.records:
            fh.write(f"{format_codes(r.word.letters)}\t{r.label}\t{r.length}\n")


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
