"""Independent checks on whitmin's outputs, written without using whitmin.

Words are tuples of letter codes: generator i is code 2*i, its inverse 2*i+1.
Whitehead's theorem: a cyclic word is minimal in its automorphic orbit iff no
type-II Whitehead automorphism (A, a) shortens it.  Type-I automorphisms only
permute letters, so they never change the length and are not tried.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

Table = Tuple[Tuple[int, ...], ...]


def cyclic_length(codes: Sequence[int]) -> int:
    """Length of the cyclic reduction of a letter sequence."""
    out: List[int] = []
    for c in codes:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    i, j = 0, len(out) - 1
    while i < j and out[i] == out[j] ^ 1:
        i += 1
        j -= 1
    return max(0, j - i + 1)


def image_length(table: Table, codes: Sequence[int]) -> int:
    img: List[int] = []
    for c in codes:
        img.extend(table[c])
    return cyclic_length(img)


@lru_cache(maxsize=None)
def type2_tables(rank: int) -> Tuple[Table, ...]:
    """Letter-image tables of every type-II automorphism (A, a): for a letter
    x other than a and a^-1, x -> [a^-1 if x^-1 in A] x [a if x in A]."""
    m = 2 * rank
    tables = []
    for a in range(m):
        others = [c for c in range(m) if c not in (a, a ^ 1)]
        for mask in range(1 << len(others)):
            subset = {others[i] for i in range(len(others)) if mask >> i & 1}
            table = []
            for x in range(m):
                img: Tuple[int, ...] = (x,)
                if x not in (a, a ^ 1):
                    if x in subset:
                        img = img + (a,)
                    if x ^ 1 in subset:
                        img = (a ^ 1,) + img
                table.append(img)
            tables.append(tuple(table))
    return tuple(tables)


def is_minimal(codes: Sequence[int], rank: int) -> bool:
    n = cyclic_length(codes)
    if n <= 1:
        return True
    return all(image_length(t, codes) >= n for t in type2_tables(rank))


# The rank-2 Nielsen moves by their names in whitmin.automorphisms.NielsenMove:
# a = 0, A = a^-1 = 1, b = 2, B = b^-1 = 3.
_LETTER = {"a": 0, "A": 1, "b": 2, "B": 3}


def nielsen_table(move_value: str) -> Table:
    """Table of a move written as 'x->uvw' (x a generator)."""
    src, img = move_value.split("->")
    x = _LETTER[src]
    codes = tuple(_LETTER[ch] for ch in img)
    table: Dict[int, Tuple[int, ...]] = {c: (c,) for c in range(4)}
    table[x] = codes
    table[x ^ 1] = tuple(c ^ 1 for c in reversed(codes))
    return tuple(table[c] for c in range(4))


def shortens(move_value: str, codes: Sequence[int]) -> bool:
    return image_length(nielsen_table(move_value), codes) < cyclic_length(codes)
