"""Words, reduction, and Whitehead moves.

Walks through the basic machinery: parsing words (lowercase = generator,
uppercase = inverse), free and cyclic reduction, applying type II
automorphisms, and greedy minimization.
"""

from whitmin import (NIELSEN_MOVES, apply_automorphism, cyclic_reduce,
                     is_minimal, minimize, parse_cyclic_word, reducing_moves)
from whitmin.words import parse_codes


def main():
    # every word is cyclic: BaAaab freely reduces to Baab = B (aa) b, whose
    # cyclic word is aa
    text = "BaAaab"
    print(f"{text} cyclically reduces to {cyclic_reduce(parse_codes(text), 2)}")

    # the four Nielsen moves of rank 2 and their action on ab
    v = parse_cyclic_word("ab", 2)
    for move in NIELSEN_MOVES:
        img = apply_automorphism(move.automorphism, v)
        print(f"  {move.name:10s} ({move.value:9s}): {v} -> {img}")

    # abab is not minimal: two moves shorten it
    u = parse_cyclic_word("abab", 2)
    print(f"\n{u} minimal? {is_minimal(u)}  reducing moves: "
          f"{[m.name for m in reducing_moves(u)]}")
    m, chain = minimize(u)
    print(f"minimize({u}) = {m} in {len(chain)} move(s)")

    # the commutator is already minimal
    c = parse_cyclic_word("abAB", 2)
    print(f"{c} minimal? {is_minimal(c)}")


if __name__ == "__main__":
    main()
