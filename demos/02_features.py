"""Subword-counting features.

Shows the built-in feature maps (letter frequencies f0, adjacent pairs f1,
gapped pairs f2..f4, the unions f5/f6, and the two-component fstar), raw
pattern counting, and the weighted labelled digraph of a word as pattern
counts.
"""

import numpy as np

from whitmin.features import (Pattern, builtin_map, count_pattern,
                              feature_vector, pattern_pool)
from whitmin.words import parse_codes, parse_cyclic_word


def main():
    w = parse_cyclic_word("abab", 2)

    # counting is cyclic: ab occurs twice in abab
    print(f"C({w}, ab) =", count_pattern(w, Pattern.from_word(parse_codes("ab"))))
    # a . U1 . a (a at offsets 0 and 2) matches at two start positions
    p = Pattern.pair(0, 1, 0)
    print(f"C({w}, {p.text()}) =", count_pattern(w, p))

    for name in ["f0", "f1", "f5", "f6", "fstar"]:
        fmap = builtin_map(name, 2)
        v = feature_vector(w, fmap)
        print(f"{name:5s} dim {fmap.dim:3d}  ||v||_1 = {np.abs(v).sum():.3f}")

    # fstar separates minimal from nonminimal rank-2 words surprisingly well
    star = builtin_map("fstar", 2)
    for text in ["abAB", "abab", "AbAb", "aabb"]:
        u = parse_cyclic_word(text, 2)
        print(f"  fstar({text}) = {feature_vector(u, star)}")

    # the digraph underlying the features: edges x -> y weighted by C(w, x v y),
    # for the labels v of at most one letter
    edges = {}
    for p in builtin_map("f1", 2).patterns + tuple(pattern_pool(2, 1, 1)):
        weight = count_pattern(w, p)
        if weight:
            edges[p.letters[0], p.letters[1:-1], p.letters[-1]] = weight
    print("\ndigraph edges of", w)
    for (x, label, y), weight in sorted(edges.items()):
        lab = "".join("aAbB"[c] for c in label) or "-"
        print(f"  {'aAbB'[x]} --{lab}--> {'aAbB'[y]}  weight {weight}")

    pool = pattern_pool(2, 1, 3)
    print(f"\nselection pool x1 v x2, |v| in 1..3: {len(pool)} patterns")


if __name__ == "__main__":
    main()
