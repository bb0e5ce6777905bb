"""4-means length-reduction experiment: initial-center estimation from words
with a unique reducing move, cluster quality via the best-single-move fraction,
and the nearest-center reducer prediction rule."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .automorphisms import NIELSEN_MOVES, NielsenMove, reducing_moves
from .classifiers import kmeans
from .datasets import LabeledWordSet
from .features import FeatureMap, feature_matrix, resolve_map
from .words import CyclicWord


class EmptyPureSet(ValueError):
    """Some Nielsen move has no word reduced by it alone in the sample."""

    def __init__(self, move: NielsenMove):
        super().__init__(f"no word is reduced only by {move.name}; enlarge the sample")
        self.move = move


@dataclass
class ClusterReport:
    """Per-cluster reduction rates and the cluster -> move assignment."""

    rates: List[Dict[NielsenMove, float]]       # R(t, C) per cluster
    r_max: List[float]
    assignment: List[NielsenMove]               # argmax move per cluster
    centers: np.ndarray
    cluster_sizes: List[int]
    init_kind: str

    @property
    def avg_r_max(self) -> float:
        return float(np.mean(self.r_max))

    @property
    def max_r_max(self) -> float:
        return float(np.max(self.r_max))

    @property
    def min_r_max(self) -> float:
        return float(np.min(self.r_max))

    def summary_csv(self) -> str:
        lines = ["cluster,size,move," +
                 ",".join(f"R_{m.name}" for m in NIELSEN_MOVES) + ",R_max"]
        for i, rates in enumerate(self.rates):
            vals = ",".join(f"{rates[m]:.6f}" for m in NIELSEN_MOVES)
            lines.append(f"{i},{self.cluster_sizes[i]},{self.assignment[i].name},"
                         f"{vals},{self.r_max[i]:.6f}")
        lines.append(f"avg_r_max,,,,,,,{self.avg_r_max:.6f}")
        lines.append(f"max_r_max,,,,,,,{self.max_r_max:.6f}")
        lines.append(f"min_r_max,,,,,,,{self.min_r_max:.6f}")
        return "\n".join(lines) + "\n"


def estimate_initial_centers(
    sample: Sequence[CyclicWord],
    fmap: FeatureMap,
) -> Dict[NielsenMove, np.ndarray]:
    """Per-move mean feature vector over the words reduced by that move alone."""
    pure: Dict[NielsenMove, List[CyclicWord]] = {m: [] for m in NIELSEN_MOVES}
    for w in sample:
        moves = reducing_moves(w)
        if len(moves) == 1:
            pure[moves[0]].append(w)
    centers = {}
    for m in NIELSEN_MOVES:
        if not pure[m]:
            raise EmptyPureSet(m)
        centers[m] = feature_matrix(pure[m], fmap).mean(axis=0)
    return centers


def clustering_experiment(
    data: LabeledWordSet,
    fmap: FeatureMap,
    init: str = "estimated",
    seed: int = 0,
    sample_fraction: float = 0.1,
) -> ClusterReport:
    """4-means on the feature vectors of a nonminimal word set.

    'estimated' init takes the per-move pure-set means over a disjoint sample
    (first ``sample_fraction`` of a seeded shuffle); 'random' picks 4 data
    points.  Both variants cluster the same remainder.
    """
    if init not in ("estimated", "random"):
        raise ValueError(f"unknown init {init!r}")
    words = data.words()
    if any(lbl != 2 for lbl in data.labels()):
        raise ValueError("clustering expects nonminimal words only")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(words))
    n_sample = max(1, int(len(words) * sample_fraction))
    sample = [words[i] for i in order[:n_sample]]
    rest = [words[i] for i in order[n_sample:]]
    if len(rest) < 4:
        raise ValueError("need at least 4 words to cluster")

    X = feature_matrix(rest, fmap)
    if init == "estimated":
        centers = estimate_initial_centers(sample, fmap)
        init_centers = np.vstack([centers[m] for m in NIELSEN_MOVES])
    else:
        idx = rng.choice(len(rest), size=4, replace=False)
        init_centers = X[idx]

    model = kmeans(X, init_centers)

    ground: List[List[NielsenMove]] = [reducing_moves(w) for w in rest]
    rates: List[Dict[NielsenMove, float]] = []
    r_max: List[float] = []
    assignment: List[NielsenMove] = []
    sizes: List[int] = []
    for c in range(4):
        members = [ground[i] for i in range(len(rest)) if model.assignments[i] == c]
        sizes.append(len(members))
        if not members:
            rates.append({m: 0.0 for m in NIELSEN_MOVES})
            r_max.append(0.0)
            assignment.append(NIELSEN_MOVES[0])
            continue
        rs = {m: sum(m in g for g in members) / len(members) for m in NIELSEN_MOVES}
        rates.append(rs)
        best = max(NIELSEN_MOVES, key=lambda m: (rs[m], -NIELSEN_MOVES.index(m)))
        r_max.append(max(rs.values()))
        assignment.append(best)
    return ClusterReport(rates, r_max, assignment, model.centers, sizes, init)


def predict_reducer(
    w: CyclicWord,
    centers: Dict[NielsenMove, np.ndarray],
    fmap: FeatureMap,
) -> NielsenMove:
    """Nearest-center Nielsen move; ties resolve in move order."""
    x = feature_matrix([w], fmap)[0]
    best = None
    for m in NIELSEN_MOVES:
        d = float(np.linalg.norm(x - centers[m]))
        if best is None or d < best[0]:
            best = (d, m)
    return best[1]


# ---------------------------------------------------------------------------
# centers file round-trip (used by the CLI)
# ---------------------------------------------------------------------------

def centers_to_json(centers: Dict[NielsenMove, np.ndarray], fmap_name: str) -> str:
    return json.dumps({
        "schema_version": 1,
        "feature_map": fmap_name,
        "centers": {m.name: list(map(float, centers[m])) for m in NIELSEN_MOVES},
    }, indent=2)


def centers_from_json(text: str) -> Tuple[Dict[NielsenMove, np.ndarray], str]:
    """Centers and feature-map name from a centers file.  Raises ValueError
    or KeyError for JSON nested too deeply to parse, an unknown schema, a
    missing or unknown move, or a center whose length is not the rank-2
    feature map's dimension."""
    try:
        doc = json.loads(text)
    except RecursionError as e:
        raise ValueError("centers file is nested too deeply") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("centers"), dict):
        raise ValueError("a centers file is a JSON object with a centers object")
    if doc.get("schema_version") != 1:
        raise ValueError("unsupported centers schema_version "
                         f"{doc.get('schema_version')!r}")
    try:
        centers = {NielsenMove[name]: np.array(vals, dtype=np.float64)
                   for name, vals in doc["centers"].items()}
    except (TypeError, OverflowError) as e:
        raise ValueError(f"a center is not a list of numbers: {e}") from e
    for m in NIELSEN_MOVES:
        if m not in centers:
            raise ValueError(f"centers file missing move {m.name}")
    fmap_name = str(doc.get("feature_map", "f2"))
    dim = resolve_map(fmap_name, 2).dim
    for m, c in centers.items():
        if c.shape != (dim,):
            raise ValueError(f"center {m.name} has shape {c.shape}, not ({dim},) "
                             f"for {fmap_name}")
    return centers, fmap_name


def report_centers_by_move(report: ClusterReport) -> Dict[NielsenMove, np.ndarray]:
    """Final cluster centers keyed by each cluster's assigned move.  If two
    clusters claim the same move the larger cluster wins."""
    out: Dict[NielsenMove, np.ndarray] = {}
    claimed: Dict[NielsenMove, int] = {}
    for i, m in enumerate(report.assignment):
        if m not in out or report.cluster_sizes[i] > claimed[m]:
            out[m] = report.centers[i]
            claimed[m] = report.cluster_sizes[i]
    return out
