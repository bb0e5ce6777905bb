"""4-means length-reduction experiment: initial-center estimation from words
with a unique reducing move, cluster quality via the best-single-move fraction,
and the nearest-center reducer prediction rule."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .automorphisms import NIELSEN_MOVES, NielsenMove, reducing_moves
from .classifiers import kmeans
from .classifiers.serialize import SCHEMA_VERSION, read_array, to_json, write_array
from .datasets import LabeledWordSet
from .features import FeatureMap, feature_matrix, resolve_map
from .words import CyclicWord

# clustering_experiment's ways to choose the initial centers
INITS = ("random", "estimated")


class EmptyPureSet(ValueError):
    """Some Nielsen move has no word reduced by it alone in the sample."""


def _move_table(words: Sequence[CyclicWord]) -> np.ndarray:
    """Words x moves: True where the Nielsen move shortens the word."""
    return np.array([[m in moves for m in NIELSEN_MOVES]
                     for moves in map(reducing_moves, words)],
                    dtype=bool).reshape(-1, len(NIELSEN_MOVES))


@dataclass
class ClusterReport:
    """R(t, C) as a clusters x moves matrix, with the final 4-means centers.
    An empty cluster is a zero row: R_max 0 and move A_AB."""

    rates: np.ndarray            # clusters x moves, columns in NIELSEN_MOVES order
    centers: np.ndarray
    cluster_sizes: np.ndarray
    init_kind: str

    # The summaries read the rates as Python numbers.  Formatting numpy
    # scalars costs several times more, and a numpy call on a 4 x 4 array
    # costs tens of microseconds with cold CPU caches, as when perfbench's
    # cluster-moves writes its reports right after a calibration step.

    @property
    def r_max(self) -> List[float]:
        return [max(row) for row in self.rates.tolist()]

    @property
    def assignment(self) -> List[NielsenMove]:
        """Each cluster's best move; ties go to the earlier move."""
        return [NIELSEN_MOVES[row.index(max(row))] for row in self.rates.tolist()]

    @property
    def avg_r_max(self) -> float:
        r_max = self.r_max
        return sum(r_max) / len(r_max)

    def summary_csv(self) -> str:
        lines = [_SUMMARY_HEADER]
        r_max = self.r_max
        for i, (size, move, rates, r) in enumerate(zip(self.cluster_sizes.tolist(),
                                                      self.assignment, self.rates.tolist(),
                                                      r_max)):
            vals = ",".join(f"{v:.6f}" for v in (*rates, r))
            lines.append(f"{i},{size},{move.name},{vals}")
        for name, value in (("avg", self.avg_r_max), ("max", max(r_max)),
                            ("min", min(r_max))):
            lines.append(f"{name}_r_max,,,,,,,{value:.6f}")
        return "\n".join(lines) + "\n"


_SUMMARY_HEADER = ("cluster,size,move," + ",".join(f"R_{m.name}" for m in NIELSEN_MOVES)
                   + ",R_max")


def estimate_initial_centers(
    sample: Sequence[CyclicWord],
    fmap: FeatureMap,
) -> Dict[NielsenMove, np.ndarray]:
    """Per-move mean feature vector over the words reduced by that move alone."""
    table = _move_table(sample)
    pure = table & (table.sum(axis=1) == 1)[:, None]
    centers = {}
    for m, column in zip(NIELSEN_MOVES, pure.T):
        if not column.any():
            raise EmptyPureSet(f"no word is reduced only by {m.name}; enlarge the sample")
        centers[m] = feature_matrix([sample[i] for i in np.flatnonzero(column)],
                                    fmap).mean(axis=0)
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
    if init not in INITS:
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
    # integer counts: a bool @ bool product would be a logical OR
    member = np.eye(4, dtype=np.int64)[model.assignments]       # words x clusters
    sizes = member.sum(axis=0)
    counts = member.T @ _move_table(rest).astype(np.int64)      # clusters x moves
    return ClusterReport(counts / np.maximum(sizes, 1)[:, None], model.centers, sizes, init)


def predict_reducer(
    w: CyclicWord,
    centers: Dict[NielsenMove, np.ndarray],
    fmap: FeatureMap,
) -> NielsenMove:
    """Nearest-center Nielsen move, ties in move order; ValueError for a missing move."""
    x = feature_matrix([w], fmap)[0]
    try:
        return min(NIELSEN_MOVES, key=lambda m: np.linalg.norm(x - centers[m]))
    except KeyError as e:
        raise ValueError(f"centers missing move {e.args[0].name}") from e


# ---------------------------------------------------------------------------
# centers file round-trip (used by the CLI)
# ---------------------------------------------------------------------------

def centers_to_json(centers: Dict[NielsenMove, np.ndarray], fmap_name: str) -> str:
    return to_json({
        "schema_version": SCHEMA_VERSION,
        "feature_map": fmap_name,
        "centers": {m.name: write_array(centers[m]) for m in NIELSEN_MOVES},
    })


def centers_from_json(text: Union[str, bytes]) -> Tuple[Dict[NielsenMove, np.ndarray], str]:
    """Centers and feature-map name from a centers file, as text or bytes.
    Raises ValueError for text that is not JSON (an undecodable byte
    included) or is nested too deeply to parse, an unknown schema, a missing
    or unknown move, no feature map, or a center whose length is not the
    rank-2 feature map's dimension."""
    try:
        doc = json.loads(text)
    except RecursionError as e:
        raise ValueError("centers file is nested too deeply") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("centers"), dict):
        raise ValueError("a centers file is a JSON object with a centers object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("unsupported centers schema_version "
                         f"{doc.get('schema_version')!r}")
    if "feature_map" not in doc:
        raise ValueError("centers file lacks key 'feature_map'")
    fmap_name = str(doc["feature_map"])
    dim = resolve_map(fmap_name, 2).dim
    try:
        centers = {NielsenMove[name]: read_array(vals, (dim,), f"center {name} for {fmap_name}")
                   for name, vals in doc["centers"].items()}
    except KeyError as e:
        raise ValueError(f"unknown move {e}") from e
    except (TypeError, OverflowError) as e:
        raise ValueError(f"a center is not a list of numbers: {e}") from e
    for m in NIELSEN_MOVES:
        if m not in centers:
            raise ValueError(f"centers file missing move {m.name}")
    return centers, fmap_name


def report_centers_by_move(report: ClusterReport) -> Dict[NielsenMove, np.ndarray]:
    """Final cluster centers keyed by each cluster's assigned move.  If two
    clusters claim the same move the larger cluster wins, and of two equal
    ones the first."""
    assignment = report.assignment
    out: Dict[NielsenMove, np.ndarray] = {}
    for i in np.argsort(-report.cluster_sizes, kind="stable"):
        out.setdefault(assignment[i], report.centers[i])
    return out
