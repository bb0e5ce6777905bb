"""Training and evaluation pipelines: feature extraction + classifier +
quantizer, stratified accuracy reports, score histograms, and greedy forward
feature selection."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .classifiers import (LINEAR_METHODS, QUANTIZER_KINDS, LabeledSet, build_quantizer,
                          fit_distance, fit_linear, fit_tree, threshold_labels)
from .classifiers.base import _column_thresholds
from .classifiers.serialize import (ModelFormatError, _read_scalar, model_from_dict,
                                   model_to_dict, to_json)
from .datasets import LabeledWordSet
from .features import FeatureMap, Pattern, feature_matrix, resolve_map
from .numerics import least_squares

# Every pipeline method, in the order `whitmin train --model` lists them.
METHODS = LINEAR_METHODS + ("tree", "distance")
# Most quantizer or histogram bins: more bins than scores separate nothing.
# A histogram, equal-interval or equal-probability bin costs tens of bytes;
# min-error bins have their own memory bound, quantize.MIN_ERROR_CELLS.
MAX_BINS = 100_000
# Greedy selection stops when the best candidate raises validation accuracy
# by less than this.
MIN_IMPROVEMENT = 0.001
# Most float64 cells greedy selection stacks at once (32 MiB): the candidates
# of a step are scored in chunks of this many stacked cells.
STACK_CELLS = 1 << 22


@dataclass(frozen=True)
class PipelineConfig:
    feature_map: str = "f6"
    method: str = "regression"          # one of METHODS
    quantizer_kind: Optional[str] = "equal_interval"   # one of QUANTIZER_KINDS, or None
    quantizer_bins: int = 100

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.quantizer_kind not in QUANTIZER_KINDS + (None,):
            raise ValueError(f"unknown quantizer kind {self.quantizer_kind!r}")
        if (self.method in LINEAR_METHODS and self.quantizer_kind
                and not 2 <= self.quantizer_bins <= MAX_BINS):
            raise ValueError(f"a quantizer needs 2 to {MAX_BINS} bins, "
                             f"got {self.quantizer_bins}")


@dataclass
class Pipeline:
    """Feature map + fitted model (+ quantizer for scalar-score models)."""

    fmap: FeatureMap
    model: object
    config: PipelineConfig


def featurize(data: LabeledWordSet, fmap: FeatureMap) -> LabeledSet:
    """A nonempty word set's rows under fmap and its labels, as fit_model and
    model.predict read them: featurize a set once to compare methods on it."""
    return LabeledSet(feature_matrix(data.words(), fmap), data.labels())


def fit_model(data: LabeledSet, cfg: PipelineConfig):
    """cfg's classifier fitted on data, quantized if cfg names a quantizer."""
    if cfg.method not in LINEAR_METHODS:
        return fit_distance(data) if cfg.method == "distance" else fit_tree(data)
    model = fit_linear(data, cfg.method)
    if cfg.quantizer_kind:
        model = dataclasses.replace(model, quantizer=build_quantizer(
            model.scores(data.features), data.labels, cfg.quantizer_bins, cfg.quantizer_kind))
    return model


def train_pipeline(train: LabeledWordSet, cfg: PipelineConfig) -> Pipeline:
    """Featurize the training set under cfg's map at its rank, then fit."""
    if len(train) == 0:
        raise ValueError("empty training set")
    fmap = resolve_map(cfg.feature_map, train.rank)
    return Pipeline(fmap, fit_model(featurize(train, fmap), cfg), cfg)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvaluationReport:
    strata: Dict[int, Tuple[int, Optional[float]]]   # min_len -> (n, accuracy)
    confusion: np.ndarray                            # 2x2, [true-1][pred-1]
    histogram: Optional["ScoreHistogram"] = None

    def accuracy(self, min_len: int = 0) -> Optional[float]:
        return self.strata[min_len][1]

    def strata_csv(self) -> str:
        lines = ["stratum,n,accuracy"]
        for lo, (n, acc) in sorted(self.strata.items()):
            lines.append(f"|w|>{lo},{n},{'' if acc is None else f'{acc:.6f}'}")
        return "\n".join(lines) + "\n"


@dataclass
class ScoreHistogram:
    bin_centers: np.ndarray
    counts_class1: np.ndarray
    counts_class2: np.ndarray

    def overlap_fraction(self) -> float:
        """Mass shared between the two class distributions."""
        total = self.counts_class1.sum() + self.counts_class2.sum()
        return float(np.minimum(self.counts_class1, self.counts_class2).sum() * 2 / total)

    def csv(self) -> str:
        lines = ["bin_center,count_class1,count_class2"]
        for c, a, b in zip(self.bin_centers, self.counts_class1, self.counts_class2):
            lines.append(f"{c!r},{int(a)},{int(b)}")
        return "\n".join(lines) + "\n"


def score_histogram(scores: np.ndarray, labels: np.ndarray, bins: int) -> ScoreHistogram:
    """Class-conditional equal-width binned counts of the discriminant scores
    of words with these labels."""
    if not 2 <= bins <= MAX_BINS:
        raise ValueError(f"need 2 to {MAX_BINS} bins, got {bins}")
    lo, hi = float(scores.min()), float(scores.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    c1, _ = np.histogram(scores[labels == 1], bins=edges)
    c2, _ = np.histogram(scores[labels == 2], bins=edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return ScoreHistogram(centers, c1, c2)


def evaluate(
    pipeline: Pipeline,
    test: LabeledWordSet,
    bins: int = 50,
    strata: Sequence[int] = (0, 4, 100),
) -> EvaluationReport:
    if not len(test):
        raise ValueError("empty test set")
    data = featurize(test, pipeline.fmap)
    X, y = data.features, data.labels
    preds = pipeline.model.predict(X)
    lengths = test.lengths()
    report_strata: Dict[int, Tuple[int, Optional[float]]] = {}
    for lo in strata:
        mask = lengths > lo
        n = int(mask.sum())
        acc = float((preds[mask] == y[mask]).mean()) if n else None
        report_strata[lo] = (n, acc)
    confusion = np.bincount((y - 1) * 2 + preds - 1, minlength=4).reshape(2, 2)
    hist = None
    if hasattr(pipeline.model, "scores"):
        hist = score_histogram(pipeline.model.scores(X), y, bins)
    return EvaluationReport(report_strata, confusion, hist)


# ---------------------------------------------------------------------------
# greedy forward feature selection
# ---------------------------------------------------------------------------

def greedy_feature_selection(
    pool: Sequence[Pattern],
    train: LabeledWordSet,
    validation: LabeledWordSet,
    max_features: Optional[int] = None,
) -> List[int]:
    """Forward selection of pool patterns (at the training set's rank) for the
    regression classifier.

    Starts empty and repeatedly adds the pattern maximizing validation
    accuracy of the retrained pipeline (the first such pattern on a tie);
    stops when the best improvement drops below MIN_IMPROVEMENT or the pool is
    exhausted.  Returns the selected pool indices in acceptance order.  Raises
    ValueError for a max_features below 1, and before counting anything when
    the |pool| x (|train| + |validation|) feature matrix would exceed
    features.MAX_SELECTION_CELLS.
    """
    if max_features is not None and max_features < 1:
        raise ValueError(f"max_features must be at least 1, got {max_features}")
    if not pool:
        raise ValueError("empty pattern pool")
    if not len(train):
        raise ValueError("empty training set")
    if not len(validation):
        raise ValueError("empty validation set")
    X = feature_matrix(train.words() + validation.words(),
                       FeatureMap("pool", tuple(pool), train.rank))
    Xtr, Xva = X[:len(train)], X[len(train):]
    ytr = train.labels()
    yva = validation.labels()

    selected: List[int] = []
    best_acc = 0.0
    limit = min(max_features or len(pool), len(pool))
    while len(selected) < limit:
        rest = [j for j in range(len(pool)) if j not in selected]
        cols = np.array([selected + [j] for j in rest])
        step = max(1, STACK_CELLS // (X.shape[0] * cols.shape[1]))
        acc = np.concatenate([_accuracies(Xtr, ytr, Xva, yva, cols[i:i + step])
                              for i in range(0, len(rest), step)])
        k = int(np.argmax(acc))
        if acc[k] < best_acc + MIN_IMPROVEMENT:
            break
        best_acc = float(acc[k])
        selected.append(rest[k])
    return selected


def _accuracies(Xtr: np.ndarray, ytr: np.ndarray, Xva: np.ndarray, yva: np.ndarray,
                cols: np.ndarray) -> np.ndarray:
    """Validation accuracy of the regression classifier on the pool columns
    of each row of cols (c, m).  Each candidate's matrix in the stack has the
    column-major layout of Xtr[:, cols[k]], so its BLAS and LAPACK calls, and
    its bits, are those of a fit of that candidate alone."""
    A = np.swapaxes(Xtr.T[cols], 1, 2)
    v = least_squares(A, (ytr == 2).astype(np.float64))[..., None]
    theta, orient, _ = _column_thresholds((A @ v)[..., 0].T, ytr)
    scores = (np.swapaxes(Xva.T[cols], 1, 2) @ v)[..., 0].T
    return (threshold_labels(scores, theta, orient) == yva[:, None]).mean(axis=0)


# ---------------------------------------------------------------------------
# pipeline serialization
# ---------------------------------------------------------------------------

def pipeline_to_json(pipeline: Pipeline) -> str:
    doc = model_to_dict(pipeline.model, pipeline.fmap.name)
    # threshold_override and seed are kept in the layout of the format's first
    # version: nothing sets either any more, and a loader rejects the former
    doc["config"] = {**dataclasses.asdict(pipeline.config), "threshold_override": None,
                     "rank": pipeline.fmap.rank, "seed": 0}
    return to_json(doc)


def pipeline_from_json(text: Union[str, bytes]) -> Pipeline:
    """The pipeline a JSON document describes.  Raises ModelFormatError when
    the document is not JSON (an undecodable byte included), its config lacks
    a key or is invalid, or its model does not fit its feature map or config."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ModelFormatError(str(e)) from e
    try:
        c = doc["config"]
        cfg = PipelineConfig(c["feature_map"], c["method"], c["quantizer_kind"],
                             _read_scalar(c["quantizer_bins"], int, "quantizer_bins"))
        if c["threshold_override"] is not None:
            raise ValueError("a threshold_override is not supported")
        fmap = resolve_map(cfg.feature_map, _read_scalar(c["rank"], int, "rank"))
    except KeyError as e:
        raise ModelFormatError(f"pipeline file lacks key {e}") from e
    except (AttributeError, TypeError, ValueError) as e:
        raise ModelFormatError(f"bad pipeline config: {e}") from e
    model = model_from_dict(doc, fmap.dim)
    if cfg.method != doc["method"]:
        raise ModelFormatError(f"config method {cfg.method!r} does not match "
                               f"the {doc['method']!r} model")
    if cfg.feature_map != doc.get("feature_map"):
        raise ModelFormatError(f"config feature map {cfg.feature_map!r} does not "
                               f"match the model's {doc.get('feature_map')!r}")
    if cfg.method in LINEAR_METHODS:
        kind = model.quantizer.kind if model.quantizer else None
        if kind != cfg.quantizer_kind:
            raise ModelFormatError(f"config quantizer kind {cfg.quantizer_kind!r} does not "
                                   f"match the model's {kind!r}")
    return Pipeline(fmap, model, cfg)
