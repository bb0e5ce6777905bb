"""The four benchmark workloads.

Each workload has three parts:
  setup(seed)          builds the inputs; timed as set-up, not as work
  run(inputs, out_dir) one iteration of the timed phase, as a generator: it
                       yields a phase name at the end of each step and
                       returns an Outcome; the runner times every step
  check(inputs, out)   correctness checks that do not trust whitmin; returns
                       (errors, values)

Every iteration of a run works on the same inputs, so every iteration must
produce the same artifacts.  Sizes are fixed: changing one changes what the
benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Generator, List, Tuple, Union

# whitmin functions are called through their modules, so that the tracer's
# wrappers, installed on the modules, see every call the benchmark makes.
from whitmin import clustering, datasets, features, pipeline
from whitmin.datasets import DatasetSpec, LabeledWordSet
from whitmin.pipeline import PipelineConfig

import oracle

# paper-d-se: the paper's D/Se recipe (one word set per length 1..max_length),
# scaled down from max_length 1000 so that one run holds several iterations.
PAPER = dict(max_length=250, per_length=2)
# fit-methods: labelled sets built in set-up; fits dominate the timed phase.
FIT = dict(max_length=100, per_length=3)
# (method, quantizer kind, bins): the four fit methods and the three
# quantizer kinds; min_error's DP is O(bins * n^2), so it gets few bins.
FIT_PIPELINES = (
    ("regression", "equal_interval", 100),
    ("fisher", "equal_probability", 100),
    ("regression", "min_error", 8),
    ("distance", None, 100),
    ("tree", None, 100),
)
SELECT_MAX_FEATURES = 3
# cluster-moves: nonminimal D words of length >= CLUSTER_MIN_LENGTH; three in
# four are clustered, the fourth is held out for the reducer predictions.
# Shorter words, or a smaller pure-set sample, leave some Nielsen move without
# a word reduced by it alone on some seeds (EmptyPureSet).
CLUSTER = dict(max_length=200, per_length=4)
CLUSTER_MIN_LENGTH = 40
CLUSTER_SAMPLE_FRACTION = 0.4
# rank3-labels: short rank-3 words, so per-call cost dominates.
RANK3_SR = dict(max_length=100, size=200)
RANK3_SP = dict(size=400)
# Every ORACLE_STRIDE-th generated record has its label re-derived.
ORACLE_STRIDE = 4


@dataclass
class Outcome:
    # artifact name -> its text, or the file the program wrote it to
    artifacts: Dict[str, Union[str, Path]]
    ops: int                          # operations attempted in the iteration
    counts: Dict[str, int] = field(default_factory=dict)
    values: Dict[str, float] = field(default_factory=dict)
    keep: tuple = ()                  # objects the checks inspect


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], object]
    run: Callable[[object, Path], Generator[str, None, Outcome]]
    check: Callable[[object, Outcome], Tuple[List[str], Dict[str, float]]]


def _label_errors(name: str, ds: LabeledWordSet) -> List[str]:
    errors = []
    for i in range(0, len(ds), ORACLE_STRIDE):
        r = ds.records[i]
        if (r.label == "min") != oracle.is_minimal(r.word.letters, ds.rank):
            errors.append(f"{name} record {i}: label {r.label} is wrong")
    return errors


def _report_errors(name: str, rep, n: int) -> List[str]:
    errors = []
    if int(rep.confusion.sum()) != n:
        errors.append(f"{name}: confusion matrix counts {rep.confusion.sum()} of {n} words")
    elif abs(rep.accuracy(0) - float(rep.confusion.trace()) / n) > 1e-12:
        errors.append(f"{name}: accuracy disagrees with the confusion matrix")
    if not rep.accuracy(0) > 0.5:
        errors.append(f"{name}: accuracy {rep.accuracy(0)} is no better than chance")
    return errors


# ---------------------------------------------------------------------------
# paper-d-se
# ---------------------------------------------------------------------------

def paper_setup(seed: int):
    return (DatasetSpec("D", 2, seed=seed, **PAPER),
            DatasetSpec("Se", 2, seed=seed, **PAPER))


def paper_run(specs, out_dir: Path):
    d_set = datasets.generate_dataset(specs[0])
    yield "gen"
    se_set = datasets.generate_dataset(specs[1])
    yield "gen"
    d_path, se_path = out_dir / "D.tsv", out_dir / "Se.tsv"
    datasets.save_tsv(d_set, str(d_path))
    datasets.save_tsv(se_set, str(se_path))
    train = datasets.load_tsv(str(d_path))
    test = datasets.load_tsv(str(se_path))
    yield "io"
    model = pipeline.train_pipeline(train, PipelineConfig())
    yield "train"
    rep = pipeline.evaluate(model, test, bins=50)
    yield "classify"
    generated = len(d_set) + len(se_set)
    return Outcome(
        artifacts={"D.tsv": d_path, "Se.tsv": se_path,
                   "model.json": pipeline.pipeline_to_json(model),
                   "strata.csv": rep.strata_csv(), "histogram.csv": rep.histogram.csv()},
        ops=generated + len(test) + 1,
        counts={"gen_words": generated, "classify_words": len(test)},
        values={"accuracy": rep.accuracy(0), "accuracy_long": rep.accuracy(100)},
        keep=(d_set, se_set, train, test, rep),
    )


def paper_check(specs, out: Outcome):
    d_set, se_set, train, test, rep = out.keep
    errors = []
    if train.records != d_set.records or test.records != se_set.records:
        errors.append("TSV round trip changed the records")
    errors += _label_errors("D", d_set) + _label_errors("Se", se_set)
    errors += _report_errors("regression", rep, len(test))
    return errors, {}


# ---------------------------------------------------------------------------
# fit-methods
# ---------------------------------------------------------------------------

def fit_setup(seed: int):
    return (datasets.generate_dataset(DatasetSpec("D", 2, seed=seed, **FIT)),
            datasets.generate_dataset(DatasetSpec("Se", 2, seed=seed, **FIT)),
            features.pattern_pool(2, 1, 1))


def fit_run(inputs, out_dir: Path):
    train, test, pool = inputs
    artifacts: Dict[str, Union[str, Path]] = {}
    reports = []
    for method, qkind, bins in FIT_PIPELINES:
        cfg = PipelineConfig(method=method, quantizer_kind=qkind, quantizer_bins=bins)
        model = pipeline.train_pipeline(train, cfg)
        yield "train"
        rep = pipeline.evaluate(model, test)
        yield "classify"
        name = f"{method}-{qkind or 'none'}"
        artifacts[f"{name}.json"] = pipeline.pipeline_to_json(model)
        artifacts[f"{name}.strata.csv"] = rep.strata_csv()
        if rep.histogram is not None:
            artifacts[f"{name}.histogram.csv"] = rep.histogram.csv()
        reports.append((name, rep))
    selected = pipeline.greedy_feature_selection(pool, train, test,
                                                 max_features=SELECT_MAX_FEATURES)
    yield "select"
    artifacts["selection.txt"] = ",".join(map(str, selected))
    n = len(FIT_PIPELINES)
    return Outcome(
        artifacts=artifacts,
        ops=n + n * len(test) + 1,
        counts={"classify_words": n * len(test)},
        values={"accuracy": min(r.accuracy(0) for _, r in reports),
                "accuracy_long": min(r.accuracy(100) for _, r in reports)},
        keep=tuple(reports),
    )


def fit_check(inputs, out: Outcome):
    test = inputs[1]
    errors = []
    for name, rep in out.keep:
        errors += _report_errors(name, rep, len(test))
        text = out.artifacts[f"{name}.json"]
        if pipeline.pipeline_to_json(pipeline.pipeline_from_json(text)) != text:
            errors.append(f"{name}.json does not survive a JSON round trip")
    return errors, {}


# ---------------------------------------------------------------------------
# cluster-moves
# ---------------------------------------------------------------------------

def cluster_setup(seed: int):
    ds = datasets.generate_dataset(DatasetSpec("D", 2, seed=seed, **CLUSTER))
    nonmin = [r for r in ds.records if r.label == "nonmin" and len(r.word) >= CLUSTER_MIN_LENGTH]
    clustered = [r for i, r in enumerate(nonmin) if i % 4 != 3]
    held_out = [r.word for i, r in enumerate(nonmin) if i % 4 == 3]
    return seed, LabeledWordSet(clustered, 2), held_out, features.builtin_map("f2", 2)


def cluster_run(inputs, out_dir: Path):
    seed, words, held_out, fmap = inputs
    est = clustering.clustering_experiment(words, fmap, init="estimated", seed=seed,
                                           sample_fraction=CLUSTER_SAMPLE_FRACTION)
    yield "cluster"
    rnd = clustering.clustering_experiment(words, fmap, init="random", seed=seed,
                                           sample_fraction=CLUSTER_SAMPLE_FRACTION)
    yield "cluster"
    centers = clustering.report_centers_by_move(est)
    moves = [clustering.predict_reducer(w, centers, fmap) for w in held_out]
    yield "cluster"
    return Outcome(
        artifacts={"estimated.csv": est.summary_csv(), "random.csv": rnd.summary_csv(),
                   "reducers.txt": ",".join(m.name for m in moves)},
        ops=2 + len(held_out),
        values={"avg_r_max": est.avg_r_max},
        keep=(est, rnd, moves),
    )


def cluster_check(inputs, out: Outcome):
    _, words, held_out, _ = inputs
    est, rnd, moves = out.keep
    errors = []
    for rep in (est, rnd):
        clustered = sum(rep.cluster_sizes)
        if not 0 < clustered < len(words):
            errors.append(f"{rep.init_kind}: clustered {clustered} of {len(words)} words")
        if not 0.0 < rep.avg_r_max <= 1.0:
            errors.append(f"{rep.init_kind}: avg_r_max {rep.avg_r_max} out of range")
    hits = sum(oracle.shortens(m.value, w.letters) for m, w in zip(moves, held_out))
    return errors, {"reducer_hit_rate": hits / len(held_out)}


# ---------------------------------------------------------------------------
# rank3-labels
# ---------------------------------------------------------------------------

def rank3_setup(seed: int):
    return (DatasetSpec("SR", 3, seed=seed, **RANK3_SR),
            DatasetSpec("SP", 3, seed=seed, **RANK3_SP))


def rank3_run(specs, out_dir: Path):
    sr = datasets.generate_dataset(specs[0])
    yield "gen"
    sp = datasets.generate_dataset(specs[1])
    yield "gen"
    sr_path, sp_path = out_dir / "SR.tsv", out_dir / "SP.tsv"
    datasets.save_tsv(sr, str(sr_path))
    datasets.save_tsv(sp, str(sp_path))
    generated = len(sr) + len(sp)
    return Outcome(
        artifacts={"SR.tsv": sr_path, "SP.tsv": sp_path},
        ops=generated,
        counts={"gen_words": generated},
        keep=(sr, sp),
    )


def rank3_check(specs, out: Outcome):
    sr, sp = out.keep
    errors = _label_errors("SR", sr) + _label_errors("SP", sp)
    # a primitive element is minimal exactly when it is a single letter
    for i, r in enumerate(sp.records):
        if (r.label == "min") != (len(r.word) == 1):
            errors.append(f"SP record {i}: primitive of length {len(r.word)} labelled {r.label}")
    return errors, {}


WORKLOADS: Dict[str, Workload] = {
    "paper-d-se": Workload(paper_setup, paper_run, paper_check),
    "fit-methods": Workload(fit_setup, fit_run, fit_check),
    "cluster-moves": Workload(cluster_setup, cluster_run, cluster_check),
    "rank3-labels": Workload(rank3_setup, rank3_run, rank3_check),
}
