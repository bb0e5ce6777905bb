"""Command-line workbench.

Subcommands: generate, train, evaluate, select-features, cluster, minimize,
predict-reducer.  Exit codes: 0 success, 1 usage error, 2 data error,
3 model error.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from typing import List, Optional

from .automorphisms import apply_automorphism, is_minimal, minimize
from .clustering import (INITS, centers_from_json, centers_to_json,
                         clustering_experiment, predict_reducer, report_centers_by_move)
from .datasets import KINDS, DatasetSpec, generate_records, load_tsv, save_tsv
from .features import resolve_map
from .pipeline import (MAX_BINS, METHODS, Pipeline, PipelineConfig, evaluate, featurize,
                       fit_model, greedy_feature_selection, pipeline_from_json, pipeline_to_json)
from .words import check_rank, cyclic_reduce, parse_codes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3

# --quantizer's names for the quantizer kinds
_QUANTIZERS = {"equal": "equal_interval", "prob": "equal_probability",
               "minerr": "min_error", "none": None}
_DEFAULT_QUANTIZER = next(name for name, kind in _QUANTIZERS.items()
                          if kind == PipelineConfig.quantizer_kind)


class _Exit(Exception):
    """Ends a command with the exit code args[0]; any error line is printed."""


class _Parser(argparse.ArgumentParser):
    # argparse ends --help and usage errors here; main returns the status
    def exit(self, status=0, message=None):
        if message:
            self._print_message(message, sys.stderr)
        raise _Exit(status)

    def error(self, message):
        self.exit(_fail(message, EXIT_USAGE))


def _fail(message: object, code: int) -> int:
    """Print one error line; returns the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _checked(code: int, fn, *args, prefix: str = "", **kwargs):
    """fn(*args, **kwargs), one stage of a command: a ValueError it raises
    ends the command with one error line and the stage's exit code."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        raise _Exit(_fail(f"{prefix}{e}", code)) from e


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="whitmin",
                description="Whitehead-minimality pattern-recognition workbench")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a labeled word dataset (TSV)")
    g.add_argument("--kind", required=True, choices=KINDS)
    g.add_argument("--rank", type=int, default=DatasetSpec.rank)
    g.add_argument("--max-len", type=int, default=DatasetSpec.max_length)
    g.add_argument("--per-len", type=int, default=DatasetSpec.per_length)
    g.add_argument("--size", type=int, default=DatasetSpec.size, help="SR/SP record count")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", required=True)

    t = sub.add_parser("train", help="train a pipeline on a dataset")
    t.add_argument("--features", default=PipelineConfig.feature_map,
                   help="f0..f6, fstar, or pool:<min>-<max>")
    t.add_argument("--model", default=PipelineConfig.method, choices=METHODS)
    t.add_argument("--quantizer", default=_DEFAULT_QUANTIZER, choices=_QUANTIZERS)
    t.add_argument("--bins", type=int, default=PipelineConfig.quantizer_bins)
    t.add_argument("--rank", type=int, default=DatasetSpec.rank)
    t.add_argument("--train", dest="train_file", required=True)
    t.add_argument("-o", "--output", required=True)

    e = sub.add_parser("evaluate", help="evaluate a trained pipeline")
    evaluation = inspect.signature(evaluate).parameters
    e.add_argument("--model", required=True)
    e.add_argument("--test", required=True)
    e.add_argument("--strata", default=",".join(map(str, evaluation["strata"].default)))
    e.add_argument("--hist-bins", type=int, default=evaluation["bins"].default)
    e.add_argument("--hist-out", help="write the score histogram CSV here")

    s = sub.add_parser("select-features", help="greedy forward feature selection")
    s.add_argument("--pool", default="1-3", help="middle length range, e.g. 1-3")
    s.add_argument("--train", dest="train_file", required=True)
    s.add_argument("--val", dest="val_file", required=True)
    s.add_argument("--rank", type=int, default=DatasetSpec.rank)
    s.add_argument("--max-features", type=int)

    c = sub.add_parser("cluster", help="4-means length-reduction experiment")
    experiment = inspect.signature(clustering_experiment).parameters
    c.add_argument("--features", default="f2")
    c.add_argument("--init", default=experiment["init"].default, choices=INITS)
    c.add_argument("--seed", type=int, default=experiment["seed"].default)
    c.add_argument("--data", required=True)
    c.add_argument("--centers-out", help="write cluster centers JSON here")

    m = sub.add_parser("minimize", help="minimize a single word")
    m.add_argument("--word", required=True)
    m.add_argument("--rank", type=int, default=DatasetSpec.rank)

    r = sub.add_parser("predict-reducer", help="predict a length-reducing move")
    r.add_argument("--word", required=True)
    r.add_argument("--centers", required=True)
    return p


def _cmd_generate(args) -> int:
    spec = _checked(EXIT_USAGE, DatasetSpec, args.kind, args.rank, args.max_len,
                    args.per_len, args.seed, args.size)
    count = save_tsv(generate_records(spec), args.output)
    print(f"wrote {count} records to {args.output}")
    return EXIT_OK


def _cmd_train(args) -> int:
    fmap = _checked(EXIT_USAGE, resolve_map, args.features, args.rank,
                    prefix=f"bad feature map {args.features!r}: ")
    cfg = _checked(EXIT_USAGE, PipelineConfig, args.features, args.model,
                   _QUANTIZERS[args.quantizer], args.bins)
    train = _checked(EXIT_DATA, load_tsv, args.train_file, args.rank)
    if not len(train):
        return _fail(f"{args.train_file}: empty training set", EXIT_DATA)
    model = _checked(EXIT_MODEL, lambda: fit_model(featurize(train, fmap), cfg))
    with open(args.output, "w") as fh:
        fh.write(pipeline_to_json(Pipeline(fmap, model, cfg)))
    print(f"trained {args.model} on {len(train)} records -> {args.output}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    strata = _checked(EXIT_USAGE, lambda: tuple(int(x) for x in args.strata.split(",")),
                      prefix=f"bad strata {args.strata!r}: ")
    if not 2 <= args.hist_bins <= MAX_BINS:
        return _fail(f"--hist-bins must be 2 to {MAX_BINS}, got {args.hist_bins}",
                     EXIT_USAGE)
    pipeline = _checked(EXIT_MODEL, pipeline_from_json, Path(args.model).read_bytes(),
                        prefix="bad model file: ")
    if args.hist_out and not hasattr(pipeline.model, "scores"):
        return _fail("--hist-out needs a model with scores; a tree has none", EXIT_USAGE)
    test = _checked(EXIT_DATA, load_tsv, args.test, pipeline.fmap.rank)
    report = _checked(EXIT_DATA, evaluate, pipeline, test, bins=args.hist_bins,
                      strata=strata, prefix=f"{args.test}: ")
    sys.stdout.write(report.strata_csv())
    if args.hist_out:
        with open(args.hist_out, "w") as fh:
            fh.write(report.histogram.csv())
        print(f"histogram -> {args.hist_out}")
    return EXIT_OK


def _cmd_select_features(args) -> int:
    if args.max_features is not None and args.max_features < 1:
        return _fail(f"--max-features must be >= 1, got {args.max_features}", EXIT_USAGE)
    pool = _checked(EXIT_USAGE, resolve_map, f"pool:{args.pool}", args.rank,
                    prefix=f"bad pool spec {args.pool!r}: ").patterns
    train = _checked(EXIT_DATA, load_tsv, args.train_file, args.rank)
    val = _checked(EXIT_DATA, load_tsv, args.val_file, args.rank)
    chosen = _checked(EXIT_DATA, greedy_feature_selection, pool, train, val,
                      max_features=args.max_features)
    for idx in chosen:
        print(f"{idx}\t{pool[idx].text()}")
    return EXIT_OK


def _cmd_cluster(args) -> int:
    if args.seed < 0:
        return _fail(f"--seed must be >= 0, got {args.seed}", EXIT_USAGE)
    fmap = _checked(EXIT_USAGE, resolve_map, args.features, 2,
                    prefix=f"bad feature map {args.features!r}: ")
    data = _checked(EXIT_DATA, load_tsv, args.data, 2)
    nonmin = data.subset(data.labels() == 2)
    report = _checked(EXIT_DATA, clustering_experiment, nonmin, fmap, init=args.init,
                      seed=args.seed)
    sys.stdout.write(report.summary_csv())
    if args.centers_out:
        centers = report_centers_by_move(report)
        if len(centers) < 4:
            return _fail("fewer than 4 distinct move assignments; "
                         "centers file not written", EXIT_DATA)
        with open(args.centers_out, "w") as fh:
            fh.write(centers_to_json(centers, fmap.name))
        print(f"centers -> {args.centers_out}")
    return EXIT_OK


def _cmd_minimize(args) -> int:
    w = _checked(EXIT_DATA, lambda: cyclic_reduce(parse_codes(args.word), args.rank))
    m, chain = minimize(w)
    print(f"minimal: {m if len(m) else '(identity)'}")
    print(f"length: {len(w)} -> {len(m)} in {len(chain)} moves")
    return EXIT_OK


def _cmd_predict_reducer(args) -> int:
    centers, fmap_name = _checked(EXIT_MODEL, centers_from_json,
                                  Path(args.centers).read_bytes(),
                                  prefix="bad centers file: ")
    w = _checked(EXIT_DATA, lambda: cyclic_reduce(parse_codes(args.word), 2))
    if is_minimal(w):
        print("word is already minimal")
        return EXIT_OK
    move = predict_reducer(w, centers, resolve_map(fmap_name, 2))
    img = apply_automorphism(move.automorphism, w)
    print(f"predicted move: {move.name} ({move.value})")
    print(f"image: {img}  (length {len(w)} -> {len(img)})")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "select-features": _cmd_select_features,
    "cluster": _cmd_cluster,
    "minimize": _cmd_minimize,
    "predict-reducer": _cmd_predict_reducer,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand; returns its exit code, argparse's included."""
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "rank"):
            _checked(EXIT_USAGE, check_rank, args.rank)
        return _COMMANDS[args.command](args)
    except _Exit as e:
        return e.args[0]
    except OSError as e:
        return _fail(e, EXIT_DATA)


if __name__ == "__main__":
    sys.exit(main())
