"""Command-line workbench.

Subcommands: generate, train, evaluate, select-features, cluster, minimize,
predict-reducer.  Exit codes: 0 success, 1 usage error, 2 data error,
3 model error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .automorphisms import apply_automorphism, is_minimal, minimize
from .classifiers import ModelFormatError
from .clustering import (EmptyPureSet, centers_from_json, centers_to_json,
                         clustering_experiment, predict_reducer, report_centers_by_move)
from .datasets import DataFormatError, DatasetSpec, generate_dataset, load_tsv, save_tsv
from .features import pattern_pool, resolve_map
from .pipeline import (MAX_BINS, PipelineConfig, evaluate, greedy_feature_selection,
                       pipeline_from_json, pipeline_to_json, train_pipeline)
from .words import check_rank, cyclic_reduce, parse_codes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(message, EXIT_USAGE))


def _fail(message: object, code: int) -> int:
    """Print one error line; returns the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="whitmin",
                description="Whitehead-minimality pattern-recognition workbench")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a labeled word dataset (TSV)")
    g.add_argument("--kind", required=True, choices=["D", "Se", "SR", "SP", "S10"])
    g.add_argument("--rank", type=int, default=2)
    g.add_argument("--max-len", type=int, default=1000)
    g.add_argument("--per-len", type=int, default=10)
    g.add_argument("--size", type=int, default=5000, help="SR/SP record count")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", required=True)

    t = sub.add_parser("train", help="train a pipeline on a dataset")
    t.add_argument("--features", default="f6",
                   help="f0..f6, fstar, or pool:<min>-<max>")
    t.add_argument("--model", default="regression",
                   choices=["regression", "fisher", "svm", "tree", "distance"])
    t.add_argument("--quantizer", default="equal",
                   choices=["equal", "prob", "minerr", "none"])
    t.add_argument("--bins", type=int, default=100)
    t.add_argument("--rank", type=int, default=2)
    t.add_argument("--train", dest="train_file", required=True)
    t.add_argument("-o", "--output", required=True)

    e = sub.add_parser("evaluate", help="evaluate a trained pipeline")
    e.add_argument("--model", required=True)
    e.add_argument("--test", required=True)
    e.add_argument("--strata", default="0,4,100")
    e.add_argument("--hist-bins", type=int, default=50)
    e.add_argument("--hist-out", help="write the score histogram CSV here")

    s = sub.add_parser("select-features", help="greedy forward feature selection")
    s.add_argument("--pool", default="1-3", help="middle length range, e.g. 1-3")
    s.add_argument("--train", dest="train_file", required=True)
    s.add_argument("--val", dest="val_file", required=True)
    s.add_argument("--rank", type=int, default=2)
    s.add_argument("--max-features", type=int, default=None)

    c = sub.add_parser("cluster", help="4-means length-reduction experiment")
    c.add_argument("--features", default="f2")
    c.add_argument("--init", default="estimated", choices=["random", "estimated"])
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--data", required=True)
    c.add_argument("--centers-out", help="write cluster centers JSON here")

    m = sub.add_parser("minimize", help="minimize a single word")
    m.add_argument("--word", required=True)
    m.add_argument("--rank", type=int, default=2)

    r = sub.add_parser("predict-reducer", help="predict a length-reducing move")
    r.add_argument("--word", required=True)
    r.add_argument("--centers", required=True)
    return p


def _load_dataset(path: str, rank: int):
    try:
        return load_tsv(path, rank)
    except (OSError, DataFormatError) as e:
        raise SystemExit(_fail(e, EXIT_DATA))


def _cmd_generate(args) -> int:
    try:
        spec = DatasetSpec(kind=args.kind, rank=args.rank, max_length=args.max_len,
                           per_length=args.per_len, seed=args.seed, size=args.size)
    except ValueError as e:
        return _fail(e, EXIT_USAGE)
    ds = generate_dataset(spec)
    save_tsv(ds, args.output)
    print(f"wrote {len(ds)} records to {args.output}")
    return EXIT_OK


def _cmd_train(args) -> int:
    kinds = {"equal": "equal_interval", "prob": "equal_probability",
             "minerr": "min_error", "none": None}
    try:
        resolve_map(args.features, args.rank)
    except ValueError as e:
        return _fail(f"bad feature map {args.features!r}: {e}", EXIT_USAGE)
    try:
        cfg = PipelineConfig(feature_map=args.features, method=args.model,
                             quantizer_kind=kinds[args.quantizer],
                             quantizer_bins=args.bins)
    except ValueError as e:
        return _fail(e, EXIT_USAGE)
    train = _load_dataset(args.train_file, args.rank)
    try:
        pipeline = train_pipeline(train, cfg)
    except ValueError as e:
        return _fail(e, EXIT_MODEL)
    with open(args.output, "w") as fh:
        fh.write(pipeline_to_json(pipeline))
    print(f"trained {args.model} on {len(train)} records -> {args.output}")
    return EXIT_OK


def _load_pipeline(path: str):
    try:
        with open(path) as fh:
            return pipeline_from_json(fh.read())
    except OSError as e:
        raise SystemExit(_fail(e, EXIT_DATA))
    except ModelFormatError as e:
        raise SystemExit(_fail(f"bad model file: {e}", EXIT_MODEL))


def _cmd_evaluate(args) -> int:
    pipeline = _load_pipeline(args.model)
    test = _load_dataset(args.test, pipeline.fmap.rank)
    try:
        strata = tuple(int(x) for x in args.strata.split(","))
    except ValueError:
        return _fail(f"bad strata {args.strata!r}", EXIT_USAGE)
    if not 2 <= args.hist_bins <= MAX_BINS:
        return _fail(f"--hist-bins must be 2 to {MAX_BINS}, got {args.hist_bins}",
                     EXIT_USAGE)
    try:
        report = evaluate(pipeline, test, bins=args.hist_bins, strata=strata)
    except ValueError as e:
        return _fail(f"{args.test}: {e}", EXIT_DATA)
    sys.stdout.write(report.strata_csv())
    if args.hist_out and report.histogram is not None:
        with open(args.hist_out, "w") as fh:
            fh.write(report.histogram.csv())
        print(f"histogram -> {args.hist_out}")
    return EXIT_OK


def _cmd_select_features(args) -> int:
    try:
        lo, _, hi = args.pool.partition("-")
        pool = pattern_pool(args.rank, int(lo), int(hi))
    except ValueError as e:
        return _fail(f"bad pool spec {args.pool!r}: {e}", EXIT_USAGE)
    train = _load_dataset(args.train_file, args.rank)
    val = _load_dataset(args.val_file, args.rank)
    try:
        chosen = greedy_feature_selection(pool, train, val,
                                          max_features=args.max_features)
    except ValueError as e:
        return _fail(e, EXIT_DATA)
    for idx in chosen:
        print(f"{idx}\t{pool[idx].text()}")
    return EXIT_OK


def _cmd_cluster(args) -> int:
    if args.seed < 0:
        return _fail(f"--seed must be >= 0, got {args.seed}", EXIT_USAGE)
    try:
        fmap = resolve_map(args.features, 2)
    except ValueError as e:
        return _fail(f"bad feature map {args.features!r}: {e}", EXIT_USAGE)
    data = _load_dataset(args.data, 2)
    nonmin = data.subset(data.labels() == 2)
    try:
        report = clustering_experiment(nonmin, fmap, init=args.init, seed=args.seed)
    except (EmptyPureSet, ValueError) as e:
        return _fail(e, EXIT_DATA)
    sys.stdout.write(report.summary_csv())
    if args.centers_out:
        centers = report_centers_by_move(report)
        if len(centers) < 4:
            print("warning: fewer than 4 distinct move assignments; "
                  "centers file not written", file=sys.stderr)
        else:
            with open(args.centers_out, "w") as fh:
                fh.write(centers_to_json(centers, fmap.name))
            print(f"centers -> {args.centers_out}")
    return EXIT_OK


def _parse_cli_word(text: str, rank: int):
    try:
        return cyclic_reduce(parse_codes(text), rank)
    except ValueError as e:
        raise SystemExit(_fail(e, EXIT_DATA))


def _cmd_minimize(args) -> int:
    w = _parse_cli_word(args.word, args.rank)
    m, chain = minimize(w)
    print(f"minimal: {m if len(m) else '(identity)'}")
    print(f"length: {len(w)} -> {len(m)} in {len(chain)} moves")
    return EXIT_OK


def _cmd_predict_reducer(args) -> int:
    try:
        with open(args.centers) as fh:
            centers, fmap_name = centers_from_json(fh.read())
    except OSError as e:
        return _fail(e, EXIT_DATA)
    except (ValueError, KeyError, TypeError) as e:
        return _fail(f"bad centers file: {e}", EXIT_MODEL)
    w = _parse_cli_word(args.word, 2)
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
    args = build_parser().parse_args(argv)
    if hasattr(args, "rank"):
        try:
            check_rank(args.rank)
        except ValueError as e:
            return _fail(e, EXIT_USAGE)
    try:
        return _COMMANDS[args.command](args)
    except OSError as e:
        return _fail(e, EXIT_DATA)


if __name__ == "__main__":
    sys.exit(main())
