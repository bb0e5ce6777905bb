import inspect
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from whitmin.automorphisms import NIELSEN_MOVES
from whitmin.cli import (_QUANTIZERS, EXIT_DATA, EXIT_MODEL, EXIT_OK, EXIT_USAGE,
                         build_parser, main)
from whitmin.classifiers.quantize import QUANTIZER_KINDS
from whitmin.clustering import INITS, clustering_experiment
from whitmin.datasets import KINDS, DatasetSpec, generate_dataset, save_tsv
from whitmin.pipeline import MAX_BINS, METHODS, PipelineConfig, evaluate

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Pre-generated dataset and trained model shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    train = str(d / "train.tsv")
    test = str(d / "test.tsv")
    model = str(d / "model.json")
    assert main(["generate", "--kind", "D", "--max-len", "60", "--per-len", "4",
                 "--seed", "11", "-o", train]) == EXIT_OK
    assert main(["generate", "--kind", "Se", "--max-len", "60", "--per-len", "4",
                 "--seed", "12", "-o", test]) == EXIT_OK
    assert main(["train", "--features", "f6", "--train", train,
                 "-o", model]) == EXIT_OK
    paths = {"dir": d, "train": train, "test": test, "model": model}
    for method in ("distance", "tree"):
        paths[method] = str(d / f"{method}.json")
        assert main(["train", "--features", "f6", "--model", method,
                     "--train", train, "-o", paths[method]]) == EXIT_OK
    return paths


_DELETE = object()


def _set(doc, path, value):
    *keys, last = path
    for k in keys:
        doc = doc[k]
    if value is _DELETE:
        del doc[last]
    else:
        doc[last] = value


@pytest.fixture(scope="module")
def cluster_data(tmp_path_factory):
    """Larger dataset: the 10% estimation sample must populate all four pure
    sets."""
    path = str(tmp_path_factory.mktemp("cluster") / "data.tsv")
    assert main(["generate", "--kind", "D", "--max-len", "200", "--per-len", "5",
                 "--seed", "21", "-o", path]) == EXIT_OK
    return path


def _one_error_line(capsys):
    lines = capsys.readouterr().err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


# Each option whose default or choices a library module owns: (command, dest,
# the attribute read, the owner's value).  "kind" reads the --quantizer
# default as the quantizer kind it names.
_OWNED = [
    ("generate", "kind", "choices", KINDS),
    *[(command, "rank", "default", DatasetSpec.rank)
      for command in ("generate", "train", "select-features", "minimize")],
    ("generate", "max_len", "default", DatasetSpec.max_length),
    ("generate", "per_len", "default", DatasetSpec.per_length),
    ("generate", "size", "default", DatasetSpec.size),
    ("train", "features", "default", PipelineConfig.feature_map),
    ("train", "model", "default", PipelineConfig.method),
    ("train", "model", "choices", METHODS),
    ("train", "quantizer", "kind", PipelineConfig.quantizer_kind),
    ("train", "bins", "default", PipelineConfig.quantizer_bins),
    ("evaluate", "strata", "default",
     ",".join(map(str, inspect.signature(evaluate).parameters["strata"].default))),
    ("evaluate", "hist_bins", "default",
     inspect.signature(evaluate).parameters["bins"].default),
    ("cluster", "init", "default",
     inspect.signature(clustering_experiment).parameters["init"].default),
    ("cluster", "init", "choices", INITS),
    ("cluster", "seed", "default",
     inspect.signature(clustering_experiment).parameters["seed"].default),
]


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert main(["generate", "--kind", "D", "-o", "x.tsv"]) == EXIT_USAGE  # no --seed
        assert _one_error_line(capsys)
        assert main(["train"]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: the following arguments are required: "
                                           "--train, -o/--output\n")

    def test_bad_choice(self):
        assert main(["generate", "--kind", "Q", "--seed", "1", "-o", "x.tsv"]) == EXIT_USAGE

    @pytest.mark.parametrize("command, dest, read, owner", _OWNED,
                             ids=[f"{c}-{d}-{r}" for c, d, r, _ in _OWNED])
    def test_options_read_their_library_owner(self, command, dest, read, owner):
        parser = build_parser()._subparsers._group_actions[0].choices[command]
        action = next(a for a in parser._actions if a.dest == dest)
        value = _QUANTIZERS[action.default] if read == "kind" else getattr(action, read)
        assert value == owner

    def test_quantizer_names_cover_the_kinds(self):
        assert sorted(filter(None, _QUANTIZERS.values())) == sorted(QUANTIZER_KINDS)

    def test_unknown_method_is_named(self):
        with pytest.raises(ValueError, match="^unknown method 'forest'$"):
            PipelineConfig(method="forest")

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_returns_ok(self, capsys, argv):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage:")


# a file no loader can read: an undecodable byte, a UTF-16 mark and a NUL
BINARY = b"\xff\xfe{}\x00\x81\n"

# (command, its other flags with workdir keys standing for their files, the
# file flag given the binary file, exit code)
BINARY_INPUTS = {
    "train-train": ("train", ["-o", "out.json"], "--train", EXIT_DATA),
    "select-features-train": ("select-features", ["--pool", "1-1", "--val", "test"],
                              "--train", EXIT_DATA),
    "select-features-val": ("select-features", ["--pool", "1-1", "--train", "train"],
                            "--val", EXIT_DATA),
    "evaluate-model": ("evaluate", ["--test", "test"], "--model", EXIT_MODEL),
    "evaluate-test": ("evaluate", ["--model", "model"], "--test", EXIT_DATA),
    "cluster-data": ("cluster", [], "--data", EXIT_DATA),
    "predict-reducer-centers": ("predict-reducer", ["--word", "abab"], "--centers",
                                EXIT_MODEL),
}


@pytest.mark.parametrize("case", sorted(BINARY_INPUTS))
def test_binary_file_is_one_error_line(workdir, tmp_path, capsys, case):
    command, flags, file_flag, code = BINARY_INPUTS[case]
    bad = tmp_path / "binary"
    bad.write_bytes(BINARY)
    flags = [workdir.get(f, f) for f in flags]
    capsys.readouterr()
    assert main([command, *flags, file_flag, str(bad)]) == code
    assert _one_error_line(capsys)


class TestGenerate:
    def test_writes_tsv(self, workdir):
        text = open(workdir["train"]).read()
        assert text.startswith("# word\tlabel\tlength\n")
        assert len(text.splitlines()) == 1 + 60 * 4

    def test_deterministic(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "again.tsv")
        assert main(["generate", "--kind", "D", "--max-len", "60", "--per-len",
                     "4", "--seed", "11", "-o", out]) == EXIT_OK
        assert open(out, "rb").read() == open(workdir["train"], "rb").read()

    @pytest.mark.parametrize("flags", [["--kind", "SR", "--rank", "1"],
                                       ["--kind", "D", "--max-len", "0"],
                                       ["--kind", "D", "--rank", "0"],
                                       ["--kind", "D", "--rank", "27"],
                                       ["--kind", "D", "--per-len", "0"],
                                       ["--kind", "D", "--per-len", "-2"],
                                       ["--kind", "SR", "--size", "0"],
                                       ["--kind", "SP", "--size", "-5"],
                                       ["--kind", "SR", "--size", "4294967296"],
                                       ["--kind", "D", "--max-len", "65536",
                                        "--per-len", "65536"],
                                       ["--kind", "SR", "--max-len", "1000000000000",
                                        "--size", "3"]])
    def test_invalid_spec_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "out.tsv"
        assert main(["generate", *flags, "--seed", "1", "-o", str(out)]) == EXIT_USAGE
        assert _one_error_line(capsys)
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out.tsv"
        assert main(["generate", "--kind", "D", "--max-len", "4", "--seed", "-1",
                     "-o", str(out)]) == EXIT_USAGE
        assert _one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["D", "Se", "SR", "SP", "S10"])
    def test_streamed_output_matches_saved_dataset(self, tmp_path, capsys, kind):
        out, saved = tmp_path / "out.tsv", tmp_path / "saved.tsv"
        assert main(["generate", "--kind", kind, "--rank", "3", "--max-len", "12",
                     "--per-len", "3", "--size", "40", "--seed", "5",
                     "-o", str(out)]) == EXIT_OK
        spec = DatasetSpec(kind, 3, max_length=12, per_length=3, seed=5, size=40)
        assert save_tsv(generate_dataset(spec), str(saved)) == spec.record_count
        assert out.read_bytes() == saved.read_bytes()
        assert capsys.readouterr().out == f"wrote {spec.record_count} records to {out}\n"

    def test_rank_9(self, tmp_path, capsys):
        out = tmp_path / "r9.tsv"
        assert main(["generate", "--kind", "D", "--rank", "9", "--max-len", "8",
                     "--per-len", "2", "--seed", "1", "-o", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 8 * 2


@pytest.mark.parametrize("command", [
    ["train", "--train", "unused.tsv", "-o", "unused.json"],
    ["select-features", "--train", "unused.tsv", "--val", "unused.tsv"],
])
@pytest.mark.parametrize("rank", ["1", "27"])
def test_rank_outside_range_is_usage_error(capsys, command, rank):
    """Checked before any file is read: the text encoding has a..z only.
    TestGenerate and TestWordCommands cover generate and minimize."""
    assert main([*command, "--rank", rank]) == EXIT_USAGE
    assert _one_error_line(capsys)


class TestTrainEvaluate:
    def test_model_file_is_json(self, workdir):
        doc = json.loads(open(workdir["model"]).read())
        assert doc["schema_version"] == 1
        assert doc["method"] == "regression"

    def test_evaluate_reports_strata(self, workdir, capsys):
        assert main(["evaluate", "--model", workdir["model"],
                     "--test", workdir["test"]]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("stratum,n,accuracy")
        assert "|w|>4," in out

    def test_evaluate_writes_histogram(self, workdir, tmp_path, capsys):
        hist = str(tmp_path / "hist.csv")
        assert main(["evaluate", "--model", workdir["model"], "--test",
                     workdir["test"], "--hist-out", hist]) == EXIT_OK
        assert open(hist).read().startswith("bin_center,")

    def test_hist_out_with_tree_is_usage_error(self, workdir, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        capsys.readouterr()
        assert main(["evaluate", "--model", workdir["tree"], "--test", workdir["test"],
                     "--hist-out", str(hist)]) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert not hist.exists()

    def test_hist_bins_below_two_is_usage_error(self, workdir, capsys):
        assert main(["evaluate", "--model", workdir["model"], "--test",
                     workdir["test"], "--hist-bins", "1"]) == EXIT_USAGE
        assert _one_error_line(capsys)

    def test_hist_bins_above_max_is_usage_error(self, workdir, capsys):
        assert main(["evaluate", "--model", workdir["model"], "--test",
                     workdir["test"], "--hist-bins", str(MAX_BINS + 1)]) == EXIT_USAGE
        assert _one_error_line(capsys)

    def test_empty_test_set_is_data_error(self, workdir, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# word\tlabel\tlength\n")
        assert main(["evaluate", "--model", workdir["model"],
                     "--test", str(empty)]) == EXIT_DATA
        assert _one_error_line(capsys)

    def test_empty_training_set_is_data_error(self, tmp_path, capsys):
        empty, out = tmp_path / "empty.tsv", tmp_path / "m.json"
        empty.write_text("# word\tlabel\tlength\n")
        assert main(["train", "--train", str(empty), "-o", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {empty}: empty training set\n"
        assert not out.exists()

    def test_empty_word_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "empty_word.tsv"
        bad.write_text("abab\tmin\t4\n\tmin\t0\n")
        assert main(["evaluate", "--model", workdir["model"],
                     "--test", str(bad)]) == EXIT_DATA
        assert _one_error_line(capsys)

    def test_bad_length_column_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad_length.tsv"
        bad.write_text("abab\tmin\t4\nab\tmin\tx\n")
        assert main(["evaluate", "--model", workdir["model"],
                     "--test", str(bad)]) == EXIT_DATA
        assert _one_error_line(capsys)

    def test_missing_dataset_is_data_error(self, workdir, capsys):
        assert main(["evaluate", "--model", workdir["model"],
                     "--test", "/nonexistent.tsv"]) == EXIT_DATA

    def test_corrupt_model_is_model_error(self, workdir, tmp_path, capsys):
        # an unknown schema; weights that json reads as NaN, weights written
        # as strings and a true among them, which numpy would read as numbers;
        # each scalar of the wrong JSON kind: floats are finite numbers,
        # integers are not floats or booleans, flags are booleans
        model = json.loads(open(workdir["model"]).read())
        weights = model["weights"]
        texts = ['{"schema_version": 99}']
        for bad_weights in ([float("nan")] * len(weights), [repr(w) for w in weights],
                            [True] + weights[1:]):
            texts.append(json.dumps(dict(model, weights=bad_weights)))
        for source, path, value in MALFORMED_SCALARS + MALFORMED_ARRAY_ITEMS:
            doc = json.loads(open(workdir[source]).read())
            _set(doc, path, value)
            texts.append(json.dumps(doc))
        bad = tmp_path / "bad.json"
        for text in texts:
            bad.write_text(text)
            capsys.readouterr()
            assert main(["evaluate", "--model", str(bad),
                         "--test", workdir["test"]]) == EXIT_MODEL
            assert _one_error_line(capsys)

    def test_non_ascii_tsv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "non_ascii.tsv"
        bad.write_bytes("abab\tmin\t4\n\u00e9b\tmin\t2\n".encode("utf-8"))
        assert main(["train", "--train", str(bad),
                     "-o", str(tmp_path / "m.json")]) == EXIT_DATA
        assert _one_error_line(capsys)

    def test_svm_trains_on_nonseparable_set(self, tmp_path, capsys):
        # no hyperplane separates this set's f6 vectors; the soft margin fits it
        data = str(tmp_path / "d.tsv")
        out = tmp_path / "svm.json"
        assert main(["generate", "--kind", "D", "--max-len", "60", "--per-len", "3",
                     "--seed", "1", "-o", data]) == EXIT_OK
        assert main(["train", "--model", "svm", "--train", data,
                     "-o", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["method"] == "svm"
        capsys.readouterr()
        assert main(["evaluate", "--model", str(out), "--test", data]) == EXIT_OK
        assert "|w|>0" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--features", "f9"],
                                       ["--features", "pool:2-1"],
                                       ["--features", "pool:1-12"],
                                       ["--bins", "1"],
                                       ["--bins", str(MAX_BINS + 1)]])
    def test_bad_train_flags_are_usage_errors(self, capsys, flags):
        """Checked before the (here nonexistent) training file is read."""
        assert main(["train", *flags, "--train", "unused.tsv",
                     "-o", "unused.json"]) == EXIT_USAGE
        assert _one_error_line(capsys)

    def test_min_error_over_cell_budget_is_model_error(self, workdir, tmp_path, capsys,
                                                       monkeypatch):
        import whitmin.classifiers.quantize as quantize
        monkeypatch.setattr(quantize, "MIN_ERROR_CELLS", 100)
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert main(["train", "--quantizer", "minerr", "--train", workdir["train"],
                     "-o", str(out)]) == EXIT_MODEL
        assert _one_error_line(capsys)
        assert not out.exists()

    def test_over_cell_budget(self, workdir, tmp_path, capsys, monkeypatch):
        """train exits 3 and evaluate exits 2, before counting a feature."""
        import whitmin.features as features
        monkeypatch.setattr(features, "MAX_SELECTION_CELLS", 60 * 10)
        monkeypatch.setattr(features, "feature_vector", None)   # never reached
        capsys.readouterr()
        assert main(["train", "--train", workdir["train"],
                     "-o", str(tmp_path / "m.json")]) == EXIT_MODEL
        assert _one_error_line(capsys)
        assert main(["evaluate", "--model", workdir["model"],
                     "--test", workdir["test"]]) == EXIT_DATA
        assert _one_error_line(capsys)

    def test_fit_over_cell_budget_is_model_error(self, tmp_path):
        """f6 at rank 26 has 10,764 columns: the distance model's two class
        covariances alone would take 1.73 GiB.  train refuses the fit before
        allocating it.  The child's 1 GiB address-space limit makes any
        attempt to allocate them fail at once instead of taking the host's
        memory."""
        data, out = tmp_path / "sr26.tsv", tmp_path / "m.json"
        assert main(["generate", "--kind", "SR", "--rank", "26", "--size", "60",
                     "--max-len", "20", "--seed", "1", "-o", str(data)]) == EXIT_OK

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from whitmin.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "train", "--rank", "26", "--features", "f6",
             "--model", "distance", "--train", str(data), "-o", str(out)],
            capture_output=True, text=True, preexec_fn=limit_memory, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1"))
        assert proc.returncode == EXIT_MODEL, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "budget" in lines[0]
        assert not out.exists()

    def test_malformed_tsv_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("abab\tnonsense\t4\n")
        assert main(["evaluate", "--model", workdir["model"],
                     "--test", str(bad)]) == EXIT_DATA


# (model file, path of the field to change, new value): scalars that Python
# would convert but whose JSON kind is wrong
MALFORMED_SCALARS = (
    ("model", ["orientation"], 1.9), ("model", ["orientation"], True),
    ("model", ["orientation"], "2"), ("model", ["theta"], "0.5"),
    ("model", ["theta"], float("nan")), ("model", ["quantizer", "degenerate"], "no"),
    ("model", ["quantizer", "interval_labels", 0], 1.5),
    ("model", ["quantizer", "boundaries", 0], float("-inf")),
    ("model", ["training_error"], 10**400), ("model", ["config", "quantizer_bins"], 50.5),
    ("model", ["config", "rank"], 2.0), ("distance", ["ridge_repaired"], 0),
    ("distance", ["theta"], float("inf")), ("tree", ["tree", "feature"], 2.7),
    ("tree", ["tree", "threshold"], "Infinity"),
)

# Array elements that numpy would read as numbers, but that are no JSON number.
MALFORMED_ARRAY_ITEMS = (
    ("distance", ["mu1", 1], False), ("distance", ["inv_cov2", 3, 5], "0.0123"),
)

# (model file, path of the field to change, new value): each makes a model
# the loader must reject
BAD_MODELS = {
    "weights-length": ("model", ["weights"], [0.5] * 10),
    "weights-text": ("model", ["weights"], "abc"),
    "decreasing-boundaries": ("model", ["quantizer", "boundaries"], [2.0, 1.0]),
    "quantizer-label": ("model", ["quantizer", "interval_labels"], [1, 3]),
    "missing-theta": ("model", ["theta"], _DELETE),
    "bad-orientation": ("model", ["orientation"], 0),
    "bad-config": ("model", ["config"], [1, 2]),
    "config-method": ("model", ["config", "method"], "tree"),
    "feature-map": ("model", ["feature_map"], "f2"),
    "mu-length": ("distance", ["mu1"], [0.0] * 59),
    "inv-cov-shape": ("distance", ["inv_cov2"], [[1.0, 0.0], [0.0, 1.0]]),
    "distance-variant": ("distance", ["variant"], "foo"),
    "flat-variant": ("distance", ["variant"], "flat"),
    "kmeans-method": ("model", ["method"], "kmeans"),
    "tree-feature": ("tree", ["tree", "feature"], 60),
    "tree-missing-child": ("tree", ["tree", "left"], _DELETE),
    "threshold-override": ("model", ["config", "threshold_override"], 0.5),
    "rank-27": ("model", ["config", "rank"], 27),
    "rank-huge": ("model", ["config", "rank"], 10**9),
    "missing-training-error": ("model", ["training_error"], _DELETE),
    "missing-degenerate": ("model", ["quantizer", "degenerate"], _DELETE),
    # the file's config names an equal_interval quantizer
    "missing-quantizer": ("model", ["quantizer"], _DELETE),
    "config-no-quantizer": ("model", ["config", "quantizer_kind"], None),
    "config-quantizer-kind": ("model", ["config", "quantizer_kind"], "bogus"),
    "quantizer-kind": ("model", ["quantizer", "kind"], "whatever"),
    "other-quantizer-kind": ("model", ["quantizer", "kind"], "equal_probability"),
    "distance-missing-training-error": ("distance", ["training_error"], _DELETE),
    "distance-missing-ridge-repaired": ("distance", ["ridge_repaired"], _DELETE),
}


class TestBadModelFiles:
    @pytest.mark.parametrize("case", sorted(BAD_MODELS))
    def test_model_error_exit(self, workdir, tmp_path, capsys, case):
        source, path, value = BAD_MODELS[case]
        doc = json.loads(open(workdir[source]).read())
        _set(doc, path, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["evaluate", "--model", str(bad),
                     "--test", workdir["test"]]) == EXIT_MODEL
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


    def test_deeply_nested_tree(self, workdir, tmp_path, capsys):
        # written as text: json.dumps itself stops at the recursion limit
        node = '{"leaf": 1}'
        for _ in range(5000):
            node = f'{{"feature": 0, "threshold": 0.5, "left": {node}, "right": {{"leaf": 2}}}}'
        doc = json.loads(open(workdir["tree"]).read())
        doc["tree"] = "NODE"
        bad = tmp_path / "deep.json"
        bad.write_text(json.dumps(doc).replace('"NODE"', node))
        capsys.readouterr()
        assert main(["evaluate", "--model", str(bad),
                     "--test", workdir["test"]]) == EXIT_MODEL
        assert _one_error_line(capsys)


class TestSelectFeatures:
    def test_prints_patterns(self, workdir, capsys):
        assert main(["select-features", "--pool", "1-1",
                     "--train", workdir["train"], "--val", workdir["test"],
                     "--max-features", "3"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert 1 <= len(out.splitlines()) <= 3

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_max_features_below_one_is_usage_error(self, capsys, count):
        """Refused before a file is read."""
        assert main(["select-features", "--train", "unused.tsv", "--val", "unused.tsv",
                     "--max-features", count]) == EXIT_USAGE
        assert _one_error_line(capsys)

    def test_oversized_pool_is_usage_error(self, capsys):
        """Refused before the pool is built or a file is read."""
        assert main(["select-features", "--pool", "1-12", "--train", "unused.tsv",
                     "--val", "unused.tsv"]) == EXIT_USAGE
        assert _one_error_line(capsys)

    def test_over_cell_budget_is_data_error(self, workdir, capsys, monkeypatch):
        import whitmin.features as features
        monkeypatch.setattr(features, "MAX_SELECTION_CELLS", 1000)
        assert main(["select-features", "--pool", "1-1", "--train", workdir["train"],
                     "--val", workdir["test"]]) == EXIT_DATA
        assert _one_error_line(capsys)

    def test_one_class_training_set_is_data_error(self, workdir, tmp_path, capsys):
        only_min = tmp_path / "onlymin.tsv"
        only_min.write_text("".join(line for line in open(workdir["train"])
                                    if "\tnonmin\t" not in line))
        assert main(["select-features", "--pool", "1-1", "--train", str(only_min),
                     "--val", workdir["test"]]) == EXIT_DATA
        assert _one_error_line(capsys)

    @pytest.mark.parametrize("which", ["train", "val"])
    def test_empty_set_is_data_error(self, workdir, tmp_path, capsys, which):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# word\tlabel\tlength\n")
        files = {"train": workdir["train"], "val": workdir["test"], which: str(empty)}
        assert main(["select-features", "--pool", "1-1", "--train", files["train"],
                     "--val", files["val"]]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert ("training" if which == "train" else "validation") in err


class TestCluster:
    def test_summary_and_centers(self, cluster_data, tmp_path, capsys):
        centers = str(tmp_path / "centers.json")
        code = main(["cluster", "--data", cluster_data, "--seed", "5",
                     "--centers-out", centers])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("cluster,size,move,")

    def test_too_few_moves_for_centers_is_data_error(self, tmp_path, capsys):
        # twenty copies of one word: every cluster is assigned the same move
        data = tmp_path / "same.tsv"
        data.write_text("abab\tnonmin\t4\n" * 20)
        centers = tmp_path / "centers.json"
        assert main(["cluster", "--data", str(data), "--init", "random", "--seed", "0",
                     "--centers-out", str(centers)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out.startswith("cluster,size,move,")
        assert captured.err == ("error: fewer than 4 distinct move assignments; "
                                "centers file not written\n")
        assert not centers.exists()

    def test_k_must_be_4(self, workdir, capsys):
        assert main(["cluster", "--data", workdir["train"], "--k", "3"]) == EXIT_USAGE

    @pytest.mark.parametrize("features", ["f9", "pool:x"])
    def test_unknown_feature_map_is_usage_error(self, workdir, capsys, features):
        assert main(["cluster", "--data", workdir["train"],
                     "--features", features]) == EXIT_USAGE
        assert _one_error_line(capsys)

    def test_negative_seed_is_usage_error(self, cluster_data, tmp_path, capsys):
        centers = tmp_path / "centers.json"
        assert main(["cluster", "--data", cluster_data, "--seed", "-1",
                     "--centers-out", str(centers)]) == EXIT_USAGE
        assert _one_error_line(capsys)
        assert not centers.exists()


class TestWordCommands:
    def test_minimize(self, capsys):
        assert main(["minimize", "--word", "abab"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "4 -> 2" in out

    def test_minimize_unreduced_input_ok(self, capsys):
        # free and cyclic reduction happen before minimization
        assert main(["minimize", "--word", "aAbabA"]) == EXIT_OK

    def test_minimize_rank_9(self, capsys):
        # the square of a primitive element minimizes to a generator squared
        assert main(["minimize", "--word", "abcdefghi" * 2, "--rank", "9"]) == EXIT_OK
        assert "length: 18 -> 2 in " in capsys.readouterr().out

    @pytest.mark.parametrize("rank", ["1", "27"])
    def test_minimize_rank_outside_bound_is_usage_error(self, capsys, rank):
        assert main(["minimize", "--word", "ab", "--rank", rank]) == EXIT_USAGE
        assert _one_error_line(capsys)

    def test_minimize_invalid_word(self, capsys):
        assert main(["minimize", "--word", "ab!"]) == EXIT_DATA

    # cbC reduces to b, but c is no rank-2 letter
    @pytest.mark.parametrize("word,named", [("ab1", "'1'"), ("abc", "letter code 4"),
                                            ("cbC", "letter code 4")])
    def test_minimize_bad_letter_is_one_error_line(self, capsys, word, named):
        assert main(["minimize", "--word", word]) == EXIT_DATA
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0]

    def test_predict_reducer_missing_centers(self, capsys):
        assert main(["predict-reducer", "--word", "abab",
                     "--centers", "/nonexistent.json"]) == EXIT_DATA

    # case: (schema version, center length, extra moves, whether the file
    # names its feature map, the centers' last value, text the error names)
    BAD_CENTERS = {"7-16": (7, 16, [], True, 0.0, "schema_version 7"),
                   "1-3": (1, 3, [], True, 0.0, "not (16,)"),
                   "unknown-move": (1, 16, ["ZZ"], True, 0.0, "unknown move 'ZZ'"),
                   "no-feature-map": (1, 16, [], False, 0.0, "lacks key 'feature_map'"),
                   "infinity": (1, 16, [], True, float("inf"), "not finite"),
                   "string": (1, 16, [], True, "0.0123", "not a number"),
                   "boolean": (1, 16, [], True, True, "not a number")}

    @pytest.mark.parametrize("case", sorted(BAD_CENTERS))
    def test_predict_reducer_bad_centers(self, tmp_path, capsys, case):
        schema, dim, extra, named_map, last, named = self.BAD_CENTERS[case]
        doc = {"schema_version": schema, "feature_map": "f2",
               "centers": {name: [0.0] * (dim - 1) + [last]
                           for name in [m.name for m in NIELSEN_MOVES] + extra}}
        if not named_map:
            del doc["feature_map"]
        path = tmp_path / "centers.json"
        path.write_text(json.dumps(doc))
        assert main(["predict-reducer", "--word", "abab",
                     "--centers", str(path)]) == EXIT_MODEL
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0]

    def test_predict_reducer_deeply_nested_centers(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["predict-reducer", "--word", "abab",
                     "--centers", str(path)]) == EXIT_MODEL
        assert _one_error_line(capsys)

    def test_predict_reducer_end_to_end(self, cluster_data, tmp_path, capsys):
        centers = str(tmp_path / "centers.json")
        main(["cluster", "--data", cluster_data, "--seed", "5",
              "--centers-out", centers])
        capsys.readouterr()
        code = main(["predict-reducer", "--word", "abab", "--centers", centers])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "predicted move:" in out or "already minimal" in out
        # cbC reduces to b, but c is no rank-2 letter
        assert main(["predict-reducer", "--word", "cbC", "--centers", centers]) == EXIT_DATA
        assert _one_error_line(capsys)
