"""Loader fuzz: load_tsv, pipeline_from_json and centers_from_json fail only
with the exceptions they document, which the CLI turns into exit 2 (data) or
exit 3 (model), never with a traceback."""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from whitmin.classifiers import ModelFormatError
from whitmin.clustering import centers_from_json
from whitmin.datasets import DataFormatError, DatasetSpec, generate_dataset, load_tsv
from whitmin.pipeline import PipelineConfig, pipeline_from_json, pipeline_to_json, train_pipeline

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# values that reach numeric conversions: out of float range, non-finite,
# out of the int64 range, label and rank edges, and numbers of the wrong JSON
# kind (a float or boolean for an integer, a string for a number, in a scalar
# or an array)
EDGES = [10**400, -10**400, 2**63, 2**64, float("inf"), float("-inf"), float("nan"),
         -1, 0, 1, 2, 3, 27, 10**9, 0.5, 1.0, 1.9, 2.0, True, False, "0.5", "2",
         "0.0123", "Infinity", "", "f6", "pool:1-1", "pool:1-12"]
EDGE_VALUES = st.sampled_from(EDGES)
# edges that are no JSON number, though numpy reads some of them as numbers
NOT_NUMBERS = [v for v in EDGES if isinstance(v, (bool, str))]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | EDGE_VALUES,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=8)


def mutated(data, doc):
    """doc with one to three fields, at any depth, replaced or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        node = doc
        while isinstance(node, (dict, list)) and node:
            key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                            else range(len(node))))
            if isinstance(node[key], (dict, list)) and data.draw(st.booleans()):
                node = node[key]
                continue
            if isinstance(node, dict) and data.draw(st.booleans()):
                del node[key]
            else:
                node[key] = data.draw(JSON_VALUES)
            break
    return doc


@pytest.fixture(scope="module")
def model_docs():
    """A regression (with quantizer), a distance and a tree model file."""
    train = generate_dataset(DatasetSpec("D", max_length=16, per_length=4, seed=31))
    return [json.loads(pipeline_to_json(train_pipeline(train, PipelineConfig(
        feature_map="f1", method=method, quantizer_bins=4))))
        for method in ("regression", "distance", "tree")]


@pytest.fixture(scope="module")
def tsv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "data.tsv"


# The arrays each kind of model reads from its document.
MODEL_ARRAYS = {"LinearModel": ("weights",),
                "DistanceModel": ("mu1", "mu2", "inv_cov1", "inv_cov2"),
                "TreeModel": ()}


def numbers_only(value):
    """Whether value is a JSON number, or nested lists of them; a bool is
    not one."""
    if isinstance(value, list):
        return all(numbers_only(v) for v in value)
    return type(value) in (int, float)


CENTERS = {"schema_version": 1, "feature_map": "f0",
           "centers": {name: [0.25, 0.25, 0.25, 0.25]
                       for name in ("A_AB", "A_BINV_A", "B_AINV_B", "B_BA")}}


class TestLoaderFuzz:
    @FUZZ
    @given(data=st.data())
    def test_pipeline_from_json(self, model_docs, data):
        doc = mutated(data, data.draw(st.sampled_from(model_docs)))
        try:
            pipeline = pipeline_from_json(json.dumps(doc))
        except ModelFormatError:
            return
        assert all(numbers_only(doc[key])
                   for key in MODEL_ARRAYS[type(pipeline.model).__name__])

    @FUZZ
    @given(text=st.text(alphabet='{}[]":,0123456789.eE-+ treufalsnINaf', max_size=80))
    def test_pipeline_from_json_text(self, text):
        try:
            pipeline_from_json(text)
        except ModelFormatError:
            pass

    @FUZZ
    @given(data=st.data())
    def test_centers_from_json(self, data):
        doc = mutated(data, CENTERS)
        try:
            centers_from_json(json.dumps(doc))
        except ValueError:
            return
        assert numbers_only(list(doc["centers"].values()))

    @pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
    def test_array_items_must_be_numbers(self, model_docs, value):
        for doc in model_docs[:2]:
            for key in ("weights", "mu1", "inv_cov1"):
                if key in doc:
                    bad = copy.deepcopy(doc)
                    row = bad[key][1] if key == "inv_cov1" else bad[key]
                    row[1] = value
                    with pytest.raises(ModelFormatError, match=key):
                        pipeline_from_json(json.dumps(bad))
        bad = copy.deepcopy(CENTERS)
        bad["centers"]["B_BA"][2] = value
        with pytest.raises(ValueError, match="center B_BA"):
            centers_from_json(json.dumps(bad))

    @FUZZ
    @given(lines=st.lists(
        st.one_of(st.sampled_from(["# word\tlabel\tlength", "", "abAB\tmin\t4",
                                   "aab\tnonmin\t3", "abab\tnonmin\t+4", "ab\tmin\t2\r"]),
                  st.text(alphabet="aAbBcz#\t 0123456789-+_\r\x00é", max_size=16),
                  st.binary(max_size=12).map(lambda b: b.decode("latin-1"))),
        max_size=6))
    def test_load_tsv(self, tsv_path, lines):
        tsv_path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
        try:
            ds = load_tsv(str(tsv_path))
        except DataFormatError:
            return
        assert all(len(r.word) == r.length > 0 for r in ds.records)
