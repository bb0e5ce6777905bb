"""Versioned JSON documents for fitted models, as dicts, and ``to_json``,
the one writer of model and centers files; the pipeline's
``pipeline_to_json`` / ``pipeline_from_json`` write and parse the text.

Floats are written with Python's shortest round-trip repr (>= 17 significant
digits where needed), so serialize/deserialize round-trips are bit exact.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict

import numpy as np

from .flats import DistanceModel
from .linear import LINEAR_METHODS, LinearModel
from .quantize import Quantizer
from .tree import MIN_NODE, TreeLeaf, TreeModel, TreeNode

SCHEMA_VERSION = 1

# Written into every tree document so that files keep the layout of the
# format's first version, when trees were configurable; loading ignores it.
_TREE_PARAMS = {"max_depth": None, "min_node": MIN_NODE, "chi2_cutoff": None,
                "criterion": "purity", "eps_type1": None, "eps_type2": None}


class ModelFormatError(ValueError):
    """Serialized model document is malformed or has an unknown schema."""


def _tree_node_to_dict(node) -> Dict[str, Any]:
    if isinstance(node, TreeLeaf):
        return {"leaf": node.label}
    return {
        "feature": node.feature,
        "threshold": float(node.threshold),
        "left": _tree_node_to_dict(node.left),
        "right": _tree_node_to_dict(node.right),
    }


def write_array(a) -> list:
    """a as nested lists of Python floats, the JSON form read_array reads."""
    return np.asarray(a, dtype=np.float64).tolist()


def to_json(doc) -> str:
    """json.dumps(doc, indent=2): json lays out doc, and each array of finite
    floats, where json's pure-Python indenting encoder spends its time, is
    joined from float.__repr__, json's own float form."""
    arrays: list = []
    pieces = json.dumps(_hide(doc, arrays), indent=2).split('"\\u0000"')
    if len(pieces) != len(arrays) + 1:  # a string or key holds NUL
        return json.dumps(doc, indent=2)
    parts = [pieces[0]]
    for body, before, after in zip(arrays, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        newline = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        inner = newline + "  "
        parts += "[" + inner + body.replace(",", "," + inner) + newline + "]", after
    return "".join(parts)


def _hide(o, arrays: list):
    """o rebuilt with each nonempty list or tuple of finite floats replaced by
    the placeholder "\\0", and its reprs joined by "," appended to arrays.
    Not a closure: a recursive closure is a reference cycle, which would keep
    every repr until the next garbage collection."""
    if isinstance(o, dict):
        return {k: _hide(v, arrays) for k, v in o.items()}
    if not isinstance(o, (list, tuple)):
        return o
    try:
        body = ",".join(map(float.__repr__, o))
    except TypeError:  # an item that is not a float
        return [_hide(v, arrays) for v in o]
    if not o or "n" in body:  # json writes NaN and Infinity; no finite repr has an n
        return list(o)
    arrays.append(body)
    return "\0"


def read_array(value, shape: tuple, name: str) -> np.ndarray:
    """value as a float64 array; ModelFormatError names it unless it has this
    shape and only finite JSON numbers.  Python's json reads NaN and Infinity,
    and numpy would read a string or a boolean as a number; a bool is not
    one."""
    a = np.array(value, dtype=object)
    if a.shape != shape:
        raise ModelFormatError(f"{name} has shape {a.shape}, not {shape}")
    if not set(map(type, a.flat)) <= {int, float}:
        raise ModelFormatError(f"{name} has an element that is not a number")
    a = a.astype(np.float64)
    if not np.isfinite(a).all():
        raise ModelFormatError(f"{name} has a value that is not finite")
    return a


# What each kind of scalar accepts of what json reads; a bool is not a number.
_SCALARS = {float: ((int, float), "a finite number"), int: (int, "an integer"),
            bool: (bool, "true or false")}


def _read_scalar(value, kind: type, name: str):
    """value as a kind (float, int or bool); ModelFormatError names it unless
    it is a finite JSON number, a JSON integer or true / false, by kind."""
    types, what = _SCALARS[kind]
    if (not isinstance(value, types) or isinstance(value, bool) != (kind is bool)
            or kind is float and not -sys.float_info.max <= value <= sys.float_info.max):
        raise ModelFormatError(f"{name} must be {what}")
    return kind(value)


def _read_label(value, name: str) -> int:
    label = _read_scalar(value, int, name)
    if label not in (1, 2):
        raise ModelFormatError(f"{name} {label} is neither 1 nor 2")
    return label


def _tree_node_from_dict(d: Dict[str, Any], dim: int):
    if "leaf" in d:
        return TreeLeaf(_read_label(d["leaf"], "leaf"))
    feature = _read_scalar(d["feature"], int, "split feature")
    if not 0 <= feature < dim:
        raise ModelFormatError(f"split feature {feature} is outside 0..{dim - 1}")
    return TreeNode(feature, _read_scalar(d["threshold"], float, "split threshold"),
                    _tree_node_from_dict(d["left"], dim), _tree_node_from_dict(d["right"], dim))


def model_to_dict(model, feature_map: str = "") -> Dict[str, Any]:
    doc: Dict[str, Any] = {"schema_version": SCHEMA_VERSION, "feature_map": feature_map}
    if isinstance(model, LinearModel):
        doc.update(
            method=model.method,
            weights=write_array(model.weights),
            theta=float(model.theta),
            orientation=int(model.orientation),
            training_error=float(model.training_error),
        )
        q = model.quantizer
        if q is not None:
            doc["quantizer"] = {"kind": q.kind,
                                "boundaries": write_array(q.boundaries),
                                "interval_labels": list(q.interval_labels),
                                "degenerate": q.degenerate}
    elif isinstance(model, DistanceModel):
        doc.update(
            method="distance",
            variant="mahalanobis",
            mu1=write_array(model.mu1), mu2=write_array(model.mu2),
            theta=float(model.theta),
            orientation=int(model.orientation),
            ridge_repaired=model.ridge_repaired,
            training_error=float(model.training_error),
            inv_cov1=write_array(model.inv_cov1),
            inv_cov2=write_array(model.inv_cov2),
        )
    elif isinstance(model, TreeModel):
        doc.update(
            method="tree",
            num_classes=2,
            tree=_tree_node_to_dict(model.root),
            params=dict(_TREE_PARAMS),
        )
    else:
        raise ModelFormatError(f"cannot serialize {type(model).__name__}")
    return doc


def model_from_dict(doc: Dict[str, Any], dim: int):
    """The model a document describes, reading dim-component feature vectors.
    Raises ModelFormatError for an unknown schema or method, a missing key, a
    value the model rejects, an array not sized by dim, a tree feature outside
    0..dim-1, a label other than 1 and 2, or a tree nested deeper than the
    interpreter's recursion limit."""
    if not isinstance(doc, dict):
        raise ModelFormatError("a model document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ModelFormatError(f"unsupported schema_version {doc.get('schema_version')!r}")
    try:
        return _model_from_dict(doc, dim)
    except ModelFormatError:
        raise
    except KeyError as e:
        raise ModelFormatError(f"{doc.get('method')} model lacks key {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise ModelFormatError(f"bad {doc.get('method')} model: {e}") from e
    except RecursionError as e:
        raise ModelFormatError(f"{doc.get('method')} model is nested too deeply") from e


def _model_from_dict(doc: Dict[str, Any], dim: int):
    method = doc.get("method")
    if method in LINEAR_METHODS:
        q = None
        if "quantizer" in doc:
            d = doc["quantizer"]
            labels = tuple(_read_label(x, "interval label") for x in d["interval_labels"])
            q = Quantizer(d["kind"], tuple(_read_scalar(b, float, "boundary")
                                           for b in d["boundaries"]),
                          labels, _read_scalar(d["degenerate"], bool, "degenerate"))
        return LinearModel(read_array(doc["weights"], (dim,), "weights"),
                           _read_scalar(doc["theta"], float, "theta"),
                           _read_label(doc["orientation"], "orientation"), method, q,
                           _read_scalar(doc["training_error"], float, "training_error"))
    if method == "distance":
        if doc["variant"] != "mahalanobis":
            raise ModelFormatError(f"unknown distance variant {doc['variant']!r}")
        return DistanceModel(
            read_array(doc["mu1"], (dim,), "mu1"), read_array(doc["mu2"], (dim,), "mu2"),
            read_array(doc["inv_cov1"], (dim, dim), "inv_cov1"),
            read_array(doc["inv_cov2"], (dim, dim), "inv_cov2"),
            _read_scalar(doc["theta"], float, "theta"),
            _read_label(doc["orientation"], "orientation"),
            _read_scalar(doc["ridge_repaired"], bool, "ridge_repaired"),
            _read_scalar(doc["training_error"], float, "training_error"))
    if method == "tree":
        return TreeModel(_tree_node_from_dict(doc["tree"], dim))
    raise ModelFormatError(f"unknown method {method!r}")
