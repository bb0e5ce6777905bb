"""Versioned JSON documents for fitted models, as dicts; the pipeline's
``pipeline_to_json`` / ``pipeline_from_json`` write and parse the text.

Floats are written with Python's shortest round-trip repr (>= 17 significant
digits where needed), so serialize/deserialize round-trips are bit exact.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from .flats import DistanceModel
from .linear import LinearModel
from .quantize import Quantizer
from .tree import TreeLeaf, TreeModel, TreeNode

SCHEMA_VERSION = 1

# Written into every tree document so that files keep the layout of the
# format's first version, when trees were configurable; loading ignores it.
_TREE_PARAMS = {"max_depth": None, "min_node": 10, "chi2_cutoff": None,
                "criterion": "purity", "eps_type1": None, "eps_type2": None}


class ModelFormatError(ValueError):
    """Serialized model document is malformed or has an unknown schema."""


def _arr(a) -> list:
    return np.asarray(a, dtype=np.float64).tolist()


def quantizer_to_dict(q: Quantizer) -> Dict[str, Any]:
    return {
        "kind": q.kind,
        "boundaries": [float(b) for b in q.boundaries],
        "interval_labels": list(q.interval_labels),
        "degenerate": q.degenerate,
    }


def quantizer_from_dict(d: Dict[str, Any]) -> Quantizer:
    return Quantizer(d["kind"], tuple(float(b) for b in d["boundaries"]),
                     tuple(int(x) for x in d["interval_labels"]),
                     bool(d.get("degenerate", False)))


def _tree_node_to_dict(node) -> Dict[str, Any]:
    if isinstance(node, TreeLeaf):
        return {"leaf": node.label}
    return {
        "feature": node.feature,
        "threshold": float(node.threshold),
        "left": _tree_node_to_dict(node.left),
        "right": _tree_node_to_dict(node.right),
    }


def _tree_node_from_dict(d: Dict[str, Any]):
    if "leaf" in d:
        return TreeLeaf(int(d["leaf"]))
    return TreeNode(int(d["feature"]), float(d["threshold"]),
                    _tree_node_from_dict(d["left"]), _tree_node_from_dict(d["right"]))


def model_to_dict(model, feature_map: str = "") -> Dict[str, Any]:
    doc: Dict[str, Any] = {"schema_version": SCHEMA_VERSION, "feature_map": feature_map}
    if isinstance(model, LinearModel):
        doc.update(
            method=model.method,
            weights=_arr(model.weights),
            theta=float(model.theta),
            orientation=int(model.orientation),
            training_error=float(model.training_error),
        )
        if model.quantizer is not None:
            doc["quantizer"] = quantizer_to_dict(model.quantizer)
    elif isinstance(model, DistanceModel):
        doc.update(
            method="distance",
            variant="mahalanobis",
            mu1=_arr(model.mu1), mu2=_arr(model.mu2),
            theta=float(model.theta),
            orientation=int(model.orientation),
            ridge_repaired=model.ridge_repaired,
            training_error=float(model.training_error),
            inv_cov1=_arr(model.inv_cov1),
            inv_cov2=_arr(model.inv_cov2),
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


def model_from_dict(doc: Dict[str, Any]):
    """The model a document describes.  Raises ModelFormatError for an unknown
    schema or method, a missing key, a value the model rejects, or a tree
    nested deeper than the interpreter's recursion limit."""
    if not isinstance(doc, dict):
        raise ModelFormatError("a model document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ModelFormatError(f"unsupported schema_version {doc.get('schema_version')!r}")
    try:
        return _model_from_dict(doc)
    except ModelFormatError:
        raise
    except KeyError as e:
        raise ModelFormatError(f"{doc.get('method')} model lacks key {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise ModelFormatError(f"bad {doc.get('method')} model: {e}") from e
    except RecursionError as e:
        raise ModelFormatError(f"{doc.get('method')} model is nested too deeply") from e


def _model_from_dict(doc: Dict[str, Any]):
    method = doc.get("method")
    if method in ("regression", "fisher", "svm"):
        q = quantizer_from_dict(doc["quantizer"]) if "quantizer" in doc else None
        return LinearModel(np.array(doc["weights"], dtype=np.float64),
                           float(doc["theta"]), int(doc["orientation"]), method, q,
                           float(doc.get("training_error", 0.0)))
    if method == "distance":
        if doc["variant"] != "mahalanobis":
            raise ModelFormatError(f"unknown distance variant {doc['variant']!r}")
        return DistanceModel(
            np.array(doc["mu1"], dtype=np.float64),
            np.array(doc["mu2"], dtype=np.float64),
            np.array(doc["inv_cov1"], dtype=np.float64),
            np.array(doc["inv_cov2"], dtype=np.float64),
            float(doc["theta"]), int(doc["orientation"]),
            bool(doc.get("ridge_repaired", False)),
            float(doc.get("training_error", 0.0)))
    if method == "tree":
        return TreeModel(_tree_node_from_dict(doc["tree"]))
    raise ModelFormatError(f"unknown method {method!r}")

