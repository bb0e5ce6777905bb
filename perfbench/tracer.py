"""Per-layer tracing of whitmin from outside the program.

Every public function of each whitmin module is replaced, wherever a whitmin
module holds a reference to it, by a wrapper that records a span.  A layer is
a module; the classifiers package counts as one layer.  Spans are kept in
memory and written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List

LAYERS = {
    "whitmin.words": "words",
    "whitmin.automorphisms": "automorphisms",
    "whitmin.datasets": "datasets",
    "whitmin.features": "features",
    "whitmin.numerics": "numerics",
    "whitmin.classifiers.base": "classifiers",
    "whitmin.classifiers.flats": "classifiers",
    "whitmin.classifiers.kmeans": "classifiers",
    "whitmin.classifiers.linear": "classifiers",
    "whitmin.classifiers.quantize": "classifiers",
    "whitmin.classifiers.serialize": "classifiers",
    "whitmin.classifiers.tree": "classifiers",
    "whitmin.pipeline": "pipeline",
    "whitmin.clustering": "clustering",
}
# Methods are patched on their class: (module, class, method) -> span name.
METHODS = {("whitmin.classifiers.quantize", "Quantizer", "classify"):
           "classifiers.quantizer_classify"}
# Counters reported per iteration, under their own metric names.
COUNTERS = (
    "words.least_rotation.letters",
    "automorphisms.apply_automorphism.letters_in",
    "automorphisms.apply_automorphism.shorter",
    "automorphisms.apply_automorphism.longer",
    "automorphisms.minimize.steps",
    "datasets.records",
    "features.feature_matrix.rows",
    "classifiers.kmeans.iterations",
)
# Spans beyond this many are counted but not kept (the aggregates stay exact).
MAX_SPANS = 500_000


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.counts: Counter = Counter()
        self.top_level_s = 0.0
        self.iteration = -1
        self.dropped = 0
        self._next_id = 0
        self._stack: List[list] = []          # open spans: [child_s, span_id, name_id]
        self._span_ids = array("q")
        self._parents = array("q")
        self._name_ids = array("q")
        self._iterations = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._patched: List[tuple] = []
        self._hooks = self._counter_hooks()

    # -- wrapping -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.ids[name]

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        after = self._hooks.get(name)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [0.0, sid, nid]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                calls[nid] += 1
                self_s[nid] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                    parent = stack[-1][1]
                else:
                    tracer.top_level_s += d
                    parent = -1
                tracer._record(sid, parent, nid, t0, t1)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__traced__ = fn
        return wrapper

    def _record(self, sid, parent, nid, t0, t1) -> None:
        if len(self._starts) >= MAX_SPANS:
            self.dropped += 1
            return
        self._span_ids.append(sid)
        self._parents.append(parent)
        self._name_ids.append(nid)
        self._iterations.append(self.iteration)
        self._starts.append(t0)
        self._ends.append(t1)

    def _inside(self, name: str) -> bool:
        nid = self.ids.get(name)
        return any(f[2] == nid for f in self._stack)

    def _counter_hooks(self) -> Dict[str, Callable]:
        c = self.counts

        def least_rotation(args, kwargs, result):
            c["words.least_rotation.letters"] += len(args[0])

        def apply_automorphism(args, kwargs, result):
            n = len(_arg(args, kwargs, 1, "w"))
            c["automorphisms.apply_automorphism.letters_in"] += n
            if len(result) < n:
                c["automorphisms.apply_automorphism.shorter"] += 1
            elif len(result) > n:
                c["automorphisms.apply_automorphism.longer"] += 1

        def minimize(args, kwargs, result):
            c["automorphisms.minimize.steps"] += len(result[1])

        def generate_dataset(args, kwargs, result):
            c["datasets.records"] += len(result)
            c["datasets.nonmin"] += sum(r.label == "nonmin" for r in result.records)
            c["words_in"] += len(result)

        def feature_matrix(args, kwargs, result):
            rows = len(_arg(args, kwargs, 0, "words"))
            c["features.feature_matrix.rows"] += rows
            if self._inside("pipeline.evaluate"):
                c["evaluate_rows"] += rows

        def evaluate(args, kwargs, result):
            c["test_words"] += len(_arg(args, kwargs, 1, "test"))

        def kmeans(args, kwargs, result):
            c["classifiers.kmeans.iterations"] += result.iterations

        def clustering_experiment(args, kwargs, result):
            c["words_in"] += len(_arg(args, kwargs, 0, "data"))

        def predict_reducer(args, kwargs, result):
            c["words_in"] += 1

        return {"words.least_rotation": least_rotation,
                "automorphisms.apply_automorphism": apply_automorphism,
                "automorphisms.minimize": minimize,
                "datasets.generate_dataset": generate_dataset,
                "features.feature_matrix": feature_matrix,
                "pipeline.evaluate": evaluate,
                "classifiers.kmeans": kmeans,
                "clustering.clustering_experiment": clustering_experiment,
                "clustering.predict_reducer": predict_reducer}

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer module, everywhere a
        whitmin module refers to it, and the methods in METHODS."""
        originals: Dict[int, tuple] = {}
        for modname, layer in LAYERS.items():
            mod = sys.modules[modname]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_")):
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for mod in self._whitmin_modules():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))
        for (modname, cls, meth), name in METHODS.items():
            klass = getattr(sys.modules[modname], cls)
            fn = vars(klass)[meth]
            setattr(klass, meth, self._wrap(fn, name))
            self._patched.append((klass, meth, fn))
        left = [f"{mod.__name__}.{attr}" for mod in self._whitmin_modules()
                for attr, obj in vars(mod).items()
                if id(obj) in originals and originals[id(obj)][0] is obj]
        left += [f"{modname}.{cls}.{meth}" for modname, cls, meth in METHODS
                 if not hasattr(vars(getattr(sys.modules[modname], cls))[meth], "__traced__")]
        if left:
            self.uninstall()
            raise RuntimeError("unwrapped whitmin functions remain: " + ", ".join(left))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, obj = self._patched.pop()
            setattr(owner, attr, obj)

    @staticmethod
    def _whitmin_modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "whitmin" or name.startswith("whitmin."))]

    # -- results ------------------------------------------------------------

    def layer_values(self, iterations: int) -> Dict[str, float]:
        """Per-iteration calls, self times and counters, by metric name."""
        out: Dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid] / iterations
            out[f"{name}.self_s"] = self.self_s[nid] / iterations
        c = self.counts
        for key in COUNTERS:
            out[key] = c[key] / iterations
        applies = self.calls[self.ids["automorphisms.apply_automorphism"]]
        out["automorphisms.applies_per_word"] = applies / c["words_in"] if c["words_in"] else 0.0
        records = c["datasets.records"]
        out["datasets.nonmin_fraction"] = c["datasets.nonmin"] / records if records else 0.0
        out["pipeline.feature_rows_per_test_word"] = (
            c["evaluate_rows"] / c["test_words"] if c["test_words"] else 0.0)
        return out

    def write_spans(self, path: Path, run_id: str) -> None:
        t_base = self._starts[0] if self._starts else 0.0
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(f"# run {run_id}; spans kept {len(self._starts)}, dropped {self.dropped}\n")
            fh.write("span,parent,iteration,name,start_s,end_s\n")
            for i in range(len(self._starts)):
                fh.write(f"{self._span_ids[i]},{self._parents[i]},{self._iterations[i]},"
                         f"{self.names[self._name_ids[i]]},{self._starts[i] - t_base:.9f},"
                         f"{self._ends[i] - t_base:.9f}\n")
