"""The benchmark's per-layer metrics name functions that exist.

perfbench/tracer.py wraps every public function of the modules in its LAYERS
table, and `run.py --trace 1` fails when a `<layer>.<name>.calls` or
`.self_s` metric in BENCHMARK.json names no traced function.  These tests
read both files, so a deletion in whitmin cannot break `--trace 1`
unnoticed."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _span_names():
    """`<layer>.<name>` of every per-layer call count and self time."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return sorted({m["name"].rsplit(".", 1)[0] for m in metrics
                   if m["name"].endswith((".calls", ".self_s"))})


def _traced(span, tracer):
    """Whether the tracer wraps a function under this span name: a method in
    METHODS, or a public function defined in a module of that layer."""
    methods = {name: key for key, name in tracer.METHODS.items()}
    if span in methods:
        modname, cls, meth = methods[span]
        klass = getattr(importlib.import_module(modname), cls, None)
        return klass is not None and inspect.isfunction(vars(klass).get(meth))
    layer, name = span.split(".", 1)
    for modname, lay in tracer.LAYERS.items():
        if lay != layer or name.startswith("_"):
            continue
        fn = vars(importlib.import_module(modname)).get(name)
        if inspect.isfunction(fn) and fn.__module__ == modname:
            return True
    return False


def test_every_span_metric_names_a_traced_function():
    tracer = _tracer()
    missing = [span for span in _span_names() if not _traced(span, tracer)]
    assert not missing, f"BENCHMARK.json names untraceable functions: {missing}"


def test_every_layer_module_loads_with_the_package():
    layers = sorted(_tracer().LAYERS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, whitmin; print(json.dumps(sorted(sys.modules)))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert [m for m in layers if m not in loaded] == []
