"""The benchmark's own correctness checks pass on every workload.

`perfbench/run.py` marks a run incorrect when an iteration's artifacts
differ from another's or from the reference digests kept for its seed, when
a workload's check finds an error, or, with `--trace 1`, when a per-layer
metric of BENCHMARK.json has no value.  A traced run installs the tracer's
wrappers, so a change can pass untraced and still fail there.  Each test
here runs one untraced and one traced iteration of a workload at seed 1 in
a fresh interpreter, with BLAS pinned to one thread as run.py pins it, and
makes every one of those checks; it times nothing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
# metrics run.py computes itself rather than reading from the tracer
RUNNER_METRICS = {"datasets.substitution_fallbacks", "trace.top_level_share",
                  "trace.overhead_s"}

# argv: repository root, workload name, seed, output directory.  Prints the
# digest errors, whether reference digests exist, the workload's check
# errors and the tracer's metric names, as one JSON object.
SCRIPT = r"""
import json, sys
from pathlib import Path
root, name, seed, out = sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
sys.path[:0] = [root + "/src", root + "/perfbench"]
import run
from tracer import Tracer
from workloads import WORKLOADS

workload = WORKLOADS[name]
inputs = workload.setup(seed)
iterations, check_errors, tracer = [], [], None
for traced in (False, True):
    if traced:
        tracer = Tracer()
        tracer.install()
    steps = workload.run(inputs, out / ("traced" if traced else "untraced"))
    try:
        while True:
            next(steps)
    except StopIteration as stop:
        outcome = stop.value
    finally:
        if traced:
            tracer.uninstall()
    iterations.append({"digests": {k: run.digest(a) for k, a in outcome.artifacts.items()}})
    check_errors += workload.check(inputs, outcome)[0]
digest_errors, has_reference = run.check_digests(name, seed, iterations)
print(json.dumps({"digest_errors": digest_errors, "has_reference": has_reference,
                  "check_errors": check_errors,
                  "metrics": sorted(tracer.layer_values(1))}))
"""


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_untraced_and_traced_iterations_pass_the_checks(workload, tmp_path):
    for sub in ("untraced", "traced"):
        (tmp_path / sub).mkdir()
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), workload, str(SEED), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["has_reference"], f"no reference digests for {workload} seed {SEED}"
    assert result["digest_errors"] == []
    assert result["check_errors"] == []
    per_layer = {m["name"] for m in _spec()["per_layer"]}
    assert sorted(per_layer - set(result["metrics"]) - RUNNER_METRICS) == []
