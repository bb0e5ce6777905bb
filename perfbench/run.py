"""Benchmark of the whitmin library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the benchmark imports whitmin from src/.
Each workload is a closed loop with one client: one process, one thread,
each iteration starting when the previous one returns, every iteration on the
same inputs built from --seed.  BLAS is pinned to one thread.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
runs half of the time untraced and half with the tracer installed, and prints
the per-layer metrics.  The last line of standard output is the result
object; the line before it is a report with the environment, the raw times,
the workload-specific metrics and the artifact digests.  Reports and span
files are also written to .perfbench_out/.  See perfbench/README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import logging
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference_digests.json"

# Reference digests are kept for these two seeds (see make_reference.py).
DEFAULT_SEED = 1
HOLDOUT_SEED = 2
SETUP_REPEATS = 3
MIN_ITERATIONS = 3
# The traced run's top-level spans must cover the traced iterations' wall
# time to within this share: whitmin calls are all the timed phase does.
TOP_LEVEL_TOLERANCE = 0.02
# Host-speed record: a fixed loop timed before set-up and after the timed
# phase.  Reported only.
PROBE_OPS = 1_000_000
# Calibration: three small fixed kernels, timed before and after every
# timed sample and between the steps of an iteration.  Other tenants of a
# shared host slow everything in episodes that last from seconds to minutes,
# and slow some kinds of code more than others.  A step's seconds are scaled
# by the mean over the kernels of reference time / (mean of the kernel's two
# times around the step): its seconds on a host where the kernels take their
# reference times, which are their times on the unloaded 2-CPU host the
# benchmark was written on.  See README.md for the measurements.
CALIBRATION_REFERENCE_S = (0.0078, 0.0063, 0.0056)
_WALK = [(i * 40503 + 12345) % 65536 for i in range(65536)]
_MATRIX = np.random.default_rng(0).random((60, 60))

WORKLOAD_UNITS = {
    "gen_words_per_s": "words/s", "train_s": "s", "select_s": "s",
    "classify_words_per_s": "words/s", "cluster_s": "s", "accuracy": "ratio",
    "accuracy_long": "ratio", "avg_r_max": "ratio", "reducer_hit_rate": "ratio",
}


def spin(ops: int) -> float:
    """Seconds for a fixed pure-Python loop of `ops` steps."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(ops):
        acc += i * i % 7
    return time.perf_counter() - t0


def calibrate():
    """Seconds of each calibration kernel: pure-Python arithmetic, a
    pointer chase through a 64K-entry list with tuple slicing, and small
    numpy matrix-vector products."""
    arithmetic = spin(100_000)
    t0 = time.perf_counter()
    j = acc = 0
    for _ in range(60_000):
        j = _WALK[j]
        acc += j & 3
    for k in range(0, len(_WALK), 256):
        tuple(_WALK[k:k + 128])
    t1 = time.perf_counter()
    v = np.ones(60)
    for _ in range(1500):
        a = _MATRIX @ v
        v = a / a.sum()
    return arithmetic, t1 - t0, time.perf_counter() - t1


def host_scale(before, after) -> float:
    return statistics.fmean(ref * 2 / (b + a) for ref, b, a
                            in zip(CALIBRATION_REFERENCE_S, before, after))


def timed(fn):
    """Run fn() between two calibrations.  Returns its result, its wall
    seconds and the host scale for them."""
    before = calibrate()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, host_scale(before, calibrate())


def run_iteration(workload, inputs):
    """One iteration, with a calibration loop before it and after each step.
    Returns its Outcome and a sample: raw wall and CPU seconds, the same at
    the reference host speed, and the scaled seconds of each phase."""
    steps = workload.run(inputs, OUT)
    sample = {"wall": 0.0, "cpu": 0.0, "scaled_wall": 0.0, "scaled_cpu": 0.0, "phases": {}}
    before = calibrate()
    out = None
    while out is None:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            phase = next(steps)
        except StopIteration as stop:
            phase, out = "output", stop.value
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        after = calibrate()
        scale = host_scale(before, after)
        before = after
        sample["wall"] += wall
        sample["cpu"] += cpu
        sample["scaled_wall"] += wall * scale
        sample["scaled_cpu"] += cpu * scale
        sample["phases"][phase] = sample["phases"].get(phase, 0.0) + wall * scale
    return out, sample


def import_seconds() -> float:
    """Import time of whitmin in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]);"
            " import whitmin; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "whitmin").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit_hash():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(probes) -> dict:
    import numpy
    import scipy
    return {
        "commit": commit_hash(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "host_probe_s": probes,
    }


class FallbackCounter(logging.Handler):
    """Counts whitmin.datasets' 'substitution retries exhausted' warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "substitution retries exhausted" in record.getMessage():
            self.count += 1


def digest(artifact) -> str:
    data = artifact.read_bytes() if isinstance(artifact, Path) else artifact.encode()
    return hashlib.sha256(data).hexdigest()


def timed_loop(workload, inputs, seconds, min_iterations, on_start=None):
    """Run iterations until `seconds` have passed and at least
    `min_iterations` finished.  Returns (iterations, failed, error): the
    loop stops at the first iteration that raises; `failed` holds its raw
    seconds."""
    iterations = []
    deadline = time.perf_counter() + seconds
    while len(iterations) < min_iterations or time.perf_counter() < deadline:
        if on_start is not None:
            on_start(len(iterations))
        t0 = time.perf_counter()
        try:
            out, sample = run_iteration(workload, inputs)
        except Exception:
            wall = time.perf_counter() - t0
            failed = {"wall": wall, "cpu": wall, "scaled_wall": wall, "scaled_cpu": wall}
            return iterations, failed, traceback.format_exc()
        if iterations:
            # only the last iteration's objects are checked; dropping the
            # others keeps peak memory independent of the iteration count
            iterations[-1]["out"].keep = ()
        sample["digests"] = {name: digest(a) for name, a in out.artifacts.items()}
        sample["out"] = out
        iterations.append(sample)
    return iterations, None, None


def check_digests(workload_name, seed, iterations):
    """Errors for artifacts that differ between iterations or from the
    reference digests kept for this seed."""
    errors = []
    first = iterations[0]["digests"]
    for i, it in enumerate(iterations[1:], start=1):
        for name, d in it["digests"].items():
            if first.get(name) != d:
                errors.append(f"{name}: iteration {i} differs from iteration 0")
    refs = json.loads(REFERENCE.read_text()).get(workload_name, {}).get(str(seed))
    if refs is not None:
        for name in sorted(set(refs) | set(first)):
            if refs.get(name) != first.get(name):
                errors.append(f"{name}: digest differs from the reference for seed {seed}")
    return errors, refs is not None


def workload_metrics(iterations, check_values):
    """Metrics defined on only some workloads: medians over the iterations,
    times at the reference host speed."""
    def med(fn):
        return statistics.median(fn(it["out"].counts, it["phases"]) for it in iterations)

    first = iterations[0]
    values = {}
    if "gen" in first["phases"]:
        values["gen_words_per_s"] = med(lambda c, p: c["gen_words"] / p["gen"])
    for phase in ("train", "select", "cluster"):
        if phase in first["phases"]:
            values[f"{phase}_s"] = med(lambda c, p: p[phase])
    if "classify" in first["phases"]:
        values["classify_words_per_s"] = med(lambda c, p: c["classify_words"] / p["classify"])
    values.update(first["out"].values)
    values.update(check_values)
    return {k: {"value": v, "unit": WORKLOAD_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "whitmin" / "__init__.py").is_file():
        print(f"whitmin sources not found under {SRC}", file=sys.stderr)
        return 2
    probes = [spin(PROBE_OPS)]
    sys.path.insert(0, str(SRC))
    import whitmin
    if Path(whitmin.__file__).resolve().parent != SRC / "whitmin":
        print(f"imported whitmin from {whitmin.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    imports = []
    for _ in range(SETUP_REPEATS):
        seconds, _, scale = timed(import_seconds)
        imports.append((seconds, scale))
    # attached before set-up so that no warning reaches stderr; counts only
    # the timed phase
    fallbacks = FallbackCounter()
    logging.getLogger("whitmin.datasets").addHandler(fallbacks)
    builds = []
    for _ in range(SETUP_REPEATS):
        inputs, wall, scale = timed(lambda: workload.setup(args.seed))
        builds.append((wall, scale))
    fallbacks.count = 0

    tracer = None
    if args.trace:
        untraced, failed_try, error = timed_loop(workload, inputs, args.seconds / 2, 1)
        traced = []
        if error is None:
            tracer = Tracer()
            tracer.install()
            fallbacks.count = 0
            try:
                traced, failed_try, error = timed_loop(
                    workload, inputs, args.seconds / 2, 1,
                    on_start=lambda i: setattr(tracer, "iteration", i))
            finally:
                tracer.uninstall()
        iterations = untraced + traced
    else:
        iterations, failed_try, error = timed_loop(workload, inputs, args.seconds, MIN_ITERATIONS)
    probes.append(spin(PROBE_OPS))

    errors = [f"iteration failed:\n{error}"] if error else []
    check_values = {}
    attempted = sum(it["out"].ops for it in iterations) + (1 if error else 0)
    has_reference = False
    if iterations:
        digest_errors, has_reference = check_digests(args.workload, args.seed, iterations)
        errors += digest_errors
        check_errors, check_values = workload.check(inputs, iterations[-1]["out"])
        errors += check_errors

    # a failed attempt's sample stands in when no iteration finished
    timed_samples = iterations or [failed_try]
    raw_walls = [it["wall"] for it in timed_samples]
    report = {
        "run": run_id, "seconds": args.seconds, "iterations": len(iterations),
        "setup": {"import_s": [w for w, _ in imports], "build_s": [w for w, _ in builds],
                  "host_scale": [k for _, k in imports + builds]},
        "iteration_wall_s": raw_walls,
        "iteration_scaled_wall_s": [it["scaled_wall"] for it in timed_samples],
        "raw_wall_median_s": statistics.median(raw_walls),
        "environment": environment(probes),
        "substitution_fallbacks": fallbacks.count,
        "reference_checked": has_reference,
    }
    if iterations:
        report["workload_metrics"] = workload_metrics(iterations, check_values)
        report["digests"] = iterations[0]["digests"]

    if not args.trace:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": (statistics.median(w * k for w, k in imports)
                        + statistics.median(w * k for w, k in builds)),
            "wall_s": statistics.median(it["scaled_wall"] for it in timed_samples),
            "cpu_s": statistics.median(it["scaled_cpu"] for it in timed_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    elif traced:
        wanted = spec["per_layer"]
        traced_wall = sum(it["wall"] for it in traced)
        share = tracer.top_level_s / traced_wall
        if not 1 - TOP_LEVEL_TOLERANCE <= share <= 1 + 1e-9:
            errors.append(f"top-level spans cover {share:.4f} of the traced wall time")
        values = tracer.layer_values(len(traced))
        # calls per iteration into every wrapped function, summed by layer
        report["layer_calls"] = {}
        for name, calls in zip(tracer.names, tracer.calls):
            layer = name.split(".")[0]
            report["layer_calls"][layer] = report["layer_calls"].get(layer, 0) + calls / len(traced)
        values["datasets.substitution_fallbacks"] = fallbacks.count / len(traced)
        values["trace.top_level_share"] = share
        values["trace.overhead_s"] = (statistics.median(it["scaled_wall"] for it in traced)
                                      - statistics.median(it["scaled_wall"] for it in untraced))
        tracer.write_spans(OUT / f"spans-{run_id}.csv", run_id)
    else:
        wanted = spec["per_layer"]
        values = {m["name"]: 0.0 for m in wanted}
    failed = len(errors)
    report["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    report["errors"] = errors
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    report["result"] = result
    (OUT / f"report-{run_id}.json").write_text(json.dumps(report, indent=1))
    for e in errors:
        print(f"ERROR: {e}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
