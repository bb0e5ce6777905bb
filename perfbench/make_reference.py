"""Write reference_digests.json: the artifact digests of one iteration of every
workload, on the default seed and on the holdout seed.

    python3 perfbench/make_reference.py

Run it from the root of a checkout, and only to accept an intended change in
whitmin's output: every benchmark run on these seeds whose digests differ
from the file is reported as failed.
"""

import json
import logging
import sys

import run

sys.path.insert(0, str(run.SRC))

from workloads import WORKLOADS  # noqa: E402  (needs whitmin on sys.path)


def main() -> None:
    logging.getLogger("whitmin.datasets").addHandler(logging.NullHandler())
    run.OUT.mkdir(exist_ok=True)
    refs = {}
    for name, workload in WORKLOADS.items():
        refs[name] = {}
        for seed in (run.DEFAULT_SEED, run.HOLDOUT_SEED):
            out, _ = run.run_iteration(workload, workload.setup(seed))
            refs[name][str(seed)] = {k: run.digest(a) for k, a in sorted(out.artifacts.items())}
    run.REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
