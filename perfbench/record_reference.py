"""Record the reference accuracies and output digests in reference.json.

Run from the root of a checkout, with BLAS threads capped as run.py does:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/record_reference.py 0 20

It runs one pass of every workload on each seed in [first, last). An
accuracy reference is the mean over those seeds, with a tolerance of five
standard deviations and at least five points, so that every seed passes
and a change that breaks training does not. Digests are kept per seed.
Re-record only for a change that is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    accuracies: dict[str, list[float]] = {}
    digests: dict[str, dict[str, str]] = {}
    for seed in range(first, last):
        for name, workload_cls in workloads.WORKLOADS.items():
            with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
                workload = workload_cls(seed, Path(tmp))
                result = workload.run_pass(time.perf_counter)
                workload.check(result, {})
            for op, accuracy in result.accuracies.items():
                accuracies.setdefault(workloads.reference_key(op), []).append(accuracy)
            digests.setdefault(name, {})[str(seed)] = workloads.combined_digest(result.digests)
            print(f"seed {seed} {name}: {result.accuracies}", flush=True)
    reference = {
        "seeds": [first, last],
        "accuracy": {
            op: {
                "mean": round(statistics.mean(values), 2),
                "tolerance": max(5.0, math.ceil(10 * statistics.stdev(values)) / 2),
            }
            for op, values in accuracies.items()
        },
        "digests": digests,
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
