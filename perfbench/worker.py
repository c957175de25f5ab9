"""One workload in a fresh interpreter: set up, say ``ready``, measure, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS threads capped. The speed meter starts first; the worker
then imports labelnoise, builds the workload's inputs and prints
``ready <raw seconds> <normalised seconds>`` for that stretch, so the
parent can time set-up. With ``--setup-only`` it exits there. Otherwise
it runs timed passes (light instrumentation only) until ``--seconds``
have passed and at least the workload's minimum number of passes is
done; with ``--trace 1`` it then runs ``TRACED_PASSES`` traced passes and
writes the spans and per-layer metrics under ``--trace-dir``. The last
line of its output is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
TRACED_PASSES = 2
# Passes below which a run keeps going past --seconds, so that every
# latency is a median over more than one pass.
MIN_PASSES = {"trend": 2, "scale": 2, "hidden": 3}
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest ladder percentile that
    leaves at least 10 samples beyond it; the median when none does."""
    ordered = sorted(samples)
    n = len(ordered)
    for level in TAIL_LADDER:
        rank = max(1, -(-int(level * n) // 100))  # nearest rank, ceil(level * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], level, n
    return statistics.median(ordered), 50.0, n


class Measurement:
    """Runs passes of one workload and turns their intervals into seconds."""

    def __init__(self, workload, meter, reference):
        self.workload = workload
        self.meter = meter
        self.reference = reference

    def seconds(self, interval) -> float:
        return self.meter.normalised(*interval)

    def run_pass(self, instrument):
        instrument.install()
        try:
            result = self.workload.run_pass(self.meter.now)
        finally:
            instrument.restore()
        self.workload.check(result, self.reference)
        counts = instrument.counts
        result.counts["trained_rows"] = tracing.trained_rows(counts)
        if self.workload.runs_via_harness:
            # Per-run intervals come from the harness's per-run function.
            result.run_intervals = counts["run_intervals"]
        else:  # one pipeline: the operation is the run
            result.run_intervals = list(result.op_intervals.values())
        if not result.failures:
            check_hooks(result, self.workload.runs_via_harness)
        result.wall_s = sum(map(self.seconds, result.op_intervals.values()))
        result.raw_wall_s = sum(end - start for start, end in result.op_intervals.values())
        return result


class HookError(Exception):
    """The timed hooks saw none of the work: the package changed under them."""


def check_hooks(result, runs_via_harness: bool) -> None:
    """Raise unless the timed hooks saw the pass's training rows and runs.

    A later change that bypasses a hooked function must update the hooks
    in ``tracing.py``; reading per-operation latencies or zero rows instead
    would pass as a regression or a meaningless ratio.
    """
    if result.counts["trained_rows"] == 0:
        raise HookError("no training rows reached the hooked loss-gradient function")
    if runs_via_harness and len(result.run_intervals) != result.counts["runs"]:
        raise HookError(f"the hooked per-run function saw {len(result.run_intervals)}"
                        f" runs; the experiments report {result.counts['runs']}")


def count_mismatches(counts: list[dict]) -> list[str]:
    """Names of counts that differ between passes over the same inputs."""
    names = sorted(set().union(*counts))
    return [name for name in names if len({c.get(name) for c in counts}) > 1]


def failed_operations(passes) -> list[str]:
    """Operations that raised, failed a check, or whose output digest differs
    from the first pass's: every pass repeats the same inputs."""
    first = passes[0].digests
    failed = []
    for index, result in enumerate(passes):
        for op in result.op_intervals:
            messages = list(result.failures.get(op, []))
            if op not in result.failures and result.digests.get(op) != first.get(op):
                messages.append("output digest differs from the first pass")
            if messages:
                failed.append(f"pass {index} {op}: " + "; ".join(messages))
    return failed


def timed_report(measurement, passes) -> dict:
    from workloads import combined_digest

    first = passes[0]
    wall_s = statistics.median(p.wall_s for p in passes)
    # Every pass repeats the same runs in the same order: one latency per
    # distinct run, its median over the passes.
    per_pass = [[measurement.seconds(i) for i in p.run_intervals] for p in passes]
    runs = [statistics.median(latencies) for latencies in zip(*per_pass)]
    tail, tail_level, tail_n = tail_latency(runs)
    accuracies = list(first.accuracies.values())
    return {
        "passes": len(passes),
        "metrics": {
            "wall_s": wall_s,
            "run_p50_s": statistics.median(runs),
            "run_tail_s": tail,
            "train_examples_per_s": first.counts["trained_rows"] / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mean_accuracy_pct": sum(accuracies) / len(accuracies) if accuracies else 0.0,
        },
        "pass_wall_s": [p.wall_s for p in passes],
        "raw_wall_s": [p.raw_wall_s for p in passes],
        "tail": {"percentile": tail_level, "samples": tail_n},
        "digest": combined_digest(first.digests),
        "counts": first.counts,
        "count_mismatches": count_mismatches([p.counts for p in passes]),
    }


def traced_report(measurement, untraced_wall_s, args, traced) -> dict:
    """Traced passes, appended to ``traced``: per-layer metrics, their exact
    counts, and the spans written to disk."""
    tracer = tracing.Instrument(tracing.TRACE_TARGETS, measurement.meter.now, spans=True)
    per_pass = []
    span_lines = []
    for index in range(TRACED_PASSES):
        result = measurement.run_pass(tracer)
        traced.append(result)
        metrics = tracing.layer_metrics(tracer.names, tracer.spans, tracer.counts,
                                        measurement.meter.normalised)
        metrics["trace_overhead_s"] = result.wall_s - untraced_wall_s
        per_pass.append(metrics)
        span_lines.extend(
            f"[{index},{name_id},{t0:.9f},{t1:.9f},{parent},{run_id}]\n"
            for name_id, t0, t1, parent, run_id in tracer.spans
        )
    layer = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    mismatches = count_mismatches([tracing.exact_counts(m) for m in per_pass])

    trace_dir = Path(args.trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    spans_path = trace_dir / f"{stem}.spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"names": tracer.names,
                             "fields": ["pass", "name", "start", "end", "parent", "run"]})
                 + "\n")
        fh.writelines(span_lines)
    layers_path = trace_dir / f"{stem}.layers.json"
    layers_path.write_text(json.dumps(
        {"per_layer": layer, "per_pass": per_pass, "count_mismatches": mismatches},
        indent=1, sort_keys=True) + "\n")
    return {"per_layer": layer, "count_mismatches": mismatches,
            "files": [str(spans_path), str(layers_path)]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("trend", "scale", "hidden"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with speed.SpeedMeter() as meter:
        start = meter.now()
        # Set-up: the package import and the workload's inputs.
        import workloads
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        end = meter.now()
        print(f"ready {end - start:.9f} {meter.normalised(start, end):.9f}", flush=True)
        if args.setup_only:
            return 0

        reference = json.loads((HERE / "reference.json").read_text())
        measurement = Measurement(workload, meter, reference["accuracy"])
        timed = tracing.Instrument(tracing.TIMED_TARGETS, meter.now, spans=False)
        passes = []
        began = time.perf_counter()
        while (len(passes) < MIN_PASSES[args.workload]
               or time.perf_counter() - began < args.seconds):
            passes.append(measurement.run_pass(timed))
        report = timed_report(measurement, passes)
        report["sampling_share"] = meter.sampling_share()
        if args.trace:
            traced = []
            report["trace"] = traced_report(
                measurement, report["metrics"]["wall_s"], args, traced)
            passes += traced

    report["attempted"] = sum(len(p.op_intervals) for p in passes)
    report["failures"] = failed_operations(passes)
    report["failed"] = len(report["failures"])
    report["env"] = environment()
    print(json.dumps(report), flush=True)
    return 0


def environment() -> dict:
    """Versions the timings depend on (imported already by the workload)."""
    import labelnoise
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "labelnoise": os.path.dirname(labelnoise.__file__),
    }


if __name__ == "__main__":
    sys.exit(main())
