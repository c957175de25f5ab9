"""Benchmark for labelnoise: run one workload on one seed and report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {trend,scale,hidden} --seed N \\
        --seconds S --trace {0,1}

The workload runs alone in a child interpreter (``worker.py``) with BLAS
threads capped at 1, so set-up time and peak memory belong to it. Set-up
is timed ``SETUP_SAMPLES`` times, from starting a fresh interpreter until
it reports its inputs built, and the median is reported. Times are
normalised to a reference machine speed (see ``speed.py``); the raw times
are printed beside them. Human-readable lines come first; the last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
from traced passes run after the timed ones, and the spans are written
under ``.perfbench_out/``. Work files go to ``.perfbench_work/`` and are
removed at exit. The exit code is non-zero, with no JSON line, when the
workload cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
THREAD_CAP = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The time limit is --seconds plus this: five set-ups, the pass that runs
# past --seconds, the minimum passes and the two traced passes; about
# 95 s of it are used on trend with tracing.
DEADLINE_SLACK_S = 160


class BenchmarkError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARS:
        env[name] = str(THREAD_CAP)
    return env


def start_worker(argv: list[str], env: dict, root: Path, deadline: float):
    """Start a worker and wait for its ``ready`` line.

    Returns (process, raw set-up seconds, normalised set-up seconds). The
    worker normalises the part it measures itself; interpreter start-up
    before that is taken as read.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True)
    fields = proc.stdout.readline().split()
    raw_s = time.perf_counter() - t0
    if len(fields) != 3 or fields[0] != "ready":
        stop(proc)
        raise BenchmarkError(f"worker failed during set-up (exit code {proc.returncode})")
    if time.perf_counter() > deadline:
        stop(proc)
        raise BenchmarkError("set-up ran past the time limit")
    child_raw_s, child_normalised_s = float(fields[1]), float(fields[2])
    return proc, raw_s, raw_s - child_raw_s + child_normalised_s


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def git_commit(root: Path) -> str | None:
    """The checkout's commit, looking no higher than the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run(args, root: Path) -> dict:
    if not (root / "src" / "labelnoise" / "__init__.py").is_file():
        raise BenchmarkError("run from the root of a labelnoise checkout: src/labelnoise missing")
    deadline = time.perf_counter() + args.seconds + DEADLINE_SLACK_S
    env = child_env(root)
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    try:
        setup = []
        raw_setup = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, raw_s, seconds = start_worker(common + ["--setup-only"], env, root, deadline)
            setup.append(seconds)
            raw_setup.append(raw_s)
            proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
            if proc.returncode != 0:
                raise BenchmarkError(f"set-up worker exited {proc.returncode}")
        measure = common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--trace-dir", str(root / ".perfbench_out")]
        proc, raw_s, seconds = start_worker(measure, env, root, deadline)
        setup.append(seconds)
        raw_setup.append(raw_s)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            stop(proc)
            raise BenchmarkError("the workload ran past the time limit") from None
        if proc.returncode != 0:
            raise BenchmarkError(f"worker exited {proc.returncode}")
        report = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass
    report["metrics"]["setup_s"] = statistics.median(setup)
    report["raw_setup_s"] = raw_setup
    report["env"].update(nproc=len(os.sched_getaffinity(0)), thread_cap=THREAD_CAP,
                         commit=git_commit(root), seed=args.seed)
    report["digest_reference"] = digest_reference(args.workload, args.seed, report["digest"])
    return report


def print_report(args, report: dict, units: dict) -> None:
    print(f"workload {args.workload} seed {args.seed}: {report['passes']} timed passes")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for name, value in report["metrics"].items():
        note = ""
        if name == "run_tail_s":
            note = (f"  (p{report['tail']['percentile']:g} of {report['tail']['samples']}"
                    " run latencies)")
        print(f"  {name} = {value:.6g} {units.get(name, '')}{note}")
    print(f"  error_rate = {report['failed'] / report['attempted']:.6g} ratio"
          f"  ({report['failed']} of {report['attempted']} operations failed)")
    for failure in report["failures"][:20]:
        print(f"  FAILED {failure}")
    if len(report["failures"]) > 20:
        print(f"  ... and {len(report['failures']) - 20} more")
    print("per pass: " + " ".join(f"{s:.4g}" for s in report["pass_wall_s"]) + " s")
    print("raw (not normalised) seconds: set-up "
          + " ".join(f"{s:.4g}" for s in report["raw_setup_s"])
          + "; passes " + " ".join(f"{s:.4g}" for s in report["raw_wall_s"]))
    print("machine speed, raw over normalised seconds per pass: "
          + " ".join(f"{r / n:.4g}" for r, n in zip(report["raw_wall_s"], report["pass_wall_s"]))
          + f"; sampling took {100 * report['sampling_share']:.2g}% of the real time")
    print(f"digest {report['digest']}  ({report['digest_reference']})")
    print(f"counts {json.dumps(report['counts'], sort_keys=True)}")
    if report["count_mismatches"]:
        print(f"COUNTS DIFFER between passes: {', '.join(report['count_mismatches'])}")
    trace = report.get("trace")
    if trace:
        print("per-layer metrics (traced passes):")
        for name, value in sorted(trace["per_layer"].items()):
            print(f"  {name} = {value:.6g}")
        if trace["count_mismatches"]:
            print("COUNTS DIFFER between traced passes: "
                  + ", ".join(trace["count_mismatches"]))
        print("trace files: " + ", ".join(trace["files"]))


def digest_reference(workload: str, seed: int, digest: str) -> str:
    """Compare with the recorded digest; a difference is a flag, not a failure."""
    recorded = json.loads((HERE / "reference.json").read_text())["digests"]
    expected = recorded.get(workload, {}).get(str(seed))
    if expected is None:
        return "no reference recorded for this seed"
    if expected == digest:
        return "matches the recorded reference"
    return "FLAG: differs from the recorded reference; outputs changed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="labelnoise benchmark")
    parser.add_argument("--workload", required=True, choices=("trend", "scale", "hidden"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        report = run(args, root)
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print_report(args, report, units)

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = report["trace"]["per_layer"]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = report["metrics"]
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
