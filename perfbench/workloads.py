"""The benchmark's three workloads and the checks on their outputs.

Each workload is built once from ``--seed`` (the constructor), then driven
in passes (``run_pass``); a pass is a list of operations, each timed as an
interval on the given clock. ``check`` runs after a pass, outside the
timed region and with no instrumentation attached, and records the
failures it finds. Every pass of one process repeats the same inputs, so
each must produce the same digests.

The benchmark drives labelnoise only through its public functions, looked
up on the module at call time so that tracing wrappers apply.

``runs_via_harness`` says whether a workload's runs go through the
harness's per-run function, whose calls are then its run latencies; on a
workload without it the whole operation is the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import labelnoise
import labelnoise.cli


@dataclass
class PassResult:
    """Per-operation clock intervals, failures, accuracies and output digests."""

    op_intervals: dict[str, tuple[float, float]] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)
    accuracies: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    run_intervals: list[tuple[float, float]] = field(default_factory=list)
    wall_s: float = 0.0      # normalised seconds, summed over operations
    raw_wall_s: float = 0.0  # the same, as read from the clock

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, []).append(message)


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def combined_digest(digests: dict[str, str]) -> str:
    """One digest over every operation's output digest, in operation order."""
    return _sha256(*(f"{op}={value}\n".encode() for op, value in digests.items()))


def reference_key(op: str) -> str:
    return op.split("@")[0]


def _check_accuracies(result: PassResult, op: str, per_run, mean: float,
                      reference: dict) -> None:
    """Accuracies lie in [0, 100]; the mean is within tolerance of the reference.

    The reference is keyed by the operation's name up to any ``@``.
    """
    for accuracy in per_run:
        if not 0.0 <= accuracy <= 100.0:
            result.fail(op, f"run accuracy {accuracy} outside [0, 100]")
    result.accuracies[op] = mean
    ref = reference.get(reference_key(op))
    if ref is None:
        result.fail(op, "no reference accuracy recorded")
    elif abs(mean - ref["mean"]) > ref["tolerance"]:
        result.fail(op, f"mean accuracy {mean:.2f} is more than {ref['tolerance']}"
                        f" from the reference {ref['mean']}")


# --- trend -------------------------------------------------------------------
# The 11 trend experiments of the acceptance suite, copied from
# tests/test_acceptance.py (TREND_DATASET, TRAIN_BASE, ExperimentMemo) so
# that an edit to the tests does not shift the benchmark. Only base_seed
# comes from --seed. Early stopping makes the work depend on the base seed
# (trained rows differed by up to 15% between seeds), so a pass runs the
# suite on two base seeds, 2 * seed and 2 * seed + 1, to halve that spread;
# --seed 1 includes the acceptance suite's own base seed 2.

_TREND_DATASET = dict(
    num_classes=4, clips_per_class=50, patches_per_clip=3, feature_dim=8,
    cluster_spread=0.25, test_clips_per_class=100,
)
_TREND_TRAIN = dict(
    max_epochs=200, batch_size=64, initial_lr=0.01, val_fraction=0.3,
    early_stop_patience=40, lr_halving_patience=10,
)
_TREND_RUNS = 7
_START_EPOCH = 10
_PRUNE_COUNT = 28  # 20% of the 140-clip train split


def _trend_configs(seed: int) -> dict:
    ln = labelnoise
    iv_04 = ln.NoiseSpec(ln.NoiseKind.SYMMETRIC_IV, rate=0.4)
    mixed = ln.NoiseSpec(
        ln.NoiseKind.SYMMETRIC_IV, rate_by_class={0: 0.2, 1: 0.2, 2: 0.5, 3: 0.5}
    )
    cce = ln.LossSpec(ln.LossKind.CCE)
    lq07 = ln.LossSpec(ln.LossKind.LQ, q=0.7)

    def config(loss, noise, auto=False, **train):
        return ln.ExperimentConfig(
            dataset=ln.DatasetParams(**_TREND_DATASET),
            train=ln.TrainConfig(loss=loss, **_TREND_TRAIN, **train),
            noise=noise,
            runs=_TREND_RUNS,
            base_seed=seed,
            auto_noise_groups=auto,
        )

    return {
        "cce_noisy": config(cce, iv_04),
        "lq03_noisy": config(ln.LossSpec(ln.LossKind.LQ, q=0.3), iv_04),
        "lq05_noisy": config(ln.LossSpec(ln.LossKind.LQ, q=0.5), iv_04),
        "lq07_noisy": config(lq07, iv_04),
        "cce_clean": config(cce, None),
        "lq07_clean": config(lq07, None),
        "lq07_prune": config(lq07, iv_04, stage=ln.StagePlan(
            strategy=ln.Strategy.PRUNE, start_epoch=_START_EPOCH,
            prune_count=_PRUNE_COUNT)),
        "lq07_discard": config(lq07, iv_04, stage=ln.StagePlan(
            strategy=ln.Strategy.DISCARD, start_epoch=_START_EPOCH,
            rule=ln.SelectionRule.max_fraction(0.93))),
        "cce_mixup_noisy": config(cce, iv_04, mixup=ln.MixupPolicy(
            alpha=0.3, warmup_epochs=10)),
        "cce_mixed": config(cce, mixed),
        "cce_lsr_mixed": config(cce, mixed, auto=True, smoothing=ln.SmoothingPolicy(
            epsilon=0.15, delta_epsilon=0.05)),
    }


class Trend:
    """The acceptance trend suite, 11 experiments of 7 runs, via run_experiment,
    on two base seeds."""

    runs_via_harness = True

    def __init__(self, seed: int, workdir: Path):
        self.configs = {
            f"{name}@{base}": cfg
            for base in (2 * seed, 2 * seed + 1)
            for name, cfg in _trend_configs(base).items()
        }
        self.workdir = workdir
        self.results: dict = {}

    def run_pass(self, clock) -> PassResult:
        result = PassResult()
        self.results = {}
        for name, cfg in self.configs.items():
            start = clock()
            try:
                self.results[name] = labelnoise.run_experiment(cfg)
            except Exception as exc:  # one failed operation; the pass goes on
                result.fail(name, f"{type(exc).__name__}: {exc}")
            result.op_intervals[name] = (start, clock())
        return result

    def check(self, result: PassResult, reference: dict) -> None:
        artifact_bytes = 0
        for name, experiment in self.results.items():
            summary = experiment.summary
            _check_accuracies(result, name, summary.per_run_accuracy, summary.mean,
                              reference)
            artifacts = _artifact_bytes(self.workdir, experiment)
            result.digests[name] = _sha256(artifacts)
            artifact_bytes += len(artifacts)
        result.counts["runs"] = sum(len(e.runs) for e in self.results.values())
        result.counts["artifact_bytes"] = artifact_bytes


def _artifact_bytes(workdir: Path, experiment) -> bytes:
    """summary.json plus every run's metrics.jsonl, as the package writes them."""
    summary = workdir / "summary.json"
    labelnoise.write_summary(summary, experiment.summary)
    out = summary.read_bytes()
    metrics = workdir / "metrics.jsonl"
    for run in experiment.runs:
        labelnoise.write_metrics(metrics, list(run.history))
        out += metrics.read_bytes()
    return out


# --- scale -------------------------------------------------------------------

_SCALE = dict(num_classes=8, clips_per_class=1000, patches_per_clip=4,
              feature_dim=64, cluster_spread=0.25)
_SCALE_TEST_CLIPS = 250
_SCALE_NOISE = 0.4
_SCALE_PRUNE_COUNT = 1360  # 20% of the 6800-clip train split
_SCALE_EPOCHS = 6


class Scale:
    """One file pipeline at 32,000 patches x 64 dims: generate, corrupt,
    write, read back, fingerprint, train with pruning, evaluate, prune report."""

    runs_via_harness = False

    def __init__(self, seed: int, workdir: Path):
        ln = labelnoise
        self.data_seed = ln.derive_seed(seed, 1)
        self.noise = ln.NoiseSpec(ln.NoiseKind.SYMMETRIC_IV, rate=_SCALE_NOISE,
                                  seed=ln.derive_seed(seed, 2))
        self.train_seed = ln.derive_seed(seed, 3)
        self.train_config = ln.TrainConfig(
            loss=ln.LossSpec(ln.LossKind.LQ, q=0.7),
            max_epochs=_SCALE_EPOCHS,
            batch_size=64,
            seed=self.train_seed,
            stage=ln.StagePlan(strategy=ln.Strategy.PRUNE, start_epoch=3,
                               prune_count=_SCALE_PRUNE_COUNT),
        )
        self.private_path = workdir / "scale_private.jsonl"
        self.public_path = workdir / "scale_public.jsonl"
        self.report_path = workdir / "scale_prune_report.jsonl"
        self.metrics_path = workdir / "scale_metrics.jsonl"
        self.outputs: dict = {}

    def run_pass(self, clock) -> PassResult:
        ln = labelnoise
        result = PassResult()
        self.outputs = {}
        start = clock()
        try:
            train_set = ln.generate_blobs(**_SCALE, seed=self.data_seed, partition="train")
            test_set = ln.generate_blobs(
                **dict(_SCALE, clips_per_class=_SCALE_TEST_CLIPS),
                seed=self.data_seed, partition="test",
            )
            noisy = ln.inject_symmetric_noise(train_set, self.noise)
            ln.write_annotated(self.private_path, noisy)
            ln.write_dataset(self.public_path, noisy.data)
            private = ln.read_annotated(self.private_path)
            public = ln.read_dataset(self.public_path)
            fingerprint = ln.dataset_fingerprint(private)
            trained = ln.train(public, self.train_config,
                               rng=ln.RngStream(self.train_seed))
            accuracy = 100.0 * ln.evaluate(trained.params, test_set.data)
            ln.write_prune_report(self.report_path, trained.prune_report)
            report = ln.read_prune_report(self.report_path)
            precision = ln.prune_precision(report, private)
            self.outputs = dict(noisy=noisy, private=private, public=public,
                                fingerprint=fingerprint, trained=trained,
                                accuracy=accuracy, precision=precision)
        except Exception as exc:
            result.fail("scale", f"{type(exc).__name__}: {exc}")
        result.op_intervals["scale"] = (start, clock())
        return result

    def check(self, result: PassResult, reference: dict) -> None:
        out = self.outputs
        if not out:
            return
        noisy, private, public = out["noisy"], out["private"], out["public"]
        for column in ("example_ids", "clip_ids", "features", "labels"):
            written = getattr(noisy.data, column)
            if not (np.array_equal(getattr(private.data, column), written)
                    and np.array_equal(getattr(public, column), written)):
                result.fail("scale", f"read-back {column} differs from what was written")
        if not (np.array_equal(private.clean_labels, noisy.clean_labels)
                and np.array_equal(private.corrupted, noisy.corrupted)):
            result.fail("scale", "read-back ground truth differs from what was written")
        if private.data.num_classes != noisy.data.num_classes:
            result.fail("scale", "read-back class count differs")
        precision = out["precision"]
        if precision is None or not 0.0 <= precision <= 1.0:
            result.fail("scale", f"prune precision {precision} outside [0, 1]")
        _check_accuracies(result, "scale", [out["accuracy"]], out["accuracy"], reference)

        labelnoise.write_metrics(self.metrics_path, out["trained"].history)
        artifacts = (out["fingerprint"].encode(), self.metrics_path.read_bytes(),
                     self.report_path.read_bytes())
        result.digests["scale"] = _sha256(*artifacts)
        result.counts["rows"] = noisy.data.n_examples
        result.counts["private_bytes"] = self.private_path.stat().st_size
        result.counts["public_bytes"] = self.public_path.stat().st_size
        result.counts["artifact_bytes"] = sum(len(a) for a in artifacts)


# --- hidden ------------------------------------------------------------------


def hidden_config(seed: int) -> dict:
    """A one-hidden-layer Lq experiment with discard and inter-batch mixup.

    ``early_stop_patience`` equals ``max_epochs``, so every run trains all
    60 epochs: the work per pass does not depend on the seed.
    """
    return {
        "dataset": {"classes": 8, "clips_per_class": 150, "patches_per_clip": 4,
                    "dims": 64, "spread": 0.3},
        "noise": {"kind": "symmetric", "rate": 0.3},
        "train": {
            "loss": {"kind": "lq", "q": 0.7},
            "architecture": "one_hidden",
            "hidden_units": 128,
            "batch_size": 128,
            "initial_lr": 0.005,
            "max_epochs": 60,
            "early_stop_patience": 60,
            "stage": {"strategy": "discard", "start_epoch": 5,
                      "rule": {"kind": "percentile", "level": 85}},
            "mixup": {"alpha": 0.4, "warmup_epochs": 5, "pairing": "inter"},
        },
        "runs": 3,
        "base_seed": seed,
    }


class Hidden:
    """``labelnoise experiment --config ...`` run in-process through cli.main.

    The output directory comes from the environment, not the config, since
    the config's fingerprint (written to summary.json) would include it.
    """

    runs_via_harness = True

    def __init__(self, seed: int, workdir: Path):
        self.out_dir = workdir / "hidden_out"
        os.environ["LABELNOISE_OUT_DIR"] = str(self.out_dir)
        self.config_path = workdir / "hidden_config.json"
        self.config_path.write_text(json.dumps(hidden_config(seed)))
        self.argv = ["experiment", "--config", str(self.config_path)]
        self.exit_code = None

    def run_pass(self, clock) -> PassResult:
        result = PassResult()
        start = clock()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.exit_code = labelnoise.cli.main(self.argv)
        except Exception as exc:
            self.exit_code = None
            result.fail("hidden", f"{type(exc).__name__}: {exc}")
        result.op_intervals["hidden"] = (start, clock())
        if self.exit_code not in (0, None):
            result.fail("hidden", f"labelnoise experiment exited {self.exit_code}")
        return result

    def check(self, result: PassResult, reference: dict) -> None:
        if self.exit_code != 0:
            return
        summary_bytes = (self.out_dir / "summary.json").read_bytes()
        summary = json.loads(summary_bytes)
        runs = summary["per_run_accuracy"]
        _check_accuracies(result, "hidden", runs, summary["mean"], reference)
        metrics = [(self.out_dir / f"run_{i:02d}_metrics.jsonl").read_bytes()
                   for i in range(len(runs))]
        result.digests["hidden"] = _sha256(summary_bytes, *metrics)
        result.counts["runs"] = len(runs)
        result.counts["artifact_bytes"] = len(summary_bytes) + sum(map(len, metrics))


WORKLOADS = {"trend": Trend, "scale": Scale, "hidden": Hidden}
