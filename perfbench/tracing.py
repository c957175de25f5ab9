"""Instrumentation the benchmark attaches to labelnoise from outside.

No file under ``src/`` changes. A wrapper replaces a function at every
``labelnoise`` module attribute that binds it (``labelnoise.trainer.
batch_losses``, ``labelnoise.harness.train``, the package re-exports, ...)
or, for methods, on the class, so calls made inside the package go
through the wrapper too. ``Instrument.restore`` puts the originals back.

Timed passes use ``Instrument(TIMED_TARGETS, clock, spans=False)``:
three cheap wrappers that record each run's interval and the rows that
went through training minibatches. Traced passes use
``Instrument(TRACE_TARGETS, clock, spans=True)``: every target records a
span (name, start, end, parent span, run id) in memory, and
``layer_metrics`` reduces the spans to the per-layer metrics. Times are
read from ``clock`` (the speed meter's workload clock).
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import defaultdict


# --- counters recorded at span boundaries -----------------------------------
# Each runs after the wrapped call returns, outside the timed interval, and
# receives (counts, args, kwargs, result, start, end).


def _count_run(counts, args, kwargs, result, start, end):
    counts["run_intervals"].append((start, end))


def _count_kept_rows(counts, args, kwargs, result, start, end):
    # loss_gradients_from_probs(spec, targets, probs) receives the kept rows
    counts["kept_rows"] += len(args[1])


def _count_discard(counts, args, kwargs, result, start, end):
    counts["rejected_rows"] += len(result) - int(result.sum())


def _count_train(counts, args, kwargs, result, start, end):
    history = result.history
    if history:
        accuracies = [record.val_accuracy for record in history]
        counts["epochs"] += len(history)
        counts["useful_epochs"] += accuracies.index(max(accuracies)) + 1


def _count_fingerprint(counts, args, kwargs, result, start, end):
    counts["fingerprint_rows"] += args[0].data.n_examples


def _count_write(counts, args, kwargs, result, start, end):
    counts["write_jsonl_bytes"] += os.path.getsize(args[0])


def _count_read(counts, args, kwargs, result, start, end):
    counts["read_jsonl_bytes"] += os.path.getsize(args[0])


# (span name, module, attribute or Class.method, counter or None).
# Several functions may share one span name: they are one layer operation.
_RUN = ("harness.run", "labelnoise.harness", "_single_run", _count_run)
_KEPT = ("losses.loss_gradients", "labelnoise.losses", "loss_gradients_from_probs",
         _count_kept_rows)
_DISCARD = ("selection.discard_mask", "labelnoise.selection", "discard_mask",
            _count_discard)

TIMED_TARGETS = (_RUN, _KEPT, _DISCARD)

TRACE_TARGETS = (
    ("trainer.train", "labelnoise.trainer", "train", _count_train),
    ("trainer.evaluate", "labelnoise.trainer", "evaluate", None),
    ("trainer.forward", "labelnoise.trainer", "forward", None),
    ("trainer.stratified_split", "labelnoise.trainer", "stratified_split", None),
    ("trainer.write_metrics", "labelnoise.trainer", "write_metrics", None),
    ("losses.batch_losses", "labelnoise.losses", "batch_losses", None),
    _KEPT,
    ("numerics.softmax_rows", "labelnoise.numerics", "softmax_rows", None),
    ("numerics.rng_generator", "labelnoise.numerics", "RngStream.generator", None),
    ("numerics.beta_draws", "labelnoise.numerics", "beta_draws", None),
    ("mixup.apply_mixup", "labelnoise.mixup", "apply_mixup", None),
    _DISCARD,
    ("selection.clip_losses", "labelnoise.selection", "clip_losses", None),
    ("selection.prune_dataset", "labelnoise.selection", "prune_dataset", None),
    ("selection.prune_report_rows", "labelnoise.selection", "prune_report_rows", None),
    ("data.subset", "labelnoise.data", "Dataset.subset", None),
    ("data.clip_table", "labelnoise.data", "Dataset.clip_table", None),
    ("data.clip_of_example", "labelnoise.data", "Dataset.clip_of_example", None),
    ("smoothing.targets_matrix", "labelnoise.smoothing", "targets_matrix", None),
    ("harness.generate_blobs", "labelnoise.harness", "generate_blobs", None),
    ("harness.inject_noise", "labelnoise.harness", "inject_symmetric_noise", None),
    ("harness.inject_noise", "labelnoise.harness", "inject_oov_noise", None),
    ("harness.dataset_fingerprint", "labelnoise.harness", "dataset_fingerprint",
     _count_fingerprint),
    ("harness.write_jsonl", "labelnoise.harness", "write_annotated", _count_write),
    ("harness.write_jsonl", "labelnoise.harness", "write_dataset", _count_write),
    ("harness.read_jsonl", "labelnoise.harness", "read_dataset", _count_read),
    ("harness.read_jsonl", "labelnoise.harness", "read_annotated", _count_read),
    ("harness.read_jsonl", "labelnoise.harness", "read_as_annotated", _count_read),
    ("harness.run_experiment", "labelnoise.harness", "run_experiment", None),
    _RUN,
    ("harness.prune_precision", "labelnoise.harness", "prune_precision", None),
    ("config.parse", "labelnoise.config", "parse_experiment", None),
    ("cli.main", "labelnoise.cli", "main", None),
)


def _new_counts() -> defaultdict:
    counts = defaultdict(int)
    counts["run_intervals"] = []
    return counts


class Instrument:
    """Wrappers for one pass; ``install`` before it, ``restore`` after."""

    def __init__(self, targets, clock, spans: bool):
        self.targets = targets
        self.clock = clock
        self.record_spans = spans
        self.names: list[str] = []
        self.spans: list = []
        self.counts = _new_counts()
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        self.spans = []
        self.counts = _new_counts()
        self.run_id += 1
        for name, module_name, attr, count in self.targets:
            owner = importlib.import_module(module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, method, None)
            if original is None:
                raise LookupError(f"{module_name}.{attr} is gone: update the benchmark's"
                                  " hooks in perfbench/tracing.py")
            wrapper = self._wrap(name, original, count)
            if cls_name:
                self._replace(owner, method, wrapper)
            else:
                self._replace_everywhere(original, wrapper)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _replace_everywhere(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name == "labelnoise" or module_name.startswith("labelnoise."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)

    def _wrap(self, name, fn, count):
        counts = self.counts
        clock = self.clock
        if not self.record_spans:
            def timed(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                count(counts, args, kwargs, result, t0, clock())
                return result
            return timed

        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans = self.spans
        stack = self._stack
        starts_run = name == _RUN[0]

        def traced(*args, **kwargs):
            if starts_run:
                self.run_id += 1
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (name_id, t0, t1, parent, self.run_id)
            if count is not None:
                count(counts, args, kwargs, result, t0, t1)
            return result
        return traced


def trained_rows(counts) -> int:
    """Rows that went through training minibatches (kept plus discarded)."""
    return counts["kept_rows"] + counts["rejected_rows"]


# The package modules; each is one layer.
LAYERS = sorted({target[0].split(".")[0] for target in TRACE_TARGETS})


def layer_metrics(names, spans, counts, duration) -> dict[str, float]:
    """Reduce one traced pass to per-layer metrics (calls, self time, ratios).

    ``duration(start, end)`` gives a span's seconds. A span's self time is
    its duration minus the time its direct child spans cover; calls on one
    thread nest, so children never overlap.
    """
    seconds = [duration(t0, t1) for _, t0, t1, _, _ in spans]
    child_time = [0.0] * len(spans)
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += seconds[index]
    calls: dict[str, int] = defaultdict(int)
    total_s: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for index, (name_id, _, _, _, _) in enumerate(spans):
        name = names[name_id]
        calls[name] += 1
        total_s[name] += seconds[index]
        self_s[name] += seconds[index] - child_time[index]

    out: dict[str, float] = {}
    for name in sorted({target[0] for target in TRACE_TARGETS}):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            value for name, value in self_s.items() if name.split(".")[0] == layer
        )

    steps = calls.get("losses.loss_gradients", 0)
    rows = trained_rows(counts)
    out["trainer.steps"] = steps
    out["trainer.epochs"] = counts["epochs"]
    out["trainer.rows"] = rows
    out["trainer.step_us"] = 1e6 * total_s.get("trainer.train", 0.0) / max(steps, 1)
    out["trainer.useful_epoch_ratio"] = counts["useful_epochs"] / max(counts["epochs"], 1)
    out["selection.kept_ratio"] = counts["kept_rows"] / max(rows, 1)
    out["harness.dataset_fingerprint.rows"] = counts["fingerprint_rows"]
    out["harness.dataset_fingerprint.rows_per_s"] = _rate(
        counts["fingerprint_rows"], self_s.get("harness.dataset_fingerprint", 0.0))
    for io in ("write_jsonl", "read_jsonl"):
        size = counts[f"{io}_bytes"]
        out[f"harness.{io}.bytes"] = size
        out[f"harness.{io}.mb_per_s"] = _rate(size / 1e6, self_s.get(f"harness.{io}", 0.0))
    out["harness.runs"] = len(counts["run_intervals"])
    return out


def _rate(amount, seconds) -> float:
    return amount / seconds if seconds > 0 else 0.0


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly on the same inputs: all but timings."""
    return {
        name: value for name, value in metrics.items()
        if not name.endswith(("_s", "_us"))
    }
