"""The benchmark's instrumentation targets must exist in the package, and its timed hooks
must see every run and every trained row.

``perfbench/tracing.py`` wraps labelnoise functions by name from outside
the package. A refactor that deletes or renames one of them, or stops
calling one, only fails there, under ``perfbench/run.py``; these tests make
it fail here. The module's source is executed in a fresh namespace (no
bytecode is written beside it); its target tables are read, and its
``Instrument`` is installed around one small experiment.
"""

import importlib
import time
from pathlib import Path

import pytest

from labelnoise import (
    DatasetParams,
    ExperimentConfig,
    LossKind,
    LossSpec,
    SelectionRule,
    StagePlan,
    Strategy,
    TrainConfig,
    run_experiment,
)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing() -> dict:
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


tracing = load_tracing()
TARGETS = sorted({target[1:3] for target in tracing["TIMED_TARGETS"] + tracing["TRACE_TARGETS"]})


def test_both_target_tables_are_populated():
    assert tracing["TIMED_TARGETS"] and tracing["TRACE_TARGETS"]
    assert "labelnoise.config" in {module for module, _ in TARGETS}


@pytest.mark.parametrize("module_name, attr", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_target_resolves_to_a_callable(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module_name}.{attr}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_timed_hooks_count_the_runs_and_rows_that_train_counts():
    stage = StagePlan(Strategy.DISCARD, start_epoch=1, rule=SelectionRule.max_fraction(0.5))
    config = ExperimentConfig(
        dataset=DatasetParams(
            num_classes=2,
            clips_per_class=8,
            patches_per_clip=2,
            feature_dim=4,
            cluster_spread=0.2,
            test_clips_per_class=6,
        ),
        train=TrainConfig(
            loss=LossSpec(LossKind.LQ, 0.7),
            max_epochs=8,
            batch_size=8,
            initial_lr=0.01,
            val_fraction=0.25,
            stage=stage,
        ),
        runs=2,
        base_seed=0,
    )
    instrument = tracing["Instrument"](tracing["TIMED_TARGETS"], time.perf_counter, spans=False)
    instrument.install()
    try:
        runs = run_experiment(config).runs
    finally:
        instrument.restore()
    counts = instrument.counts
    assert len(counts["run_intervals"]) == len(runs) == 2
    assert counts["rejected_rows"] > 0
    assert counts["kept_rows"] == sum(run.rows_kept for run in runs)
    assert counts["kept_rows"] + counts["rejected_rows"] == sum(run.rows_seen for run in runs)
