"""Command-line front end.

Five commands cover the workflow end to end:

* ``dataset generate`` writes a synthetic clip-structured dataset;
* ``dataset corrupt`` injects label or feature corruption into one;
* ``train`` fits a model on a dataset file and writes metrics, model
  weights, and (when the stage plan pruned) a prune report;
* ``experiment`` runs the multi-seed protocol from a config file and
  writes a summary plus per-run artifacts;
* ``prune-report`` scores a prune report against a dataset file that
  still carries ground-truth corruption flags.

``dataset generate`` and ``dataset corrupt`` write harness-private files
that include the ``clean_label`` and ``corrupted`` fields; pass
``--public-out`` to also write the view a training consumer should see.
``train --data`` accepts either kind and always drops the private fields
on load.

Exit status: 0 when the requested artifacts were written (or the
requested text was printed), 2 for configuration, input and usage errors
(also one that an experiment run finds), 1 for runtime failures such as
training divergence.

The output directory for ``train`` and ``experiment`` resolves in order:
``--out-dir`` flag, then the ``LABELNOISE_OUT_DIR`` environment variable,
then ``./labelnoise_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import (
    config_value,
    experiment_to_dict,
    parse_dataset,
    parse_experiment,
    parse_noise,
    parse_train,
    read_config_file,
    train_to_dict,
)
from .errors import (
    ConfigurationError,
    ExperimentError,
    InvalidInputError,
    TrainingError,
    field_rule,
    json_text,
)
from .harness import (
    DatasetParams,
    NoiseSpec,
    generate_blobs,
    inject_noise,
    prune_precision,
    read_annotated,
    read_as_annotated,
    read_dataset,
    run_experiment,
    write_annotated,
    write_dataset,
    write_summary,
)
from .selection import read_prune_report, write_prune_report
from .trainer import save_model, train, write_metrics

_OUT_DIR_ENV = "LABELNOISE_OUT_DIR"


def _resolve_out_dir(flag_value: str | None) -> Path:
    raw = flag_value or os.environ.get(_OUT_DIR_ENV) or "labelnoise_out"
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _wrote(path: Path) -> None:
    print(f"wrote {path}")


def _cmd_generate(args: argparse.Namespace) -> int:
    # the sizes are the dataset section of a config, and the seed a config integer, as
    # corrupt's are
    sizes = ("classes", "clips_per_class", "patches_per_clip", "dims", "spread")
    dp = parse_dataset({key: getattr(args, key) for key in sizes})
    annotated = generate_blobs(
        dp.num_classes, dp.clips_per_class, dp.patches_per_clip, dp.feature_dim,
        dp.cluster_spread, config_value(args.seed, "seed", field_rule(int)), args.partition,
    )
    return _write_datasets(args, annotated)


def _write_datasets(args: argparse.Namespace, annotated) -> int:
    """``--out`` with the ground truth and, if asked, ``--public-out`` without it."""
    out = Path(args.out)
    write_annotated(out, annotated)
    _wrote(out)
    if args.public_out:
        public = Path(args.public_out)
        write_dataset(public, annotated.data)
        _wrote(public)
    return 0


def _cmd_corrupt(args: argparse.Namespace) -> int:
    section: dict = {"kind": args.kind, "rate": args.rate, "seed": args.seed}
    if args.rate_by_class is not None:
        try:
            section["rate_by_class"] = json.loads(args.rate_by_class)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"--rate-by-class must be a JSON object, got {json_text(args.rate_by_class)}:"
                f" {exc}"
            ) from exc
    spec = parse_noise(section)
    return _write_datasets(args, inject_noise(read_as_annotated(args.input), spec))


def _write_run(out_dir: Path, prefix: str, history, prune_report, params=None) -> None:
    """A run's metrics, its model if ``params`` is given and its prune report if it pruned."""
    for name, write, artifact in (
        ("metrics.jsonl", write_metrics, history),
        ("model.json", save_model, params),
        ("prune_report.jsonl", write_prune_report, prune_report),
    ):
        if artifact is not None:
            path = out_dir / f"{prefix}{name}"
            write(path, artifact)
            _wrote(path)


def _cmd_train(args: argparse.Namespace) -> int:
    raw = read_config_file(args.config)
    config = parse_train(raw)
    if args.print_config:
        print(json.dumps(train_to_dict(config), indent=2, sort_keys=True))
        return 0
    if args.data is None:
        raise ConfigurationError("train requires --data when not printing the config")
    dataset = read_dataset(args.data)
    result = train(dataset, config)
    out_dir = _resolve_out_dir(args.out_dir)
    _write_run(out_dir, "", result.history, result.prune_report, result.params)
    if not result.history:
        print("no epoch ran, so there is no validation accuracy")
        return 0
    best = max(record.val_accuracy for record in result.history)
    print(f"best validation accuracy = {100.0 * best:.1f}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    raw = read_config_file(args.config)
    if args.runs is not None:
        raw["runs"] = args.runs
    if args.base_seed is not None:
        raw["base_seed"] = args.base_seed
    config = parse_experiment(raw)
    if args.print_config:
        print(json.dumps(experiment_to_dict(config), indent=2, sort_keys=True))
        return 0
    result = run_experiment(config)
    out_dir = _resolve_out_dir(args.out_dir)
    summary_path = out_dir / "summary.json"
    write_summary(summary_path, result.summary)
    _wrote(summary_path)
    for index, run in enumerate(result.runs):
        _write_run(out_dir, f"run_{index:02d}_", run.history, run.prune_report)
    summary = result.summary
    print(f"acc = {summary.mean:.1f} ± {summary.ci_half_width:.1f}")
    return 0


def _cmd_prune_report(args: argparse.Namespace) -> int:
    report = read_prune_report(args.report)
    annotated = read_annotated(args.dataset)
    precision = prune_precision(report, annotated)
    removed = [row for row in report if row.removed]
    if precision is None:
        print("no clips were removed")
        return 0
    print(f"removed clips = {len(removed)}")
    print(f"precision = {precision:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelnoise",
        description="Train small classifiers under controlled label noise.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    dataset_parser = commands.add_parser("dataset", help="generate or corrupt datasets")
    dataset_commands = dataset_parser.add_subparsers(dest="dataset_command", required=True)

    generate = dataset_commands.add_parser(
        "generate", help="write a synthetic clip-structured dataset"
    )
    generate.add_argument("--classes", type=int, default=DatasetParams.num_classes)
    generate.add_argument("--clips-per-class", type=int, default=DatasetParams.clips_per_class)
    generate.add_argument("--patches-per-clip", type=int, default=DatasetParams.patches_per_clip)
    generate.add_argument("--dims", type=int, default=DatasetParams.feature_dim)
    generate.add_argument("--spread", type=float, default=DatasetParams.cluster_spread)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--partition", choices=("train", "test"), default="train",
        help="test draws fresh clips from the same class centers",
    )
    generate.add_argument("--out", required=True, help="harness-private output file")
    generate.add_argument(
        "--public-out", default=None,
        help="also write the dataset without ground-truth fields",
    )
    generate.set_defaults(handler=_cmd_generate)

    corrupt = dataset_commands.add_parser(
        "corrupt", help="inject label flips or feature replacement"
    )
    corrupt.add_argument("--in", dest="input", required=True, help="dataset file to corrupt")
    corrupt.add_argument("--kind", required=True, help="symmetric or oov")
    corrupt.add_argument("--rate", type=float, default=NoiseSpec.rate)
    corrupt.add_argument(
        "--rate-by-class", default=None,
        help='JSON object of per-class rates, e.g. \'{"0": 0.2, "1": 0.5}\'',
    )
    corrupt.add_argument("--seed", type=int, default=NoiseSpec.seed)
    corrupt.add_argument("--out", required=True, help="harness-private output file")
    corrupt.add_argument(
        "--public-out", default=None,
        help="also write the corrupted dataset without ground-truth fields",
    )
    corrupt.set_defaults(handler=_cmd_corrupt)

    train_parser = commands.add_parser("train", help="fit a model on a dataset file")
    train_parser.add_argument("--config", required=True, help="JSON file, train schema")
    train_parser.add_argument("--data", default=None, help="dataset file (JSON lines)")
    train_parser.add_argument("--out-dir", default=None)
    train_parser.add_argument(
        "--print-config", action="store_true",
        help="print the fully resolved config as JSON and exit",
    )
    train_parser.set_defaults(handler=_cmd_train)

    experiment = commands.add_parser(
        "experiment", help="run the multi-seed protocol from a config file"
    )
    experiment.add_argument("--config", required=True, help="JSON file, experiment schema")
    experiment.add_argument("--runs", type=int, default=None)
    experiment.add_argument("--base-seed", type=int, default=None)
    experiment.add_argument("--out-dir", default=None)
    experiment.add_argument(
        "--print-config", action="store_true",
        help="print the fully resolved config as JSON and exit",
    )
    experiment.set_defaults(handler=_cmd_experiment)

    prune_report = commands.add_parser(
        "prune-report", help="score removed clips against ground-truth flags"
    )
    prune_report.add_argument("--report", required=True, help="prune report (JSON lines)")
    prune_report.add_argument(
        "--dataset", required=True, help="harness-private dataset file"
    )
    prune_report.set_defaults(handler=_cmd_prune_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigurationError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, ExperimentError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
