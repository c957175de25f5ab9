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
requested text was printed), 2 for configuration and usage errors, 1 for
runtime failures such as training divergence.

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
    experiment_to_dict,
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
)
from .harness import (
    generate_blobs,
    inject_oov_noise,
    inject_symmetric_noise,
    NoiseKind,
    prune_precision,
    read_annotated,
    read_as_annotated,
    read_dataset,
    run_experiment,
    write_annotated,
    write_dataset,
    write_summary,
)
from .numerics import RngStream
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
    annotated = generate_blobs(
        num_classes=args.classes,
        clips_per_class=args.clips_per_class,
        patches_per_clip=args.patches_per_clip,
        feature_dim=args.dims,
        cluster_spread=args.spread,
        seed=args.seed,
        partition=args.partition,
    )
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
                f"--rate-by-class must be a JSON object, got {args.rate_by_class!r}:"
                f" {exc}"
            ) from exc
    spec = parse_noise(section, prefix="noise")
    annotated = read_as_annotated(args.input)
    if spec.kind == NoiseKind.SYMMETRIC_IV:
        corrupted = inject_symmetric_noise(annotated, spec)
    else:
        corrupted = inject_oov_noise(annotated, spec)
    out = Path(args.out)
    write_annotated(out, corrupted)
    _wrote(out)
    if args.public_out:
        public = Path(args.public_out)
        write_dataset(public, corrupted.data)
        _wrote(public)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    raw = read_config_file(args.config)
    config, _ = parse_train(raw, prefix="train", allow_auto_groups=False)
    if args.print_config:
        print(json.dumps(train_to_dict(config), indent=2, sort_keys=True))
        return 0
    if args.data is None:
        raise ConfigurationError("train requires --data when not printing the config")
    dataset = read_dataset(args.data)
    result = train(dataset, config, rng=RngStream(config.seed))
    out_dir = _resolve_out_dir(args.out_dir)
    metrics_path = out_dir / "metrics.jsonl"
    write_metrics(metrics_path, result.history)
    _wrote(metrics_path)
    model_path = out_dir / "model.json"
    save_model(model_path, result.params)
    _wrote(model_path)
    if result.prune_report is not None:
        report_path = out_dir / "prune_report.jsonl"
        write_prune_report(report_path, result.prune_report)
        _wrote(report_path)
    best = max(record.val_accuracy for record in result.history)
    print(f"best validation accuracy = {100.0 * best:.1f}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    raw = read_config_file(args.config)
    if args.runs is not None:
        raw["runs"] = args.runs
    if args.base_seed is not None:
        raw["base_seed"] = args.base_seed
    if args.out_dir is not None:
        raw["output_dir"] = args.out_dir
    config = parse_experiment(raw)
    if args.print_config:
        print(json.dumps(experiment_to_dict(config), indent=2, sort_keys=True))
        return 0
    result = run_experiment(config)
    out_dir = _resolve_out_dir(config.output_dir)
    summary_path = out_dir / "summary.json"
    write_summary(summary_path, result.summary)
    _wrote(summary_path)
    for index, run in enumerate(result.runs):
        metrics_path = out_dir / f"run_{index:02d}_metrics.jsonl"
        write_metrics(metrics_path, list(run.history))
        _wrote(metrics_path)
        if run.prune_report is not None:
            report_path = out_dir / f"run_{index:02d}_prune_report.jsonl"
            write_prune_report(report_path, list(run.prune_report))
            _wrote(report_path)
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
    generate.add_argument("--classes", type=int, default=4)
    generate.add_argument("--clips-per-class", type=int, default=50)
    generate.add_argument("--patches-per-clip", type=int, default=3)
    generate.add_argument("--dims", type=int, default=8)
    generate.add_argument("--spread", type=float, default=0.25)
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
    corrupt.add_argument("--rate", type=float, default=0.0)
    corrupt.add_argument(
        "--rate-by-class", default=None,
        help='JSON object of per-class rates, e.g. \'{"0": 0.2, "1": 0.5}\'',
    )
    corrupt.add_argument("--seed", type=int, default=0)
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
    except (TrainingError, ExperimentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
