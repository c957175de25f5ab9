"""End-to-end tests for the command-line interface."""

import json
import re

import numpy as np
import pytest

from labelnoise import PruneRecord, read_annotated, read_dataset, read_summary, write_prune_report
from labelnoise.cli import main


def run_cli(*argv):
    return main(list(argv))


def generate_args(out, public=None, **overrides):
    args = [
        "dataset", "generate",
        "--classes", "2",
        "--clips-per-class", "8",
        "--patches-per-clip", "2",
        "--dims", "4",
        "--spread", "0.2",
        "--seed", "0",
        "--out", str(out),
    ]
    for key, value in overrides.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    if public is not None:
        args += ["--public-out", str(public)]
    return args


def train_config(tmp_path, **extra):
    config = {
        "loss": {"kind": "cce"},
        "max_epochs": 4,
        "batch_size": 16,
        "initial_lr": 0.01,
        "val_fraction": 0.25,
        "seed": 1,
    }
    config.update(extra)
    path = tmp_path / "train_config.json"
    path.write_text(json.dumps(config))
    return path


def experiment_config(tmp_path, name="experiment.json", **extra):
    config = {
        "dataset": {
            "classes": 2,
            "clips_per_class": 6,
            "patches_per_clip": 2,
            "dims": 4,
            "spread": 0.2,
            "test_clips_per_class": 4,
        },
        "train": {
            "loss": {"kind": "cce"},
            "max_epochs": 4,
            "batch_size": 8,
            "initial_lr": 0.01,
            "val_fraction": 0.25,
        },
        "noise": {"kind": "symmetric", "rate": 0.4},
        "runs": 2,
        "base_seed": 0,
    }
    for key, value in extra.items():
        config[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


class TestDatasetCommands:
    def test_generate_writes_private_file(self, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        assert run_cli(*generate_args(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 32  # 2 classes * 8 clips * 2 patches
        first = json.loads(lines[0])
        assert set(first) == {
            "example_id", "clip_id", "features", "label", "clean_label", "corrupted",
        }
        assert f"wrote {out}" in capsys.readouterr().out

    def test_generate_public_view_has_no_ground_truth(self, tmp_path):
        out = tmp_path / "data.jsonl"
        public = tmp_path / "public.jsonl"
        assert run_cli(*generate_args(out, public=public)) == 0
        record = json.loads(public.read_text().splitlines()[0])
        assert set(record) == {"example_id", "clip_id", "features", "label"}

    def test_corrupt_flips_the_requested_fraction(self, tmp_path):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        noisy = tmp_path / "noisy.jsonl"
        code = run_cli(
            "dataset", "corrupt",
            "--in", str(data),
            "--kind", "symmetric",
            "--rate", "0.5",
            "--seed", "3",
            "--out", str(noisy),
        )
        assert code == 0
        annotated = read_annotated(noisy)
        flagged_clips = {
            int(c) for c, f in zip(annotated.data.clip_ids, annotated.corrupted) if f
        }
        assert len(flagged_clips) == 8  # half of 16 clips

    def test_corrupt_rate_zero_keeps_content(self, tmp_path):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        out = tmp_path / "same.jsonl"
        run_cli(
            "dataset", "corrupt",
            "--in", str(data), "--kind", "symmetric", "--rate", "0.0",
            "--out", str(out),
        )
        assert out.read_text() == data.read_text()

    def test_corrupt_per_class_rates(self, tmp_path):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        out = tmp_path / "noisy.jsonl"
        code = run_cli(
            "dataset", "corrupt",
            "--in", str(data),
            "--kind", "oov",
            "--rate-by-class", '{"0": 0.5, "1": 0.0}',
            "--out", str(out),
        )
        assert code == 0
        annotated = read_annotated(out)
        corrupted_labels = annotated.data.labels[annotated.corrupted]
        assert set(corrupted_labels.tolist()) == {0}

    def test_corrupt_bad_json_rate_map(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        code = run_cli(
            "dataset", "corrupt",
            "--in", str(data), "--kind", "symmetric",
            "--rate-by-class", "not json",
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 2
        assert "rate-by-class" in capsys.readouterr().err

    def test_corrupt_unknown_kind(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        code = run_cli(
            "dataset", "corrupt",
            "--in", str(data), "--kind", "speckle",
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 2


    def test_corrupt_partly_annotated_file_exits_two(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        rows = [json.loads(line) for line in data.read_text().splitlines()]
        del rows[2]["clean_label"], rows[2]["corrupted"]
        data.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = tmp_path / "noisy.jsonl"
        code = run_cli(
            "dataset", "corrupt",
            "--in", str(data), "--kind", "symmetric", "--rate", "0.5",
            "--out", str(out),
        )
        assert code == 2
        assert "some rows only" in capsys.readouterr().err
        assert not out.exists()

class TestTrainCommand:
    def test_writes_artifacts_and_reports_accuracy(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        out_dir = tmp_path / "run"
        code = run_cli(
            "train",
            "--config", str(train_config(tmp_path)),
            "--data", str(data),
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "metrics.jsonl").exists()
        assert (out_dir / "model.json").exists()
        assert not (out_dir / "prune_report.jsonl").exists()
        output = capsys.readouterr().out
        assert re.search(r"best validation accuracy = \d+\.\d", output)

    def test_runs_are_byte_reproducible(self, tmp_path):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        config = train_config(tmp_path)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in dirs:
            assert run_cli(
                "train", "--config", str(config), "--data", str(data),
                "--out-dir", str(out_dir),
            ) == 0
        assert (dirs[0] / "model.json").read_bytes() == (dirs[1] / "model.json").read_bytes()
        assert (dirs[0] / "metrics.jsonl").read_bytes() == (dirs[1] / "metrics.jsonl").read_bytes()

    def test_prune_stage_writes_report(self, tmp_path):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        config = train_config(
            tmp_path,
            stage={"strategy": "prune", "start_epoch": 1, "prune_count": 2},
        )
        out_dir = tmp_path / "run"
        assert run_cli(
            "train", "--config", str(config), "--data", str(data),
            "--out-dir", str(out_dir),
        ) == 0
        report = (out_dir / "prune_report.jsonl").read_text().splitlines()
        assert len(report) == 12  # train split keeps 12 of 16 clips
        assert sum(json.loads(line)["removed"] for line in report) == 2

    def test_print_config_writes_nothing(self, tmp_path, capsys):
        config = train_config(tmp_path)
        out_dir = tmp_path / "none"
        code = run_cli(
            "train", "--config", str(config), "--print-config",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["max_epochs"] == 4
        assert not out_dir.exists()

    def test_missing_data_flag(self, tmp_path, capsys):
        code = run_cli("train", "--config", str(train_config(tmp_path)))
        assert code == 2
        assert "--data" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        code = run_cli(
            "train", "--config", str(train_config(tmp_path)),
            "--data", str(tmp_path / "absent.jsonl"),
        )
        assert code == 1

    def test_invalid_config_value(self, tmp_path, capsys):
        config = train_config(tmp_path, loss={"kind": "lq", "q": 1.5})
        code = run_cli("train", "--config", str(config), "--print-config")
        assert code == 2
        assert "train.loss" in capsys.readouterr().err

    def test_non_finite_feature_exits_two_before_training(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        rows = [json.loads(line) for line in data.read_text().splitlines()]
        rows[3]["features"][1] = float("nan")
        data.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out_dir = tmp_path / "run"
        code = run_cli(
            "train", "--config", str(train_config(tmp_path)),
            "--data", str(data), "--out-dir", str(out_dir),
        )
        assert code == 2
        assert f"example {rows[3]['example_id']} " in capsys.readouterr().err
        assert not out_dir.exists()

    def test_prune_overflow_exits_two_before_training(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        stage = {"strategy": "prune", "start_epoch": 1, "prune_count": 4, "prune_rounds": 3}
        config = train_config(tmp_path, stage=stage)
        out_dir = tmp_path / "run"
        code = run_cli(
            "train", "--config", str(config), "--data", str(data),
            "--out-dir", str(out_dir),
        )
        assert code == 2
        assert "would remove 12 of the 12" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "extra, path",
        [
            ({"initial_lr": float("nan")}, "train.initial_lr"),
            ({"mixup": {"alpha": float("nan")}}, "train.mixup.alpha"),
            ({"val_fraction": float("inf")}, "train.val_fraction"),
        ],
    )
    def test_non_finite_config_value_exits_two_before_training(
        self, tmp_path, capsys, monkeypatch, extra, path
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started before the config was checked")

        monkeypatch.setattr("labelnoise.cli.train", no_training)
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        config = train_config(tmp_path, **extra)
        assert "NaN" in config.read_text() or "Infinity" in config.read_text()
        out_dir = tmp_path / "run"
        code = run_cli(
            "train", "--config", str(config), "--data", str(data), "--out-dir", str(out_dir),
        )
        assert code == 2
        assert f"error: {path} must be a finite number" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_trains_from_public_file_too(self, tmp_path):
        data = tmp_path / "data.jsonl"
        public = tmp_path / "public.jsonl"
        run_cli(*generate_args(data, public=public))
        assert run_cli(
            "train", "--config", str(train_config(tmp_path)),
            "--data", str(public), "--out-dir", str(tmp_path / "run"),
        ) == 0


class TestExperimentCommand:
    def test_writes_summary_and_per_run_metrics(self, tmp_path, capsys):
        config = experiment_config(tmp_path)
        out_dir = tmp_path / "exp"
        code = run_cli(
            "experiment", "--config", str(config), "--out-dir", str(out_dir)
        )
        assert code == 0
        summary = read_summary(out_dir / "summary.json")
        assert len(summary.per_run_accuracy) == 2
        assert (out_dir / "run_00_metrics.jsonl").exists()
        assert (out_dir / "run_01_metrics.jsonl").exists()
        output = capsys.readouterr().out
        assert re.search(r"acc = \d+\.\d ± \d+\.\d", output)

    def test_single_run_reports_zero_half_width(self, tmp_path, capsys):
        config = experiment_config(tmp_path)
        code = run_cli(
            "experiment", "--config", str(config),
            "--runs", "1", "--out-dir", str(tmp_path / "exp"),
        )
        assert code == 0
        assert "± 0.0" in capsys.readouterr().out

    def test_methods_share_datasets_run_for_run(self, tmp_path):
        base = experiment_config(tmp_path, name="cce.json")
        lq = experiment_config(
            tmp_path,
            name="lq.json",
            train={
                "loss": {"kind": "lq", "q": 0.7},
                "max_epochs": 4,
                "batch_size": 8,
                "initial_lr": 0.01,
                "val_fraction": 0.25,
            },
        )
        for config, out in ((base, "out_cce"), (lq, "out_lq")):
            assert run_cli(
                "experiment", "--config", str(config), "--out-dir", str(tmp_path / out)
            ) == 0
        a = read_summary(tmp_path / "out_cce" / "summary.json")
        b = read_summary(tmp_path / "out_lq" / "summary.json")
        assert a.dataset_fingerprints == b.dataset_fingerprints
        assert a.config_fingerprint != b.config_fingerprint

    def test_flag_overrides_reach_the_config(self, tmp_path, capsys):
        config = experiment_config(tmp_path)
        code = run_cli(
            "experiment", "--config", str(config),
            "--runs", "3", "--base-seed", "9", "--print-config",
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["runs"] == 3
        assert printed["base_seed"] == 9

    def test_prune_overflow_exits_two_before_run_zero(self, tmp_path, capsys, monkeypatch):
        # 6 clips per class, 2 of them to validation: 8 train-split clips
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started before the prune check")

        monkeypatch.setattr("labelnoise.harness._single_run", no_runs)
        train = {
            "loss": {"kind": "cce"},
            "max_epochs": 4,
            "batch_size": 8,
            "initial_lr": 0.01,
            "val_fraction": 0.25,
            "stage": {
                "strategy": "prune", "start_epoch": 1, "prune_count": 4, "prune_rounds": 3,
            },
        }
        out_dir = tmp_path / "exp"
        code = run_cli(
            "experiment", "--config", str(experiment_config(tmp_path, train=train)),
            "--out-dir", str(out_dir),
        )
        assert code == 2
        assert "would remove 12 of the 8" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_failure_inside_a_run_exits_one(self, tmp_path, capsys):
        # a learning rate this large overflows the weights within a few steps
        train = {
            "loss": {"kind": "cce"},
            "max_epochs": 4,
            "batch_size": 8,
            "initial_lr": 1e308,
            "val_fraction": 0.25,
        }
        out_dir = tmp_path / "exp"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(
                "experiment", "--config", str(experiment_config(tmp_path, train=train)),
                "--out-dir", str(out_dir),
            )
        assert code == 1
        assert re.search(r"run 0: epoch \d+: training diverged", capsys.readouterr().err)
        assert not out_dir.exists()

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"runs": "many"}')
        assert run_cli("experiment", "--config", str(path)) == 2

    @pytest.mark.parametrize(
        "section, value, path",
        [
            ("train", {"loss": {"kind": "cce"}, "initial_lr": float("nan")}, "train.initial_lr"),
            ("train", {"mixup": {"alpha": float("nan")}}, "train.mixup.alpha"),
            ("dataset", {"spread": float("inf")}, "dataset.spread"),
            ("noise", {"kind": "symmetric", "rate": float("-inf")}, "noise.rate"),
        ],
    )
    def test_non_finite_config_value_exits_two_before_run_zero(
        self, tmp_path, capsys, monkeypatch, section, value, path
    ):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started before the config was checked")

        monkeypatch.setattr("labelnoise.harness._single_run", no_runs)
        out_dir = tmp_path / "exp"
        config = experiment_config(tmp_path, **{section: value})
        code = run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir))
        assert code == 2
        assert f"error: {path} must be a finite number" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_config_file(self, tmp_path):
        assert run_cli("experiment", "--config", str(tmp_path / "absent.json")) == 2


class TestPruneReportCommand:
    def test_scores_against_ground_truth(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        noisy = tmp_path / "noisy.jsonl"
        run_cli(
            "dataset", "corrupt",
            "--in", str(data), "--kind", "symmetric", "--rate", "0.5",
            "--seed", "3", "--out", str(noisy),
        )
        annotated = read_annotated(noisy)
        flagged = sorted(
            {int(c) for c, f in zip(annotated.data.clip_ids, annotated.corrupted) if f}
        )
        clean = sorted(set(annotated.data.clip_ids.tolist()) - set(flagged))
        # remove two corrupted clips and one clean clip: precision 2/3
        rows = [
            PruneRecord(flagged[0], 3.0, 1, True),
            PruneRecord(flagged[1], 2.5, 2, True),
            PruneRecord(clean[0], 2.0, 3, True),
            PruneRecord(clean[1], 1.0, 4, False),
        ]
        report = tmp_path / "report.jsonl"
        write_prune_report(report, rows)
        code = run_cli("prune-report", "--report", str(report), "--dataset", str(noisy))
        assert code == 0
        output = capsys.readouterr().out
        assert "removed clips = 3" in output
        assert "precision = 0.667" in output

    def test_no_removals(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        report = tmp_path / "report.jsonl"
        write_prune_report(report, [PruneRecord(0, 1.0, 1, False)])
        code = run_cli("prune-report", "--report", str(report), "--dataset", str(data))
        assert code == 0
        assert "no clips were removed" in capsys.readouterr().out

    def test_public_dataset_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        public = tmp_path / "public.jsonl"
        run_cli(*generate_args(data, public=public))
        report = tmp_path / "report.jsonl"
        write_prune_report(report, [PruneRecord(0, 1.0, 1, True)])
        code = run_cli("prune-report", "--report", str(report), "--dataset", str(public))
        assert code == 2


class TestOutDirResolution:
    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        env_dir = tmp_path / "from_env"
        flag_dir = tmp_path / "from_flag"
        monkeypatch.setenv("LABELNOISE_OUT_DIR", str(env_dir))
        assert run_cli(
            "train", "--config", str(train_config(tmp_path)),
            "--data", str(data), "--out-dir", str(flag_dir),
        ) == 0
        assert (flag_dir / "model.json").exists()
        assert not env_dir.exists()

    def test_environment_beats_default(self, tmp_path, monkeypatch):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("LABELNOISE_OUT_DIR", str(env_dir))
        monkeypatch.chdir(tmp_path)
        assert run_cli(
            "train", "--config", str(train_config(tmp_path)), "--data", str(data)
        ) == 0
        assert (env_dir / "model.json").exists()
        assert not (tmp_path / "labelnoise_out").exists()

    def test_default_directory(self, tmp_path, monkeypatch):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        monkeypatch.delenv("LABELNOISE_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert run_cli(
            "train", "--config", str(train_config(tmp_path)), "--data", str(data)
        ) == 0
        assert (tmp_path / "labelnoise_out" / "model.json").exists()


class TestArgumentErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("evaluate")
        assert excinfo.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("dataset", "generate")
        assert excinfo.value.code == 2
