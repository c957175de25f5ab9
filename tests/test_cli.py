"""End-to-end tests for the command-line interface."""

import json
import re
import runpy
import sys
import warnings

import numpy as np
import pytest

from labelnoise import (
    PruneRecord,
    load_model,
    read_annotated,
    read_dataset,
    read_metrics,
    read_prune_report,
    read_summary,
    write_prune_report,
)
from labelnoise import records
from labelnoise.cli import build_parser, main


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


# How to break one row of a generated file, and what the error then says.
MALFORMED_ROWS = {
    "not_json": (lambda row: json.dumps(row)[:-3], "not valid JSON"),
    "missing_label": (
        lambda row: json.dumps({k: v for k, v in row.items() if k != "label"}),
        "missing field 'label'",
    ),
    "list_row": (lambda row: json.dumps(list(row.values())), "a row must be a JSON object"),
    "ragged_features": (
        lambda row: json.dumps({**row, "features": row["features"] + [0.0]}),
        "5 features where earlier rows have 4",
    ),
    "unknown_field": (lambda row: json.dumps({**row, "bogus": 1}), "unknown field 'bogus'"),
    "float_label": (
        lambda row: json.dumps({**row, "label": 1.7}), "label must be an integer, got 1.7"
    ),
    "string_label": (
        lambda row: json.dumps({**row, "label": "1"}), 'label must be an integer, got "1"'
    ),
    "float_example_id": (
        lambda row: json.dumps({**row, "example_id": 2.9}),
        "example_id must be an integer, got 2.9",
    ),
    "string_corrupted": (
        lambda row: json.dumps({**row, "corrupted": "no"}),
        'corrupted must be true or false, got "no"',
    ),
    "string_feature": (
        lambda row: json.dumps({**row, "features": ["2.5", *row["features"][1:]]}),
        'features[0] must be a number, got "2.5"',
    ),
    "huge_int_feature": (
        lambda row: json.dumps({**row, "features": [10**400, *row["features"][1:]]}),
        f"features[0] must be a finite number, got {'1' + '0' * 39}",
    ),
}

# How to break line 2 of a prune report, and what the error then says.
MALFORMED_REPORT_LINES = {
    "not_json": (lambda row: json.dumps(row)[:-2], "not valid JSON"),
    "missing_removed": (
        lambda row: json.dumps({k: v for k, v in row.items() if k != "removed"}),
        "missing field 'removed'",
    ),
    "list_row": (lambda row: json.dumps(list(row.values())), "a row must be a JSON object"),
    "string_removed": (
        lambda row: json.dumps({**row, "removed": "false"}),
        'removed must be true or false, got "false"',
    ),
    "float_clip_id": (
        lambda row: json.dumps({**row, "clip_id": 1.5}), "clip_id must be an integer, got 1.5"
    ),
    "clip_id_past_int64": (
        lambda row: json.dumps({**row, "clip_id": 2**63}),
        f"clip_id {2**63} is outside the int64 range",
    ),
    "loss_past_float": (
        lambda row: json.dumps({**row, "clip_loss": 10**400}),
        # cut to 40 characters, as every rejected value is
        f"clip_loss {'1' + '0' * 39} is outside the int64 range",
    ),
    # line 1 lists clip 0 as removed, at rank 1
    "clip_listed_twice": (
        lambda row: json.dumps({**row, "clip_id": 0, "removed": True}),
        "clip_id 0 appears twice in one prune round",
    ),
    "clip_removed_and_kept": (
        lambda row: json.dumps({**row, "clip_id": 0, "removed": False}),
        "clip_id 0 appears twice in one prune round",
    ),
    "removed_clip_in_a_later_round": (
        lambda row: json.dumps({**row, "clip_id": 0, "rank": 1, "removed": False}),
        "clip_id 0 was removed by an earlier prune round",
    ),
    "rank_negative": (
        lambda row: json.dumps({**row, "rank": -3}), "rank must lie in [1, inf), got -3"
    ),
    "rank_zero": (lambda row: json.dumps({**row, "rank": 0}), "rank must lie in [1, inf), got 0"),
    "negative_loss": (
        lambda row: json.dumps({**row, "clip_loss": -1.0}),
        "clip_loss must lie in [0, inf), got -1.0",
    ),
    "nan_loss": (
        lambda row: json.dumps({**row, "clip_loss": float("nan")}),
        "clip_loss must be a finite number, got NaN",
    ),
    "infinite_loss": (
        lambda row: json.dumps({**row, "clip_loss": float("inf")}),
        "clip_loss must be a finite number, got Infinity",
    ),
}


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

    def test_flag_defaults(self):
        parser = build_parser()
        generate = parser.parse_args(["dataset", "generate", "--out", "x"])
        sizes = (generate.classes, generate.clips_per_class, generate.patches_per_clip)
        assert sizes + (generate.dims, generate.spread) == (4, 50, 3, 8, 0.25)
        corrupt = parser.parse_args(
            ["dataset", "corrupt", "--in", "x", "--kind", "symmetric", "--out", "y"]
        )
        assert (corrupt.rate, corrupt.seed) == (0.0, 0)

    # each size flag is the key of the dataset section of a config with the flag's name
    SIZE_FAULTS = {
        "classes": (1, "dataset.classes must lie in [2, inf), got 1"),
        "clips_per_class": (0, "dataset.clips_per_class must lie in [1, inf), got 0"),
        "patches_per_clip": (0, "dataset.patches_per_clip must lie in [1, inf), got 0"),
        "dims": (0, "dataset.dims must lie in [1, inf), got 0"),
        "spread": (-0.5, "dataset.spread must lie in [0, inf), got -0.5"),
    }

    @pytest.mark.parametrize("flag", sorted(SIZE_FAULTS))
    def test_generate_size_error_names_the_size(self, tmp_path, capsys, flag):
        value, message = self.SIZE_FAULTS[flag]
        out = tmp_path / "data.jsonl"
        assert run_cli(*generate_args(out, **{flag: value})) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", sorted(SIZE_FAULTS))
    def test_generate_size_error_is_the_config_files(self, tmp_path, capsys, flag):
        value, _ = self.SIZE_FAULTS[flag]
        assert run_cli(*generate_args(tmp_path / "data.jsonl", **{flag: value})) == 2
        from_flag = capsys.readouterr().err
        config = json.loads(experiment_config(tmp_path).read_text())
        config["dataset"][flag] = value
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(config))
        assert run_cli("experiment", "--config", str(path), "--out-dir", str(tmp_path)) == 2
        assert capsys.readouterr().err == from_flag

    def test_generate_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch):
        # raised in place of numpy's allocation failure, so that no test asks for the memory
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 23.3 TiB for an array")

        monkeypatch.setattr("labelnoise.cli.generate_blobs", no_memory)
        out = tmp_path / "data.jsonl"
        assert run_cli(*generate_args(out, clips_per_class=10**11)) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 23.3 TiB for an array\n"
        assert not out.exists()

    def test_generate_past_the_array_limit_exits_one(self, tmp_path, capsys):
        # numpy refuses the shape before it allocates, so this asks for no memory
        out = tmp_path / "data.jsonl"
        assert run_cli(*generate_args(out, clips_per_class=10**17)) == 1
        message = "error: 400000000000000000 patches x 4 dims is too big for an array\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("seed", [2**63, 2**64 + 5, -(2**63) - 1])
    def test_generate_seed_outside_int64_exits_two(self, tmp_path, capsys, seed):
        # the random streams hash a seed's low 64 bits, so a larger seed would alias one in range
        out = tmp_path / "data.jsonl"
        assert run_cli(*generate_args(out, seed=seed)) == 2
        assert capsys.readouterr().err == f"error: seed {seed} is outside the int64 range\n"
        assert not out.exists()

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
        assert capsys.readouterr().err == (
            'error: --rate-by-class must be a JSON object, got "not json":'
            " Expecting value: line 1 column 1 (char 0)\n"
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--rate-by-class", '{"0": 0.5, "1": 0.5, "7": 0.9}'],
                "noise.rate_by_class must key exactly the classes 0..1; missing [], unknown [7]",
            ),
            (
                ["--rate-by-class", '{"0": 0.2, "1": 0.3, "01": 0.9}'],
                'noise.rate_by_class keys must be class indices, got "01"',
            ),
            (
                ["--rate", "0.2", "--seed", str(2**63)],
                f"noise.seed {2**63} is outside the int64 range",
            ),
        ],
        ids=["rate_map_with_unknown_class", "rate_map_naming_a_class_twice", "seed_outside_int64"],
    )
    def test_corrupt_refusal_exits_two(self, tmp_path, capsys, flags, message):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        out = tmp_path / "noisy.jsonl"
        code = run_cli(
            "dataset", "corrupt",
            "--in", str(data), "--kind", "symmetric", *flags,
            "--out", str(out),
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_unknown_kind(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        code = run_cli(
            "dataset", "corrupt",
            "--in", str(data), "--kind", "speckle",
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 2

    def test_corrupt_twice_clears_a_clip_flipped_back_to_its_clean_label(self, tmp_path):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data, classes=3, clips_per_class=6, dims=3))
        for seed in (1, 2):
            noisy = tmp_path / f"noisy{seed}.jsonl"
            code = run_cli(
                "dataset", "corrupt",
                "--in", str(data), "--kind", "symmetric", "--rate", "1.0",
                "--seed", str(seed), "--out", str(noisy),
            )
            assert code == 0
            data = noisy
        annotated = read_annotated(data)
        restored = annotated.data.labels == annotated.clean_labels
        assert restored.sum() == 10  # 5 clips of 2 patches that the second flip restored
        np.testing.assert_array_equal(annotated.corrupted, ~restored)


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

    def test_divergence_found_by_validation_exits_one(self, tmp_path, capsys):
        # one step per epoch, whose learning rate overflows the weights it leaves, so only
        # the validation forward sees the non-finite logits
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(
            data, classes=4, clips_per_class=20, patches_per_clip=3, dims=8, spread=0.25, seed=1,
        ))
        config = train_config(tmp_path, max_epochs=1, batch_size=1000, initial_lr=1e308)
        out_dir = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(
                "train", "--config", str(config), "--data", str(data), "--out-dir", str(out_dir)
            )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: epoch 0: training diverged: non-finite logits in validation\n"
        )
        assert not (out_dir / "model.json").exists()

    def test_learning_rate_halved_to_zero_exits_one(self, tmp_path, capsys):
        # a halving at every stall takes 0.01 to 0.0 in about 1,070 epochs
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data, clips_per_class=4, dims=2, spread=0.3))
        config = train_config(
            tmp_path, max_epochs=1300, batch_size=64, lr_halving_patience=1,
            early_stop_patience=1300, val_fraction=0.5,
        )
        out_dir = tmp_path / "run"
        code = run_cli(
            "train", "--config", str(config), "--data", str(data), "--out-dir", str(out_dir)
        )
        assert code == 1
        assert re.fullmatch(
            r"error: epoch \d+: learning rate halved to 0\.0 after \d+ stalled epochs\n",
            capsys.readouterr().err,
        )
        assert not (out_dir / "model.json").exists()

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

    def test_zero_epochs_writes_artifacts_and_says_so(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        out_dir = tmp_path / "run"
        code = run_cli(
            "train", "--config", str(train_config(tmp_path, max_epochs=0)),
            "--data", str(data), "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "metrics.jsonl").read_text() == ""
        assert (out_dir / "model.json").exists()
        output = capsys.readouterr().out
        assert "no epoch ran" in output
        assert "best validation accuracy" not in output

    def test_split_without_train_clips_exits_two(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data, clips_per_class=2))
        out_dir = tmp_path / "run"
        code = run_cli(
            "train", "--config", str(train_config(tmp_path, val_fraction=0.9)),
            "--data", str(data), "--out-dir", str(out_dir),
        )
        assert code == 2
        assert "none is left to train on" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_group_map_with_unknown_class_exits_two(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        groups = {"0": "low", "1": "high", "7": "low"}
        config = train_config(
            tmp_path, smoothing={"epsilon": 0.2, "delta_epsilon": 0.1, "groups": groups}
        )
        out_dir = tmp_path / "run"
        code = run_cli(
            "train", "--config", str(config), "--data", str(data),
            "--out-dir", str(out_dir),
        )
        assert code == 2
        assert (
            "train.smoothing.groups must key exactly the classes 0..1; missing [], unknown [7]"
            in capsys.readouterr().err
        )
        assert not out_dir.exists()

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

    def test_dataset_of_no_features_exits_two_before_training(self, tmp_path, capsys):
        # a model of no features could be written but never loaded back
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        rows = [{**json.loads(line), "features": []} for line in data.read_text().splitlines()]
        data.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out_dir = tmp_path / "run"
        code = run_cli(
            "train", "--config", str(train_config(tmp_path)),
            "--data", str(data), "--out-dir", str(out_dir),
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {data}: features must have at least one column\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "fault", ["repeated_example_id", "clip_of_two_labels", "non_finite_feature"]
    )
    def test_dataset_fault_exits_two_naming_the_file(self, tmp_path, capsys, fault):
        # faults of the whole dataset, found once every row is read: the file is named once
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        rows = [json.loads(line) for line in data.read_text().splitlines()]
        assert rows[0]["clip_id"] == rows[1]["clip_id"]
        if fault == "repeated_example_id":
            rows[5]["example_id"] = rows[2]["example_id"]
            message = "example ids must be unique"
        elif fault == "clip_of_two_labels":
            rows[1]["label"] = rows[1]["clean_label"] = 1 - rows[0]["label"]
            message = "patches of one clip must share a label"
        else:
            rows[3]["features"][1] = float("nan")
            message = f"example {rows[3]['example_id']} has a non-finite feature value"
        data.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out_dir = tmp_path / "run"
        code = run_cli(
            "train", "--config", str(train_config(tmp_path)),
            "--data", str(data), "--out-dir", str(out_dir),
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {data}: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
    def test_malformed_row_exits_two_naming_its_line(self, tmp_path, capsys, case):
        broken, message = MALFORMED_ROWS[case]
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        lines = data.read_text().splitlines()
        lines[6] = broken(json.loads(lines[6]))
        data.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "run"
        code = run_cli(
            "train", "--config", str(train_config(tmp_path)),
            "--data", str(data), "--out-dir", str(out_dir),
        )
        assert code == 2
        assert f"data.jsonl, line 7: {message}" in capsys.readouterr().err
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

    def test_file_pipeline_reads_back(self, tmp_path, capsys):
        # corrupt a generated file, train with a prune round on its public view, score the
        # report against the private file; every file the commands wrote reads back
        data, noisy, public = (tmp_path / f"{name}.jsonl" for name in ("data", "noisy", "public"))
        run_cli(*generate_args(data))
        assert run_cli(
            "dataset", "corrupt", "--in", str(data), "--kind", "symmetric", "--rate", "0.25",
            "--seed", "1", "--out", str(noisy), "--public-out", str(public),
        ) == 0
        config = train_config(
            tmp_path,
            loss={"kind": "lq", "q": 0.7},
            stage={"strategy": "prune", "start_epoch": 2, "prune_count": 2},
        )
        out_dir = tmp_path / "run"
        assert run_cli(
            "train", "--config", str(config), "--data", str(public), "--out-dir", str(out_dir)
        ) == 0
        assert load_model(out_dir / "model.json").feature_dim == 4
        assert len(read_metrics(out_dir / "metrics.jsonl")) == 4
        report = out_dir / "prune_report.jsonl"
        assert sum(row.removed for row in read_prune_report(report)) == 2
        capsys.readouterr()
        assert run_cli("prune-report", "--report", str(report), "--dataset", str(noisy)) == 0
        assert "removed clips = 2" in capsys.readouterr().out

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

    def test_hidden_layer_with_inter_mixup_and_discard(self, tmp_path):
        # after a warm-up epoch, inter-batch mixup and a percentile discard: every generator
        # train builds is drawn from, and each run's metrics read back
        train = {
            "loss": {"kind": "cce"}, "max_epochs": 3, "batch_size": 8, "initial_lr": 0.01,
            "val_fraction": 0.25, "architecture": "one_hidden", "hidden_units": 8,
            "mixup": {"alpha": 0.4, "warmup_epochs": 1, "pairing": "inter"},
            "stage": {
                "strategy": "discard", "start_epoch": 1,
                "rule": {"kind": "percentile", "level": 85},
            },
        }
        out_dir = tmp_path / "exp"
        config = experiment_config(tmp_path, train=train)
        assert run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir)) == 0
        assert len(read_summary(out_dir / "summary.json").per_run_accuracy) == 2
        for index in range(2):
            assert len(read_metrics(out_dir / f"run_{index:02d}_metrics.jsonl")) == 3

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

    def test_out_dir_does_not_change_the_config_fingerprint(self, tmp_path, monkeypatch):
        config = str(experiment_config(tmp_path))
        for out in ("out_a", "out_b"):
            assert run_cli("experiment", "--config", config, "--out-dir", str(tmp_path / out)) == 0
        monkeypatch.setenv("LABELNOISE_OUT_DIR", str(tmp_path / "out_env"))
        assert run_cli("experiment", "--config", config) == 0
        summaries = [
            (tmp_path / out / "summary.json").read_bytes()
            for out in ("out_a", "out_b", "out_env")
        ]
        assert summaries[0] == summaries[1] == summaries[2]
        # the hash of the resolved config, which holds no output directory
        assert read_summary(tmp_path / "out_a" / "summary.json").config_fingerprint == (
            "e50922f0d516ad9c"
        )

    def test_output_dir_key_exits_two(self, tmp_path, capsys):
        config = experiment_config(tmp_path, output_dir=str(tmp_path / "from_config"))
        out_dir = tmp_path / "exp"
        code = run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir))
        assert code == 2
        assert "error: unknown configuration key: output_dir" in capsys.readouterr().err
        assert not out_dir.exists() and not (tmp_path / "from_config").exists()

    @pytest.mark.parametrize("section", ["train", "noise"])
    def test_seed_key_exits_two_naming_base_seed(self, tmp_path, capsys, section):
        raw = json.loads(experiment_config(tmp_path).read_text())
        raw[section]["seed"] = 9
        config = tmp_path / "seeded.json"
        config.write_text(json.dumps(raw))
        out_dir = tmp_path / "exp"
        code = run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir))
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: configuration: {section}.seed is 9," in err and "base_seed" in err
        assert not out_dir.exists()

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

    def test_all_validation_split_exits_two_before_run_zero(self, tmp_path, capsys, monkeypatch):
        # ceil(0.9 * 2) = 2: both clips of each class would go to validation
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started before the split was checked")

        monkeypatch.setattr("labelnoise.harness._single_run", no_runs)
        config = experiment_config(
            tmp_path,
            dataset={"classes": 2, "clips_per_class": 2, "patches_per_clip": 2, "dims": 4},
            train={"loss": {"kind": "cce"}, "max_epochs": 4, "val_fraction": 0.9},
        )
        out_dir = tmp_path / "exp"
        code = run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: val_fraction 0.9 sends every clip to validation (4 of 4 clips);"
            " none is left to train on\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "section, value, message",
        [
            (
                "noise",
                {"kind": "symmetric", "rate": 0.4, "rate_by_class": {"0": 0.2}},
                "noise.rate_by_class must key exactly the classes 0..1; missing [1], unknown []",
            ),
            (
                "noise",
                {"kind": "symmetric", "rate_by_class": {"0": 0.2, "1": 0.2, "7": 0.5}},
                "noise.rate_by_class must key exactly the classes 0..1; missing [], unknown [7]",
            ),
            (
                "smoothing",
                {"epsilon": 0.2, "delta_epsilon": 0.1, "groups": {"1": "low"}},
                "train.smoothing.groups must key exactly the classes 0..1;"
                " missing [0], unknown []",
            ),
            (
                "smoothing",
                {"epsilon": 0.2, "groups": {"0": "low", "1": "high", "7": "low"}},
                "train.smoothing.groups must key exactly the classes 0..1;"
                " missing [], unknown [7]",
            ),
        ],
        ids=["rates_missing", "rates_unknown", "groups_missing", "groups_unknown"],
    )
    def test_class_map_off_the_classes_exits_two_before_run_zero(
        self, tmp_path, capsys, monkeypatch, section, value, message
    ):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started before the class maps were checked")

        monkeypatch.setattr("labelnoise.harness._single_run", no_runs)
        if section == "smoothing":
            train = {"loss": {"kind": "cce"}, "max_epochs": 4, "smoothing": value}
            config = experiment_config(tmp_path, train=train)
        else:
            config = experiment_config(tmp_path, noise=value)
        out_dir = tmp_path / "exp"
        code = run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_auto_groups_without_noise_exit_two(self, tmp_path, capsys):
        config = json.loads(experiment_config(tmp_path).read_text())
        del config["noise"]
        config["train"]["smoothing"] = {"epsilon": 0.2, "groups": "auto"}
        path = tmp_path / "auto.json"
        path.write_text(json.dumps(config))
        out_dir = tmp_path / "exp"
        code = run_cli("experiment", "--config", str(path), "--out-dir", str(out_dir))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: configuration: auto noise groups require a noise spec to derive the group"
            " map from\n"
        )
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

    def test_config_error_inside_a_run_exits_two(self, tmp_path, capsys):
        # the noise-free split keeps 6 train clips, so the prune plan passes the check
        # before run 0; label noise leaves run 0 with 5, which the plan would empty
        config = experiment_config(
            tmp_path,
            dataset={
                "classes": 2, "clips_per_class": 4, "patches_per_clip": 2, "dims": 4,
                "spread": 0.2, "test_clips_per_class": 3,
            },
            noise={"kind": "symmetric", "rate": 0.3},
            train={
                "loss": {"kind": "cce"}, "max_epochs": 3, "batch_size": 4, "val_fraction": 0.25,
                "stage": {"strategy": "prune", "start_epoch": 1, "prune_count": 5},
            },
            runs=4,
        )
        out_dir = tmp_path / "exp"
        code = run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: run 0: 1 prune round(s) of 5 clips would remove 5 of the 5 train-split"
            " clips; at least one must survive\n"
        )
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

    @pytest.mark.parametrize("command", ["train", "experiment"])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_mixup_enabled_key_exits_two(self, tmp_path, capsys, command, enabled):
        # leaving the mixup section out is the one way to train without mixup
        mixup = {"alpha": 0.3, "enabled": enabled}
        if command == "train":
            config = train_config(tmp_path, mixup=mixup)
        else:
            config = experiment_config(
                tmp_path, train={"loss": {"kind": "cce"}, "max_epochs": 2, "mixup": mixup}
            )
        out_dir = tmp_path / "out"
        code = run_cli(command, "--config", str(config), "--out-dir", str(out_dir))
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: unknown configuration key: train.mixup.enabled\n"
        assert not out_dir.exists()

    def test_missing_config_file(self, tmp_path):
        assert run_cli("experiment", "--config", str(tmp_path / "absent.json")) == 2


@pytest.mark.parametrize("command", ["train", "experiment"])
class TestConfigFileFaults:
    """A config file that cannot be read, is not JSON or holds no object exits 2, before
    anything is written."""

    def test_absent_file(self, tmp_path, capsys, command):
        path = tmp_path / "absent.json"
        assert run_cli(command, "--config", str(path), "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {path}: ")
        assert not (tmp_path / "out").exists()

    def test_trailing_comma_placed_by_line_and_column(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_text('{\n  "max_epochs": 3,\n}\n')
        assert run_cli(command, "--config", str(path), "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            f"error: config file {path}: not valid JSON (Expecting property name enclosed in"
            " double quotes at line 3, column 1)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_bytes_that_are_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"max_epochs": "\xff"}\n')
        assert run_cli(command, "--config", str(path), "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith(
            f"error: config file {path}: 'utf-8' codec can't decode byte 0xff"
        )

    def test_top_level_list(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]\n")
        assert run_cli(command, "--config", str(path), "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            f"error: config file {path}: the configuration must be a JSON object, got [1, 2]\n"
        )


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

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["no_line", "blanks"])
    def test_dataset_file_with_no_row_exits_two(self, tmp_path, capsys, text):
        data = tmp_path / "data.jsonl"
        data.write_text(text)
        report = tmp_path / "report.jsonl"
        write_prune_report(report, [PruneRecord(0, 1.0, 1, False)])
        code = run_cli("prune-report", "--report", str(report), "--dataset", str(data))
        assert code == 2
        assert capsys.readouterr().err == f"error: dataset file {data} is empty\n"

    def test_public_dataset_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        public = tmp_path / "public.jsonl"
        run_cli(*generate_args(data, public=public))
        report = tmp_path / "report.jsonl"
        write_prune_report(report, [PruneRecord(0, 1.0, 1, True)])
        code = run_cli("prune-report", "--report", str(report), "--dataset", str(public))
        assert code == 2

    def test_clip_missing_from_the_dataset_exits_two_naming_the_report(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        report = tmp_path / "report.jsonl"
        write_prune_report(report, [PruneRecord(99, 1.0, 1, True), PruneRecord(0, 0.5, 2, False)])
        code = run_cli("prune-report", "--report", str(report), "--dataset", str(data))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {report}: removed clips not present in the dataset: [99]\n"
        )

    @pytest.mark.parametrize("case", sorted(MALFORMED_REPORT_LINES))
    def test_malformed_report_exits_two_naming_its_line(self, tmp_path, capsys, case):
        broken, message = MALFORMED_REPORT_LINES[case]
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        report = tmp_path / "report.jsonl"
        write_prune_report(report, [PruneRecord(c, 1.0, c + 1, c < 2) for c in range(3)])
        lines = report.read_text().splitlines()
        lines[1] = broken(json.loads(lines[1]))
        report.write_text("\n".join(lines) + "\n")
        code = run_cli("prune-report", "--report", str(report), "--dataset", str(data))
        assert code == 2
        assert f"report.jsonl, line 2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ranks, line", [([2], 1), ([3, 3], 1), ([1, 2, 2], 3), ([1, 3], 2)],
        ids=["first_rank_two", "both_rank_three", "repeated_rank", "skipped_rank"],
    )
    def test_rank_out_of_its_round_exits_two_naming_its_line(self, tmp_path, capsys, ranks, line):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        report = tmp_path / "report.jsonl"
        # clip ids fall down the file, as equal losses rank, so that its one fault is the rank
        rows = [PruneRecord(len(ranks) - c, 1.0, r, False) for c, r in enumerate(ranks)]
        write_prune_report(report, rows)
        code = run_cli("prune-report", "--report", str(report), "--dataset", str(data))
        assert code == 2
        message = f"report.jsonl, line {line}: rank {ranks[line - 1]} follows"
        assert message in capsys.readouterr().err

    def test_clip_the_previous_round_did_not_keep_exits_two(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        report = tmp_path / "report.jsonl"
        rows = [PruneRecord(0, 2.0, 1, True), PruneRecord(1, 1.0, 2, False)]
        write_prune_report(report, [*rows, PruneRecord(7, 1.0, 1, False)])
        code = run_cli("prune-report", "--report", str(report), "--dataset", str(data))
        assert code == 2
        message = "report.jsonl, line 3: clip_id 7 was not kept by the previous prune round"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, fault",
        [
            (
                [PruneRecord(0, 0.1, 1, False), PruneRecord(1, 5.0, 2, True)],
                ", line 2: clip_id 1 with clip_loss 5.0 is ranked below clip_id 0",
            ),
            (
                [PruneRecord(0, 1.0, 1, True), PruneRecord(1, 1.0, 2, False)],
                ", line 2: clip_id 1 with clip_loss 1.0 is ranked below clip_id 0",
            ),
            (
                [PruneRecord(1, 2.0, 1, False), PruneRecord(0, 1.0, 2, False),
                 PruneRecord(1, 1.0, 1, False)],
                ": prune round 2 leaves out clip_id 0, which round 1 kept",
            ),
            (
                [PruneRecord(1, 9.0, 1, False), PruneRecord(2, 3.0, 2, False),
                 PruneRecord(0, 1.0, 3, True)],
                ", line 3: clip_id 0 is removed below kept clip_id 2; a round removes its"
                " top-ranked clips",
            ),
        ],
        ids=["loss_rises", "equal_losses_id_rises", "last_round_leaves_out", "removed_below_kept"],
    )
    def test_report_its_writer_cannot_produce_exits_two(self, tmp_path, capsys, rows, fault):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        report = tmp_path / "report.jsonl"
        write_prune_report(report, rows)
        code = run_cli("prune-report", "--report", str(report), "--dataset", str(data))
        assert code == 2
        assert f"error: {report}{fault}" in capsys.readouterr().err

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    def test_clip_with_disagreeing_patches_exits_two(self, tmp_path, capsys, reverse):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))
        rows = [json.loads(line) for line in data.read_text().splitlines()]
        assert rows[0]["clip_id"] == rows[1]["clip_id"]
        rows[0]["corrupted"] = True  # one patch of the clip flagged, the other not
        if reverse:
            rows.reverse()
        data.write_text("".join(json.dumps(row) + "\n" for row in rows))
        report = tmp_path / "report.jsonl"
        write_prune_report(report, [PruneRecord(rows[0]["clip_id"], 1.0, 1, True)])
        code = run_cli("prune-report", "--report", str(report), "--dataset", str(data))
        assert code == 2
        assert "disagree on clean_label or corrupted" in capsys.readouterr().err

    def test_worker_that_sends_too_few_bytes_exits_one(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data.jsonl"
        run_cli(*generate_args(data))  # 32 rows, read in two ranges below
        report = tmp_path / "report.jsonl"
        write_prune_report(report, [PruneRecord(0, 1.0, 1, False)])
        parse = records._parse_range

        def short(path, start, stop, schema):
            # the worker of the second range sends its header but not its last buffer
            header, buffers = parse(path, start, stop, schema)
            return header, buffers[:-1] if start else buffers

        monkeypatch.setattr(records, "worker_count", lambda: 2)
        monkeypatch.setattr(records, "_WRITE_BLOCK", 8)
        monkeypatch.setattr(records, "_parse_range", short)
        code = run_cli("prune-report", "--report", str(report), "--dataset", str(data))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: a dataset file worker stopped before it finished its range\n"
        )

    def test_run_as_a_module_exits_with_the_status_of_main(self, tmp_path, capsys, monkeypatch):
        # `python -m labelnoise.cli`, run in this process: a missing dataset exits 1
        report = tmp_path / "report.jsonl"
        write_prune_report(report, [PruneRecord(0, 1.0, 1, False)])
        missing = tmp_path / "missing.jsonl"
        monkeypatch.setattr(
            sys, "argv",
            ["labelnoise", "prune-report", "--report", str(report), "--dataset", str(missing)],
        )
        with warnings.catch_warnings():
            # this module has imported labelnoise.cli already, and runpy warns of it
            warnings.filterwarnings(
                "ignore", "'labelnoise.cli' found in sys.modules", RuntimeWarning
            )
            with pytest.raises(SystemExit) as excinfo:
                runpy.run_module("labelnoise.cli", run_name="__main__")
        assert excinfo.value.code == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n"
        )


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

    def test_experiment_resolves_in_the_same_order(self, tmp_path, monkeypatch):
        config = str(experiment_config(tmp_path))
        monkeypatch.delenv("LABELNOISE_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert run_cli("experiment", "--config", config) == 0
        assert (tmp_path / "labelnoise_out" / "summary.json").exists()
        monkeypatch.setenv("LABELNOISE_OUT_DIR", str(tmp_path / "from_env"))
        assert run_cli("experiment", "--config", config) == 0
        assert (tmp_path / "from_env" / "summary.json").exists()
        flag_dir = tmp_path / "from_flag"
        assert run_cli("experiment", "--config", config, "--out-dir", str(flag_dir)) == 0
        assert (flag_dir / "summary.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [
            "from_env", "from_flag", "labelnoise_out",
        ]


class TestArgumentErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("evaluate")
        assert excinfo.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("dataset", "generate")
        assert excinfo.value.code == 2
