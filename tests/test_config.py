"""Tests for the JSON-dictionary configuration layer."""

import ast
import dataclasses
import importlib
import json
import math
import pkgutil
import re
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import labelnoise
from labelnoise import (
    Architecture,
    ConfigurationError,
    Dataset,
    DatasetParams,
    EpochRecord,
    ExperimentConfig,
    InvalidInputError,
    LossKind,
    LossSpec,
    MixupPolicy,
    ModelParams,
    NoiseGroup,
    NoiseKind,
    NoiseSpec,
    Pairing,
    PruneRecord,
    RngStream,
    RunSummary,
    SelectionKind,
    SelectionRule,
    SmoothingPolicy,
    StagePlan,
    Strategy,
    TrainConfig,
    beta_draws,
    config_fingerprint,
    generate_blobs,
    mean_ci,
    mix_pair,
    percentile,
    prune_dataset,
    read_metrics,
    smooth_uniform,
)
from labelnoise.config import (
    _keys as config_keys,
    experiment_to_dict,
    parse_dataset,
    parse_experiment,
    parse_noise,
    parse_train,
    read_config_file,
    train_to_dict,
)
from labelnoise.trainer import split_rows


class TestParseLoss:
    def test_defaults_to_cce(self):
        spec = parse_train({"loss": {}}).loss
        assert spec.kind == LossKind.CCE
        assert spec.q is None

    def test_lq_with_q(self):
        spec = parse_train({"loss": {"kind": "lq", "q": 0.7}}).loss
        assert spec.kind == LossKind.LQ
        assert spec.q == 0.7

    def test_bad_q_names_the_section(self):
        with pytest.raises(ConfigurationError, match="train.loss"):
            parse_train({"loss": {"kind": "lq", "q": 1.5}})

    def test_unknown_kind_lists_options(self):
        with pytest.raises(ConfigurationError, match='"cce", "mae", "lq"'):
            parse_train({"loss": {"kind": "huber"}})

    def test_unknown_key_dotted_path(self):
        with pytest.raises(ConfigurationError, match=r"train\.loss\.gamma"):
            parse_train({"loss": {"kind": "cce", "gamma": 2.0}})

    def test_non_object_section(self):
        with pytest.raises(ConfigurationError):
            parse_train({"loss": "cce"})


def rule_config(rule: dict) -> dict:
    """A train section whose stage carries ``rule``, batches of 64 patches."""
    return {"batch_size": 64, "stage": {"rule": rule}}


class TestParseRule:
    def test_max_fraction(self):
        cfg = parse_train(rule_config({"kind": "max_fraction", "fraction": 0.93}))
        assert cfg.stage.rule.kind == SelectionKind.MAX_FRACTION
        assert cfg.stage.rule.fraction == 0.93

    def test_percentile(self):
        cfg = parse_train(rule_config({"kind": "percentile", "level": 80.0}))
        assert cfg.stage.rule.level == 80.0

    def test_patch_count_becomes_percentile(self):
        cfg = parse_train(rule_config({"kind": "patch_count", "count": 16}))
        assert cfg.stage.rule.kind == SelectionKind.PERCENTILE
        assert cfg.stage.rule.level == 75.0

    def test_patch_count_bounds(self):
        with pytest.raises(ConfigurationError, match="count"):
            parse_train(rule_config({"kind": "patch_count", "count": 0}))
        with pytest.raises(ConfigurationError, match="count"):
            parse_train(rule_config({"kind": "patch_count", "count": 65}))

    def test_missing_parameter(self):
        with pytest.raises(ConfigurationError, match="fraction"):
            parse_train(rule_config({"kind": "max_fraction"}))
        with pytest.raises(ConfigurationError, match="level"):
            parse_train(rule_config({"kind": "percentile"}))

    def test_stray_parameter_for_kind(self):
        with pytest.raises(ConfigurationError, match="does not apply"):
            parse_train(rule_config({"kind": "max_fraction", "fraction": 0.9, "level": 5.0}))
        with pytest.raises(ConfigurationError, match="does not apply"):
            parse_train(rule_config({"kind": "percentile", "level": 5.0, "count": 2}))

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            parse_train(rule_config({"kind": "topk"}))


class TestParseStage:
    def test_full_plan(self):
        cfg = parse_train(
            {
                "batch_size": 64,
                "stage": {
                    "strategy": "discard",
                    "start_epoch": 10,
                    "rule": {"kind": "max_fraction", "fraction": 0.93},
                },
            }
        )
        assert cfg.stage.strategy == Strategy.DISCARD
        assert cfg.stage.start_epoch == 10

    def test_prune_plan(self):
        stage = {"strategy": "prune", "start_epoch": 5, "prune_count": 28}
        plan = parse_train({"batch_size": 64, "stage": stage}).stage
        assert plan.strategy == Strategy.PRUNE
        assert plan.prune_count == 28

    def test_discard_without_rule_names_section(self):
        with pytest.raises(ConfigurationError, match="train.stage"):
            parse_train({"batch_size": 64, "stage": {"strategy": "discard", "start_epoch": 3}})

    @pytest.mark.parametrize("strategy", ["none", "discard"])
    def test_rounds_of_a_plan_that_never_prunes_are_not_checked(self, strategy):
        rule = {"kind": "max_fraction", "fraction": 0.9}
        stage = {"strategy": strategy, "rule": rule, "prune_count": 1, "prune_rounds": 3}
        plan = parse_train({"batch_size": 64, "stage": stage}).stage
        assert (plan.start_epoch, plan.prune_rounds) == (0, 3)

    def test_float_start_epoch_rejected(self):
        with pytest.raises(ConfigurationError, match="start_epoch"):
            parse_train({"batch_size": 64, "stage": {"strategy": "none", "start_epoch": 2.5}})


class TestParseSmoothing:
    def test_plain(self):
        cfg = parse_train({"smoothing": {"epsilon": 0.15}})
        assert cfg.smoothing.epsilon == 0.15
        assert cfg.smoothing.delta_epsilon == 0.0

    def test_explicit_groups_with_int_keys_as_strings(self):
        cfg = parse_train(
            {
                "smoothing": {
                    "epsilon": 0.15,
                    "delta_epsilon": 0.05,
                    "groups": {"0": "low", "1": "high"},
                }
            }
        )
        assert cfg.smoothing.group_of_class == {
            0: NoiseGroup.LOW_NOISE, 1: NoiseGroup.HIGH_NOISE
        }

    def test_auto_rejected_without_permission(self):
        with pytest.raises(ConfigurationError, match="auto"):
            parse_train({"smoothing": {"epsilon": 0.15, "groups": "auto"}})

    def test_auto_allowed_when_enabled(self):
        # only an experiment, whose noise section gives the map to derive, takes auto groups
        cfg = parse_experiment(
            {
                "noise": {"kind": "symmetric", "rate": 0.4},
                "train": {"smoothing": {"epsilon": 0.15, "groups": "auto"}},
            }
        )
        assert cfg.auto_noise_groups
        assert cfg.train.smoothing.group_of_class is None

    def test_epsilon_required(self):
        with pytest.raises(ConfigurationError, match="epsilon"):
            parse_train({"smoothing": {}})

    @pytest.mark.parametrize("key", ["cat", "00", "1_0", " 1", "+1"])
    def test_bad_group_key(self, key):
        groups = {"0": "low", key: "high"}
        with pytest.raises(ConfigurationError) as excinfo:
            parse_train({"smoothing": {"epsilon": 0.1, "groups": groups}})
        message = f"train.smoothing.groups keys must be class indices, got {json.dumps(key)}"
        assert str(excinfo.value) == message

    def test_bad_group_value(self):
        with pytest.raises(ConfigurationError, match="low"):
            parse_train({"smoothing": {"epsilon": 0.1, "groups": {"0": "loud"}}})


class TestParseMixup:
    def test_full(self):
        policy = parse_train(
            {"mixup": {"alpha": 0.3, "warmup_epochs": 10, "pairing": "inter"}}
        ).mixup
        assert policy.alpha == 0.3
        assert policy.warmup_epochs == 10
        assert policy.pairing == Pairing.INTER_BATCH

    def test_alpha_required(self):
        with pytest.raises(ConfigurationError, match="alpha"):
            parse_train({"mixup": {"warmup_epochs": 3}})

    @pytest.mark.parametrize("enabled", [True, False, "yes"])
    def test_enabled_is_an_unknown_key(self, enabled):
        unknown = r"^unknown configuration key: train\.mixup\.enabled$"
        with pytest.raises(ConfigurationError, match=unknown):
            parse_train({"mixup": {"alpha": 0.3, "enabled": enabled}})

    def test_bool_alpha_rejected(self):
        with pytest.raises(ConfigurationError, match="alpha"):
            parse_train({"mixup": {"alpha": True}})


class TestParseTrain:
    def test_defaults(self):
        cfg = parse_train({})
        assert cfg.loss.kind == LossKind.CCE
        assert cfg.max_epochs == 100
        assert cfg.batch_size == 64
        assert cfg.architecture == Architecture.LINEAR

    def test_nested_sections(self):
        cfg = parse_train(
            {
                "loss": {"kind": "lq", "q": 0.7},
                "batch_size": 32,
                "stage": {
                    "strategy": "discard",
                    "start_epoch": 10,
                    "rule": {"kind": "patch_count", "count": 8},
                },
                "smoothing": {"epsilon": 0.1},
                "mixup": {"alpha": 0.2},
            }
        )
        assert cfg.loss.q == 0.7
        assert cfg.stage.rule.level == 75.0  # 8 of 32 dropped
        assert cfg.smoothing.epsilon == 0.1
        assert cfg.mixup.alpha == 0.2

    def test_patch_count_uses_default_batch_size_when_unset(self):
        cfg = parse_train(
            {
                "stage": {
                    "strategy": "discard",
                    "start_epoch": 1,
                    "rule": {"kind": "patch_count", "count": 16},
                }
            }
        )
        assert cfg.stage.rule.level == 75.0  # 16 of the default 64

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError, match=r"train\.momentum"):
            parse_train({"momentum": 0.9})

    def test_bool_rejected_for_int(self):
        with pytest.raises(ConfigurationError, match="max_epochs"):
            parse_train({"max_epochs": True})

    def test_constraint_violation_names_section(self):
        with pytest.raises(ConfigurationError, match="train"):
            parse_train({"val_fraction": 1.5})

    def test_architecture(self):
        cfg = parse_train({"architecture": "one_hidden", "hidden_units": 8})
        assert cfg.architecture == Architecture.ONE_HIDDEN
        assert cfg.hidden_units == 8


class TestParseDatasetAndNoise:
    def test_dataset_mapping(self):
        params = parse_experiment(
            {"dataset": {"classes": 6, "clips_per_class": 10, "dims": 5, "spread": 0.5}}
        ).dataset
        assert params.num_classes == 6
        assert params.feature_dim == 5
        assert params.cluster_spread == 0.5
        assert params.patches_per_clip == 3  # default

    def test_dataset_section_alone_is_the_experiments(self):
        section = {"classes": 6, "clips_per_class": 10, "dims": 5, "spread": 0.5}
        assert parse_dataset(section) == parse_experiment({"dataset": section}).dataset
        with pytest.raises(ConfigurationError) as excinfo:
            parse_dataset({"spread": -1.0})
        assert str(excinfo.value) == "dataset.spread must lie in [0, inf), got -1.0"

    def test_noise_uniform(self):
        spec = parse_noise({"kind": "symmetric", "rate": 0.4})
        assert spec.kind == NoiseKind.SYMMETRIC_IV
        assert spec.rate == 0.4

    def test_noise_per_class(self):
        spec = parse_noise(
            {"kind": "oov", "rate_by_class": {"0": 0.2, "1": 0.5}}
        )
        assert spec.rate_by_class == {0: 0.2, 1: 0.5}

    @pytest.mark.parametrize("key", ["01", "1_0", " 1", "+1", "1 ", "-0", "1.0", "", "\u0661"])
    def test_noise_class_keys_are_written_as_class_indices(self, key):
        rates = {"0": 0.2, "1": 0.3, key: 0.9}
        with pytest.raises(ConfigurationError) as excinfo:
            parse_noise({"kind": "oov", "rate_by_class": rates})
        message = f"noise.rate_by_class keys must be class indices, got {json.dumps(key)}"
        assert str(excinfo.value) == message

    def test_noise_negative_and_multi_digit_class_keys_parse(self):
        spec = parse_noise({"kind": "oov", "rate_by_class": {"-1": 0.2, "10": 0.5}})
        assert spec.rate_by_class == {-1: 0.2, 10: 0.5}

    def test_noise_kind_required(self):
        with pytest.raises(ConfigurationError, match="kind"):
            parse_noise({"rate": 0.4})

    def test_noise_rate_out_of_range(self):
        with pytest.raises(ConfigurationError, match="noise"):
            parse_noise({"kind": "symmetric", "rate": 1.5})


class TestParseExperiment:
    def full_config(self):
        return {
            "dataset": {"classes": 4, "clips_per_class": 10},
            "noise": {"kind": "symmetric", "rate": 0.4},
            "train": {
                "loss": {"kind": "lq", "q": 0.7},
                "max_epochs": 20,
                "smoothing": {"epsilon": 0.15, "delta_epsilon": 0.05, "groups": "auto"},
            },
            "runs": 3,
            "base_seed": 2,
        }

    def test_parses_everything(self):
        cfg = parse_experiment(self.full_config())
        assert cfg.runs == 3
        assert cfg.base_seed == 2
        assert cfg.auto_noise_groups
        assert cfg.noise.rate == 0.4

    def test_auto_groups_require_noise(self):
        raw = self.full_config()
        del raw["noise"]
        with pytest.raises(ConfigurationError, match="auto"):
            parse_experiment(raw)

    def test_unknown_top_level_key(self):
        raw = self.full_config()
        raw["replicas"] = 5
        with pytest.raises(ConfigurationError, match="replicas"):
            parse_experiment(raw)

    def test_non_object(self):
        with pytest.raises(ConfigurationError):
            parse_experiment([1, 2, 3])

    def test_integer_float_fields_fingerprint_as_parsed(self):
        parsed = parse_experiment(
            {"dataset": {"spread": 1}, "train": {"initial_lr": 1, "loss": {"kind": "cce"}}}
        )
        built = ExperimentConfig(
            DatasetParams(cluster_spread=1), TrainConfig(LossSpec(LossKind.CCE), initial_lr=1)
        )
        assert built == parsed
        assert config_fingerprint(built) == config_fingerprint(parsed)


class TestReadConfigFile:
    def test_reads_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"runs": 3}')
        assert read_config_file(path) == {"runs": 3}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            read_config_file(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{runs: }")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            read_config_file(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError) as excinfo:
            read_config_file(path)
        message = f"config file {path}: the configuration must be a JSON object, got [1, 2]"
        assert str(excinfo.value) == message

    def test_syntax_error_placed_by_line_and_column(self, tmp_path):
        path = tmp_path / "trailing_comma.json"
        path.write_text('{\n  "runs": 3,\n}\n')
        with pytest.raises(ConfigurationError) as excinfo:
            read_config_file(path)
        assert str(excinfo.value) == (
            f"config file {path}: not valid JSON (Expecting property name enclosed in double"
            " quotes at line 3, column 1)"
        )


# A value of each JSON kind, and one whose JSON text is longer than an error shows of it.
REJECTED_VALUES = [None, True, "x", 1.5, [1], {"a": 1}, list(range(30))]


def shown(value) -> str:
    """How an error ends that rejects ``value``; a numpy scalar is shown as its Python value."""
    return f"got {json.dumps(value.item() if isinstance(value, np.generic) else value)[:40]}"


class Pairs(Mapping):
    """A mapping of ``(key, value)`` pairs whose keys need not be hashable."""

    def __init__(self, *pairs):
        self.pairs = pairs

    def __getitem__(self, key):
        return next(value for held, value in self.pairs if held == key)

    def __iter__(self):
        return (key for key, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


class TestRejectedValuesNamedAsJson:
    """Every error that rejects an input value names it by its JSON text, cut to 40
    characters, as the record files do."""

    # an object is a JSON object, refused only for what it holds
    @pytest.mark.parametrize(
        "value", [v for v in REJECTED_VALUES if not isinstance(v, dict)], ids=json.dumps
    )
    def test_object_key(self, value):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_train({"loss": value})
        assert str(excinfo.value) == f"train.loss must be a JSON object, {shown(value)}"

    @pytest.mark.parametrize("value", REJECTED_VALUES, ids=json.dumps)
    def test_enum_key(self, value):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_train({"architecture": value})
        assert str(excinfo.value) == (
            f'train.architecture must be one of "linear", "one_hidden", {shown(value)}'
        )

    @pytest.mark.parametrize("value", REJECTED_VALUES, ids=json.dumps)
    def test_rule_kind_shares_the_enum_wording(self, value):
        stage = {"strategy": "discard", "start_epoch": 1, "rule": {"kind": value, "level": 50}}
        with pytest.raises(ConfigurationError) as excinfo:
            parse_train({"stage": stage})
        assert str(excinfo.value) == (
            'train.stage.rule.kind must be one of "max_fraction", "percentile", "patch_count",'
            f" {shown(value)}"
        )

    @pytest.mark.parametrize("value", REJECTED_VALUES, ids=json.dumps)
    def test_class_map_key(self, value):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_noise({"kind": "oov", "rate_by_class": Pairs(("0", 0.2), (value, 0.5))})
        message = f"noise.rate_by_class keys must be class indices, {shown(value)}"
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("value", REJECTED_VALUES, ids=json.dumps)
    def test_metrics_file_field(self, tmp_path, value):
        path = tmp_path / "metrics.jsonl"
        row = dict(epoch=value, kept_fraction=1.0, lr=0.01, train_loss=0.5, val_accuracy=0.5)
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(InvalidInputError) as excinfo:
            read_metrics(path)
        assert str(excinfo.value) == f"{path}, line 1: epoch must be an integer, {shown(value)}"

    @pytest.mark.parametrize("value", REJECTED_VALUES, ids=json.dumps)
    def test_dataset_partition(self, value):
        with pytest.raises(InvalidInputError) as excinfo:
            generate_blobs(2, 2, 1, 2, 0.1, seed=0, partition=value)
        assert str(excinfo.value) == f'partition must be "train" or "test", {shown(value)}'

    def test_value_json_cannot_hold_shown_by_its_repr(self):
        with pytest.raises(InvalidInputError) as excinfo:
            LossSpec(kind=Ellipsis)
        assert str(excinfo.value) == 'kind must be one of "cce", "mae", "lq", got "Ellipsis"'


class TestRoundTrips:
    def test_loss(self):
        raw = {"kind": "lq", "q": 0.7}
        assert train_to_dict(parse_train({"loss": raw}))["loss"] == raw

    def test_rule(self):
        raw = {"kind": "max_fraction", "fraction": 0.93}
        cfg = parse_train(rule_config(raw))
        assert train_to_dict(cfg)["stage"]["rule"] == raw

    def test_stage(self):
        raw = {
            "strategy": "discard",
            "start_epoch": 10,
            "prune_count": 0,
            "prune_rounds": 1,
            "rule": {"kind": "percentile", "level": 75.0},
        }
        cfg = parse_train({"batch_size": 64, "stage": raw})
        assert train_to_dict(cfg)["stage"] == raw

    def test_smoothing_with_groups(self):
        raw = {"epsilon": 0.15, "delta_epsilon": 0.05, "groups": {"0": "low", "1": "high"}}
        cfg = parse_train({"smoothing": raw})
        assert train_to_dict(cfg)["smoothing"] == raw

    def test_smoothing_auto_marker_survives(self):
        raw = {"epsilon": 0.15, "delta_epsilon": 0.0, "groups": "auto"}
        noise = {"kind": "symmetric", "rate": 0.4}
        cfg = parse_experiment({"noise": noise, "train": {"smoothing": raw}})
        assert experiment_to_dict(cfg)["train"]["smoothing"] == raw

    def test_mixup(self):
        raw = {"alpha": 0.3, "warmup_epochs": 10, "pairing": "intra"}
        assert train_to_dict(parse_train({"mixup": raw}))["mixup"] == raw

    def test_dataset(self):
        cfg = parse_experiment({"dataset": {"classes": 4, "spread": 0.25}})
        rendered = experiment_to_dict(cfg)["dataset"]
        assert parse_experiment({"dataset": rendered}).dataset == cfg.dataset

    def test_noise(self):
        raw = {"kind": "symmetric", "rate": 0.0, "seed": 0, "rate_by_class": {"0": 0.2, "1": 0.5}}
        assert experiment_to_dict(parse_experiment({"noise": raw}))["noise"] == raw

    def test_train_and_experiment_full_circle(self):
        raw = {
            "dataset": {"classes": 4, "clips_per_class": 10},
            "noise": {"kind": "symmetric", "rate": 0.4},
            "train": {
                "loss": {"kind": "lq", "q": 0.7},
                "max_epochs": 20,
                "smoothing": {"epsilon": 0.15, "groups": "auto"},
                "mixup": {"alpha": 0.3, "warmup_epochs": 10},
            },
            "runs": 3,
        }
        cfg = parse_experiment(raw)
        rendered = experiment_to_dict(cfg)
        assert parse_experiment(rendered) == cfg
        # the rendered form is valid JSON all the way down
        assert parse_experiment(json.loads(json.dumps(rendered))) == cfg

    def test_train_to_dict_reparses(self):
        cfg = parse_train({"loss": {"kind": "mae"}, "batch_size": 16})
        rendered = train_to_dict(cfg)
        reparsed = parse_train(rendered)
        assert reparsed == cfg


class TestNonFiniteNumbers:
    """json.loads accepts NaN and Infinity; the rule of a float field does not, in a config
    file as in the constructor. An integer is held to the int64 range before it is typed, so
    one too large for a float is refused as outside that range."""

    def test_nan_learning_rate(self):
        with pytest.raises(ConfigurationError, match=r"^train\.initial_lr must be a finite"):
            parse_train(json.loads('{"initial_lr": NaN}'))

    def test_nan_mixup_alpha(self):
        with pytest.raises(ConfigurationError, match=r"^train\.mixup\.alpha must be a finite"):
            parse_train(json.loads('{"mixup": {"alpha": NaN}}'))

    def test_infinite_spread(self):
        with pytest.raises(ConfigurationError, match=r"^dataset\.spread must be a finite"):
            parse_experiment(json.loads('{"dataset": {"spread": Infinity}}'))

    @pytest.mark.parametrize(
        "raw, path",
        [
            ({"loss": {"kind": "lq", "q": "-Infinity"}}, r"train\.loss\.q"),
            ({"val_fraction": "NaN"}, r"train\.val_fraction"),
            ({"stage": {"rule": {"kind": "percentile", "level": "NaN"}}},
             r"train\.stage\.rule\.level"),
            ({"stage": {"rule": {"kind": "max_fraction", "fraction": "NaN"}}},
             r"train\.stage\.rule\.fraction"),
            ({"smoothing": {"epsilon": "NaN"}}, r"train\.smoothing\.epsilon"),
            ({"smoothing": {"epsilon": 0.1, "delta_epsilon": "Infinity"}},
             r"train\.smoothing\.delta_epsilon"),
        ],
    )
    def test_every_train_float_is_checked(self, raw, path):
        text = re.sub(r'"(-?Infinity|NaN)"', r"\1", json.dumps(raw))
        with pytest.raises(ConfigurationError, match=f"^{path} must be a finite number"):
            parse_train(json.loads(text))

    def test_noise_rates(self):
        with pytest.raises(ConfigurationError, match=r"^noise\.rate must be a finite"):
            parse_noise({"kind": "symmetric", "rate": float("nan")})
        with pytest.raises(ConfigurationError, match=r"^noise\.rate_by_class\[1\] must be"):
            parse_noise({"kind": "oov", "rate_by_class": {"0": 0.1, "1": float("inf")}})

    def test_constructor_refuses_what_the_config_file_refuses(self):
        with pytest.raises(InvalidInputError, match=r"^q must be a finite number, got NaN$"):
            LossSpec(LossKind.CCE, q=float("nan"))
        with pytest.raises(
            ConfigurationError, match=r"^train\.loss\.q must be a finite number, got NaN$"
        ):
            parse_train(json.loads('{"loss": {"kind": "cce", "q": NaN}}'))

    def test_integer_too_large_for_a_float(self):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_train({"initial_lr": 10**400})
        assert str(excinfo.value) == f"train.initial_lr {'1' + '0' * 39} is outside the int64 range"


class TestRecordFileRule:
    """Config integers and numbers are checked by the rule of the record files."""

    def test_integer_outside_int64_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_train({"max_epochs": 10**30})
        assert str(excinfo.value) == f"train.max_epochs {10**30} is outside the int64 range"

    def test_seed_outside_int64_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_experiment({"base_seed": 2**63})
        assert str(excinfo.value) == f"base_seed {2**63} is outside the int64 range"
        assert parse_experiment({"base_seed": 2**63 - 1}).base_seed == 2**63 - 1

    @pytest.mark.parametrize(
        "value, config_key, record_key",
        [(True, "max_epochs", "epoch"), ("x", "initial_lr", "lr"), (2**63, "max_epochs", "epoch")],
    )
    def test_same_words_as_a_metrics_file(self, tmp_path, value, config_key, record_key):
        row = {"epoch": 0, "train_loss": 0.5, "val_accuracy": 0.5, "lr": 0.01, "kept_fraction": 1.0}
        path = tmp_path / "metrics.jsonl"
        path.write_text(json.dumps({**row, record_key: value}) + "\n")
        with pytest.raises(InvalidInputError) as from_record:
            read_metrics(path)
        with pytest.raises(ConfigurationError) as from_config:
            parse_train({config_key: value})
        record_name, config_name = f"{path}, line 1: {record_key} ", f"train.{config_key} "
        assert str(from_record.value).startswith(record_name)
        assert str(from_config.value).startswith(config_name)
        words = str(from_config.value).removeprefix(config_name)
        assert words == str(from_record.value).removeprefix(record_name)
        assert json.dumps(value) in words


# The config key of each field whose key is not its name; every other field of a
# config dataclass is a key of the same name, but auto_noise_groups has none.
RENAMED_KEYS = {
    (DatasetParams, "num_classes"): "classes",
    (DatasetParams, "feature_dim"): "dims",
    (DatasetParams, "cluster_spread"): "spread",
    (SmoothingPolicy, "group_of_class"): "groups",
}
CONFIG_SECTIONS = [
    LossSpec, SelectionRule, StagePlan, SmoothingPolicy, MixupPolicy, TrainConfig,
    DatasetParams, NoiseSpec, ExperimentConfig,
]


@pytest.mark.parametrize("cls", CONFIG_SECTIONS, ids=lambda cls: cls.__name__)
def test_section_keys_are_the_dataclass_fields(cls):
    expected = [
        RENAMED_KEYS.get((cls, field.name), field.name)
        for field in dataclasses.fields(cls)
        if (cls, field.name) != (ExperimentConfig, "auto_noise_groups")
    ]
    assert [key.name for key in config_keys(cls)] == expected


# Each enum field a dataclass coerces itself: the field's value in a dataclass built with the
# value under test, the name an error gives it, and a valid string with the member it names.
ENUM_FIELDS = {
    "LossSpec.kind": (lambda v: LossSpec(v, q=0.5).kind, "kind", "lq", LossKind.LQ),
    "SelectionRule.kind": (
        lambda v: SelectionRule(v, level=50.0).kind, "kind", "percentile", SelectionKind.PERCENTILE
    ),
    "StagePlan.strategy": (
        lambda v: StagePlan(strategy=v, prune_count=1).strategy, "strategy", "prune",
        Strategy.PRUNE,
    ),
    "MixupPolicy.pairing": (
        lambda v: MixupPolicy(1.0, pairing=v).pairing, "pairing", "inter", Pairing.INTER_BATCH
    ),
    "TrainConfig.architecture": (
        lambda v: TrainConfig(LossSpec(LossKind.CCE), architecture=v).architecture,
        "architecture", "one_hidden", Architecture.ONE_HIDDEN,
    ),
    "NoiseSpec.kind": (lambda v: NoiseSpec(v).kind, "kind", "oov", NoiseKind.OOV_REPLACE),
    "ModelParams.architecture": (
        lambda v: ModelParams(v, 2, 2, 1, [np.zeros((2, 2)), np.zeros(2)]).architecture,
        "architecture", "linear", Architecture.LINEAR,
    ),
    "SmoothingPolicy.group_of_class": (
        lambda v: SmoothingPolicy(0.1, 0.05, {0: NoiseGroup.LOW_NOISE, 1: v}).group_of_class[1],
        "group_of_class[1]", "high", NoiseGroup.HIGH_NOISE,
    ),
}


@pytest.mark.parametrize("field", sorted(ENUM_FIELDS))
def test_dataclass_coerces_its_enum_field(field):
    value_of, name, valid, member = ENUM_FIELDS[field]
    assert value_of(valid) is member
    assert value_of(member) is member
    options = ", ".join(json.dumps(item.value) for item in type(member))
    for bad in ("bogus", member.name, 1, None):
        with pytest.raises(InvalidInputError) as excinfo:
            value_of(bad)
        assert str(excinfo.value) == f"{name} must be one of {options}, got {json.dumps(bad)}"


# --- parse(render(cfg)) == cfg ---------------------------------------------------

finite = dict(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=1, max_value=10**6)
# config integers are JSON integers in the int64 range, as in the record files
seeds = st.integers(min_value=-(2**63), max_value=2**63 - 1)
unit = st.floats(min_value=0.0, max_value=1.0, **finite)
class_indices = st.integers(min_value=-3, max_value=40)

rules = st.one_of(
    st.builds(SelectionRule.max_fraction, unit),
    st.builds(SelectionRule.at_percentile, st.floats(min_value=0.0, max_value=100.0, **finite)),
)


@st.composite
def stage_plans(draw):
    strategy = draw(st.sampled_from(Strategy))
    rule = draw(rules if strategy == Strategy.DISCARD else st.none() | rules)
    rounds = draw(st.integers(min_value=1, max_value=4))
    start = draw(st.integers(min_value=1 if rounds > 1 else 0, max_value=500))
    count = draw(st.integers(min_value=0, max_value=1000))
    return StagePlan(strategy, start, rule, count, rounds)


@st.composite
def smoothing_policies(draw):
    epsilon = draw(st.floats(min_value=0.0, max_value=0.99, **finite))
    delta = draw(st.floats(min_value=0.0, max_value=min(epsilon, 0.99 - epsilon), **finite))
    groups = draw(st.none() | st.dictionaries(class_indices, st.sampled_from(NoiseGroup)))
    return SmoothingPolicy(epsilon, delta, groups)


@st.composite
def mixup_policies(draw):
    alpha = draw(st.floats(min_value=1e-6, max_value=10.0, **finite))
    return MixupPolicy(alpha, draw(st.integers(0, 100)), draw(st.sampled_from(Pairing)))


@st.composite
def losses(draw):
    kind = draw(st.sampled_from(LossKind))
    in_range = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, **finite)
    q = draw(in_range if kind == LossKind.LQ else st.none() | in_range)
    return LossSpec(kind, q)


train_configs = st.builds(
    TrainConfig,
    loss=losses(),
    max_epochs=st.integers(0, 10**4),
    batch_size=counts,
    initial_lr=st.floats(min_value=1e-9, max_value=10.0, **finite),
    lr_halving_patience=counts,
    early_stop_patience=counts,
    val_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, **finite),
    seed=seeds,
    stage=stage_plans(),
    smoothing=st.none() | smoothing_policies(),
    mixup=st.none() | mixup_policies(),
    architecture=st.sampled_from(Architecture),
    hidden_units=counts,
)

noise_specs = st.builds(
    NoiseSpec,
    kind=st.sampled_from(NoiseKind),
    rate=unit,
    seed=seeds,
    rate_by_class=st.none() | st.dictionaries(class_indices, unit),
)


@st.composite
def experiment_configs(draw):
    # an experiment derives both seeds per run, so its config leaves them 0
    train = dataclasses.replace(draw(train_configs), seed=0)
    noise = draw(st.none() | noise_specs.map(lambda spec: dataclasses.replace(spec, seed=0)))
    auto = train.smoothing is not None and noise is not None and draw(st.booleans())
    if auto and train.smoothing.group_of_class is not None:
        # "auto" replaces an explicit group map when rendered
        smoothing = SmoothingPolicy(train.smoothing.epsilon, train.smoothing.delta_epsilon)
        train = dataclasses.replace(train, smoothing=smoothing)
    dataset = DatasetParams(
        draw(st.integers(2, 50)), draw(counts), draw(counts), draw(counts),
        draw(st.floats(min_value=0.0, max_value=100.0, **finite)), draw(counts),
    )
    return ExperimentConfig(dataset, train, noise, draw(counts), draw(seeds), auto)


class TestRenderParseProperty:
    @settings(max_examples=200, deadline=None)
    @given(cfg=experiment_configs())
    def test_experiment_survives_json(self, cfg):
        rendered = json.loads(json.dumps(experiment_to_dict(cfg)))
        assert parse_experiment(rendered) == cfg

    # the train command keeps its seed key, which experiment configs leave 0
    @settings(max_examples=200, deadline=None)
    @given(cfg=train_configs)
    def test_train_survives_json(self, cfg):
        rendered = json.loads(json.dumps(train_to_dict(cfg)))
        assert parse_train(rendered) == cfg

    # each parameter absent or in range: a rule is refused as it is built, or its rendered
    # config parses back to it, so no ignored parameter is rendered or fingerprinted
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(SelectionKind),
        fraction=st.none() | unit,
        level=st.none() | st.floats(min_value=0.0, max_value=100.0, **finite),
    )
    def test_selection_rule_is_refused_or_survives_json(self, kind, fraction, level):
        try:
            rule = SelectionRule(kind, fraction, level)
        except (ConfigurationError, InvalidInputError):
            return
        cfg = TrainConfig(LossSpec("cce"), stage=StagePlan("discard", rule=rule))
        rendered = json.loads(json.dumps(train_to_dict(cfg)))
        assert parse_train(rendered) == cfg


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_json_blocks() -> list[str]:
    return re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_both_example_configs():
    assert len(readme_json_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(readme_json_blocks())))
def test_readme_config_block_parses_and_survives_the_round_trip(index):
    raw = json.loads(readme_json_blocks()[index])
    if "train" in raw:
        cfg = parse_experiment(raw)
        assert parse_experiment(json.loads(json.dumps(experiment_to_dict(cfg)))) == cfg
    else:
        cfg = parse_train(raw)
        assert parse_train(json.loads(json.dumps(train_to_dict(cfg)))) == cfg


# Each dataclass that holds integers, with the other arguments it needs and its integer
# fields; 3 is a valid value of each.
ONE_HIDDEN_WEIGHTS = [np.zeros((3, 3)), np.zeros(3), np.zeros((3, 3)), np.zeros(3)]
INTEGER_FIELDS = {
    "TrainConfig": (
        lambda **field: TrainConfig(LossSpec(LossKind.CCE), **field),
        ("max_epochs", "batch_size", "lr_halving_patience", "early_stop_patience", "seed",
         "hidden_units"),
    ),
    "DatasetParams": (
        DatasetParams,
        ("num_classes", "clips_per_class", "patches_per_clip", "feature_dim",
         "test_clips_per_class"),
    ),
    "ExperimentConfig": (
        lambda **field: ExperimentConfig(
            DatasetParams(), TrainConfig(LossSpec(LossKind.CCE)), **field
        ),
        ("runs", "base_seed"),
    ),
    "NoiseSpec": (lambda **field: NoiseSpec(NoiseKind.SYMMETRIC_IV, **field), ("seed",)),
    "MixupPolicy": (lambda **field: MixupPolicy(alpha=0.2, **field), ("warmup_epochs",)),
    "EpochRecord": (
        lambda **field: EpochRecord(
            **{"epoch": 3, "train_loss": 0.5, "val_accuracy": 0.5, "lr": 0.01,
               "kept_fraction": 1.0, **field}
        ),
        ("epoch",),
    ),
    "PruneRecord": (
        lambda **field: PruneRecord(
            **{"clip_id": 3, "clip_loss": 0.3, "rank": 3, "removed": False, **field}
        ),
        ("clip_id", "rank"),
    ),
    "ModelParams": (
        lambda **field: ModelParams(
            **{"architecture": "one_hidden", "feature_dim": 3, "num_classes": 3,
               "hidden_units": 3, "weights": ONE_HIDDEN_WEIGHTS, **field}
        ),
        ("feature_dim", "num_classes", "hidden_units"),
    ),
}
INTEGER_FIELD_CASES = [
    pytest.param(build, name, id=f"{cls}.{name}")
    for cls, (build, names) in INTEGER_FIELDS.items()
    for name in names
]


class TestIntegerFields:
    """Every integer field of a dataclass is stored as an int, as the config and record files
    already cast them: a float or a bool is refused, in the words of the record files, when
    the dataclass is built, not deep in a run."""

    @pytest.mark.parametrize("value", [2.5, 3.0])
    @pytest.mark.parametrize("build, name", INTEGER_FIELD_CASES)
    def test_float_refused_naming_the_field(self, build, name, value):
        with pytest.raises(TypeError) as excinfo:
            build(**{name: value})
        assert str(excinfo.value) == f"{name} must be an integer, {shown(value)}"

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("build, name", INTEGER_FIELD_CASES)
    def test_bool_refused_naming_the_field(self, build, name, value):
        with pytest.raises(TypeError) as excinfo:
            build(**{name: value})
        assert str(excinfo.value) == f"{name} must be an integer, {shown(value)}"

    @pytest.mark.parametrize("build, name", INTEGER_FIELD_CASES)
    def test_numpy_integer_stored_as_int(self, build, name):
        value = getattr(build(**{name: np.int64(3)}), name)
        assert type(value) is int and value == 3


# Each bool field, with the other arguments its dataclass needs.
BOOL_FIELDS = {
    "PruneRecord.removed": lambda v: PruneRecord(clip_id=2, clip_loss=0.3, rank=1, removed=v),
    "ExperimentConfig.auto_noise_groups": lambda v: ExperimentConfig(
        DatasetParams(), TrainConfig(LossSpec(LossKind.CCE), smoothing=SmoothingPolicy(0.1)),
        noise=NoiseSpec(NoiseKind.SYMMETRIC_IV), auto_noise_groups=v,
    ),
}


@pytest.mark.parametrize("field", sorted(BOOL_FIELDS))
def test_bool_field_holds_a_bool(field):
    name = field.split(".")[1]
    for valid in (True, False):
        assert getattr(BOOL_FIELDS[field](valid), name) is valid
    for bad in ("yes", "no", 1, 0, None):
        with pytest.raises(TypeError) as excinfo:
            BOOL_FIELDS[field](bad)
        assert str(excinfo.value) == f"{name} must be true or false, {shown(bad)}"


# Each mapping field, with the other arguments its dataclass needs and a valid map.
MAPPING_FIELDS = {
    "NoiseSpec.rate_by_class": (
        lambda v: NoiseSpec(NoiseKind.OOV_REPLACE, rate_by_class=v), {0: 0.5, 1: 0.25}
    ),
    "SmoothingPolicy.group_of_class": (
        lambda v: SmoothingPolicy(0.1, 0.05, v), {0: NoiseGroup.LOW_NOISE}
    ),
}


@pytest.mark.parametrize("field", sorted(MAPPING_FIELDS))
def test_mapping_field_holds_a_dict(field):
    build, valid = MAPPING_FIELDS[field]
    name = field.split(".")[1]
    held = getattr(build(valid), name)
    assert type(held) is dict and held == valid
    for bad in (5, [1], "ab", True):
        with pytest.raises(TypeError) as excinfo:
            build(bad)
        assert str(excinfo.value) == f"{name} must be an object, {shown(bad)}"


def epoch_record(**field):
    values = dict(epoch=0, train_loss=0.5, val_accuracy=0.5, lr=0.01, kept_fraction=1.0)
    return EpochRecord(**{**values, **field})


def run_summary(**field):
    values = dict(per_run_accuracy=(50.0,), mean=50.0, ci_half_width=0.0,
                  config_fingerprint="0" * 16, dataset_fingerprints=("0" * 16,))
    return RunSummary(**{**values, **field})


def tiny_dataset(num_classes=2):
    return Dataset([0, 1, 2, 3], [0, 1, 2, 3], np.zeros((4, 1)), [0, 0, 1, 1], num_classes)


def train_config(**field):
    return TrainConfig(LossSpec(LossKind.CCE), **field)


# Every bounded field and argument: the name its error gives it, its interval as the error
# prints it, whether it holds an integer, and a call that passes it the value under test.
# NaN fails every ordered comparison, so a check written as ``x <= 0`` would let it through.
BOUNDS = {
    "Dataset.num_classes": ("num_classes", "[2, inf)", int, tiny_dataset),
    "NoiseSpec.rate": ("rate", "[0, 1]", float, lambda v: NoiseSpec(NoiseKind.OOV_REPLACE, v)),
    "NoiseSpec.rate_by_class": (
        "rate_by_class[1]", "[0, 1]", float,
        lambda v: NoiseSpec(NoiseKind.OOV_REPLACE, rate_by_class={0: 0.1, 1: v}),
    ),
    "DatasetParams.num_classes": (
        "num_classes", "[2, inf)", int, lambda v: DatasetParams(num_classes=v)
    ),
    **{
        f"DatasetParams.{name}": (
            name, "[1, inf)", int, lambda v, name=name: DatasetParams(**{name: v})
        )
        for name in ("clips_per_class", "patches_per_clip", "feature_dim", "test_clips_per_class")
    },
    "DatasetParams.cluster_spread": (
        "cluster_spread", "[0, inf)", float, lambda v: DatasetParams(cluster_spread=v)
    ),
    "generate_blobs.cluster_spread": (
        "cluster_spread", "[0, inf)", float, lambda v: generate_blobs(2, 2, 1, 2, v, seed=0)
    ),
    "ExperimentConfig.runs": (
        "runs", "[1, inf)", int,
        lambda v: ExperimentConfig(DatasetParams(), train_config(), runs=v),
    ),
    # a summary's mean is the mean of its accuracies, so each row's value, when it lies in its
    # bound, is the 1/16 that TestFloatFields stores
    "RunSummary.per_run_accuracy": (
        "per_run_accuracy[1]", "[0, 100]", float,
        lambda v: run_summary(
            per_run_accuracy=(1 / 16, v), mean=1 / 16, dataset_fingerprints=("0" * 16,) * 2
        ),
    ),
    "RunSummary.mean": (
        "mean", "[0, 100]", float, lambda v: run_summary(per_run_accuracy=(1 / 16,), mean=v)
    ),
    "RunSummary.ci_half_width": (
        "ci_half_width", "[0, inf)", float, lambda v: run_summary(ci_half_width=v)
    ),
    "LossSpec.q": ("q", "(0, 1]", float, lambda v: LossSpec(LossKind.LQ, v)),
    "MixupPolicy.alpha": ("alpha", "(0, inf)", float, lambda v: MixupPolicy(v)),
    "MixupPolicy.warmup_epochs": (
        "warmup_epochs", "[0, inf)", int, lambda v: MixupPolicy(0.2, warmup_epochs=v)
    ),
    "SelectionRule.fraction": ("fraction", "[0, 1]", float, SelectionRule.max_fraction),
    "SelectionRule.level": ("level", "[0, 100]", float, SelectionRule.at_percentile),
    "StagePlan.start_epoch": ("start_epoch", "[0, inf)", int, lambda v: StagePlan(start_epoch=v)),
    "StagePlan.prune_count": ("prune_count", "[0, inf)", int, lambda v: StagePlan(prune_count=v)),
    "StagePlan.prune_rounds": (
        "prune_rounds", "[1, inf)", int, lambda v: StagePlan(start_epoch=1, prune_rounds=v)
    ),
    "PruneRecord.clip_loss": (
        "clip_loss", "[0, inf)", float, lambda v: PruneRecord(2, v, 1, False)
    ),
    "PruneRecord.rank": ("rank", "[1, inf)", int, lambda v: PruneRecord(2, 0.3, v, False)),
    "ModelParams.feature_dim": (
        "feature_dim", "[1, inf)", int,
        lambda v: ModelParams(Architecture.LINEAR, v, 2, 1, [np.zeros((1, 2)), np.zeros(2)]),
    ),
    "ModelParams.num_classes": (
        "num_classes", "[2, inf)", int,
        lambda v: ModelParams(Architecture.LINEAR, 1, v, 1, [np.zeros((1, 2)), np.zeros(2)]),
    ),
    "SmoothingPolicy.epsilon": ("epsilon", "[0, 1)", float, SmoothingPolicy),
    "SmoothingPolicy.delta_epsilon": (
        "delta_epsilon", "[0, inf)", float, lambda v: SmoothingPolicy(0.1, v)
    ),
    **{
        f"TrainConfig.{name}": (
            name, interval, kind, lambda v, name=name: train_config(**{name: v})
        )
        for name, interval, kind in (
            ("max_epochs", "[0, inf)", int),
            ("batch_size", "[1, inf)", int),
            ("initial_lr", "(0, inf)", float),
            ("lr_halving_patience", "[1, inf)", int),
            ("early_stop_patience", "[1, inf)", int),
            ("val_fraction", "(0, 1)", float),
        )
    },
    "TrainConfig.hidden_units": (
        "hidden_units", "[1, inf)", int,
        lambda v: train_config(architecture=Architecture.ONE_HIDDEN, hidden_units=v),
    ),
    # by TrainConfig's rule, before the weight shapes, which a hidden layer of 0 units fits
    "ModelParams.hidden_units": (
        "hidden_units", "[1, inf)", int,
        lambda v: ModelParams(
            Architecture.ONE_HIDDEN, 2, 2, v,
            [np.zeros((2, 0)), np.zeros(0), np.zeros((0, 2)), np.zeros(2)],
        ),
    ),
    **{
        f"EpochRecord.{name}": (
            name, interval, kind, lambda v, name=name: epoch_record(**{name: v})
        )
        for name, interval, kind in (
            ("epoch", "[0, inf)", int),
            ("train_loss", "[0, inf)", float),
            ("val_accuracy", "[0, 1]", float),
            ("lr", "(0, inf)", float),
            ("kept_fraction", "(0, 1]", float),
        )
    },
    "split_rows.val_fraction": (
        "val_fraction", "(0, 1)", float,
        lambda v: split_rows(tiny_dataset(), v, np.random.default_rng(0)),
    ),
    "mix_pair.lam": (
        "mixing weight", "[0, 1]", float, lambda v: mix_pair([0.0], [1.0], [1.0], [0.0], v)
    ),
    "smooth_uniform.num_classes": (
        "num_classes", "[2, inf)", int, lambda v: smooth_uniform(0, v, 0.1)
    ),
    "smooth_uniform.target_class": (
        "target class", "[0, 2)", int, lambda v: smooth_uniform(v, 2, 0.1)
    ),
    "percentile.level": ("percentile level", "[0, 100]", float, lambda v: percentile([1.0], v)),
    "beta_draws.alpha": (
        "beta shape parameter", "(0, inf)", float,
        lambda v: beta_draws(v, np.random.default_rng(0), 2),
    ),
    "mean_ci.level": ("confidence level", "(0, 1)", float, lambda v: mean_ci([1.0, 2.0], v)),
    "mean_ci.values": ("values[1]", "(-inf, inf)", float, lambda v: mean_ci([1.0, v])),
    "prune_dataset.prune_count": (
        "prune_count", "[0, inf)", int,
        lambda v: prune_dataset(tiny_dataset(), {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}, v),
    ),
}


def outside(interval: str, kind: type) -> list:
    """Values that lie outside ``interval``: for a number, NaN, ±Infinity and None (no bound
    above is a closed infinity); for an integer, the integer just below the lower bound."""
    if kind is int:
        return [int(interval[1:].split(",")[0]) - 1]
    return [math.nan, -math.inf, math.inf, None]


BOUND_CASES = [
    pytest.param(case, value, id=f"{case}-{json.dumps(value)}")
    for case, (_, interval, kind, _) in BOUNDS.items()
    for value in outside(interval, kind)
] + [
    # a numpy scalar is named by its Python value, as 1 and NaN
    pytest.param(case, value, id=f"{case}-{value!r}")
    for case, value in (
        ("smooth_uniform.num_classes", np.int64(1)), ("percentile.level", np.float32("nan"))
    )
]

# The bounded fields annotated ``float``: their type is checked before their bound, so None is
# refused as no number (generate_blobs checks its sizes by building a DatasetParams, and mean_ci
# checks each value by a float field's rule).
FLOAT_FIELDS = [
    "NoiseSpec.rate", "NoiseSpec.rate_by_class", "DatasetParams.cluster_spread",
    "MixupPolicy.alpha", "PruneRecord.clip_loss", "SmoothingPolicy.epsilon",
    "SmoothingPolicy.delta_epsilon", "TrainConfig.initial_lr", "TrainConfig.val_fraction",
    "EpochRecord.train_loss", "EpochRecord.val_accuracy", "EpochRecord.lr",
    "EpochRecord.kept_fraction", "RunSummary.per_run_accuracy", "RunSummary.mean",
    "RunSummary.ci_half_width",
]
NONE_REFUSED_BY_TYPE = {*FLOAT_FIELDS, "generate_blobs.cluster_spread", "mean_ci.values"}
# The fields annotated ``float | None``: None passes their type and is left to their bound.
OPTIONAL_FLOAT_FIELDS = ["LossSpec.q", "SelectionRule.fraction", "SelectionRule.level"]
# A float field's type refuses NaN and ±Infinity before its bound is looked at.
NON_FINITE_REFUSED_BY_TYPE = {*NONE_REFUSED_BY_TYPE, *OPTIONAL_FLOAT_FIELDS}


@pytest.mark.parametrize("case, value", BOUND_CASES)
def test_bound_refuses_a_value_outside_it_named_as_json(case, value):
    name, interval, _, call = BOUNDS[case]
    if value is None and case in NONE_REFUSED_BY_TYPE:
        with pytest.raises(TypeError) as excinfo:
            call(value)
        assert str(excinfo.value) == f"{name} must be a number, got null"
        return
    with pytest.raises(InvalidInputError) as excinfo:
        call(value)
    if isinstance(value, float) and not math.isfinite(value) and case in NON_FINITE_REFUSED_BY_TYPE:
        assert str(excinfo.value) == f"{name} must be a finite number, {shown(value)}"
    else:
        assert str(excinfo.value) == f"{name} must lie in {interval}, {shown(value)}"


def stored(record, name: str):
    """The value ``record`` holds for the field ``name``, or ``name[key]`` of a map field."""
    field, _, key = name.partition("[")
    value = getattr(record, field)
    return value[int(key[:-1])] if key else value


class TestFloatFields:
    """Every float field of a dataclass is stored as a float, as the config and record files
    already cast them: a bool, or a value that is no real number, is refused in the words of
    the record files when the dataclass is built."""

    # 1/16 lies in every float field's bound, SmoothingPolicy(0.1)'s delta_epsilon included
    @pytest.mark.parametrize("value", [np.float32(0.0625), Fraction(1, 16)], ids=repr)
    @pytest.mark.parametrize("case", FLOAT_FIELDS + OPTIONAL_FLOAT_FIELDS)
    def test_real_number_stored_as_float(self, case, value):
        name, _, _, build = BOUNDS[case]
        held = stored(build(value), name)
        assert type(held) is float and held == 0.0625

    @pytest.mark.parametrize("value", [True, False, "0.5", [0.5]], ids=json.dumps)
    @pytest.mark.parametrize("case", FLOAT_FIELDS + OPTIONAL_FLOAT_FIELDS)
    def test_bool_or_non_number_refused_naming_the_field(self, case, value):
        name, _, _, build = BOUNDS[case]
        with pytest.raises(TypeError) as excinfo:
            build(value)
        assert str(excinfo.value) == f"{name} must be a number, {shown(value)}"

    # as a config file refuses it: an integer past the float range is no finite number
    @pytest.mark.parametrize("case", FLOAT_FIELDS + OPTIONAL_FLOAT_FIELDS)
    def test_integer_too_large_for_a_float_refused(self, case):
        name, _, _, build = BOUNDS[case]
        with pytest.raises(InvalidInputError) as excinfo:
            build(10**400)
        assert str(excinfo.value) == f"{name} must be a finite number, {shown(10**400)}"


class TestRunSummaryFields:
    """A summary is checked when it is built, so that ``read_summary`` accepts what
    ``write_summary`` writes: its lists are stored as tuples of checked entries (its number
    fields are in the float tables above)."""

    def test_lists_and_integers_stored_as_read_back(self):
        summary = run_summary(
            per_run_accuracy=[50, np.float64(62.0)], mean=56, ci_half_width=0,
            dataset_fingerprints=["a", "b"],
        )
        assert summary.per_run_accuracy == (50.0, 62.0)
        assert [type(v) for v in summary.per_run_accuracy] == [float, float]
        assert (type(summary.mean), type(summary.ci_half_width)) == (float, float)
        assert summary.dataset_fingerprints == ("a", "b")

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"per_run_accuracy": 50.0}, "per_run_accuracy must be a list, got 50.0"),
            ({"config_fingerprint": 5}, "config_fingerprint must be a string, got 5"),
            ({"dataset_fingerprints": "ab"}, 'dataset_fingerprints must be a list, got "ab"'),
            (
                {"dataset_fingerprints": ["a", None]},
                "dataset_fingerprints[1] must be a string, got null",
            ),
        ],
        ids=["accuracy_number", "config_int", "fingerprints_str", "fingerprint_null"],
    )
    def test_wrong_type_refused_naming_the_entry(self, field, message):
        with pytest.raises(TypeError) as excinfo:
            run_summary(**field)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "field, message",
        [
            (
                {"per_run_accuracy": (), "dataset_fingerprints": ()},
                "per_run_accuracy must list at least one run",
            ),
            (
                {"per_run_accuracy": (90.0, 80.0, 70.0)},
                "1 dataset fingerprint(s) for 3 run(s); each run has one",
            ),
            (
                {"per_run_accuracy": (90.0, 80.0, 70.0), "mean": 12.0,
                 "dataset_fingerprints": ("x", "y", "z")},
                "mean 12.0 is not the mean of per_run_accuracy, 80.0",
            ),
            (
                # the writer's own mean of three 0.1s is 0.10000000000000002
                {"per_run_accuracy": (0.1, 0.1, 0.1), "mean": 0.1,
                 "dataset_fingerprints": ("x", "y", "z")},
                "mean 0.1 is not the mean of per_run_accuracy, 0.10000000000000002",
            ),
        ],
        ids=["no_runs", "fingerprint_per_run", "mean_of_other_runs", "mean_off_by_an_ulp"],
    )
    def test_summary_its_writer_cannot_produce_refused(self, field, message):
        with pytest.raises(InvalidInputError) as excinfo:
            run_summary(**field)
        assert str(excinfo.value) == message


def intervals(hint):
    """Each interval an ``Annotated`` inside the type hint ``hint`` declares."""
    if get_origin(hint) is Annotated:
        yield hint.__metadata__[0]
    for arg in get_args(hint):
        yield from intervals(arg)


def annotated_bounds() -> dict:
    """``{"Class.field": interval}`` for every bound a labelnoise dataclass field declares."""
    bounds = {}
    for module in pkgutil.iter_modules(labelnoise.__path__, "labelnoise."):
        for cls in vars(importlib.import_module(module.name)).values():
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.name):
                continue
            hints = get_type_hints(cls, include_extras=True)
            for field in dataclasses.fields(cls):
                for interval in intervals(hints[field.name]):
                    bounds[f"{cls.__name__}.{field.name}"] = interval
    return bounds


def test_every_annotated_bound_is_in_the_bounds_table():
    declared = annotated_bounds()
    assert "Dataset.num_classes" in declared and "NoiseSpec.rate_by_class" in declared
    assert {case: BOUNDS.get(case, (None, None))[1] for case in declared} == declared


SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "labelnoise").glob("*.py"))


def got_placeholders(source: str):
    """The expression of each placeholder that follows the text ``got `` in an f-string."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.JoinedStr):
            for before, part in zip(node.values, node.values[1:]):
                if isinstance(part, ast.FormattedValue) and isinstance(before, ast.Constant):
                    if before.value.endswith("got "):
                        yield part.value


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_got_placeholder_names_its_value_as_json(path):
    bare = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for node in got_placeholders(path.read_text(encoding="utf-8"))
        if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "json_text")
    ]
    assert not bare


def test_got_placeholder_scan_finds_a_bare_value():
    found = list(got_placeholders('f"x must be 1, got {x}, not {json_text(x)}"'))
    assert [ast.unparse(node) for node in found] == ["x"]


def unguarded_bounds(source: str):
    """Each ``within(...)`` call in a ``__post_init__`` that no ``if`` statement guards."""
    def calls(nodes):
        for node in nodes:
            if isinstance(node, ast.If):
                continue
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "within":
                yield node
            yield from calls(ast.iter_child_nodes(node))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            yield from calls(node.body)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_unconditional_field_bound_is_declared_in_its_annotation(path):
    """A bound that holds whenever the record exists is written in the field's ``Annotated``
    type and checked by ``check_fields``; ``__post_init__`` keeps only the conditional ones."""
    unguarded = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for node in unguarded_bounds(path.read_text(encoding="utf-8"))
    ]
    assert not unguarded


def test_bound_scan_finds_an_unguarded_call():
    source = """
class Record:
    def __post_init__(self):
        within("a", self.a, "[0, 1]")
        for key, value in self.b.items():
            within(f"b[{key}]", value, "[0, 1]")
        if self.c is not None:
            within("c", self.c, "[0, 1]")
"""
    found = [ast.unparse(node.args[1]) for node in unguarded_bounds(source)]
    assert found == ["self.a", "value"]


# One wrong-typed value per record, refused by the check each inherits from errors.Checked.
WRONG_TYPED_RECORDS = [
    (NoiseSpec, dict(kind="symmetric", rate=True), "rate must be a number, got true"),
    (DatasetParams, dict(num_classes=True), "num_classes must be an integer, got true"),
    (
        ExperimentConfig,
        dict(dataset=DatasetParams(), train=TrainConfig(LossSpec("cce")), runs=True),
        "runs must be an integer, got true",
    ),
    (
        RunSummary,
        dict(per_run_accuracy=(50.0,), mean=50.0, ci_half_width=0.0, config_fingerprint=True,
             dataset_fingerprints=("a",)),
        "config_fingerprint must be a string, got true",
    ),
    (
        Dataset,
        dict(example_ids=[0, 1], clip_ids=[0, 1], features=[[0.0], [1.0]], labels=[0, 1],
             num_classes=True),
        "num_classes must be an integer, got true",
    ),
    (LossSpec, dict(kind="lq", q=True), "q must be a number, got true"),
    (MixupPolicy, dict(alpha=True), "alpha must be a number, got true"),
    (RngStream, dict(seed=True), "seed must be an integer, got true"),
    (
        SelectionRule,
        dict(kind="max_fraction", fraction=True),
        "fraction must be a number, got true",
    ),
    (StagePlan, dict(start_epoch=True), "start_epoch must be an integer, got true"),
    (
        PruneRecord,
        dict(clip_id=1, clip_loss=0.5, rank=1, removed=1),
        "removed must be true or false, got 1",
    ),
    (SmoothingPolicy, dict(epsilon=True), "epsilon must be a number, got true"),
    (
        ModelParams,
        dict(architecture="linear", feature_dim=True, num_classes=2, hidden_units=0, weights=[]),
        "feature_dim must be an integer, got true",
    ),
    (
        TrainConfig,
        dict(loss=LossSpec("cce"), max_epochs=True),
        "max_epochs must be an integer, got true",
    ),
    (
        EpochRecord,
        dict(epoch=True, train_loss=0.5, val_accuracy=0.5, lr=0.01, kept_fraction=1.0),
        "epoch must be an integer, got true",
    ),
]


@pytest.mark.parametrize(
    "record, fields, message", WRONG_TYPED_RECORDS,
    ids=[record.__name__ for record, *_ in WRONG_TYPED_RECORDS],
)
def test_every_record_inherits_the_one_field_check(record, fields, message):
    assert issubclass(record, labelnoise.errors.Checked)
    with pytest.raises(TypeError) as excinfo:
        record(**fields)
    assert str(excinfo.value) == message


def test_only_the_record_base_calls_check_fields():
    callers = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "check_fields"
    ]
    assert len(callers) == 1 and callers[0].startswith("errors.py:")
