"""Tests for the JSON-dictionary configuration layer."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelnoise import (
    Architecture,
    ConfigurationError,
    DatasetParams,
    ExperimentConfig,
    InvalidInputError,
    LossKind,
    LossSpec,
    MixupPolicy,
    NoiseGroup,
    NoiseKind,
    NoiseSpec,
    Pairing,
    SelectionKind,
    SelectionRule,
    SmoothingPolicy,
    StagePlan,
    Strategy,
    TrainConfig,
    generate_blobs,
)
from labelnoise.config import (
    experiment_to_dict,
    parse_experiment,
    parse_noise,
    parse_train,
    read_config_file,
    train_to_dict,
)


class TestParseLoss:
    def test_defaults_to_cce(self):
        spec = parse_train({"loss": {}})[0].loss
        assert spec.kind == LossKind.CCE
        assert spec.q is None

    def test_lq_with_q(self):
        spec = parse_train({"loss": {"kind": "lq", "q": 0.7}})[0].loss
        assert spec.kind == LossKind.LQ
        assert spec.q == 0.7

    def test_bad_q_names_the_section(self):
        with pytest.raises(ConfigurationError, match="train.loss"):
            parse_train({"loss": {"kind": "lq", "q": 1.5}})

    def test_unknown_kind_lists_options(self):
        with pytest.raises(ConfigurationError, match="'cce'"):
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
        cfg, _ = parse_train(rule_config({"kind": "max_fraction", "fraction": 0.93}))
        assert cfg.stage.rule.kind == SelectionKind.MAX_FRACTION
        assert cfg.stage.rule.fraction == 0.93

    def test_percentile(self):
        cfg, _ = parse_train(rule_config({"kind": "percentile", "level": 80.0}))
        assert cfg.stage.rule.level == 80.0

    def test_patch_count_becomes_percentile(self):
        cfg, _ = parse_train(rule_config({"kind": "patch_count", "count": 16}))
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
        cfg, _ = parse_train(
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
        plan = parse_train({"batch_size": 64, "stage": stage})[0].stage
        assert plan.strategy == Strategy.PRUNE
        assert plan.prune_count == 28

    def test_discard_without_rule_names_section(self):
        with pytest.raises(ConfigurationError, match="train.stage"):
            parse_train({"batch_size": 64, "stage": {"strategy": "discard", "start_epoch": 3}})

    def test_float_start_epoch_rejected(self):
        with pytest.raises(ConfigurationError, match="start_epoch"):
            parse_train({"batch_size": 64, "stage": {"strategy": "none", "start_epoch": 2.5}})


class TestParseSmoothing:
    def test_plain(self):
        cfg, auto = parse_train({"smoothing": {"epsilon": 0.15}})
        assert cfg.smoothing.epsilon == 0.15
        assert cfg.smoothing.delta_epsilon == 0.0
        assert not auto

    def test_explicit_groups_with_int_keys_as_strings(self):
        cfg, auto = parse_train(
            {
                "smoothing": {
                    "epsilon": 0.15,
                    "delta_epsilon": 0.05,
                    "groups": {"0": "low", "1": "high"},
                }
            }
        )
        assert not auto
        assert cfg.smoothing.group_of_class == {
            0: NoiseGroup.LOW_NOISE, 1: NoiseGroup.HIGH_NOISE
        }

    def test_auto_rejected_without_permission(self):
        with pytest.raises(ConfigurationError, match="auto"):
            parse_train({"smoothing": {"epsilon": 0.15, "groups": "auto"}})

    def test_auto_allowed_when_enabled(self):
        cfg, auto = parse_train(
            {"smoothing": {"epsilon": 0.15, "groups": "auto"}}, allow_auto_groups=True
        )
        assert auto
        assert cfg.smoothing.group_of_class is None

    def test_epsilon_required(self):
        with pytest.raises(ConfigurationError, match="epsilon"):
            parse_train({"smoothing": {}})

    def test_bad_group_key(self):
        with pytest.raises(ConfigurationError, match="class indices"):
            parse_train({"smoothing": {"epsilon": 0.1, "groups": {"cat": "low"}}})

    def test_bad_group_value(self):
        with pytest.raises(ConfigurationError, match="low"):
            parse_train({"smoothing": {"epsilon": 0.1, "groups": {"0": "loud"}}})


class TestParseMixup:
    def test_full(self):
        policy = parse_train(
            {"mixup": {"alpha": 0.3, "warmup_epochs": 10, "pairing": "inter"}}
        )[0].mixup
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
        cfg, auto = parse_train({})
        assert cfg.loss.kind == LossKind.CCE
        assert cfg.max_epochs == 100
        assert cfg.batch_size == 64
        assert cfg.architecture == Architecture.LINEAR
        assert not auto

    def test_nested_sections(self):
        cfg, auto = parse_train(
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
        assert not auto

    def test_patch_count_uses_default_batch_size_when_unset(self):
        cfg, _ = parse_train(
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
        cfg, _ = parse_train({"architecture": "one_hidden", "hidden_units": 8})
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

    def test_noise_uniform(self):
        spec = parse_noise({"kind": "symmetric", "rate": 0.4})
        assert spec.kind == NoiseKind.SYMMETRIC_IV
        assert spec.rate == 0.4

    def test_noise_per_class(self):
        spec = parse_noise(
            {"kind": "oov", "rate_by_class": {"0": 0.2, "1": 0.5}}
        )
        assert spec.rate_by_class == {0: 0.2, 1: 0.5}

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
        with pytest.raises(ConfigurationError, match="JSON object"):
            read_config_file(path)


class TestRoundTrips:
    def test_loss(self):
        raw = {"kind": "lq", "q": 0.7}
        assert train_to_dict(parse_train({"loss": raw})[0])["loss"] == raw

    def test_rule(self):
        raw = {"kind": "max_fraction", "fraction": 0.93}
        cfg, _ = parse_train(rule_config(raw))
        assert train_to_dict(cfg)["stage"]["rule"] == raw

    def test_stage(self):
        raw = {
            "strategy": "discard",
            "start_epoch": 10,
            "prune_count": 0,
            "prune_rounds": 1,
            "rule": {"kind": "percentile", "level": 75.0},
        }
        cfg, _ = parse_train({"batch_size": 64, "stage": raw})
        assert train_to_dict(cfg)["stage"] == raw

    def test_smoothing_with_groups(self):
        raw = {"epsilon": 0.15, "delta_epsilon": 0.05, "groups": {"0": "low", "1": "high"}}
        cfg, auto = parse_train({"smoothing": raw})
        assert train_to_dict(cfg, auto)["smoothing"] == raw

    def test_smoothing_auto_marker_survives(self):
        raw = {"epsilon": 0.15, "delta_epsilon": 0.0, "groups": "auto"}
        cfg, auto = parse_train({"smoothing": raw}, allow_auto_groups=True)
        assert train_to_dict(cfg, auto)["smoothing"] == raw

    def test_mixup(self):
        raw = {"alpha": 0.3, "warmup_epochs": 10, "pairing": "intra"}
        assert train_to_dict(parse_train({"mixup": raw})[0])["mixup"] == raw

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
        cfg, auto = parse_train({"loss": {"kind": "mae"}, "batch_size": 16})
        rendered = train_to_dict(cfg, auto)
        reparsed, _ = parse_train(rendered)
        assert reparsed == cfg


class TestNonFiniteNumbers:
    """json.loads accepts NaN and Infinity; the float caster does not."""

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

    def test_integer_too_large_for_a_float(self):
        with pytest.raises(ConfigurationError, match=r"^train\.initial_lr must be a finite"):
            parse_train({"initial_lr": 10**400})


# Each positive or non-negative float a dataclass (or generate_blobs) checks
# itself, built with the value under test; NaN fails every ordered comparison,
# so a check written as ``x <= 0`` lets it through.
NUMBER_FIELDS = {
    "MixupPolicy.alpha": lambda v: MixupPolicy(alpha=v),
    "TrainConfig.initial_lr": lambda v: TrainConfig(LossSpec(LossKind.CCE), initial_lr=v),
    "SmoothingPolicy.delta_epsilon": lambda v: SmoothingPolicy(0.1, delta_epsilon=v),
    "DatasetParams.cluster_spread": lambda v: DatasetParams(cluster_spread=v),
    "generate_blobs.cluster_spread": lambda v: generate_blobs(2, 2, 1, 2, v, seed=0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
def test_dataclass_rejects_a_non_finite_number(field, value):
    with pytest.raises(InvalidInputError, match=field.split(".")[1]):
        NUMBER_FIELDS[field](value)


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
    options = ", ".join(repr(item.value) for item in type(member))
    for bad in ("bogus", member.name, 1, None):
        with pytest.raises(InvalidInputError) as excinfo:
            value_of(bad)
        assert str(excinfo.value) == f"{name} must be one of {options}, got {bad!r}"


# --- parse(render(cfg)) == cfg ---------------------------------------------------

finite = dict(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=1, max_value=10**6)
seeds = st.integers(min_value=-(2**63), max_value=2**63)
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
        assert parse_train(rendered) == (cfg, False)


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
        cfg, auto = parse_train(raw)
        assert parse_train(json.loads(json.dumps(train_to_dict(cfg, auto)))) == (cfg, auto)


# Each config dataclass with the arguments it needs, and its integer fields.
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
}
INTEGER_FIELD_CASES = [
    pytest.param(build, name, id=f"{cls}.{name}")
    for cls, (build, names) in INTEGER_FIELDS.items()
    for name in names
]


class TestIntegerFields:
    """Every integer field of a config dataclass is stored as an int, as the config files
    already cast them: a float is refused when the config is built, not deep in a run."""

    @pytest.mark.parametrize("value", [2.5, 3.0])
    @pytest.mark.parametrize("build, name", INTEGER_FIELD_CASES)
    def test_float_refused_naming_the_field(self, build, name, value):
        message = rf"^{name}: 'float' object cannot be interpreted as an integer$"
        with pytest.raises(TypeError, match=message):
            build(**{name: value})

    @pytest.mark.parametrize("build, name", INTEGER_FIELD_CASES)
    def test_numpy_integer_stored_as_int(self, build, name):
        value = getattr(build(**{name: np.int64(3)}), name)
        assert type(value) is int and value == 3
