"""Translate JSON-style dictionaries into the toolkit's typed configs.

Each section of a config is one dataclass, and its keys are the dataclass's
fields, in field order: a field's default gives what a missing key means (a
field that defaults to ``None`` takes JSON null as its default too), and its
rule in :func:`errors.field_rules`, the one its constructor checks, types and
bounds its value. ``_DIFFERENCES`` lists the few places where the JSON
differs from the dataclass. ``_parse`` walks a section's keys and ``_render``
prints a config back out in the same schema. A value is first held to the
int64 range, as in the record files, so a bad value is refused in the words
of the constructors and the record files, named by its dotted JSON path and
printed as JSON. Parsing is strict: unknown keys are rejected with their
dotted path before any value of their section is read, values are checked in
field order, and a constraint between fields, raised while building a
dataclass, is re-raised as a :class:`ConfigurationError` naming the section
it came from.

Two conveniences are resolved here. A rule ``{"kind": "patch_count",
"count": c}`` becomes the percentile rule that drops the ``c`` largest
losses of a batch of the configured size: level ``100 * (1 - c /
batch_size)``. A smoothing ``groups`` value of ``"auto"`` asks the
experiment runner to derive the group map from the corruption it injected;
a lone training run has no ground truth to derive it from, so only
``parse_experiment`` accepts it, and :class:`ExperimentConfig` refuses it
without a noise section.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from enum import Enum
from functools import cache
from typing import Any, Callable, NamedTuple, get_args, get_origin, get_type_hints

from .errors import ConfigurationError, InvalidInputError, field_rule, field_rules, json_text
from .harness import DatasetParams, ExperimentConfig, NoiseSpec
from .losses import LossSpec
from .records import field_value, read_json
from .selection import SelectionKind, SelectionRule, StagePlan
from .smoothing import SmoothingPolicy
from .trainer import TrainConfig

AUTO_GROUPS = "auto"


def read_config_file(path) -> dict:
    """The JSON object of the config file ``path``, each fault a ``ConfigurationError``."""
    try:
        return read_json(path, lambda config: _object(config, "the configuration"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except InvalidInputError as exc:
        raise ConfigurationError(f"config file {exc}") from exc


def _dotted(prefix: str, key: str) -> str:
    return f"{prefix}.{key}" if prefix else key


@dataclasses.dataclass
class _Context:
    """What one parse carries between sections."""

    allow_auto_groups: bool = False
    auto_groups: bool = False
    batch_size: int = TrainConfig.batch_size


# Casters take (JSON value, dotted path, context) and return the field value.


def _object(value: Any, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{path} must be a JSON object, got {json_text(value)}")
    return value


def config_value(value: Any, path: str, rule: Callable):
    """The JSON value at ``path``, an integer held to the int64 range by
    :func:`records.field_value`, then typed and bounded by the field rule ``rule`` (see
    :func:`errors.field_rule`); a fault is raised as a ConfigurationError."""
    try:
        return rule(path, field_value(path, value))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(str(exc)) from None


def _rule_of(cls, name: str) -> Callable:
    """The rule of the field ``name`` of the dataclass ``cls``."""
    return dict(field_rules(cls))[name]


def _class_map(rule: Callable) -> Callable:
    """A JSON object keyed by class index, each written as ``str(index)``, checked by the map
    field's ``rule`` once every key is an index, so an entry is named ``path[index]``."""
    def cast(value: Any, path: str, ctx: _Context) -> dict:
        raw: dict[int, Any] = {}
        for key, entry in _object(value, path).items():
            try:
                cls = int(key)
                if str(cls) != str(key):
                    raise ValueError
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"{path} keys must be class indices, got {json_text(key)}"
                ) from None
            raw[cls] = entry
        return config_value(raw, path, rule)
    return cast


def _section(cls) -> Callable:
    """A JSON object that fills the dataclass ``cls`` from its keys."""
    def cast(value: Any, path: str, ctx: _Context):
        return _build(cls, path, **_parse(_keys(cls), _object(value, path), path, ctx))
    return cast


def _build(factory, path: str, **kwargs):
    try:
        return factory(**kwargs)
    except (InvalidInputError, ConfigurationError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _batch_size(value: Any, path: str, ctx: _Context) -> int:
    ctx.batch_size = config_value(value, path, _rule_of(TrainConfig, "batch_size"))
    return ctx.batch_size


_RULE_PARAMETER = {"max_fraction": "fraction", "percentile": "level", "patch_count": "count"}
_RuleKind = Enum("_RuleKind", {kind: kind for kind in _RULE_PARAMETER})


def _rule(value: Any, path: str, ctx: _Context) -> SelectionRule:
    raw = _object(value, path)
    _check_keys(raw, ("kind", *_RULE_PARAMETER.values()), path)
    if "kind" not in raw:
        raise ConfigurationError(f"{_dotted(path, 'kind')} is required")
    kind = config_value(raw["kind"], _dotted(path, "kind"), field_rule(_RuleKind)).value
    parameter = _RULE_PARAMETER[kind]
    where = _dotted(path, parameter)
    if parameter not in raw:
        raise ConfigurationError(f"{where} is required by the {kind} rule")
    for stray in _RULE_PARAMETER.values():
        if stray != parameter and stray in raw:
            raise ConfigurationError(f"{_dotted(path, stray)} does not apply to the {kind} rule")
    if kind != "patch_count":
        number = config_value(raw[parameter], where, _rule_of(SelectionRule, parameter))
        return _build(SelectionRule, path, kind=SelectionKind(kind), **{parameter: number})
    count, batch_size = config_value(raw[parameter], where, field_rule(int)), ctx.batch_size
    if not 1 <= count <= batch_size:
        raise ConfigurationError(
            f"{where} must lie in [1, batch_size={batch_size}], got {json_text(count)}"
        )
    return _build(SelectionRule.at_percentile, path, level=100.0 * (1.0 - count / batch_size))


def _groups(value: Any, path: str, ctx: _Context):
    if value != AUTO_GROUPS:
        return _class_map(_rule_of(SmoothingPolicy, "group_of_class"))(value, path, ctx)
    if not ctx.allow_auto_groups:
        raise ConfigurationError(
            f"{path}: 'auto' derives the group map from injected corruption and is only"
            " available to the experiment command"
        )
    ctx.auto_groups = True
    return None


# What a missing key means: the dataclass default (_OPTIONAL), the dataclass
# default for JSON null too (_NULLABLE), an error (_REQUIRED), or any other
# value, which is cast as if the JSON had held it.
_OPTIONAL, _NULLABLE, _REQUIRED = object(), object(), object()


class _Key(NamedTuple):
    name: str
    cast: Callable
    field: str
    missing: Any


# Where a section's JSON differs from its dataclass, by (dataclass, field): the
# _Key members that replace the derived ones, or None for a field with no key.
_DIFFERENCES: dict[tuple[type, str], dict | None] = {
    (DatasetParams, "num_classes"): dict(name="classes"),
    (DatasetParams, "feature_dim"): dict(name="dims"),
    (DatasetParams, "cluster_spread"): dict(name="spread"),
    (SmoothingPolicy, "group_of_class"): dict(name="groups", cast=_groups),
    (TrainConfig, "batch_size"): dict(cast=_batch_size),
    (StagePlan, "rule"): dict(cast=_rule),  # rendered as a SelectionRule
    (LossSpec, "kind"): dict(missing="cce"),
    (TrainConfig, "loss"): dict(missing={}),
    (ExperimentConfig, "dataset"): dict(missing={}),
    (ExperimentConfig, "train"): dict(missing={}),
    (TrainConfig, "stage"): dict(missing=_NULLABLE),  # null is the default plan too
    (ExperimentConfig, "auto_noise_groups"): None,  # set by "groups": "auto"
}


def _caster(hint, rule) -> Callable:
    """The caster of a field of type ``hint`` that :func:`errors.field_rules` checks by
    ``rule``, or, for a config section, leaves alone; ``X | None`` is cast as ``X``."""
    if type(None) in get_args(hint):
        hint = get_args(hint)[0]
    if rule is None:
        return _section(hint)
    if get_origin(hint) is Mapping:
        return _class_map(rule)
    return lambda value, path, ctx: config_value(value, path, rule)


@cache
def _keys(cls) -> tuple[_Key, ...]:
    """The keys of the config dataclass ``cls``, one per field, in field order."""
    hints, rules = get_type_hints(cls), dict(field_rules(cls))
    keys = []
    for field in dataclasses.fields(cls):
        difference = _DIFFERENCES.get((cls, field.name), {})
        if difference is None:
            continue
        if field.default is None:
            missing = _NULLABLE
        elif field.default is field.default_factory is dataclasses.MISSING:
            missing = _REQUIRED
        else:
            missing = _OPTIONAL
        cast = _caster(hints[field.name], rules.get(field.name))
        key = _Key(field.name, cast, field.name, missing)
        keys.append(key._replace(**difference))
    return tuple(keys)


def _check_keys(section: Mapping, allowed, prefix: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigurationError(f"unknown configuration key: {_dotted(prefix, str(key))}")


def _parse(keys: tuple[_Key, ...], section: Mapping, prefix: str, ctx: _Context) -> dict:
    """Field keyword arguments for one section, checked in field order."""
    _check_keys(section, [key.name for key in keys], prefix)
    fields: dict[str, Any] = {}
    for key in keys:
        path = _dotted(prefix, key.name)
        if key.missing is _NULLABLE and section.get(key.name) is None:
            continue
        value = section.get(key.name, key.missing)
        if value is _REQUIRED:
            raise ConfigurationError(f"{path} is required")
        if value is not _OPTIONAL:
            fields[key.field] = key.cast(value, path, ctx)
    return fields


def _render(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(cls): _render(item) for cls, item in sorted(value.items())}
    if not dataclasses.is_dataclass(value):
        return value
    items = ((key.name, getattr(value, key.field)) for key in _keys(type(value)))
    return {name: _render(item) for name, item in items if item is not None}


def parse_train(section: Any) -> TrainConfig:
    """A lone run's ``train`` section; ``"groups": "auto"`` needs an experiment's noise."""
    return _section(TrainConfig)(section, "train", _Context())


def parse_noise(section: Any) -> NoiseSpec:
    """The ``noise`` section of a corruption."""
    return _section(NoiseSpec)(section, "noise", _Context())


def parse_dataset(section: Any) -> DatasetParams:
    return _section(DatasetParams)(section, "dataset", _Context())


def parse_experiment(config: Any) -> ExperimentConfig:
    if not isinstance(config, Mapping):
        raise ConfigurationError("the configuration must be a JSON object")
    ctx = _Context(allow_auto_groups=True)
    fields = _parse(_keys(ExperimentConfig), config, "", ctx)
    return _build(ExperimentConfig, "configuration", auto_noise_groups=ctx.auto_groups, **fields)


def train_to_dict(cfg: TrainConfig) -> dict:
    return _render(cfg)


def experiment_to_dict(cfg: ExperimentConfig) -> dict:
    out = _render(cfg)
    if cfg.auto_noise_groups:  # ExperimentConfig holds that smoothing is set
        out["train"]["smoothing"]["groups"] = AUTO_GROUPS
    return out
