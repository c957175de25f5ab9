"""Translate JSON-style dictionaries into the toolkit's typed configs.

The schema mirrors the dataclasses one level at a time, one table per
level: each row names a JSON key, the dataclass field it fills, the caster
that checks its value, and what a missing key means. ``_parse`` walks the
tables and ``_render`` prints a config back out in the same schema.
Parsing is strict: unknown keys are rejected with their dotted path before
any value of their section is read, values are checked in table order, and
a constraint violation raised while building a dataclass is re-raised as a
:class:`ConfigurationError` naming the section it came from.

Two conveniences are resolved here. A rule ``{"kind": "patch_count",
"count": c}`` becomes the percentile rule that drops the ``c`` largest
losses of a batch of the configured size: level ``100 * (1 - c /
batch_size)``. A smoothing ``groups`` value of ``"auto"`` asks the
experiment runner to derive the group map from the corruption it injected;
a lone training run has no ground truth to derive it from, so only
``parse_experiment`` accepts it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

from .errors import ConfigurationError, InvalidInputError, enum_member
from .harness import DatasetParams, ExperimentConfig, NoiseKind, NoiseSpec
from .losses import LossKind, LossSpec
from .mixup import MixupPolicy, Pairing
from .selection import SelectionKind, SelectionRule, StagePlan, Strategy
from .smoothing import NoiseGroup, SmoothingPolicy
from .trainer import Architecture, TrainConfig

AUTO_GROUPS = "auto"


def read_config_file(path) -> dict:
    """Load a JSON config file, normalizing failure modes to config errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object at the top level")
    return loaded


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
        raise ConfigurationError(f"{path} must be a JSON object, got {type(value).__name__}")
    return value


def _typed(kind, noun: str) -> Callable:
    """A JSON value of one Python type; true and false are not numbers."""
    def cast(value: Any, path: str, ctx: _Context):
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ConfigurationError(f"{path} must be {noun}, got {value!r}")
        return value
    return cast


_int = _typed(int, "an integer")
_number = _typed((int, float), "a number")


def _float(value: Any, path: str, ctx: _Context) -> float:
    try:
        number = float(_number(value, path, ctx))
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{path} must be a finite number, got {value!r}")
    return number


def _enum(enum_cls) -> Callable:
    def cast(value: Any, path: str, ctx: _Context):
        try:
            return enum_member(path, value, enum_cls)
        except InvalidInputError as exc:
            raise ConfigurationError(str(exc)) from None
    return cast


def _class_map(item: Callable) -> Callable:
    """A JSON object keyed by class index; every key is checked before any value."""
    def cast(value: Any, path: str, ctx: _Context) -> dict:
        raw: dict[int, Any] = {}
        for key, entry in _object(value, path).items():
            try:
                raw[int(key)] = entry
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"{path} keys must be class indices, got {key!r}"
                ) from None
        return {cls: item(entry, f"{path}[{cls}]", ctx) for cls, entry in raw.items()}
    return cast


def _section(cls) -> Callable:
    """A JSON object that fills one dataclass from its table."""
    def cast(value: Any, path: str, ctx: _Context):
        return _build(cls, path, **_parse(_TABLES[cls], _object(value, path), path, ctx))
    return cast


def _build(factory, path: str, **kwargs):
    try:
        return factory(**kwargs)
    except (InvalidInputError, ConfigurationError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _batch_size(value: Any, path: str, ctx: _Context) -> int:
    ctx.batch_size = _int(value, path, ctx)
    return ctx.batch_size


_RULE_PARAMETER = {"max_fraction": "fraction", "percentile": "level", "patch_count": "count"}


def _rule(value: Any, path: str, ctx: _Context) -> SelectionRule:
    raw = _object(value, path)
    _check_keys(raw, ("kind", *_RULE_PARAMETER.values()), path)
    if "kind" not in raw:
        raise ConfigurationError(f"{_dotted(path, 'kind')} is required")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _RULE_PARAMETER:
        options = ", ".join(map(repr, _RULE_PARAMETER))
        raise ConfigurationError(f"{_dotted(path, 'kind')} must be one of {options}, got {kind!r}")
    parameter = _RULE_PARAMETER[kind]
    where = _dotted(path, parameter)
    if parameter not in raw:
        raise ConfigurationError(f"{where} is required by the {kind} rule")
    for stray in _RULE_PARAMETER.values():
        if stray != parameter and stray in raw:
            raise ConfigurationError(f"{_dotted(path, stray)} does not apply to the {kind} rule")
    if kind == "max_fraction":
        return _build(SelectionRule.max_fraction, path, fraction=_float(raw[parameter], where, ctx))
    if kind == "percentile":
        return _build(SelectionRule.at_percentile, path, level=_float(raw[parameter], where, ctx))
    count, batch_size = _int(raw[parameter], where, ctx), ctx.batch_size
    if not 1 <= count <= batch_size:
        raise ConfigurationError(f"{where} must lie in [1, batch_size={batch_size}], got {count}")
    return _build(SelectionRule.at_percentile, path, level=100.0 * (1.0 - count / batch_size))


def _groups(value: Any, path: str, ctx: _Context):
    if value != AUTO_GROUPS:
        return _class_map(_enum(NoiseGroup))(value, path, ctx)
    if not ctx.allow_auto_groups:
        raise ConfigurationError(
            f"{path}: 'auto' derives the group map from injected corruption and is only"
            " available to the experiment command"
        )
    ctx.auto_groups = True
    return None


def _noise(value: Any, path: str, ctx: _Context) -> NoiseSpec | None:
    noise = None if value is None else _section(NoiseSpec)(value, path, ctx)
    if ctx.auto_groups and noise is None:
        raise ConfigurationError(
            "train.smoothing.groups: 'auto' requires a noise section to derive"
            " the group map from"
        )
    return noise


# What a missing key means: the dataclass default (_OPTIONAL), the dataclass
# default for JSON null too (_NULLABLE), an error (_REQUIRED), or any other
# value, which is cast as if the JSON had held it.
_OPTIONAL, _NULLABLE, _REQUIRED = object(), object(), object()


class _Key(NamedTuple):
    name: str
    cast: Callable
    field: str = ""
    missing: Any = _OPTIONAL


_TABLES: dict[type, tuple[_Key, ...]] = {
    LossSpec: (
        _Key("kind", _enum(LossKind), missing="cce"),
        _Key("q", _float, missing=_NULLABLE),
    ),
    # Rendered from this table; parsed by _rule, which also accepts "count".
    SelectionRule: (
        _Key("kind", _enum(SelectionKind)),
        _Key("fraction", _float, missing=_NULLABLE),
        _Key("level", _float, missing=_NULLABLE),
    ),
    StagePlan: (
        _Key("strategy", _enum(Strategy)),
        _Key("start_epoch", _int),
        _Key("rule", _rule, missing=_NULLABLE),
        _Key("prune_count", _int),
        _Key("prune_rounds", _int),
    ),
    SmoothingPolicy: (
        _Key("epsilon", _float, missing=_REQUIRED),
        _Key("delta_epsilon", _float),
        _Key("groups", _groups, "group_of_class", missing=_NULLABLE),
    ),
    MixupPolicy: (
        _Key("alpha", _float, missing=_REQUIRED),
        _Key("warmup_epochs", _int),
        _Key("pairing", _enum(Pairing)),
    ),
    TrainConfig: (
        _Key("loss", _section(LossSpec), missing={}),
        _Key("max_epochs", _int),
        _Key("batch_size", _batch_size),
        _Key("initial_lr", _float),
        _Key("lr_halving_patience", _int),
        _Key("early_stop_patience", _int),
        _Key("val_fraction", _float),
        _Key("seed", _int),
        _Key("hidden_units", _int),
        _Key("architecture", _enum(Architecture)),
        _Key("stage", _section(StagePlan), missing=_NULLABLE),
        _Key("smoothing", _section(SmoothingPolicy), missing=_NULLABLE),
        _Key("mixup", _section(MixupPolicy), missing=_NULLABLE),
    ),
    DatasetParams: (
        _Key("classes", _int, "num_classes"),
        _Key("clips_per_class", _int),
        _Key("patches_per_clip", _int),
        _Key("dims", _int, "feature_dim"),
        _Key("spread", _float, "cluster_spread"),
        _Key("test_clips_per_class", _int),
    ),
    NoiseSpec: (
        _Key("kind", _enum(NoiseKind), missing=_REQUIRED),
        _Key("rate", _float),
        _Key("seed", _int),
        _Key("rate_by_class", _class_map(_float), missing=_NULLABLE),
    ),
    ExperimentConfig: (
        _Key("dataset", _section(DatasetParams), missing={}),
        _Key("train", _section(TrainConfig), missing={}),
        _Key("noise", _noise, missing=None),
        _Key("runs", _int),
        _Key("base_seed", _int),
    ),
}


def _check_keys(section: Mapping, allowed, prefix: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigurationError(f"unknown configuration key: {_dotted(prefix, str(key))}")


def _parse(table: tuple[_Key, ...], section: Mapping, prefix: str, ctx: _Context) -> dict:
    """Field keyword arguments for one section, checked in table order."""
    _check_keys(section, [key.name for key in table], prefix)
    fields: dict[str, Any] = {}
    for key in table:
        path = _dotted(prefix, key.name)
        if key.missing is _NULLABLE and section.get(key.name) is None:
            continue
        value = section.get(key.name, key.missing)
        if value is _REQUIRED:
            raise ConfigurationError(f"{path} is required")
        if value is not _OPTIONAL:
            fields[key.field or key.name] = key.cast(value, path, ctx)
    return fields


def _render(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(cls): _render(item) for cls, item in sorted(value.items())}
    if type(value) not in _TABLES:
        return value
    items = ((key.name, getattr(value, key.field or key.name)) for key in _TABLES[type(value)])
    return {name: _render(item) for name, item in items if item is not None}


def parse_train(section: Any, prefix: str = "train", allow_auto_groups: bool = False):
    """Returns (TrainConfig, wants_auto_groups)."""
    ctx = _Context(allow_auto_groups=allow_auto_groups)
    return _section(TrainConfig)(section, prefix, ctx), ctx.auto_groups


def parse_noise(section: Any, prefix: str = "noise") -> NoiseSpec:
    return _section(NoiseSpec)(section, prefix, _Context())


def parse_experiment(config: Any) -> ExperimentConfig:
    if not isinstance(config, Mapping):
        raise ConfigurationError("the configuration must be a JSON object")
    ctx = _Context(allow_auto_groups=True)
    fields = _parse(_TABLES[ExperimentConfig], config, "", ctx)
    return _build(ExperimentConfig, "configuration", auto_noise_groups=ctx.auto_groups, **fields)


def train_to_dict(cfg: TrainConfig, auto_groups: bool = False) -> dict:
    out = _render(cfg)
    if auto_groups and cfg.smoothing is not None:
        out["smoothing"]["groups"] = AUTO_GROUPS
    return out


def experiment_to_dict(cfg: ExperimentConfig) -> dict:
    return {**_render(cfg), "train": train_to_dict(cfg.train, cfg.auto_noise_groups)}
