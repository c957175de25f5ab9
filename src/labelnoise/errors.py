"""Exception types shared across the toolkit, and the input checks more than one module applies."""

import dataclasses
import json
import math
import numbers
import operator
from collections.abc import Mapping
from enum import Enum
from functools import cache
from types import MappingProxyType
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np


class InvalidInputError(ValueError):
    """An operation received arguments outside its domain."""


class ConfigurationError(ValueError):
    """A configuration value or combination of values is invalid."""


class TrainingError(RuntimeError):
    """A training run failed. Carries the epoch index where it happened."""

    def __init__(self, message: str, epoch: int):
        super().__init__(f"epoch {epoch}: {message}")
        self.epoch = epoch


class ExperimentError(RuntimeError):
    """A run inside a multi-run experiment failed. Carries the run index."""

    def __init__(self, message: str, run_index: int):
        super().__init__(f"run {run_index}: {message}")
        self.run_index = run_index


def check_class_map(name: str, by_class: Mapping[int, object] | None, num_classes: int) -> None:
    """Reject a per-class map whose keys are not exactly ``0 .. num_classes - 1``."""
    if by_class is None:
        return
    missing = sorted(set(range(num_classes)) - set(by_class))
    unknown = sorted(set(by_class) - set(range(num_classes)))
    if missing or unknown:
        raise ConfigurationError(
            f"{name} must key exactly the classes 0..{num_classes - 1};"
            f" missing {missing}, unknown {unknown}"
        )


def json_text(value) -> str:
    """How an error shows a rejected ``value``: its JSON text, cut to 40 characters. A numpy
    scalar is written as its Python value, any other part JSON cannot hold as its repr."""
    text = json.dumps(value, default=lambda v: v.item() if isinstance(v, np.generic) else repr(v))
    return text[:40]


def enum_member(name: str, value, kind: type[Enum]) -> Enum:
    """``value`` as a member of the enum ``kind``; any other value raises ``InvalidInputError``
    naming the field ``name`` and the allowed values."""
    try:
        return kind(value)
    except ValueError:
        options = ", ".join(json_text(member.value) for member in kind)
        raise InvalidInputError(f"{name} must be one of {options}, got {json_text(value)}") from None


# How an error names the JSON type of a field kind.
KIND_NAMES = {
    int: "an integer", float: "a number", bool: "true or false", str: "a string", list: "a list",
    Mapping: "an object",
}


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be {KIND_NAMES[int]}, got {json_text(value)}")
    return operator.index(value)


def _number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be {KIND_NAMES[float]}, got {json_text(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise InvalidInputError(f"{name} must be a finite number, got {json_text(value)}")
    return number


def _instance(kind: type, *also: type):
    """The rule of a field that holds a ``kind``, or one of ``also``, as it is."""
    def rule(name: str, value):
        if not isinstance(value, (kind, *also)):
            raise TypeError(f"{name} must be {KIND_NAMES[kind]}, got {json_text(value)}")
        return value
    return rule


# The rule of each scalar field kind.
_SCALAR_RULES = {int: _integer, float: _number, bool: _instance(bool), str: _instance(str)}


def field_rule(hint):
    """How :func:`check_fields` checks a field annotated ``hint``: a function of the field's
    name and value that returns the value to store, or ``None`` for a field it leaves alone."""
    if get_origin(hint) is Annotated:  # X and the interval it lies in
        rule, interval = field_rule(get_args(hint)[0]), hint.__metadata__[0]
        return lambda name, value: within(name, rule(name, value), interval)
    if type(None) in get_args(hint):  # X | None
        rule = field_rule(get_args(hint)[0])
        return rule and (lambda name, value: value if value is None else rule(name, value))
    if hint in _SCALAR_RULES:
        return _SCALAR_RULES[hint]
    if isinstance(hint, type) and issubclass(hint, Enum):
        return lambda name, value: enum_member(name, value, hint)
    if get_origin(hint) is Mapping and (item := field_rule(get_args(hint)[1])):
        pairs = _instance(Mapping)
        return lambda name, value: {
            key: item(f"{name}[{key}]", v) for key, v in pairs(name, value).items()
        }
    if get_origin(hint) in (list, tuple) and (item := field_rule(get_args(hint)[0])):
        entries, kind = _instance(list, tuple), get_origin(hint)
        return lambda name, value: kind(
            item(f"{name}[{index}]", v) for index, v in enumerate(entries(name, value))
        )
    if hint is np.ndarray:  # an array as it is; a list of numbers, or of rows, as float64
        flat, nested = field_rule(tuple[float, ...]), field_rule(tuple[tuple[float, ...], ...])
        def array(name: str, value):
            if isinstance(value, np.ndarray):
                return value
            rows = isinstance(value, list) and value and isinstance(value[0], list)
            return np.asarray((nested if rows else flat)(name, value), dtype=np.float64)
        return array
    return None


@cache
def field_rules(cls) -> Mapping:
    """The rule of each field of the dataclass ``cls`` that :func:`check_fields` checks, by
    name, in field order, read-only; a config file checks its keys by the same rules."""
    hints = get_type_hints(cls, include_extras=True)
    rules = ((field.name, field_rule(hints[field.name])) for field in dataclasses.fields(cls))
    return MappingProxyType({name: rule for name, rule in rules if rule})


def check_fields(record) -> None:
    """Checks each field of the dataclass ``record`` by its annotation, in field order, and stores
    it as checked: an ``int`` by ``operator.index`` and a finite real ``float`` as a float, each
    refusing a bool; a ``bool`` as a bool; a ``str`` as a str; an enum as its :func:`enum_member`; a
    ``Mapping`` as a dict, each value named ``name[key]`` and checked by the rule of its value
    type; a ``list[X]`` or ``tuple[X, ...]``, given a list or a tuple, as a list or a tuple
    whose entries, named ``name[i]``, pass ``X``'s rule; an ``np.ndarray`` as it is, or a list
    of numbers, or of rows of numbers, as a float64 array; ``X | None`` may be ``None``; and
    ``Annotated[X, interval]`` by ``X``'s rule, then by :func:`within` ``interval``.
    A value of the wrong type raises ``TypeError`` in the words of the record files; one outside
    its interval, or a number that is not finite, raises ``InvalidInputError``."""
    for name, rule in field_rules(type(record)).items():
        object.__setattr__(record, name, rule(name, getattr(record, name)))


class Checked:
    """A record that :func:`check_fields` checks as it is built: a dataclass that subclasses
    this inherits the check as its ``__post_init__``, or calls it by ``super()`` in its own."""

    def __post_init__(self):
        check_fields(self)


@cache
def _bounds(interval: str) -> tuple:
    """The bounds of ``interval``, ``"[0, 1)"`` say, and the comparisons that test them."""
    low, high = interval[1:-1].split(", ")
    closed = {"[": operator.le, "(": operator.lt, "]": operator.le, ")": operator.lt}
    return float(low), float(high), closed[interval[0]], closed[interval[-1]]


def within(name: str, value, interval: str):
    """``value``, the input ``name``, if it lies in ``interval``, written as printed
    (``"[0, 1)"``, ``"(0, inf)"``); NaN, ``None`` and what does not compare lie in none."""
    low, high, above_low, below_high = _bounds(interval)
    try:
        inside = above_low(low, value) and below_high(value, high)
    except TypeError:
        inside = False
    if not inside:
        raise InvalidInputError(f"{name} must lie in {interval}, got {json_text(value)}")
    return value
