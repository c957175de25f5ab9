"""Exception types shared across the toolkit, and the input checks more than one module applies."""

import operator
from enum import Enum
from typing import Mapping


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


def integer_fields(record, *names: str) -> None:
    """Stores each field ``names`` of the frozen dataclass ``record`` as an ``int``, by
    ``operator.index``; a value that is not an integer, such as a float, raises its
    ``TypeError`` prefixed with the field name."""
    for name in names:
        try:
            object.__setattr__(record, name, operator.index(getattr(record, name)))
        except TypeError as exc:
            raise TypeError(f"{name}: {exc}") from None


def enum_member(name: str, value, kind: type[Enum]) -> Enum:
    """``value`` as a member of the enum ``kind``; any other value raises ``InvalidInputError``
    naming the field ``name`` and the allowed values."""
    try:
        return kind(value)
    except ValueError:
        options = ", ".join(repr(member.value) for member in kind)
        raise InvalidInputError(f"{name} must be one of {options}, got {value!r}") from None
