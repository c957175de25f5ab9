"""Exception types shared across the toolkit, the JSON-lines loop that names a bad line, and
the input checks that more than one module applies."""

import json
from pathlib import Path
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


def check_row_types(record, fields) -> None:
    """Raise ``TypeError`` unless ``record`` is a JSON object whose fields have their JSON types.

    ``fields`` pairs each key with the types its parsed value may have. The
    type is compared exactly, so a JSON boolean is not a number here. A
    missing key raises ``KeyError``.
    """
    if not isinstance(record, dict):
        raise TypeError(f"a row must be a JSON object, got {json.dumps(record)[:40]}")
    for key, types in fields:
        if type(record[key]) not in types:
            raise TypeError(f"{key} has the wrong type: {json.dumps(record[key])[:40]}")


def line_error(path, number: int, err: Exception) -> InvalidInputError:
    """An error naming line ``number`` of the JSON-lines file ``path`` and its fault."""
    if isinstance(err, KeyError):
        reason = f"missing field {err}"
    elif isinstance(err, json.JSONDecodeError):
        reason = f"not valid JSON ({err.msg} at column {err.colno})"
    else:
        reason = str(err)
    return InvalidInputError(f"{path}, line {number}: {reason}")


def read_json_lines(path, parse_row) -> list:
    """``parse_row`` of each non-blank line of the JSON-lines file ``path``, in order.

    Lines are numbered from 1, blank ones included. A line that is not JSON,
    or whose parsed value ``parse_row`` rejects with a ``KeyError``,
    ``TypeError``, ``ValueError`` or ``OverflowError`` (a JSON integer too
    large for a float), raises :func:`line_error` naming it.
    """
    rows = []
    with open(Path(path), "rb") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rows.append(parse_row(json.loads(line)))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise line_error(path, number, exc) from exc
    return rows
