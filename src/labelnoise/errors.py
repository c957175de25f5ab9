"""Exception types shared across the toolkit, the JSON codecs (a writer and a reader for
JSON-lines files and for one-document JSON files, each reader naming the bad line or file, and
one field-type rule), the one way an artifact file is written, and the input checks more than
one module applies."""

import json
import os
import secrets
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping, get_args, get_origin


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


def _fault(err: Exception, document: bool = False) -> str:
    """What a parse error says is wrong with a JSON value; a syntax error in a whole
    ``document`` is placed by line and column, one in a JSON-lines line by column."""
    if isinstance(err, KeyError):
        return f"missing field {err}"
    if isinstance(err, json.JSONDecodeError):
        where = f"line {err.lineno}, column {err.colno}" if document else f"column {err.colno}"
        return f"not valid JSON ({err.msg} at {where})"
    return str(err)


def line_error(path, number: int, err: Exception) -> InvalidInputError:
    """An error naming line ``number`` of the JSON-lines file ``path`` and its fault."""
    return InvalidInputError(f"{path}, line {number}: {_fault(err)}")


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


def read_json(path, parse):
    """``parse`` of the one JSON document in the file ``path``.

    A file that is not JSON, or whose value ``parse`` rejects as :func:`read_json_lines`
    describes, raises ``InvalidInputError`` naming the file and the fault (the line and
    column of a JSON syntax error).
    """
    try:
        return parse(json.loads(Path(path).read_bytes()))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{path}: {_fault(exc, document=True)}") from exc


@contextmanager
def atomic_write(path):
    """A text file to write that takes the place of ``path`` only once the block completes.

    The text goes to a new temporary file in the directory of ``path``, which
    ``os.replace`` renames over ``path`` when the block exits normally. If the
    block raises, the temporary file is deleted and an existing ``path`` is left
    byte for byte as it was. Nothing is synced to disk: this guards against a
    writer that fails, not against a machine that stops.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fh = open(temp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_json_lines(path, rows) -> None:
    """Write each mapping of ``rows`` to ``path`` as one line of JSON, keys sorted.

    Rows are consumed one at a time, and the file is replaced atomically
    (:func:`atomic_write`).
    """
    with atomic_write(path) as fh:
        fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def write_json(path, record, indent: int | None = None) -> None:
    """Write ``record`` to ``path`` as one JSON document, keys sorted, atomically."""
    with atomic_write(path) as fh:
        json.dump(record, fh, sort_keys=True, indent=indent)
        fh.write("\n")


# How an error names the JSON type of each field kind (of a list kind, by its origin).
_KIND_NAMES = {
    int: "an integer", float: "a number", bool: "true or false", str: "a string", list: "a list"
}


def field_value(key: str, value, kind):
    """``value``, the field ``key`` of a parsed JSON object, checked against ``kind``.

    Types are compared exactly, so a boolean is neither an integer nor a number: ``int`` is a
    JSON integer in the int64 range, ``float`` any JSON number (returned as a float), ``bool``
    true or false, ``str`` a string, ``list`` any list, and ``list[item]`` a list whose
    entries each pass ``item`` (returned as a tuple; an entry is named ``key[index]``). A bad
    value raises ``TypeError``, ``ValueError`` or ``OverflowError``.
    """
    if type(value) is kind:
        if kind is int and not -(2**63) <= value < 2**63:
            raise ValueError(f"{key} {value} is outside the int64 range")
        return value
    if kind is float and type(value) is int:
        return float(value)
    origin = get_origin(kind)
    if origin is list and type(value) is list:
        (item,) = get_args(kind)
        return tuple(
            field_value(f"{key}[{index}]", entry, item) for index, entry in enumerate(value)
        )
    raise TypeError(f"{key} must be {_KIND_NAMES[origin or kind]}, got {json.dumps(value)[:40]}")


def row_fields(record, fields) -> tuple:
    """The values of ``fields``, ``(key, kind)`` pairs, in the parsed JSON object ``record``.

    Each is checked by :func:`field_value`. A record that is not an object, or lacks a key,
    raises ``TypeError`` or ``KeyError``; :func:`read_json_lines` and :func:`read_json` turn
    these and the errors of :func:`field_value` into their errors.
    """
    if type(record) is not dict:
        raise TypeError(f"a row must be a JSON object, got {json.dumps(record)[:40]}")
    values = []
    for key, kind in fields:
        value = record[key]
        # the exact, in-range case is decided inline: it is every field of every dataset row
        if type(value) is not kind or (kind is int and not -(2**63) <= value < 2**63):
            value = field_value(key, value, kind)
        values.append(value)
    return tuple(values)
