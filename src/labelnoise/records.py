"""The on-disk layout of every artifact: JSON-lines files (dataset rows, metrics, prune reports)
and one-document JSON files (model, summary), keys sorted, written atomically, and read by one
exact-type rule that names the file and line of a fault. A record file's schema is its
dataclass; a dataset file holds the columns of a ``Dataset``, plus the ground truth if private.
"""

from __future__ import annotations

import dataclasses
import json
import os
import secrets
from array import array
from contextlib import contextmanager
from enum import Enum
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .data import Dataset
from .errors import InvalidInputError


def _fault(err: Exception, document: bool = False) -> str:
    """What a parse error says is wrong with a JSON value; a syntax error in a whole
    ``document`` is placed by line and column, one in a JSON-lines line by column."""
    if isinstance(err, KeyError):
        return f"missing field {err}"
    if isinstance(err, json.JSONDecodeError):
        where = f"line {err.lineno}, column {err.colno}" if document else f"column {err.colno}"
        return f"not valid JSON ({err.msg} at {where})"
    return str(err)


def read_json_lines(path, parse_row) -> list:
    """``parse_row`` of each non-blank line of the JSON-lines file ``path``, in order.

    Lines are numbered from 1, blank ones included. A line that is not JSON,
    or whose parsed value ``parse_row`` rejects with a ``KeyError``,
    ``TypeError``, ``ValueError`` or ``OverflowError`` (a JSON integer too
    large for a float), raises ``InvalidInputError`` naming the file, the line
    and the fault.
    """
    rows = []
    with open(Path(path), "rb") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rows.append(parse_row(json.loads(line)))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                fault = exc
                if isinstance(exc, json.JSONDecodeError):
                    # without its line ending, a line that stops early is faulted where it stops
                    try:
                        json.loads(line.rstrip(b"\r\n"))
                    except json.JSONDecodeError as bare:
                        fault = bare
                raise InvalidInputError(f"{path}, line {number}: {_fault(fault)}") from exc
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


# How an error names the JSON type of each field kind (of a list kind, by its origin).
_KIND_NAMES = {
    int: "an integer", float: "a number", bool: "true or false", str: "a string", list: "a list",
    np.ndarray: "a list",
}


def field_value(key: str, value, kind):
    """``value``, the field ``key`` of a parsed JSON object, checked against ``kind``.

    Types are compared exactly, so a boolean is neither an integer nor a number: ``int`` is a
    JSON integer in the int64 range, ``float`` any JSON number (returned as a float), ``bool``
    true or false, ``str`` a string, ``list`` any list, ``list[item]`` a list whose entries
    each pass ``item`` (returned as a tuple; an entry is named ``key[index]``), and
    ``np.ndarray`` a list of numbers or a list of rows of numbers (returned as a float64
    array). A bad value raises ``TypeError``, ``ValueError`` or ``OverflowError``.
    """
    if type(value) is kind:
        if kind is int and not -(2**63) <= value < 2**63:
            raise ValueError(f"{key} {value} is outside the int64 range")
        return value
    if kind is float and type(value) is int:
        return float(value)
    if kind is np.ndarray and type(value) is list:
        rows = list[list[float]] if value and type(value[0]) is list else list[float]
        return np.asarray(field_value(key, value, rows), dtype=np.float64)
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


# --- record files: each file's schema is its dataclass ----------------------


def _json_object(record) -> dict:
    # json writes a str enum as its value and a tuple as a list (write_record lists arrays)
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _kind(hint):
    """The :func:`field_value` kind of a field annotated ``hint``: a str enum's is a string,
    and a list's or a tuple's is a list of its items' kind."""
    if isinstance(hint, type) and issubclass(hint, Enum):
        return str
    if get_origin(hint) in (list, tuple):
        return list[_kind(get_args(hint)[0])]
    return hint


@cache
def _parser(cls):
    """A parse of a JSON object as the dataclass ``cls``: every field is type-checked by
    :func:`row_fields`, in field order, and the values are passed to ``cls`` as they are."""
    hints = get_type_hints(cls)
    schema = tuple((f.name, _kind(hints[f.name])) for f in dataclasses.fields(cls))
    return lambda record: cls(*row_fields(record, schema))


def write_records(path, records) -> None:
    """Each dataclass record of ``records`` as one line of ``path``, its fields as keys."""
    write_json_lines(path, map(_json_object, records))


def read_records(path, cls, check=None) -> list:
    """Each line of ``path`` as a record of the dataclass ``cls``, passed through ``check``,
    if given, which returns it or rejects it with a ``ValueError``."""
    parse = _parser(cls)
    return read_json_lines(path, parse if check is None else lambda record: check(parse(record)))


def write_record(path, record, indent: int | None = None) -> None:
    """The dataclass ``record`` as the one JSON document of ``path``, its fields as keys."""
    with atomic_write(path) as fh:
        json.dump(
            _json_object(record), fh, sort_keys=True, indent=indent, default=np.ndarray.tolist
        )
        fh.write("\n")


def read_record(path, cls):
    """The one JSON document of ``path`` as a record of the dataclass ``cls``."""
    return read_json(path, _parser(cls))


# --- dataset files -----------------------------------------------------------

# Rows turned into Python values at a time by the dataset writer, so that its
# memory does not grow with the row count.
_WRITE_BLOCK = 1024


def write_dataset_rows(path, data: Dataset, truth: tuple | None = None) -> None:
    """One JSON object per example of ``data``, plus ``truth``, the clean labels and flags, as
    ``clean_label`` and ``corrupted``. The columns are converted to Python values one block of
    ``_WRITE_BLOCK`` rows at a time, and each line is written as it is built."""
    columns = dict(
        example_id=data.example_ids,
        clip_id=data.clip_ids,
        features=data.features,
        label=data.labels,
    )
    if truth is not None:
        columns.update(clean_label=truth[0], corrupted=truth[1])

    def rows():
        for start in range(0, data.n_examples, _WRITE_BLOCK):
            # the block's values are held only by this zip, so each block is
            # freed before the next one is built
            block = (column[start : start + _WRITE_BLOCK].tolist() for column in columns.values())
            for row in zip(*block):
                yield dict(zip(columns, row))

    write_json_lines(path, rows())


# The integer fields of every dataset row and the ground-truth pair of a private one.
_ID_FIELDS = (("example_id", int), ("clip_id", int), ("label", int))
_TRUTH_FIELDS = (("clean_label", int), ("corrupted", bool))
_NUMBERS = frozenset((int, float))


class _RowSchema:
    """Checks each parsed dataset row, in file order; the first row sets the width and layout.

    ``example_id``, ``clip_id``, ``label`` and ``clean_label`` are integers, ``corrupted`` a
    boolean and ``features`` a flat list of numbers as long as the first row's. The
    ground-truth pair is on every row or on none; a row without it reads as clean. Features
    are appended to the packed float64 buffer ``features``, so no per-row array is kept.
    Returns ``(example_id, clip_id, label, clean_label, corrupted)``.
    """

    def __init__(self):
        self.width: int | None = None
        self.annotated: bool | None = None
        self.features = array("d")

    def __call__(self, record) -> tuple:
        example_id, clip_id, label = row_fields(record, _ID_FIELDS)
        if self.annotated is None:
            self.annotated = "clean_label" in record
        if ("clean_label" in record, "corrupted" in record) != (self.annotated, self.annotated):
            raise ValueError(
                "clean_label/corrupted on some rows only;"
                " a dataset file annotates every row or none"
            )
        features = record["features"]
        if type(features) is not list or not _NUMBERS.issuperset(map(type, features)):
            raise TypeError("features must be a flat list of numbers")
        if self.width is None:
            self.width = len(features)
        if len(features) != self.width:
            raise ValueError(f"{len(features)} features where earlier rows have {self.width}")
        self.features.extend(features)  # OverflowError past the float range
        truth = row_fields(record, _TRUTH_FIELDS) if self.annotated else (label, False)
        return example_id, clip_id, label, *truth


def read_dataset_rows(path, require_truth: bool) -> tuple:
    """``(data, clean_labels, corrupted, annotated)`` of the dataset file ``path``, each row
    checked by :class:`_RowSchema`; ``data`` is a :class:`Dataset` whose class count is the
    largest label or clean label plus one, and at least 2. A file without ground truth reads
    as clean, or is rejected if ``require_truth``."""
    schema = _RowSchema()
    rows = read_json_lines(path, schema)
    if not rows:
        raise InvalidInputError(f"dataset file {path} is empty")
    if require_truth and not schema.annotated:
        raise InvalidInputError(
            f"{path} is not a harness-private file: clean_label/corrupted missing"
        )
    example_ids, clip_ids, labels, clean, flags = zip(*rows)
    # a view of the schema's buffer: no per-row arrays and no stacking copy
    features = np.frombuffer(schema.features).reshape(len(rows), schema.width)
    data = Dataset(example_ids, clip_ids, features, labels, max(max(labels), max(clean), 1) + 1)
    # checked here rather than in Dataset, which re-validates on every subset
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        bad = example_ids[np.argmin(finite)]
        raise InvalidInputError(f"example {bad} has a non-finite feature value")
    return data, clean, flags, schema.annotated
