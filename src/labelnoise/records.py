"""The on-disk layout of every artifact: JSON-lines files (dataset rows, metrics, prune reports)
and one-document JSON files (model, summary), keys sorted, written atomically, and read with
each fault named by its file and line. A record file's schema is its dataclass, which types
the fields as it is built; a dataset file holds the columns of a ``Dataset``, plus the ground
truth if private, each value typed by its field rule from :mod:`errors` and the whole checked
as the ``Dataset`` is built (a non-finite feature, say).
"""

from __future__ import annotations

import dataclasses
import json
import os
import secrets
import shutil
from array import array
from contextlib import contextmanager
from functools import cache, partial
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import InvalidInputError, field_rule, json_text
from .pool import STOPPED_EARLY, map_forked, worker_count


def _fault(err: Exception, document: bool = False) -> str:
    """What a parse error says is wrong with a JSON value; a syntax error in a whole
    ``document`` is placed by line and column, one in a JSON-lines line by column."""
    if isinstance(err, KeyError):
        return f"missing field {err}"
    if isinstance(err, json.JSONDecodeError):
        where = f"line {err.lineno}, column {err.colno}" if document else f"column {err.colno}"
        # json's "Unterminated string starting at" and "Invalid control character at" end in "at"
        return f"not valid JSON ({err.msg.removesuffix(' at')} at {where})"
    return str(err)


def _parse_lines(lines, parse_row) -> tuple:
    """Passes the JSON value of each non-blank line of ``lines`` to ``parse_row``, up to the
    first fault. Returns ``(count, fault)``: how many lines were read, and ``None`` or the fault
    as ``(line, message, error)``, its line numbered from 1 among ``lines``. Each line is parsed
    without its line ending, LF or CRLF, so a line that stops early is faulted where it stops."""
    count = 0
    for count, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            parse_row(json.loads(line.rstrip(b"\r\n")))
        except (KeyError, TypeError, ValueError) as exc:
            return count, (count, _fault(exc), exc)
    return count, None


def _raise_first_fault(path, parts) -> None:
    """Raises the first fault of the file ``path`` read as consecutive parts, each ``(count,
    fault, ...)`` as :func:`_parse_lines` returns them, named by its line in the whole file."""
    before = 0
    for count, fault, *_ in parts:
        if fault is not None:
            line, message, exc = fault
            raise InvalidInputError(f"{path}, line {before + line}: {message}") from exc
        before += count


def read_json(path, parse):
    """``parse`` of the one JSON document in the file ``path``.

    A file that is not JSON, or whose value ``parse`` rejects as :func:`read_records`
    describes, raises ``InvalidInputError`` naming the file and the fault (the line and
    column of a JSON syntax error).
    """
    try:
        return parse(json.loads(Path(path).read_bytes()))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path}: {_fault(exc, document=True)}") from exc


def _scratch_name(path: Path, suffix: str) -> Path:
    """A new hidden name beside ``path`` for a file that lives only while ``path`` is written."""
    return path.with_name(f".{path.name}.{secrets.token_hex(4)}.{suffix}")


@contextmanager
def atomic_write(path):
    """A text file to write that takes the place of ``path`` only once the block completes.

    The text goes to a new temporary file in the directory of ``path``, which
    ``os.replace`` renames over ``path`` when the block exits normally. If the
    block raises, the temporary file is deleted and an existing ``path`` is left
    byte for byte as it was. Nothing is synced to disk: this guards against a
    writer that fails, not against a machine that stops.
    """
    temp = _scratch_name(Path(path), "tmp")
    fh = open(temp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def field_value(key: str, value):
    """``value``, the field ``key`` of a parsed JSON object; an integer outside the int64 range
    raises ``ValueError``."""
    if type(value) is int and not -(2**63) <= value < 2**63:
        raise ValueError(f"{key} {json_text(value)} is outside the int64 range")
    return value


def row_fields(record, fields) -> tuple:
    """The values of ``fields``, ``(key, kind)`` pairs, in the parsed JSON object ``record``.

    Each is typed by the :func:`errors.field_rule` of its ``kind`` (``object`` leaves it as
    parsed) and held by :func:`field_value`. A record that is not an object, or lacks a key,
    raises ``TypeError`` or ``KeyError``; :func:`read_records` and :func:`read_json` turn
    these and the errors of the rules into their errors.
    """
    if type(record) is not dict:
        raise TypeError(f"a row must be a JSON object, got {json_text(record)}")
    values = []
    for key, kind in fields:
        value = record[key]
        # the exact, in-range case is decided inline: it is every field of every dataset row
        if type(value) is not kind or (kind is int and not -(2**63) <= value < 2**63):
            value = field_value(key, value if kind is object else field_rule(kind)(key, value))
        values.append(value)
    return tuple(values)


def _unknown_field(record: dict, known) -> ValueError:
    """The error for the first key of the parsed JSON object ``record`` outside ``known``."""
    key = next(key for key in record if key not in known)
    return ValueError(f"unknown field {key!r}")


# --- record files: each file's schema is its dataclass ----------------------


def _json_object(record) -> dict:
    # json writes a str enum as its value and a tuple as a list (write_record lists arrays)
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


@cache
def _parser(cls):
    """A parse of a JSON object as the dataclass ``cls``: every field must be present, and goes
    to ``cls`` as parsed, an integer held to the int64 range by :func:`row_fields`; ``cls``
    checks the types and bounds as it is built. A key that names no field is refused."""
    fields = tuple((f.name, object) for f in dataclasses.fields(cls))
    names = frozenset(name for name, _ in fields)

    def parse(record):
        values = row_fields(record, fields)
        if len(record) != len(fields):
            raise _unknown_field(record, names)
        return cls(*values)

    return parse


def write_records(path, records) -> None:
    """Each dataclass record of ``records`` as one line of JSON, its fields as keys, sorted.
    The records are consumed one at a time, and ``path`` is replaced atomically."""
    with atomic_write(path) as fh:
        fh.writelines(json.dumps(_json_object(r), sort_keys=True) + "\n" for r in records)


def read_records(path, cls, check) -> list:
    """Each non-blank line of ``path`` as a record of the dataclass ``cls``, passed through
    ``check``, which returns it or rejects it with a ``ValueError``. A line that is
    not JSON, or that the parse or ``check`` rejects with a ``KeyError``, ``TypeError`` or
    ``ValueError``, raises ``InvalidInputError`` naming the file, the line (numbered from 1,
    blank ones included) and the fault."""
    parse, rows = _parser(cls), []
    with open(path, "rb") as fh:
        count, fault = _parse_lines(fh, lambda record: rows.append(check(parse(record))))
    _raise_first_fault(path, [(count, fault)])
    return rows


def write_record(path, record, indent: int | None = None) -> None:
    """The dataclass ``record`` as the one JSON document of ``path``, its fields as keys."""
    with atomic_write(path) as fh:
        json.dump(
            _json_object(record), fh, sort_keys=True, indent=indent, default=np.ndarray.tolist
        )
        fh.write("\n")


def read_record(path, cls):
    """The one JSON document of ``path``, an object, as a record of the dataclass ``cls``."""
    def parse(document):
        if type(document) is not dict:
            raise TypeError(f"the file must hold one JSON object, got {json_text(document)}")
        return _parser(cls)(document)
    return read_json(path, parse)


# --- dataset files -----------------------------------------------------------
#
# A dataset file is split into one contiguous range of rows per worker process, and the ranges
# are joined in file order, so its bytes, values and errors do not depend on the worker count.
# A file of one range is handled by the same range functions in this process; the others run
# through pool.map_forked, whose workers read the parent's columns without a copy.

# Rows turned into Python values at a time by the dataset writer, so that its memory does
# not grow with the row count; also the fewest rows given a range of their own.
_WRITE_BLOCK = 1024


def _bounds(size: int, unit: int) -> list:
    """Offsets of even ranges over ``size`` items: one per worker at most, each ``unit`` or more."""
    count = max(1, min(worker_count(), -(-size // unit)))
    return [size * index // count for index in range(count + 1)]


def _encode_rows(fh, columns: dict, start: int, stop: int) -> None:
    """Rows ``start`` to ``stop`` of ``columns`` as lines of the text file ``fh``, one JSON object
    each, keys sorted, converted to Python values one block of ``_WRITE_BLOCK`` rows at a time."""
    for at in range(start, stop, _WRITE_BLOCK):
        end = min(at + _WRITE_BLOCK, stop)
        block = (column[at:end].tolist() for column in columns.values())
        # the block's values are held only by the zip of this generator, so each block is
        # freed before the next one is built
        lines = (json.dumps(dict(zip(columns, row)), sort_keys=True) + "\n" for row in zip(*block))
        fh.writelines(lines)


def _encode_part(part: Path, start: int, stop: int, columns: dict) -> tuple:
    """A worker's task: rows ``start`` to ``stop`` of ``columns`` encoded into the new file
    ``part``."""
    with open(part, "x", encoding="utf-8") as fh:
        _encode_rows(fh, columns, start, stop)
    return None, ()


def write_dataset_rows(path, data: Dataset, truth: tuple | None = None) -> None:
    """One JSON object per example of ``data``, plus ``truth``, the clean labels and flags, as
    ``clean_label`` and ``corrupted``, replacing ``path`` atomically. Each range of rows is
    encoded by a worker into a part file beside ``path``, appended in row order."""
    path = Path(path)
    columns = dict(
        example_id=data.example_ids,
        clip_id=data.clip_ids,
        features=data.features,
        label=data.labels,
    )
    if truth is not None:
        columns.update(clean_label=truth[0], corrupted=truth[1])
    rows = data.n_examples
    bounds = _bounds(rows, _WRITE_BLOCK)
    with atomic_write(path) as fh:
        if len(bounds) == 2:
            _encode_rows(fh, columns, 0, rows)
            return
        parts = [_scratch_name(path, "part") for _ in bounds[1:]]
        try:
            ranges = zip(parts, bounds, bounds[1:])
            with map_forked(partial(_encode_part, *part, columns) for part in ranges):
                pass  # a worker sends its header once its part is written
            fh.flush()
            for part in parts:
                with open(part, "rb") as source:
                    shutil.copyfileobj(source, fh.buffer)
        finally:
            for part in parts:
                part.unlink(missing_ok=True)


# The integer fields of every dataset row and the ground-truth pair of a private one.
_ID_FIELDS = (("example_id", int), ("clip_id", int), ("label", int))
_TRUTH_FIELDS = (("clean_label", int), ("corrupted", bool))
# The keys of a dataset row: the id fields, features and the ground-truth pair.
_ROW_KEYS = frozenset(name for name, _ in _ID_FIELDS + _TRUTH_FIELDS) | {"features"}
_FLOATS = frozenset((float,))
_FEATURES = field_rule(tuple[float, ...])  # the rule of a features list not all floats


class _RowSchema:
    """Checks each parsed dataset row of a range, in file order, against the width and layout
    of the file's first row, which sets them if not given.

    ``example_id``, ``clip_id``, ``label`` and ``clean_label`` are integers, ``corrupted`` a
    boolean and ``features`` a flat list of numbers as long as the first row's. The
    ground-truth pair is on every row or on none; a row without it reads as clean. Any other
    key is refused. Each row is appended to three packed buffers, so no per-row object is
    kept: ``ids``, the example id, clip id, label and clean label; ``corrupted``, one byte;
    and ``features``.
    """

    def __init__(self, width: int | None = None, annotated: bool | None = None):
        self.width = width
        self.annotated = annotated
        self.ids = array("q")
        self.corrupted = array("B")
        self.features = array("d")

    def __call__(self, record) -> None:
        example_id, clip_id, label = row_fields(record, _ID_FIELDS)
        if self.annotated is None:
            self.annotated = "clean_label" in record
        if ("clean_label" in record, "corrupted" in record) != (self.annotated, self.annotated):
            raise ValueError(
                "clean_label/corrupted on some rows only;"
                " a dataset file annotates every row or none"
            )
        features = record["features"]
        if type(features) is not list or not _FLOATS.issuperset(map(type, features)):
            features = _FEATURES("features", features)  # names a bad entry; an int as a float
        if self.width is None:
            self.width = len(features)
        if len(features) != self.width:
            raise ValueError(f"{len(features)} features where earlier rows have {self.width}")
        self.features.extend(features)
        clean, corrupted = row_fields(record, _TRUTH_FIELDS) if self.annotated else (label, False)
        if len(record) != (6 if self.annotated else 4):  # _ROW_KEYS, less the pair if not annotated
            raise _unknown_field(record, _ROW_KEYS)
        self.ids.extend((example_id, clip_id, label, clean))
        self.corrupted.append(corrupted)


# The numpy types of a _RowSchema's buffers, in order.
_BUFFER_TYPES = (np.int64, np.bool_, np.float64)


def _lines_to(fh, stop: int):
    """The lines of the binary file ``fh`` from its position up to byte ``stop``, which ends a
    line past the position, or is the end of a file with no line past it."""
    at = fh.tell()
    for line in fh:
        yield line
        at += len(line)
        if at >= stop:
            break


def _parse_range(path, start: int, stop: int, schema: _RowSchema) -> tuple:
    """``((count, fault, rows), buffers)``: ``schema`` fed the lines of bytes ``start`` to ``stop``
    of ``path``, which begin and end lines, with ``count`` and ``fault`` as from
    :func:`_parse_lines`, and the number of rows and the schema's buffers."""
    with open(path, "rb") as fh:
        fh.seek(start)
        count, fault = _parse_lines(_lines_to(fh, stop), schema)
    buffers = (schema.ids, schema.corrupted, schema.features)
    return (count, fault, len(schema.corrupted)), buffers


def _ranges(fh, head: int) -> list:
    """``(start, stop)`` byte ranges of the binary file ``fh`` in order, one per worker at most,
    each of about ``_WRITE_BLOCK`` rows or more as long as ``head``, the first row's line. Each
    bound is moved forward to the start of a line, and a range left empty is dropped."""
    size = os.fstat(fh.fileno()).st_size
    bounds = {0, size}
    for offset in _bounds(size, head * _WRITE_BLOCK)[1:-1]:
        fh.seek(offset - 1)
        fh.readline()  # to the end of the line that holds the byte before the offset
        bounds.add(fh.tell())
    bounds = sorted(bounds)
    return list(zip(bounds, bounds[1:]))


def _receive(results, width: int) -> tuple:
    """The buffers of every range, read from the ``(header, pipe)`` pairs of the workers into
    one array each."""
    rows = sum(taken for (*_, taken), _ in results)
    widths = (4, 1, width)
    columns = tuple(map(np.empty, (rows * w for w in widths), _BUFFER_TYPES))
    at = 0
    for (*_, taken), pipe in results:
        for column, w in zip(columns, widths):
            target = column[at * w : (at + taken) * w]
            if pipe.readinto(target) != target.nbytes:
                raise ChildProcessError(STOPPED_EARLY)
        at += taken
    return columns


def read_dataset_rows(path, require_truth: bool, annotate):
    """``annotate(data, clean_labels, corrupted)`` of the dataset file ``path``, each row
    checked by :class:`_RowSchema`; ``data`` is a :class:`Dataset` whose class count is the
    largest label or clean label plus one, and at least 2. A file without ground truth reads
    as clean, or, if ``require_truth``, is rejected once its first row is parsed. The first
    row is parsed first and sets every range's width and layout; each range is then parsed
    by a worker into packed buffers, and the first fault in file order is raised. A fault of
    the whole dataset, which ``Dataset`` or ``annotate`` finds, names ``path``."""
    with open(path, "rb") as fh:
        head = 0
        for line in fh:
            head += len(line)
            if line.strip():
                break
        first = _RowSchema()
        header, _ = _parse_range(path, 0, head, first)
        _raise_first_fault(path, [header])
        if first.width is None:
            raise InvalidInputError(f"dataset file {path} is empty")
        if require_truth and not first.annotated:
            raise InvalidInputError(
                f"{path} is not a harness-private file: clean_label/corrupted missing"
            )
        ranges = _ranges(fh, head)
    tasks = [
        partial(_parse_range, path, start, stop, _RowSchema(first.width, first.annotated))
        for start, stop in ranges
    ]
    if len(tasks) == 1:
        header, buffers = tasks[0]()
        _raise_first_fault(path, [header])
        ids, corrupted, features = map(np.frombuffer, buffers, _BUFFER_TYPES)
    else:
        with map_forked(tasks) as results:
            _raise_first_fault(path, [header for header, _ in results])
            ids, corrupted, features = _receive(results, first.width)
    rows = corrupted.size
    # read-only, so the records built on their views keep the views, not copies
    block = ids.reshape(rows, 4).T.copy()
    block.flags.writeable = features.flags.writeable = False
    example_ids, clip_ids, labels, clean = block
    num_classes = max(int(labels.max()), int(clean.max()), 1) + 1
    features = features.reshape(rows, first.width)
    try:
        data = Dataset(example_ids, clip_ids, features, labels, num_classes)
        return annotate(data, clean, corrupted)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc
