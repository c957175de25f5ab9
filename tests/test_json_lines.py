"""Tests for the artifact codecs of ``labelnoise.records``: the record writer, the
field-type rule of dataset rows, the metrics and prune-report files, the
one-document reader and writer behind the model and summary files, the list and
array rules by which their dataclasses type them, a round trip of every record
file, and atomic artifact writes."""

import dataclasses
import json
import math
import os
import struct
import sys
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from labelnoise import (
    Architecture,
    EpochRecord,
    InvalidInputError,
    PruneRecord,
    RngStream,
    RunSummary,
    init_params,
    load_model,
    mean_ci,
    read_metrics,
    read_prune_report,
    read_summary,
    save_model,
    write_metrics,
    write_prune_report,
    write_summary,
)
from labelnoise import errors, records
from labelnoise.errors import check_fields
from labelnoise.records import read_json, row_fields, write_records

INT64 = st.integers(-(2**63), 2**63 - 1)
TINY = 5e-324  # the smallest subnormal double
HUGE = sys.float_info.max  # 1.7976931348623157e308


def floats(*extremes, **bounds):
    """Finite floats within ``bounds``, with each of ``extremes`` drawn often."""
    return st.sampled_from(extremes) | st.floats(allow_nan=False, allow_infinity=False, **bounds)


FINITE = floats(-0.0, TINY, -TINY, HUGE, -HUGE)
EPOCH_RECORDS = st.builds(
    EpochRecord,
    epoch=st.integers(0, 2**63 - 1),
    train_loss=floats(0.0, TINY, HUGE, min_value=0.0),
    val_accuracy=floats(0.0, TINY, 1.0, min_value=0.0, max_value=1.0),
    lr=floats(TINY, HUGE, min_value=0.0, exclude_min=True),
    kept_fraction=floats(TINY, 1.0, min_value=0.0, max_value=1.0, exclude_min=True),
)


@st.composite
def histories(draw, max_size):
    """Metrics histories as ``train`` writes them: epochs 0, 1, 2, ..., the first line's ``lr``
    drawn and each later one the previous line's or exactly half of it, while that half is
    above 0."""
    history = []
    for epoch, row in enumerate(draw(st.lists(EPOCH_RECORDS, max_size=max_size))):
        lr = row.lr
        if history:
            lr = history[-1].lr
            if lr / 2.0 > 0.0 and draw(st.booleans()):
                lr /= 2.0
        history.append(dataclasses.replace(row, epoch=epoch, lr=lr))
    return history


LOSSES = floats(0.0, TINY, HUGE, min_value=0.0)


@st.composite
def prune_reports(draw, max_size):
    """Reports as ``train`` writes them: a round ranks each of its clips 1, 2, 3, ... by
    falling loss, then falling clip id, each loss finite and non-negative, and flags its first
    ``prune_count`` removed, a count drawn per round that leaves it a clip; the first round
    scores drawn clips, and each later round exactly the clips that the round before kept,
    while the report stays within ``max_size`` rows. The drawn losses often tie, at 0, the
    smallest subnormal or the largest double."""
    clips = draw(st.lists(INT64, max_size=max_size, unique=True))
    report = []
    while clips and len(report) + len(clips) <= max_size:
        losses = draw(st.lists(LOSSES, min_size=len(clips), max_size=len(clips)))
        ranked = sorted(zip(losses, clips), reverse=True)
        prune_count = draw(st.integers(0, len(clips) - 1))
        for rank, (loss, clip) in enumerate(ranked, 1):
            report.append(PruneRecord(clip, loss, rank, rank <= prune_count))
        clips = [clip for _, clip in ranked[prune_count:]]
        if not draw(st.booleans()):
            break
    return report


PERCENT = floats(-0.0, TINY, 100.0, min_value=0.0, max_value=100.0)


@st.composite
def summaries(draw):
    """Summaries as ``run_experiment`` writes them: at least one run, the mean that
    ``mean_ci`` takes of their accuracies, and one dataset fingerprint per run."""
    accuracies = draw(st.lists(PERCENT, min_size=1, max_size=4))
    return RunSummary(
        per_run_accuracy=tuple(accuracies),
        mean=mean_ci(accuracies)[0],
        ci_half_width=draw(floats(-0.0, TINY, HUGE, min_value=0.0)),
        config_fingerprint=draw(st.text()),
        dataset_fingerprints=tuple(draw(st.text()) for _ in accuracies),
    )


@st.composite
def models(draw, architecture):
    # feature_dim, num_classes and hidden_units, each at its lower bound or above
    sizes = [draw(st.integers(low, 4)) for low in (1, 2, 1)]
    layout = init_params(architecture, *sizes, RngStream(0).generator())
    weights = [draw(arrays(np.float64, w.shape, elements=FINITE)) for w in layout.weights]
    return dataclasses.replace(layout, weights=weights)


def bits(value):
    """``value`` with each float as its IEEE bytes and each type kept, so that two values
    compare equal only when every float has the same bits (``-0.0`` is not ``0.0``)."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return type(value), [bits(item) for item in value]
    return type(value), value


def reference_metrics_text(history):
    """The metrics file as each line was built before the shared writer."""
    return "".join(
        json.dumps(
            {
                "epoch": record.epoch,
                "train_loss": record.train_loss,
                "val_accuracy": record.val_accuracy,
                "lr": record.lr,
                "kept_fraction": record.kept_fraction,
            },
            sort_keys=True,
        )
        + "\n"
        for record in history
    )


def reference_report_text(rows):
    """The prune report as each line was built before the shared writer."""
    return "".join(
        json.dumps(
            {
                "clip_id": row.clip_id,
                "clip_loss": row.clip_loss,
                "rank": row.rank,
                "removed": row.removed,
            },
            sort_keys=True,
        )
        + "\n"
        for row in rows
    )


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(history=histories(max_size=6))
    def test_metrics_survive_write_then_read(self, tmp_path_factory, history):
        path = tmp_path_factory.mktemp("metrics") / "metrics.jsonl"
        write_metrics(path, history)
        assert path.read_text(encoding="utf-8") == reference_metrics_text(history)
        assert read_metrics(path) == history

    @settings(max_examples=100, deadline=None)
    @given(rows=prune_reports(max_size=6))
    def test_prune_report_survives_write_then_read(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("report") / "prune_report.jsonl"
        write_prune_report(path, rows)
        assert path.read_text(encoding="utf-8") == reference_report_text(rows)
        assert read_prune_report(path) == rows

    @pytest.mark.parametrize("architecture", list(Architecture))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_every_record_file_reads_back_bit_for_bit(self, tmp_path_factory, architecture, data):
        history = data.draw(histories(max_size=4), "history")
        report = data.draw(prune_reports(max_size=4), "report")
        summary = data.draw(summaries(), "summary")
        model = data.draw(models(architecture), "model")
        directory = tmp_path_factory.mktemp("records")
        files = [
            (write_metrics, read_metrics, "metrics.jsonl", history),
            (write_prune_report, read_prune_report, "prune_report.jsonl", report),
            (write_summary, read_summary, "summary.json", summary),
            (save_model, load_model, "model.json", model),
        ]
        for write, read, name, written in files:
            write(directory / name, written)
            assert bits(read(directory / name)) == bits(written), name

    def test_each_record_schema_is_built_once(self, tmp_path, monkeypatch):
        files = [
            (write_metrics, read_metrics, "metrics.jsonl", [EpochRecord(0, 1.0, 0.5, 0.01, 1.0)]),
            (write_prune_report, read_prune_report, "prune.jsonl", [PruneRecord(0, 1.0, 1, False)]),
            (write_summary, read_summary, "summary.json", SUMMARY),
            (save_model, load_model, "model.json", MODEL),
        ]
        built = []

        def counted(cls, **options):
            built.append(cls.__name__)
            return get_type_hints(cls, **options)

        records._parser.cache_clear()
        errors.field_rules.cache_clear()
        monkeypatch.setattr(errors, "get_type_hints", counted)
        for write, read, name, written in files:
            write(tmp_path / name, written)
            for _ in range(3):
                read(tmp_path / name)
        assert built == ["EpochRecord", "PruneRecord", "RunSummary", "ModelParams"]

    def test_read_values_have_the_field_types(self, tmp_path):
        path = tmp_path / "prune_report.jsonl"
        path.write_text('{"clip_id": 3, "clip_loss": 2, "rank": 1, "removed": false}\n')
        (row,) = read_prune_report(path)
        assert type(row.clip_id) is int and type(row.rank) is int
        assert type(row.clip_loss) is float and row.clip_loss == 2.0
        assert row.removed is False


class TestRowFields:
    @pytest.mark.parametrize(
        "value, kind, expected",
        [
            (0, int, 0),
            (-(2**63), int, -(2**63)),
            (2**63 - 1, int, 2**63 - 1),
            (True, bool, True),
            (False, bool, False),
        ],
        ids=["zero", "int64_min", "int64_max", "true", "false"],
    )
    def test_accepts(self, value, kind, expected):
        (got,) = row_fields({"x": value}, [("x", kind)])
        assert got == expected
        assert type(got) is kind

    # a record file's field: any JSON value as parsed, which its dataclass then types
    @pytest.mark.parametrize(
        "value", [2**63 - 1, -(2**63), 2.5, True, "1", None, [1, "a"], {"a": [2**63]}], ids=repr
    )
    def test_object_kind_gives_the_value_as_parsed(self, value):
        (got,) = row_fields({"x": value}, [("x", object)])
        assert got is value

    @pytest.mark.parametrize(
        "record, kind, error, message",
        [
            ({"x": True}, int, TypeError, "x must be an integer, got true"),
            ({"x": 1.7}, int, TypeError, "x must be an integer, got 1.7"),
            ({"x": "1"}, int, TypeError, 'x must be an integer, got "1"'),
            ({"x": 1}, bool, TypeError, "x must be true or false, got 1"),
            ({"x": "no"}, bool, TypeError, 'x must be true or false, got "no"'),
            ({"x": 2**63}, int, ValueError, f"x {2**63} is outside the int64 range"),
            ({"x": -(2**63) - 1}, int, ValueError, "outside the int64 range"),
            ({"x": [1]}, int, TypeError, "x must be an integer, got [1]"),
            ({"x": 2**63}, object, ValueError, f"x {2**63} is outside the int64 range"),
            ({"x": -(2**63) - 1}, object, ValueError, "outside the int64 range"),
            # the value is cut to 40 characters, as every rejected value is
            ({"x": 10**400}, object, ValueError, f"x {'1' + '0' * 39} is outside the int64 range"),
            ({"y": 1}, int, KeyError, "'x'"),
            ([1], int, TypeError, "a row must be a JSON object, got [1]"),
            ("x", int, TypeError, 'a row must be a JSON object, got "x"'),
            (None, int, TypeError, "a row must be a JSON object, got null"),
        ],
        ids=[
            "true_not_int", "float_not_int", "string_not_int", "int_not_bool", "string_not_bool",
            "past_int64_max", "past_int64_min", "list_not_int", "object_past_int64_max",
            "object_past_int64_min", "object_past_float_range", "missing_key", "list_row",
            "string_row", "null_row",
        ],
    )
    def test_rejects(self, record, kind, error, message):
        with pytest.raises(error) as excinfo:
            row_fields(record, [("x", kind)])
        assert message in str(excinfo.value)

    def test_values_come_back_in_field_order(self):
        record = {"b": 2.5, "a": 1, "c": True, "unused": "ignored"}
        assert row_fields(record, [("c", bool), ("a", int), ("b", object)]) == (True, 1, 2.5)


SUMMARY = RunSummary((50.0, 62.5), 56.25, 79.4, "0" * 16, ("1" * 16, "2" * 16))
MODEL = init_params(Architecture.ONE_HIDDEN, 3, 2, 4, RngStream(0).generator())


class TestJsonDocuments:
    def test_read_json_returns_the_parsed_value(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, 2.5]}\n', encoding="utf-8")
        assert read_json(path, lambda record: record["a"]) == [1, 2.5]

    @pytest.mark.parametrize(
        "text, parse, message",
        [
            ('{\n  "a": 1,\n}\n', dict, "not valid JSON (Expecting property name"
             " enclosed in double quotes at line 3, column 1)"),
            ("", dict, "not valid JSON"),
            ('{"a": 1}', lambda record: record["b"], "missing field 'b'"),
            ("[1, 2]", lambda record: record["b"], "list indices must be"),
            ('{"a": "x"}', lambda record: float(record["a"]), "could not convert"),
            # a number past the float range is refused by its field rule, naming the value
            (str(10**400), lambda record: errors.field_rule(float)("x", record),
             "x must be a finite number, got 1000"),
            (b"\xff\xfe\x00", dict, "codec can't decode"),
            # two of json's messages end in "at"; the position follows them once
            ('{"a": "abc', dict,
             "not valid JSON (Unterminated string starting at line 1, column 7)"),
            ('{"a": "a\tb"}', dict,
             "not valid JSON (Invalid control character at line 1, column 9)"),
        ],
    )
    def test_read_json_names_the_file_and_the_fault(self, tmp_path, text, parse, message):
        path = tmp_path / "doc.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInputError) as excinfo:
            read_json(path, parse)
        assert str(excinfo.value).startswith(f"{path}: ")
        assert message in str(excinfo.value)

    def test_summary_bytes_and_round_trip(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary(path, SUMMARY)
        # the summary file as it was built before the shared writer
        record = {
            "config_fingerprint": SUMMARY.config_fingerprint,
            "per_run_accuracy": list(SUMMARY.per_run_accuracy),
            "mean": SUMMARY.mean,
            "ci_half_width": SUMMARY.ci_half_width,
            "dataset_fingerprints": list(SUMMARY.dataset_fingerprints),
        }
        expected = json.dumps(record, sort_keys=True, indent=2) + "\n"
        assert path.read_text(encoding="utf-8") == expected
        assert read_summary(path) == SUMMARY

    def test_model_bytes_and_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, MODEL)
        record = {
            "architecture": "one_hidden",
            "feature_dim": 3,
            "num_classes": 2,
            "hidden_units": 4,
            "weights": [w.tolist() for w in MODEL.weights],
        }
        assert path.read_text(encoding="utf-8") == json.dumps(record, sort_keys=True) + "\n"
        loaded = load_model(path)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(loaded.weights, MODEL.weights))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda record: record.pop("hidden_units"), "missing field 'hidden_units'"),
            (
                lambda record: record.update(architecture="deep"),
                'architecture must be one of "linear", "one_hidden", got "deep"',
            ),
            (
                lambda record: record.update(feature_dim=None),
                "feature_dim must be an integer, got null",
            ),
            (lambda record: record.update(feature_dim=4), "do not match architecture"),
            # a model of no features or of fewer than 2 classes is refused as read, not used
            (
                lambda record: record.update(feature_dim=0),
                "feature_dim must lie in [1, inf), got 0",
            ),
            (
                lambda record: record.update(num_classes=1),
                "num_classes must lie in [2, inf), got 1",
            ),
            (
                lambda record: record.update(num_classes=0),
                "num_classes must lie in [2, inf), got 0",
            ),
            (lambda record: record["weights"][0].append([1.0]), "inhomogeneous"),
            (lambda record: record.update(weights=7), "weights must be a list, got 7"),
        ],
    )
    def test_malformed_model_file(self, tmp_path, edit, message):
        path = tmp_path / "model.json"
        save_model(path, MODEL)
        record = json.loads(path.read_text(encoding="utf-8"))
        edit(record)
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(InvalidInputError) as excinfo:
            load_model(path)
        assert str(excinfo.value).startswith(f"{path}: ")
        assert message in str(excinfo.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda record: record.pop("mean"), "missing field 'mean'"),
            (lambda record: record.update(mean="high"), 'mean must be a number, got "high"'),
            (
                lambda record: record.update(per_run_accuracy=50.0),
                "per_run_accuracy must be a list, got 50.0",
            ),
            (lambda record: record.update(mean=math.nan), "mean must be a finite number, got NaN"),
            (
                lambda record: record.update(per_run_accuracy=[50.0, 100.5]),
                "per_run_accuracy[1] must lie in [0, 100], got 100.5",
            ),
            (
                lambda record: record.update(ci_half_width=math.inf),
                "ci_half_width must be a finite number, got Infinity",
            ),
            (
                lambda record: record.update(ci_half_width=-0.5),
                "ci_half_width must lie in [0, inf), got -0.5",
            ),
            (
                lambda record: record.update(per_run_accuracy=[], dataset_fingerprints=[]),
                "per_run_accuracy must list at least one run",
            ),
            (
                lambda record: record.update(dataset_fingerprints=["1" * 16]),
                "1 dataset fingerprint(s) for 2 run(s); each run has one",
            ),
            (
                lambda record: record.update(mean=12.0),
                "mean 12.0 is not the mean of per_run_accuracy, 56.25",
            ),
        ],
    )
    def test_malformed_summary_file(self, tmp_path, edit, message):
        path = tmp_path / "summary.json"
        write_summary(path, SUMMARY)
        record = json.loads(path.read_text(encoding="utf-8"))
        edit(record)
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(InvalidInputError) as excinfo:
            read_summary(path)
        assert str(excinfo.value).startswith(f"{path}: ")
        assert message in str(excinfo.value)

    # One mistyped value per field, each of which used to be coerced; MODEL is 3 -> 4 -> 2.
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("architecture", 1, 'architecture must be one of "linear", "one_hidden", got 1'),
            ("feature_dim", 3.9, "feature_dim must be an integer, got 3.9"),
            ("num_classes", "2", 'num_classes must be an integer, got "2"'),
            ("hidden_units", True, "hidden_units must be an integer, got true"),
            ("weights", [0.0], "weights[0] must be a list, got 0.0"),
        ],
    )
    def test_model_field_of_the_wrong_type(self, tmp_path, field, value, message):
        path = tmp_path / "model.json"
        save_model(path, MODEL)
        record = json.loads(path.read_text(encoding="utf-8"))
        record[field] = value
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(InvalidInputError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "index, value, message",
        [
            (3, ["0", "0"], 'weights[3][0] must be a number, got "0"'),
            (1, [0.0, 0.0, True, 0.0], "weights[1][2] must be a number, got true"),
            (2, [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, "1"]],
             'weights[2][3][1] must be a number, got "1"'),
            (0, [[0.0] * 4, 0.0, [0.0] * 4], "weights[0][1] must be a list, got 0.0"),
        ],
        ids=["bias_strings", "bias_bool", "matrix_string", "matrix_ragged_depth"],
    )
    def test_weights_must_be_numbers(self, tmp_path, index, value, message):
        path = tmp_path / "model.json"
        save_model(path, MODEL)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["weights"][index] = value
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(InvalidInputError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_integer_weights_read_as_floats(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, MODEL)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["weights"][3] = [1, -2]
        path.write_text(json.dumps(record), encoding="utf-8")
        bias = load_model(path).weights[3]
        assert bias.dtype == np.float64 and bias.tolist() == [1.0, -2.0]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("per_run_accuracy", ["80", True], 'per_run_accuracy[0] must be a number, got "80"'),
            ("mean", "85.5", 'mean must be a number, got "85.5"'),
            ("ci_half_width", None, "ci_half_width must be a number, got null"),
            ("config_fingerprint", 12, "config_fingerprint must be a string, got 12"),
            ("dataset_fingerprints", [1, 2], "dataset_fingerprints[0] must be a string, got 1"),
        ],
    )
    def test_summary_field_of_the_wrong_type(self, tmp_path, field, value, message):
        path = tmp_path / "summary.json"
        write_summary(path, SUMMARY)
        record = json.loads(path.read_text(encoding="utf-8"))
        record[field] = value
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(InvalidInputError) as excinfo:
            read_summary(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_summary_syntax_error_names_line_and_column(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary(path, SUMMARY)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[-2:] == ["  ]", "}"]  # the end of the last field, per_run_accuracy
        lines[-2] += ","
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(InvalidInputError) as excinfo:
            read_summary(path)
        # the parser stops at the closing brace, where it expected another field name
        assert str(excinfo.value) == (
            f"{path}: not valid JSON (Expecting property name enclosed in double quotes"
            f" at line {len(lines)}, column 1)"
        )

    @pytest.mark.parametrize("reader", [load_model, read_summary])
    def test_truncated_file(self, tmp_path, reader):
        path = tmp_path / "doc.json"
        path.write_text('{"mean": 5', encoding="utf-8")
        with pytest.raises(InvalidInputError, match="not valid JSON"):
            reader(path)

    @pytest.mark.parametrize("reader", [load_model, read_summary])
    def test_document_that_is_no_object(self, tmp_path, reader):
        path = tmp_path / "doc.json"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(InvalidInputError) as excinfo:
            reader(path)
        assert str(excinfo.value) == f"{path}: the file must hold one JSON object, got [1, 2]"


# Each record file, a record or two to write to it, and an integer field of it.
RECORD_FILES = {
    "metrics.jsonl": (
        write_metrics, read_metrics,
        [EpochRecord(0, 1.0, 0.5, 0.01, 1.0), EpochRecord(1, 0.5, 0.75, 0.01, 1.0)], "epoch",
    ),
    "prune_report.jsonl": (
        write_prune_report, read_prune_report,
        [PruneRecord(0, 2.0, 1, True), PruneRecord(1, 1.0, 2, False)], "rank",
    ),
    "model.json": (save_model, load_model, MODEL, "feature_dim"),
}


class TestRecordFileJsonRules:
    """What a record file's reader checks before the record's dataclass types its fields:
    the line is a JSON object, every field is present, and each integer lies in the int64
    range. Each fault names the file, and the line of a JSON-lines file."""

    def read_broken(self, tmp_path, name, edit) -> tuple:
        """The error of reading ``name`` with its last line edited, and where it names."""
        write, read, written, _ = RECORD_FILES[name]
        path = tmp_path / name
        write(path, written)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[-1] = json.dumps(edit(json.loads(lines[-1])))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(InvalidInputError) as excinfo:
            read(path)
        where = f"{path}, line {len(lines)}" if name.endswith(".jsonl") else str(path)
        return str(excinfo.value), where

    @pytest.mark.parametrize("name", sorted(RECORD_FILES))
    def test_integer_past_int64_refused(self, tmp_path, name):
        key = RECORD_FILES[name][3]
        error, where = self.read_broken(tmp_path, name, lambda record: {**record, key: 2**63})
        assert error == f"{where}: {key} 9223372036854775808 is outside the int64 range"

    @pytest.mark.parametrize("name", sorted(RECORD_FILES))
    def test_missing_field_refused(self, tmp_path, name):
        key = RECORD_FILES[name][3]
        error, where = self.read_broken(
            tmp_path, name, lambda record: {k: v for k, v in record.items() if k != key}
        )
        assert error == f"{where}: missing field '{key}'"

    @pytest.mark.parametrize("name", sorted(RECORD_FILES))
    def test_line_that_is_no_object_refused(self, tmp_path, name):
        error, where = self.read_broken(tmp_path, name, lambda record: list(record))
        # a JSON-lines file holds rows; a one-document file holds one object
        held = "a row must be a JSON object" if name.endswith(".jsonl") else (
            "the file must hold one JSON object"
        )
        assert error.startswith(f'{where}: {held}, got ["')


class TestLineEndings:
    """A JSON-lines line is parsed without its line ending, LF or CRLF: a record file reads the
    same values under both, and a line cut short is faulted at the same line and column."""

    @pytest.mark.parametrize("name", ["metrics.jsonl", "prune_report.jsonl"])
    def test_crlf_file_reads_as_the_lf_file(self, tmp_path, name):
        write, read, written, _ = RECORD_FILES[name]
        path = tmp_path / name
        write(path, written)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert read(path) == written

    @pytest.mark.parametrize(
        "name, fault",
        [
            # the line stops after '"val_accuracy": ', and its last value is missing
            ("metrics.jsonl", "Expecting value at column 83"),
            # the line stops at the "f" of false
            ("prune_report.jsonl", "Expecting value at column 56"),
        ],
    )
    def test_cut_line_faulted_at_the_same_place_under_both_endings(self, tmp_path, name, fault):
        write, read, written, _ = RECORD_FILES[name]
        path = tmp_path / name
        write(path, written)
        lines = path.read_bytes().splitlines()
        lines[-1] = lines[-1][:-5]
        for ending in (b"\n", b"\r\n"):
            path.write_bytes(ending.join(lines) + ending)
            with pytest.raises(InvalidInputError) as excinfo:
                read(path)
            assert str(excinfo.value) == f"{path}, line 2: not valid JSON ({fault})"


@dataclasses.dataclass
class Lists:
    """The list kinds of the record files' fields, typed by ``check_fields``: RunSummary's
    ``tuple[X, ...]`` fields and ModelParams.weights."""

    numbers: tuple[float, ...] = ()
    strings: tuple[str, ...] = ()
    weights: list[np.ndarray] = dataclasses.field(default_factory=list)

    def __post_init__(self):
        check_fields(self)


class TestListAndArrayRules:
    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("numbers", [], ()),
            ("numbers", [1, 2.5], (1.0, 2.5)),
            ("strings", ["a", "b"], ("a", "b")),
        ],
        ids=["empty", "numbers", "strings"],
    )
    def test_tuple_field_gives_a_tuple_of_checked_items(self, field, value, expected):
        got = getattr(Lists(**{field: value}), field)
        assert bits(got) == bits(expected)

    def test_weights_give_a_list_of_float64_arrays(self):
        got = Lists(weights=([], [1, 2.5], [[1], [-0.0]])).weights
        expected = [np.empty(0), np.array([1.0, 2.5]), np.array([[1.0], [-0.0]])]
        assert bits(got) == bits(expected)

    def test_weight_array_kept_as_it_is(self):
        array = np.zeros(2, dtype=np.float32)
        got = Lists(weights=[array]).weights
        assert type(got) is list and got[0] is array

    @pytest.mark.parametrize(
        "field, value, error, message",
        [
            ("numbers", "ab", TypeError, 'numbers must be a list, got "ab"'),
            ("numbers", [1.0, "2"], TypeError, 'numbers[1] must be a number, got "2"'),
            ("numbers", [True], TypeError, "numbers[0] must be a number, got true"),
            ("strings", ["a", 1], TypeError, "strings[1] must be a string, got 1"),
            ("weights", 7, TypeError, "weights must be a list, got 7"),
            ("weights", [1.0], TypeError, "weights[0] must be a list, got 1.0"),
            ("weights", [[1.0], 2], TypeError, "weights[1] must be a list, got 2"),
            ("weights", [[1.0, [2.0]]], TypeError, "weights[0][1] must be a number, got [2.0]"),
            ("weights", [[[1.0], 2.0]], TypeError, "weights[0][1] must be a list, got 2.0"),
            (
                "weights", [[[1.0], [True]]], TypeError,
                "weights[0][1][0] must be a number, got true",
            ),
            (
                "weights", [[10**400]], InvalidInputError,
                f"weights[0][0] must be a finite number, got {str(10**400)[:40]}",
            ),
            ("weights", [[[1.0], [2.0, 3.0]]], ValueError, "inhomogeneous"),
        ],
        ids=[
            "string_not_list", "string_item", "bool_item", "int_item", "weights_number",
            "number_not_array", "second_array_number", "array_row_after_number",
            "array_number_after_row", "array_bool_in_row", "array_past_float_range",
            "array_ragged",
        ],
    )
    def test_rejects(self, field, value, error, message):
        with pytest.raises(error) as excinfo:
            Lists(**{field: value})
        assert message in str(excinfo.value)


# The artifact writers that go through records.atomic_write, each given a small artifact.
ARTIFACT_WRITERS = {
    "write_records": lambda path: write_records(path, [PruneRecord(1, 0.5, 1, False)]),
    "save_model": lambda path: save_model(
        path, init_params(Architecture.LINEAR, 3, 2, 1, RngStream(0).generator())
    ),
    "write_summary": lambda path: write_summary(
        path, RunSummary((50.0,), 50.0, 0.0, "0" * 16, ("1" * 16,))
    ),
}


class TestAtomicWrite:
    def test_rows_failing_partway_leave_the_target_unchanged(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_records(path, [PruneRecord(-1, 0.5, 1, False)])
        before = path.read_bytes()

        def rows():
            # enough rows to pass the text buffer, so the temporary file has content
            for index in range(5000):
                yield PruneRecord(index, 0.5, index + 1, False)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            write_records(path, rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]

    def test_rows_failing_on_a_new_target_leave_no_file(self, tmp_path):
        def rows():
            yield PruneRecord(0, 0.5, 1, False)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            write_records(tmp_path / "rows.jsonl", rows())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(ARTIFACT_WRITERS))
    def test_every_artifact_writer_replaces_its_target_atomically(
        self, tmp_path, monkeypatch, name
    ):
        path = tmp_path / "artifact"
        ARTIFACT_WRITERS[name](path)
        written = path.read_bytes()
        assert written and [p.name for p in tmp_path.iterdir()] == ["artifact"]

        def refuse(source, target):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        path.write_bytes(b"earlier artifact\n")
        with pytest.raises(OSError, match="rename refused"):
            ARTIFACT_WRITERS[name](path)
        assert path.read_bytes() == b"earlier artifact\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
