"""Tests for blob generation, noise injection, and the experiment harness."""

import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelnoise import (
    OOV_CLEAN_LABEL,
    AnnotatedDataset,
    ConfigurationError,
    Dataset,
    DatasetParams,
    ExperimentConfig,
    ExperimentError,
    InvalidInputError,
    LossKind,
    LossSpec,
    NoiseGroup,
    NoiseKind,
    NoiseSpec,
    PruneRecord,
    SmoothingPolicy,
    StagePlan,
    Strategy,
    TrainConfig,
    dataset_fingerprint,
    derive_seed,
    generate_blobs,
    inject_oov_noise,
    inject_symmetric_noise,
    noise_group_map,
    per_class_corruption_rates,
    prune_precision,
    read_annotated,
    read_as_annotated,
    read_dataset,
    read_summary,
    run_experiment,
    train,
    write_annotated,
    write_dataset,
    write_summary,
)
from labelnoise import harness, records


def blobs(**overrides):
    kwargs = dict(
        num_classes=4,
        clips_per_class=50,
        patches_per_clip=3,
        feature_dim=8,
        cluster_spread=0.25,
        seed=0,
    )
    kwargs.update(overrides)
    return generate_blobs(**kwargs)


class TestGenerateBlobs:
    def test_shapes_and_balance(self):
        annotated = blobs()
        data = annotated.data
        assert data.n_examples == 600
        assert np.unique(data.clip_ids).size == 200
        assert data.feature_dim == 8
        for cls in range(4):
            assert (data.labels == cls).sum() == 150
        assert not annotated.corrupted.any()
        np.testing.assert_array_equal(annotated.clean_labels, data.labels)

    def test_clip_structure(self):
        data = blobs(patches_per_clip=5, clips_per_class=3).data
        _, counts = np.unique(data.clip_ids, return_counts=True)
        assert np.all(counts == 5)

    def test_deterministic_per_seed(self):
        a = blobs(seed=7)
        b = blobs(seed=7)
        np.testing.assert_array_equal(a.data.features, b.data.features)
        assert not np.array_equal(a.data.features, blobs(seed=8).data.features)

    def test_partitions_share_centers(self):
        # with zero spread every feature equals its class center, so the
        # train and test partitions produce identical per-class rows
        train_part = blobs(cluster_spread=0.0, clips_per_class=2).data
        test_part = blobs(cluster_spread=0.0, clips_per_class=2, partition="test").data
        np.testing.assert_array_equal(train_part.features, test_part.features)

    def test_partitions_differ_when_spread_is_positive(self):
        train_part = blobs(seed=3).data
        test_part = blobs(seed=3, partition="test").data
        assert not np.array_equal(train_part.features, test_part.features)

    def test_spread_zero_collapses_classes_to_points(self):
        data = blobs(cluster_spread=0.0).data
        for cls in range(4):
            rows = data.features[data.labels == cls]
            assert np.all(rows == rows[0])
            assert np.linalg.norm(rows[0]) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            blobs(num_classes=1)
        with pytest.raises(InvalidInputError):
            blobs(clips_per_class=0)
        with pytest.raises(InvalidInputError):
            blobs(cluster_spread=-0.1)
        with pytest.raises(InvalidInputError):
            blobs(partition="dev")


class TestNoiseSpec:
    def test_rate_bounds(self):
        with pytest.raises(InvalidInputError):
            NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=-0.1)
        with pytest.raises(InvalidInputError):
            NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=1.5)
        with pytest.raises(InvalidInputError):
            NoiseSpec(NoiseKind.OOV_REPLACE, rate_by_class={0: 2.0})


def shuffled_rows(annotated, seed):
    perm = np.random.default_rng(seed).permutation(annotated.data.n_examples)
    return AnnotatedDataset(
        annotated.data.subset(perm), annotated.clean_labels[perm], annotated.corrupted[perm]
    )


def symmetric(annotated, **spec):
    return inject_symmetric_noise(annotated, NoiseSpec(NoiseKind.SYMMETRIC_IV, **spec))


def noise_case(name):
    """The noisy dataset behind one entry of ``NOISE_FINGERPRINTS``."""
    if name == "uniform_0.2_seed1":
        return symmetric(blobs(seed=1), rate=0.2, seed=1)
    if name == "uniform_0.4_seed7":
        return symmetric(blobs(seed=7), rate=0.4, seed=7)
    if name == "uniform_1.0_seed3_five_classes":
        return symmetric(blobs(seed=3, num_classes=5, clips_per_class=9), rate=1.0, seed=3)
    if name == "per_class_seed4":
        return symmetric(
            blobs(seed=4, clips_per_class=10),
            seed=4,
            rate_by_class={0: 0.2, 1: 0.2, 2: 0.5, 3: 0.5},
        )
    if name == "per_class_seed11_two_patches":
        return symmetric(
            blobs(seed=11, patches_per_clip=2),
            seed=11,
            rate_by_class={0: 0.0, 1: 0.7, 2: 0.3, 3: 1.0},
        )
    # rows out of clip order, then noise applied on top of earlier noise
    once = symmetric(shuffled_rows(blobs(seed=5, clips_per_class=12), 5), rate=0.5, seed=5)
    if name == "shuffled_rows_seed5":
        return once
    assert name == "noise_on_noise_seed6"
    return symmetric(once, rate=0.5, seed=6)


# dataset_fingerprint of each noise_case, recorded before symmetric noise was
# vectorized: same draws, same clips, same labels. In noise_on_noise_seed6 the
# second flip restores the clean label of 5 clips, which are not flagged.
NOISE_FINGERPRINTS = {
    "uniform_0.2_seed1": "2b1e8c47a4faaf48",
    "uniform_0.4_seed7": "d929ecc88a98af00",
    "uniform_1.0_seed3_five_classes": "e409bfe16a6b3980",
    "per_class_seed4": "2b7acd7a015e1994",
    "per_class_seed11_two_patches": "5215a408b6438c97",
    "shuffled_rows_seed5": "85e8ffc20584dca3",
    "noise_on_noise_seed6": "4b26f91ae3d68be5",
}


class TestSymmetricNoise:
    def test_corrupts_the_exact_clip_count(self):
        annotated = blobs()
        noisy = inject_symmetric_noise(
            annotated, NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.4, seed=1)
        )
        clips_flagged = np.unique(noisy.data.clip_ids[noisy.corrupted])
        assert clips_flagged.size == 80  # 0.4 * 200

    def test_rounds_half_up(self):
        annotated = blobs(clips_per_class=1, num_classes=3)  # 3 clips total
        noisy = inject_symmetric_noise(
            annotated, NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.5, seed=0)
        )
        assert np.unique(noisy.data.clip_ids[noisy.corrupted]).size == 2

    def test_rate_zero_is_identity(self):
        annotated = blobs()
        noisy = inject_symmetric_noise(
            annotated, NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.0, seed=5)
        )
        assert noisy is annotated

    def test_rate_one_flips_everything(self):
        annotated = blobs(clips_per_class=5)
        noisy = inject_symmetric_noise(
            annotated, NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=1.0, seed=5)
        )
        assert noisy.corrupted.all()
        assert np.all(noisy.data.labels != noisy.clean_labels)

    def test_flipped_label_differs_and_stays_in_vocabulary(self):
        annotated = blobs()
        noisy = inject_symmetric_noise(
            annotated, NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.6, seed=2)
        )
        flipped = noisy.corrupted
        assert np.all(noisy.data.labels[flipped] != noisy.clean_labels[flipped])
        assert noisy.data.labels.min() >= 0
        assert noisy.data.labels.max() < 4
        # untouched rows keep their labels
        np.testing.assert_array_equal(
            noisy.data.labels[~flipped], annotated.data.labels[~flipped]
        )

    def test_patches_of_a_clip_flip_together(self):
        noisy = inject_symmetric_noise(
            blobs(), NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.4, seed=3)
        )
        for clip in np.unique(noisy.data.clip_ids):
            rows = noisy.data.clip_ids == clip
            assert np.unique(noisy.data.labels[rows]).size == 1
            assert np.unique(noisy.corrupted[rows]).size == 1

    def test_deterministic_per_seed(self):
        spec = NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.4, seed=9)
        a = inject_symmetric_noise(blobs(), spec)
        b = inject_symmetric_noise(blobs(), spec)
        np.testing.assert_array_equal(a.data.labels, b.data.labels)
        c = inject_symmetric_noise(
            blobs(), NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.4, seed=10)
        )
        assert not np.array_equal(a.data.labels, c.data.labels)

    def test_per_class_rates_exact(self):
        annotated = blobs(clips_per_class=10)
        spec = NoiseSpec(
            NoiseKind.SYMMETRIC_IV,
            seed=4,
            rate_by_class={0: 0.2, 1: 0.2, 2: 0.5, 3: 0.5},
        )
        noisy = inject_symmetric_noise(annotated, spec)
        rates = per_class_corruption_rates(noisy)
        np.testing.assert_allclose(rates, [0.2, 0.2, 0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("name", sorted(NOISE_FINGERPRINTS))
    def test_fingerprints_unchanged(self, name):
        assert dataset_fingerprint(noise_case(name)) == NOISE_FINGERPRINTS[name]

    def test_rate_by_class_must_cover_every_class(self):
        spec = NoiseSpec(NoiseKind.SYMMETRIC_IV, seed=0, rate_by_class={0: 0.2})
        with pytest.raises(ConfigurationError):
            inject_symmetric_noise(blobs(), spec)

    def test_rate_by_class_must_name_only_classes(self):
        rates = {0: 0.2, 1: 0.2, 2: 0.5, 3: 0.5, 7: 0.9}
        spec = NoiseSpec(NoiseKind.SYMMETRIC_IV, seed=0, rate_by_class=rates)
        with pytest.raises(ConfigurationError, match=r"unknown \[7\]"):
            inject_symmetric_noise(blobs(), spec)

    def test_wrong_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            inject_symmetric_noise(blobs(), NoiseSpec(NoiseKind.OOV_REPLACE, rate=0.2))


class TestOovNoise:
    def test_labels_kept_clean_label_sentinel(self):
        annotated = blobs()
        noisy = inject_oov_noise(annotated, NoiseSpec(NoiseKind.OOV_REPLACE, rate=0.3, seed=1))
        touched = noisy.corrupted
        assert touched.sum() == 180  # 60 clips * 3 patches
        np.testing.assert_array_equal(
            noisy.data.labels[touched], annotated.data.labels[touched]
        )
        assert np.all(noisy.clean_labels[touched] == OOV_CLEAN_LABEL)
        assert np.all(noisy.clean_labels[~touched] >= 0)

    def test_replaced_features_leave_the_clean_box(self):
        annotated = blobs(feature_dim=8)
        lo = annotated.data.features.min(axis=0)
        hi = annotated.data.features.max(axis=0)
        noisy = inject_oov_noise(annotated, NoiseSpec(NoiseKind.OOV_REPLACE, rate=0.5, seed=2))
        rows = noisy.data.features[noisy.corrupted]
        outside = np.any((rows < lo) | (rows > hi), axis=1)
        assert outside.mean() >= 0.9

    def test_replacement_box_bounds(self):
        annotated = blobs()
        lo = annotated.data.features.min(axis=0)
        hi = annotated.data.features.max(axis=0)
        center, width = (lo + hi) / 2.0, hi - lo
        noisy = inject_oov_noise(annotated, NoiseSpec(NoiseKind.OOV_REPLACE, rate=1.0, seed=3))
        assert np.all(noisy.data.features >= center - width)
        assert np.all(noisy.data.features <= center + width)

    def test_untouched_rows_keep_features(self):
        annotated = blobs()
        noisy = inject_oov_noise(annotated, NoiseSpec(NoiseKind.OOV_REPLACE, rate=0.3, seed=4))
        keep = ~noisy.corrupted
        np.testing.assert_array_equal(
            noisy.data.features[keep], annotated.data.features[keep]
        )

    def test_wrong_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            inject_oov_noise(blobs(), NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.2))


class TestNoiseGroupMap:
    def test_splits_at_the_median(self):
        annotated = blobs(clips_per_class=10)
        spec = NoiseSpec(
            NoiseKind.SYMMETRIC_IV,
            seed=0,
            rate_by_class={0: 0.1, 1: 0.2, 2: 0.5, 3: 0.6},
        )
        groups = noise_group_map(inject_symmetric_noise(annotated, spec))
        assert groups == {
            0: NoiseGroup.LOW_NOISE,
            1: NoiseGroup.LOW_NOISE,
            2: NoiseGroup.HIGH_NOISE,
            3: NoiseGroup.HIGH_NOISE,
        }

    def test_uniform_rates_put_everyone_high(self):
        annotated = blobs(clips_per_class=10)
        spec = NoiseSpec(NoiseKind.SYMMETRIC_IV, seed=0, rate_by_class={c: 0.3 for c in range(4)})
        groups = noise_group_map(inject_symmetric_noise(annotated, spec))
        assert all(g == NoiseGroup.HIGH_NOISE for g in groups.values())

    def test_clean_data_is_all_high(self):
        groups = noise_group_map(blobs())
        assert all(g == NoiseGroup.HIGH_NOISE for g in groups.values())


class TestPrunePrecision:
    def annotated_with_flags(self, flags_by_clip):
        n_clips = len(flags_by_clip)
        labels = np.zeros(2 * n_clips, dtype=int)
        labels[: n_clips] = 0
        data = Dataset(
            example_ids=np.arange(2 * n_clips),
            clip_ids=np.tile(np.arange(n_clips), 2),
            features=np.zeros((2 * n_clips, 2)),
            labels=np.zeros(2 * n_clips, dtype=int),
            num_classes=2,
        )
        flags = np.tile(np.asarray(flags_by_clip, dtype=bool), 2)
        clean = data.labels.copy()
        return AnnotatedDataset(data, clean, flags)

    def rows(self, removed_clips, n_clips):
        return [
            PruneRecord(clip, 1.0, rank + 1, clip in removed_clips)
            for rank, clip in enumerate(range(n_clips))
        ]

    def test_fraction_of_removed_that_were_corrupted(self):
        annotated = self.annotated_with_flags([True, True, False, False])
        report = self.rows({0, 2}, 4)
        assert prune_precision(report, annotated) == 0.5

    def test_none_when_nothing_removed(self):
        annotated = self.annotated_with_flags([True, False])
        assert prune_precision(self.rows(set(), 2), annotated) is None

    def test_unknown_clip_rejected(self):
        annotated = self.annotated_with_flags([True, False])
        report = [PruneRecord(99, 1.0, 1, True)]
        with pytest.raises(InvalidInputError):
            prune_precision(report, annotated)


def first_row_reference(annotated, report):
    """Corruption rates and prune precision read from each clip's first row."""
    clips, first = np.unique(annotated.data.clip_ids, return_index=True)
    clean = annotated.clean_labels[first]
    flags = annotated.corrupted[first]
    original = np.where(clean >= 0, clean, annotated.data.labels[first])
    rates = np.zeros(annotated.data.num_classes)
    for cls in range(annotated.data.num_classes):
        members = original == cls
        if members.any():
            rates[cls] = float(flags[members].mean())
    flag_of_clip = dict(zip(clips.tolist(), flags.tolist()))
    removed = sorted({row.clip_id for row in report if row.removed})
    precision = float(np.mean([flag_of_clip[c] for c in removed])) if removed else None
    return rates, precision


clip_view_cases = st.fixed_dictionaries(
    dict(
        num_classes=st.integers(2, 5),
        clips_per_class=st.integers(1, 6),
        patches_per_clip=st.integers(1, 3),
        feature_dim=st.just(2),
        seed=st.integers(0, 2**32 - 1),
    )
)


class TestClipView:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        case=clip_view_cases,
        kind=st.sampled_from(list(NoiseKind)),
        rate=st.floats(0.0, 1.0),
    )
    def test_rates_and_precision_equal_first_row_reference(self, data, case, kind, rate):
        inject = inject_symmetric_noise if kind == NoiseKind.SYMMETRIC_IV else inject_oov_noise
        noisy = shuffled_rows(inject(blobs(**case), NoiseSpec(kind, rate=rate, seed=3)), 1)
        # sparse clip ids, so a position in the clip table is not the id
        annotated = replace(noisy, data=replace(noisy.data, clip_ids=noisy.data.clip_ids * 7 + 2))
        clips = np.unique(annotated.data.clip_ids).tolist()
        removed = data.draw(st.sets(st.sampled_from(clips)))
        report = [PruneRecord(c, 1.0, rank, c in removed) for rank, c in enumerate(clips, 1)]
        rates, precision = first_row_reference(annotated, report)
        assert per_class_corruption_rates(annotated).tobytes() == rates.tobytes()
        assert prune_precision(report, annotated) == precision

    @pytest.mark.parametrize("absent", [-5, 3, 10**6])
    def test_removed_clip_absent_from_sparse_ids_rejected(self, absent):
        annotated = blobs(num_classes=2, clips_per_class=2, patches_per_clip=2)
        # clip ids 2, 9, 16, 23: the absent ids fall below, between and above them
        annotated = replace(
            annotated, data=replace(annotated.data, clip_ids=annotated.data.clip_ids * 7 + 2)
        )
        report = [PruneRecord(9, 1.0, 1, True), PruneRecord(absent, 1.0, 2, True)]
        with pytest.raises(InvalidInputError, match=rf"not present in the dataset: \[{absent}\]"):
            prune_precision(report, annotated)

    def test_patches_disagreeing_in_memory_rejected(self):
        annotated = blobs(num_classes=2, clips_per_class=2, patches_per_clip=2)
        flags = annotated.corrupted.copy()
        flags[0] = True  # rows 0 and 1 are the patches of clip 0
        with pytest.raises(InvalidInputError, match="patches of clip 0 disagree"):
            AnnotatedDataset(annotated.data, annotated.clean_labels, flags)


def disagreeing_rows(path, field: str) -> list[dict]:
    """Rows of a clean file whose two patches of clip 0 disagree on ``field``."""
    write_annotated(path, blobs(num_classes=2, clips_per_class=2, patches_per_clip=2))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["clip_id"] == rows[1]["clip_id"] == 0
    rows[0]["corrupted"] = True
    if field == "clean_label":
        rows[1]["corrupted"] = True
        rows[0]["clean_label"] = 1 - rows[0]["label"]
    return rows


class TestClipTruthAgreement:
    @pytest.mark.parametrize("field", ["corrupted", "clean_label"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    @pytest.mark.parametrize("reader", [read_annotated, read_as_annotated])
    def test_file_rejected_in_either_row_order(self, tmp_path, field, reverse, reader):
        path = tmp_path / "disagree.jsonl"
        rows = disagreeing_rows(path, field)
        if reverse:
            rows.reverse()
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(InvalidInputError) as excinfo:
            reader(path)
        assert str(excinfo.value) == (
            f"{path}: patches of clip 0 disagree on clean_label or corrupted"
        )

    @pytest.mark.parametrize("clean_label", [2, 7, -2])
    def test_clean_label_off_the_classes_rejected(self, clean_label):
        # two classes of one clip each; clip 1 (rows 2 and 3) is marked corrupted
        annotated = blobs(num_classes=2, clips_per_class=1, patches_per_clip=2)
        clean = annotated.clean_labels.copy()
        clean[2:] = clean_label
        with pytest.raises(InvalidInputError) as excinfo:
            AnnotatedDataset(annotated.data, clean, annotated.data.clip_ids == 1)
        assert str(excinfo.value) == (
            f"clean_label {clean_label} of clip 1 is neither a class in [0, 2)"
            " nor OOV_CLEAN_LABEL (-1)"
        )

    def test_clean_label_off_the_classes_rejected_in_a_file(self, tmp_path):
        # a file's class count covers its largest clean label, so only a negative one is off
        path = tmp_path / "off.jsonl"
        write_annotated(path, blobs(num_classes=2, clips_per_class=1, patches_per_clip=2))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows[2:]:
            row.update(clean_label=-5, corrupted=True)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(InvalidInputError, match=r"clean_label -5 of clip 1 is neither"):
            read_annotated(path)

    def test_empty_dataset_has_no_clip_truth(self):
        empty = blobs(clips_per_class=1)
        empty = AnnotatedDataset(
            empty.data.subset(np.array([], dtype=int)),
            np.array([], dtype=int),
            np.array([], dtype=bool),
        )
        with pytest.raises(InvalidInputError, match="^empty dataset has no clips$"):
            per_class_corruption_rates(empty)

    def test_oov_clean_label_accepted(self):
        annotated = blobs(num_classes=2, clips_per_class=1, patches_per_clip=2)
        clean = annotated.clean_labels.copy()
        clean[2:] = OOV_CLEAN_LABEL
        flags = annotated.data.clip_ids == 1
        oov = AnnotatedDataset(annotated.data, clean, flags)
        assert per_class_corruption_rates(oov).tolist() == [0.0, 1.0]


def malformed(row: dict, case: str) -> str:
    """One dataset row, broken the way ``case`` names."""
    if case == "not_json":
        return json.dumps(row)[:-3]
    if case == "missing_label":
        del row["label"]
        return json.dumps(row)
    if case == "list_row":
        return json.dumps(list(row))
    if case in NON_INTEGER:
        key, value = NON_INTEGER[case]
        row[key] = value
        return json.dumps(row)
    if case == "string_corrupted":
        row["corrupted"] = "no"
        return json.dumps(row)
    if case in BAD_FEATURE:
        row["features"][1] = BAD_FEATURE[case]
        return json.dumps(row)
    assert case == "ragged_features"
    row["features"] = row["features"][:-1]
    return json.dumps(row)


# Integer fields given values that int() would truncate or coerce.
NON_INTEGER = {
    "float_label": ("label", 1.7),
    "string_label": ("label", "1"),
    "bool_label": ("label", True),
    "float_example_id": ("example_id", 2.9),
    "float_clip_id": ("clip_id", 1.5),
    "string_clean_label": ("clean_label", "0"),
}

# Feature values that float() would coerce, or that no float can hold.
BAD_FEATURE = {
    "string_feature": "2.5",
    "bool_feature": True,
    "huge_int_feature": 10**400,
}

MALFORMED = {
    "not_json": "not valid JSON",
    "missing_label": "missing field 'label'",
    "list_row": "a row must be a JSON object",
    "ragged_features": "7 features where earlier rows have 8",
    "float_label": "label must be an integer, got 1.7",
    "string_label": 'label must be an integer, got "1"',
    "bool_label": "label must be an integer, got true",
    "float_example_id": "example_id must be an integer, got 2.9",
    "float_clip_id": "clip_id must be an integer, got 1.5",
    "string_clean_label": 'clean_label must be an integer, got "0"',
    "string_corrupted": 'corrupted must be true or false, got "no"',
    "string_feature": 'features[1] must be a number, got "2.5"',
    "bool_feature": "features[1] must be a number, got true",
    "huge_int_feature": f"features[1] must be a finite number, got {'1' + '0' * 39}",
}


class TestSerialization:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("reader", [read_dataset, read_annotated, read_as_annotated])
    def test_malformed_row_named_by_its_line(self, tmp_path, case, reader):
        path = tmp_path / "bad.jsonl"
        write_annotated(path, blobs(clips_per_class=2))
        lines = path.read_text().splitlines()
        lines.insert(2, "")  # blank lines count toward the line number
        lines[5] = malformed(json.loads(lines[5]), case)
        path.write_text("\n".join(lines) + "\n")
        message = rf"bad\.jsonl, line 6: {re.escape(MALFORMED[case])}"
        with pytest.raises(InvalidInputError, match=message):
            reader(path)

    def test_public_round_trip(self, tmp_path):
        data = blobs(clips_per_class=3).data
        path = tmp_path / "data.jsonl"
        write_dataset(path, data)
        loaded = read_dataset(path)
        np.testing.assert_array_equal(loaded.example_ids, data.example_ids)
        np.testing.assert_array_equal(loaded.clip_ids, data.clip_ids)
        np.testing.assert_array_equal(loaded.labels, data.labels)
        np.testing.assert_array_equal(loaded.features, data.features)
        assert loaded.num_classes == data.num_classes

    def test_private_round_trip(self, tmp_path):
        noisy = inject_symmetric_noise(
            blobs(clips_per_class=4), NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.5, seed=3)
        )
        path = tmp_path / "private.jsonl"
        write_annotated(path, noisy)
        loaded = read_annotated(path)
        np.testing.assert_array_equal(loaded.clean_labels, noisy.clean_labels)
        np.testing.assert_array_equal(loaded.corrupted, noisy.corrupted)
        np.testing.assert_array_equal(loaded.data.labels, noisy.data.labels)

    def test_public_file_has_no_ground_truth(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_dataset(path, blobs(clips_per_class=2).data)
        text = path.read_text()
        assert "clean_label" not in text
        assert "corrupted" not in text

    def test_read_annotated_requires_ground_truth(self, tmp_path):
        path = tmp_path / "public.jsonl"
        write_dataset(path, blobs(clips_per_class=2).data)
        with pytest.raises(InvalidInputError):
            read_annotated(path)

    def test_read_as_annotated_treats_public_as_clean(self, tmp_path):
        data = blobs(clips_per_class=2).data
        path = tmp_path / "public.jsonl"
        write_dataset(path, data)
        annotated = read_as_annotated(path)
        assert not annotated.corrupted.any()
        np.testing.assert_array_equal(annotated.clean_labels, data.labels)

    def test_private_file_reads_the_same_through_both_readers(self, tmp_path):
        noisy = inject_symmetric_noise(
            blobs(clips_per_class=3), NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.5, seed=2)
        )
        path = tmp_path / "private.jsonl"
        write_annotated(path, noisy)
        for loaded in (read_annotated(path), read_as_annotated(path)):
            np.testing.assert_array_equal(loaded.clean_labels, noisy.clean_labels)
            np.testing.assert_array_equal(loaded.corrupted, noisy.corrupted)
            np.testing.assert_array_equal(loaded.data.labels, noisy.data.labels)
            np.testing.assert_array_equal(loaded.data.features, noisy.data.features)

    @pytest.mark.parametrize("dropped", [("clean_label", "corrupted"), ("corrupted",)])
    def test_partly_annotated_file_rejected_by_both_readers(self, tmp_path, dropped):
        noisy = inject_symmetric_noise(
            blobs(clips_per_class=3), NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.5, seed=2)
        )
        path = tmp_path / "mixed.jsonl"
        write_annotated(path, noisy)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for key in dropped:
            del rows[4][key]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        for reader in (read_annotated, read_as_annotated):
            with pytest.raises(InvalidInputError, match="some rows only"):
                reader(path)

    def test_num_classes_inferred_from_clean_labels_too(self, tmp_path):
        # an oov file whose observed labels miss the top class still needs
        # the clean labels to size the class set; a label 3 row flipped to 0
        # must keep num_classes at 4
        noisy = inject_symmetric_noise(
            blobs(clips_per_class=4), NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=1.0, seed=6)
        )
        keep = noisy.clean_labels == 3
        subset = AnnotatedDataset(
            noisy.data.subset(keep), noisy.clean_labels[keep], noisy.corrupted[keep]
        )
        path = tmp_path / "sub.jsonl"
        write_annotated(path, subset)
        loaded = read_annotated(path)
        assert loaded.data.num_classes == 4

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(InvalidInputError):
            read_dataset(path)

    def test_fingerprint_stable_and_content_sensitive(self):
        a = blobs(clips_per_class=2)
        b = blobs(clips_per_class=2)
        assert dataset_fingerprint(a) == dataset_fingerprint(b)
        assert len(dataset_fingerprint(a)) == 16
        c = blobs(clips_per_class=2, seed=1)
        assert dataset_fingerprint(a) != dataset_fingerprint(c)

    @pytest.mark.parametrize("reader", [read_dataset, read_annotated, read_as_annotated])
    def test_integer_features_read_as_their_floats(self, tmp_path, reader):
        # an integer feature reads back as the float nearest it, 2**53 + 1 as 2**53
        path = tmp_path / "ints.jsonl"
        rows = [dict(example_id=0, features=[1, 2.5]), dict(example_id=1, features=[2**53 + 1, -3])]
        truth = dict(clip_id=0, label=0, clean_label=0, corrupted=False)
        path.write_text("".join(json.dumps({**row, **truth}) + "\n" for row in rows))
        loaded = reader(path)
        features = getattr(loaded, "data", loaded).features
        expected = np.array([[1.0, 2.5], [2.0**53, -3.0]])
        assert features.tobytes() == expected.tobytes()

    def test_non_finite_feature_rejected_with_its_example_id(self, tmp_path):
        annotated = blobs(clips_per_class=2)

        def with_non_finite(text):
            # json writes NaN and Infinity and reads them back; the dataset reader refuses them
            rows = [json.loads(line) for line in text.splitlines()]
            rows[5]["features"][2] = math.nan
            rows[7]["features"][0] = math.inf
            return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)

        path = tmp_path / "nan.jsonl"
        path.write_text(with_non_finite(reference_dataset_text(annotated.data)))
        assert "NaN" in path.read_text() and "Infinity" in path.read_text()
        with pytest.raises(InvalidInputError, match="example 5 "):
            read_dataset(path)
        truth = dict(clean_label=annotated.clean_labels, corrupted=annotated.corrupted)
        path.write_text(with_non_finite(reference_dataset_text(annotated.data, **truth)))
        with pytest.raises(InvalidInputError, match="example 5 "):
            read_annotated(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("annotated", [False, True])
    def test_non_finite_feature_refused_before_any_byte_is_written(
        self, tmp_path, value, annotated
    ):
        clean = blobs(clips_per_class=2)
        features = clean.data.features.copy()
        features[5, 2] = value
        features[7, 0] = np.nan

        def write(path, features):
            # a dataset with a non-finite feature is refused as it is built: no writer runs
            data = replace(clean.data, features=features)
            if annotated:
                write_annotated(path, replace(clean, data=data))
            else:
                write_dataset(path, data)

        message = r"^example 5 has a non-finite feature value$"
        with pytest.raises(InvalidInputError, match=message):
            write(tmp_path / "new.jsonl", features)
        assert list(tmp_path.iterdir()) == []
        path = tmp_path / "data.jsonl"
        write(path, clean.data.features)
        before = path.read_bytes()
        with pytest.raises(InvalidInputError, match=message):
            write(path, features)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]


fingerprint_cases = st.fixed_dictionaries(
    dict(
        num_classes=st.just(2),
        clips_per_class=st.integers(1, 4),
        patches_per_clip=st.integers(1, 3),
        feature_dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
)


class TestFingerprintProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), case=fingerprint_cases)
    def test_row_swap_changes_fingerprint(self, data, case):
        annotated = blobs(**case)
        n = annotated.data.n_examples
        i = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(i + 1, n - 1))
        order = np.arange(n)
        order[[i, j]] = order[[j, i]]
        swapped = AnnotatedDataset(
            annotated.data.subset(order),
            annotated.clean_labels[order],
            annotated.corrupted[order],
        )
        assert dataset_fingerprint(swapped) != dataset_fingerprint(annotated)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), case=fingerprint_cases)
    def test_one_ulp_feature_change_changes_fingerprint(self, data, case):
        annotated = blobs(**case)
        row = data.draw(st.integers(0, annotated.data.n_examples - 1))
        col = data.draw(st.integers(0, annotated.data.feature_dim - 1))
        features = annotated.data.features.copy()
        features[row, col] = np.nextafter(features[row, col], np.inf)
        nudged = replace(annotated, data=replace(annotated.data, features=features))
        assert dataset_fingerprint(nudged) != dataset_fingerprint(annotated)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), case=fingerprint_cases)
    def test_corrupted_flag_flip_changes_fingerprint(self, data, case):
        annotated = blobs(**case)
        row = data.draw(st.integers(0, annotated.data.n_examples - 1))
        flags = annotated.corrupted.copy()
        # clean blobs: every flag starts false; every patch of a clip shares its flag
        flags[annotated.data.clip_ids == annotated.data.clip_ids[row]] = True
        flipped = AnnotatedDataset(annotated.data, annotated.clean_labels, flags)
        assert dataset_fingerprint(flipped) != dataset_fingerprint(annotated)

    @settings(max_examples=40, deadline=None)
    @given(case=fingerprint_cases)
    def test_memory_layout_does_not_change_fingerprint(self, case):
        annotated = blobs(**case)
        features = annotated.data.features
        wide = np.zeros((features.shape[0], 2 * features.shape[1]))
        wide[:, ::2] = features
        for layout in (np.asfortranarray(features), wide[:, ::2]):
            # an (N, 1) Fortran array is also C-contiguous
            assert not layout.flags.c_contiguous or features.shape[1] == 1
            moved = replace(annotated, data=replace(annotated.data, features=layout))
            assert dataset_fingerprint(moved) == dataset_fingerprint(annotated)


def reference_dataset_text(data, **truth):
    """The dataset file as the whole-matrix writer built it: each column converted at once."""
    columns = dict(
        example_id=data.example_ids,
        clip_id=data.clip_ids,
        features=data.features,
        label=data.labels,
        **truth,
    )
    values = zip(*(column.tolist() for column in columns.values()))
    return "".join(json.dumps(dict(zip(columns, row)), sort_keys=True) + "\n" for row in values)


def awkward_dataset(rows, width, seed):
    """Three-patch clips of three classes, half of them flipped, with features over
    the whole float64 range: signed zeros, subnormals, integral values and 1e300s."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-320, 300, (rows, width))
    features[rng.random((rows, width)) < 0.05] = -0.0
    integral = rng.random((rows, width)) < 0.05
    features[integral] = rng.integers(-1000, 1000, integral.sum())
    clip_ids = np.arange(rows) // 3
    clip_clean = rng.integers(0, 3, clip_ids[-1] + 1)
    clip_flipped = rng.random(clip_ids[-1] + 1) < 0.5
    clean = clip_clean[clip_ids]
    flipped = clip_flipped[clip_ids]
    data = Dataset(
        example_ids=rng.permutation(rows) + 2**40,
        clip_ids=clip_ids,
        features=features,
        labels=np.where(flipped, (clean + 1) % 3, clean),
        num_classes=3,
    )
    return AnnotatedDataset(data, clean, flipped)


# sha256 of the dataset files of a 1032-row noisy dataset, recorded from the
# writer that converted whole columns at once; 1032 rows span two write blocks.
PINNED_FILE_DIGESTS = {
    "write_annotated": "fc173770b2c0770d11635cf27ed4e6ac505a610ffa9556dad684206c9d888969",
    "write_dataset": "bfab8660a111d55d2724658f97878e988cba3653871f2f51dcc8a203ae51cd78",
}


class TestDatasetFileStreaming:
    """Dataset files are written a block of rows at a time and read into one packed
    buffer, with the bytes and values of whole-matrix conversion."""

    def test_pinned_file_bytes(self, tmp_path):
        noisy = inject_symmetric_noise(
            generate_blobs(4, 86, 3, 8, 0.25, seed=11),
            NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.4, seed=5),
        )
        write_annotated(tmp_path / "private.jsonl", noisy)
        write_dataset(tmp_path / "public.jsonl", noisy.data)
        digests = {
            name: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
            for name, file in (("write_annotated", "private.jsonl"), ("write_dataset", "public.jsonl"))
        }
        assert digests == PINNED_FILE_DIGESTS

    @settings(max_examples=12, deadline=None)
    @given(
        rows=st.sampled_from([1023, 1024, 1025, 2049]),
        width=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        annotated=st.booleans(),
    )
    def test_bytes_and_read_back_match_whole_matrix_conversion(
        self, tmp_path_factory, rows, width, seed, annotated
    ):
        original = awkward_dataset(rows, width, seed)
        path = tmp_path_factory.mktemp("stream") / "data.jsonl"
        if annotated:
            write_annotated(path, original)
            truth = dict(clean_label=original.clean_labels, corrupted=original.corrupted)
        else:
            write_dataset(path, original.data)
            truth = {}
        assert path.read_text(encoding="utf-8") == reference_dataset_text(original.data, **truth)
        loaded = read_as_annotated(path)
        pairs = [
            (loaded.data.example_ids, original.data.example_ids),
            (loaded.data.clip_ids, original.data.clip_ids),
            (loaded.data.features, original.data.features),
            (loaded.data.labels, original.data.labels),
        ]
        if annotated:
            pairs += [(loaded.clean_labels, original.clean_labels),
                      (loaded.corrupted, original.corrupted)]
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_write_peak_does_not_grow_with_rows(self, tmp_path, traced_peak):
        # one write block of rows against eight: a writer that converts whole
        # columns peaks about eight times higher on the larger file
        peaks = {}
        for rows in (1024, 8192):
            noisy = generate_blobs(2, rows // 8, 4, 4, 0.25, seed=1)
            peaks[rows] = traced_peak(lambda: write_annotated(tmp_path / "data.jsonl", noisy))
        assert peaks[8192] < 1.25 * peaks[1024], peaks

    def test_read_peak_is_at_most_twice_the_feature_bytes(self, tmp_path, traced_peak):
        noisy = generate_blobs(2, 512, 4, 64, 0.25, seed=1)  # 4096 rows x 64
        path = tmp_path / "data.jsonl"
        write_annotated(path, noisy)
        feature_bytes = noisy.data.features.nbytes
        assert traced_peak(lambda: read_annotated(path)) <= 2 * feature_bytes


@contextmanager
def split_into(workers, block):
    """Dataset files split into at most ``workers`` ranges of ``block`` rows or more; yields
    the list of ranges each call gave a worker process, one entry per worker started."""
    forks = []
    fork = records._fork

    def counted(task):
        forks.append(task)
        return fork(task)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(records, "_worker_count", lambda: workers)
        patch.setattr(records, "_WRITE_BLOCK", block)
        patch.setattr(records, "_fork", counted)
        yield forks


def child_pids():
    """The processes, running or not yet reaped, whose parent is this one."""
    tasks = Path("/proc/self/task")
    if not (tasks / str(os.getpid()) / "children").exists():
        pytest.skip("needs /proc/<pid>/task/<tid>/children")
    return {pid for task in tasks.iterdir() for pid in (task / "children").read_text().split()}


def range_starts(path, workers):
    """The lines, from 0, that begin each range after the first when ``path`` is read by at
    most ``workers`` workers at blocks of 4 rows."""
    text = path.read_bytes()
    with split_into(workers, 4), open(path, "rb") as fh:
        ranges = records._ranges(fh, len(fh.readline()))
    assert len(ranges) == workers
    return [text[:start].count(b"\n") for start, _ in ranges[1:]]


def read_columns(path):
    loaded = read_as_annotated(path)
    data = loaded.data
    columns = (data.example_ids, data.clip_ids, data.features, data.labels,
               loaded.clean_labels, loaded.corrupted)
    return [(column.dtype, column.shape, column.tobytes()) for column in columns]


def _drop_truth(row):
    return {key: value for key, value in row.items() if key not in ("clean_label", "corrupted")}


def first_feature(value):
    """A row fault: the row with its first feature replaced by ``value``."""
    return lambda row: json.dumps({**row, "features": [value, *row["features"][1:]]})


# A fault put into one row of a dataset file: the line that replaces the row's line.
ROW_FAULTS = {
    "bad_json": lambda row: json.dumps(row)[:-3],
    "width_change": lambda row: json.dumps({**row, "features": row["features"][:-1]}),
    "truth_on_some_rows_only": lambda row: json.dumps(_drop_truth(row)),
    "non_finite_value": lambda row: json.dumps({**row, "features": [math.inf, *row["features"][1:]]}),
    "bool_feature": first_feature(True),
    "string_feature": first_feature("2.5"),
    "nested_feature": first_feature([1.0]),
    "null_feature": first_feature(None),
    # alone: 310 digits do not fit in a row's line beside the other features
    "huge_int_feature": lambda row: json.dumps({**row, "features": [10**309]}),
    "features_not_a_list": lambda row: json.dumps({**row, "features": {"0": 1.5}}),
}

# What a feature fault of ROW_FAULTS is refused with, after its file and line.
FEATURE_FAULTS = {
    "bool_feature": "features[0] must be a number, got true",
    "string_feature": 'features[0] must be a number, got "2.5"',
    "nested_feature": "features[0] must be a number, got [1.0]",
    "null_feature": "features[0] must be a number, got null",
    "huge_int_feature": f"features[0] must be a finite number, got {'1' + '0' * 39}",
    "features_not_a_list": 'features must be a list, got {"0": 1.5}',
}


class TestDatasetFileRanges:
    """A dataset file is written and read as one range of rows per worker process; its bytes,
    values and errors are those of one range read in this process."""

    @settings(max_examples=15, deadline=None)
    @given(
        rows=st.integers(1, 40),
        width=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        annotated=st.booleans(),
    )
    def test_bytes_and_columns_do_not_depend_on_the_worker_count(
        self, tmp_path_factory, rows, width, seed, annotated
    ):
        original = awkward_dataset(rows, width, seed)
        truth = {}
        if annotated:
            truth = dict(clean_label=original.clean_labels, corrupted=original.corrupted)
        directory = tmp_path_factory.mktemp("ranges")
        files, columns = {}, {}
        for workers in (1, 2, 3):
            path = directory / f"{workers}.jsonl"
            with split_into(workers, 4):
                if annotated:
                    write_annotated(path, original)
                else:
                    write_dataset(path, original.data)
                files[workers] = path.read_bytes()
                columns[workers] = read_columns(path)
        assert files[1].decode() == reference_dataset_text(original.data, **truth)
        assert files[2] == files[1] and files[3] == files[1]
        assert columns[2] == columns[1] and columns[3] == columns[1]

    def test_each_range_gets_a_worker(self, tmp_path):
        path = tmp_path / "data.jsonl"
        noisy = blobs(clips_per_class=4)  # 48 rows
        with split_into(3, 4) as forks:
            write_annotated(path, noisy)
            assert len(forks) == 3
            read_annotated(path)
            assert len(forks) == 6
        # a file of one block stays in this process; the reader sizes a block by the first row
        with split_into(3, 64) as forks:
            write_annotated(path, noisy)
            read_annotated(path)
            assert forks == []

    # Where faults go: lines of the file (line 6 is blank), or the first lines of ranges.
    FAULT_PLACES = {
        "first_row": (0,), "second_row": (1,), "line_15": (15,), "line_27": (27,),
        "lines_15_27": (15, 27), "lines_27_41": (27, 41),
        "start_of_range_2_of_2": (2, 1), "start_of_range_3_of_3": (3, 2),
        "starts_of_ranges_2_and_3_of_3": (3, 1, 2),
    }

    @pytest.mark.parametrize("place", sorted(FAULT_PLACES))
    @pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
    def test_first_fault_in_file_order_raised_as_one_worker_raises_it(
        self, tmp_path, fault, place
    ):
        path = tmp_path / "bad.jsonl"
        # 48 rows, each long enough to hold a feature of 310 digits
        write_annotated(path, blobs(clips_per_class=4, feature_dim=24))
        lines = path.read_text().splitlines()
        lines.insert(6, "")  # blank lines count toward the line number
        path.write_text("\n".join(lines) + "\n")
        rows = self.FAULT_PLACES[place]
        if place.startswith("start"):
            rows = [range_starts(path, rows[0])[index - 1] for index in rows[1:]]
        for row in rows:
            # padded to its length, so that the fault moves no range bound
            faulty = ROW_FAULTS[fault](json.loads(lines[row]))
            assert len(faulty) <= len(lines[row])
            lines[row] = faulty.ljust(len(lines[row]))
        path.write_text("\n".join(lines) + "\n")
        messages = {}
        for workers in (1, 2, 3):
            with split_into(workers, 4) as forks:
                with pytest.raises(InvalidInputError) as excinfo:
                    read_annotated(path)
            messages[workers] = str(excinfo.value)
            # a first row that is not JSON, has a bad feature, or has no ground truth (a public
            # file, which read_annotated refuses), is refused before the file is split
            refused_first = rows[0] == 0 and (
                fault in ("bad_json", "truth_on_some_rows_only") or fault in FEATURE_FAULTS
            )
            assert bool(forks) == (workers > 1 and not refused_first)
        assert messages[2] == messages[1] and messages[3] == messages[1]
        if fault in FEATURE_FAULTS:
            assert messages[1].endswith(f": {FEATURE_FAULTS[fault]}")

    def test_public_file_refused_at_its_first_row(self, tmp_path):
        path = tmp_path / "public.jsonl"
        with split_into(3, 4) as forks:
            write_dataset(path, blobs(clips_per_class=4).data)  # 48 rows
            assert len(forks) == 3
        lines = path.read_text().splitlines()
        lines[30] = ROW_FAULTS["bad_json"](json.loads(lines[30]))  # the first row decides
        path.write_text("\n".join(lines) + "\n")
        for workers in (1, 2, 3):
            with split_into(workers, 4) as forks:
                with pytest.raises(InvalidInputError) as excinfo:
                    read_annotated(path)
                assert forks == []
            message = f"{path} is not a harness-private file: clean_label/corrupted missing"
            assert str(excinfo.value) == message

    def test_mixed_faults_raise_the_earliest(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_annotated(path, blobs(clips_per_class=4))  # 48 rows
        lines = path.read_text().splitlines()
        lines[40] = ROW_FAULTS["bad_json"](json.loads(lines[40]))
        lines[30] = ROW_FAULTS["non_finite_value"](json.loads(lines[30]))
        lines[20] = ROW_FAULTS["width_change"](json.loads(lines[20]))
        path.write_text("\n".join(lines) + "\n")
        for workers in (1, 3):
            with split_into(workers, 4):
                with pytest.raises(InvalidInputError, match=r"bad\.jsonl, line 21: 7 features"):
                    read_annotated(path)

    def test_crlf_file_reads_as_the_lf_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_annotated(path, blobs(clips_per_class=4))  # 48 rows
        expected = read_columns(path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        for workers in (1, 3):
            with split_into(workers, 4) as forks:
                assert read_columns(path) == expected
            assert len(forks) == (workers if workers > 1 else 0)

    @pytest.mark.parametrize("row", [30, 47])
    def test_cut_line_faulted_at_the_same_place_under_both_endings(self, tmp_path, row):
        path = tmp_path / "data.jsonl"
        write_annotated(path, blobs(clips_per_class=4))  # 48 rows
        lines = path.read_bytes().splitlines()
        cut = lines[row] = lines[row][:-5]  # '"label": 3}' cut to '"label'
        for ending in (b"\n", b"\r\n"):
            path.write_bytes(ending.join(lines) + ending)
            for workers in (1, 3):
                with split_into(workers, 4):
                    with pytest.raises(InvalidInputError) as excinfo:
                        read_annotated(path)
                assert str(excinfo.value) == (
                    f"{path}, line {row + 1}: not valid JSON"
                    f" (Unterminated string starting at column {len(cut) - 5})"
                )

    def test_workers_are_reaped_and_no_part_file_is_left(self, tmp_path, monkeypatch):
        before = child_pids()
        path = tmp_path / "data.jsonl"
        noisy = blobs(clips_per_class=10)  # 120 rows

        def settled():
            assert multiprocessing.active_children() == []
            assert child_pids() == before
            assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]

        with split_into(3, 8) as forks:
            write_annotated(path, noisy)
            read_annotated(path)
            assert len(forks) == 6
            settled()
            written = path.read_bytes()
            lines = written.decode().splitlines(keepends=True)
            path.write_text("".join(lines[:-1]) + "{\n")
            with pytest.raises(InvalidInputError, match="line 120: not valid JSON"):
                read_annotated(path)
            settled()
            path.write_bytes(written)
            encode = records._encode_rows

            def failing(fh, columns, start, stop):
                if start:
                    raise OSError("no space left in this range")
                encode(fh, columns, start, stop)

            monkeypatch.setattr(records, "_encode_rows", failing)
            with pytest.raises(OSError, match="no space left in this range"):
                write_dataset(path, noisy.data)
            assert path.read_bytes() == written
            settled()

            def dying(fh, columns, start, stop):
                if start:
                    os._exit(3)
                encode(fh, columns, start, stop)

            monkeypatch.setattr(records, "_encode_rows", dying)
            with pytest.raises(ChildProcessError, match="stopped before it finished"):
                write_dataset(path, noisy.data)
            assert path.read_bytes() == written
            settled()

    def test_import_loads_no_process_pool(self, tmp_path):
        script = f"""
import sys
import labelnoise
from labelnoise import records
pools = ("multiprocessing", "concurrent.futures")
assert not any(name in sys.modules for name in pools), "import"
records._worker_count = lambda: 2
records._WRITE_BLOCK = 4
path = {str(tmp_path / "data.jsonl")!r}
labelnoise.write_annotated(path, labelnoise.generate_blobs(2, 8, 2, 3, 0.25, seed=0))
labelnoise.read_annotated(path)
assert not any(name in sys.modules for name in pools), "split file"
"""
        env = {**os.environ, "PYTHONPATH": str(Path(records.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", script], check=True, env=env)


def tiny_experiment(**overrides):
    kwargs = dict(
        dataset=DatasetParams(
            num_classes=2,
            clips_per_class=8,
            patches_per_clip=2,
            feature_dim=4,
            cluster_spread=0.2,
            test_clips_per_class=6,
        ),
        train=TrainConfig(
            loss=LossSpec(LossKind.CCE),
            max_epochs=8,
            batch_size=8,
            initial_lr=0.01,
            val_fraction=0.25,
        ),
        runs=2,
        base_seed=0,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


plan_cases = st.fixed_dictionaries(
    dict(
        num_classes=st.integers(2, 3),
        # one clip per class cannot be split; both refuse it with the split's words
        clips_per_class=st.integers(1, 6),
        val_fraction=st.floats(0.05, 0.95),
        max_epochs=st.integers(0, 2),
        strategy=st.sampled_from([Strategy.NONE, Strategy.PRUNE]),
        start_epoch=st.integers(0, 2),
        prune_count=st.integers(0, 12),
        prune_rounds=st.integers(1, 3),
        base_seed=st.integers(0, 2**32 - 1),
    )
)


class _RunStarted(Exception):
    pass


def _no_runs(*args):
    raise _RunStarted


class TestPlanCheck:
    @settings(max_examples=60, deadline=None)
    @given(case=plan_cases)
    def test_experiment_refuses_before_run_zero_exactly_when_train_does(self, case):
        num_classes, clips_per_class = case["num_classes"], case["clips_per_class"]
        stage = StagePlan(
            strategy=case["strategy"],
            start_epoch=case["start_epoch"],
            prune_count=case["prune_count"],
            # iterative pruning needs start_epoch >= 1
            prune_rounds=case["prune_rounds"] if case["start_epoch"] else 1,
        )
        cfg = tiny_experiment(
            # two patches per clip, so a count of rows is not a count of clips
            dataset=DatasetParams(num_classes, clips_per_class, 2, 2, 0.2, 1),
            train=replace(
                tiny_experiment().train,
                max_epochs=case["max_epochs"], val_fraction=case["val_fraction"], stage=stage,
            ),
            runs=1,
            base_seed=case["base_seed"],
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_single_run", _no_runs)
            try:
                run_experiment(cfg)
            except InvalidInputError as exc:
                before_run_zero = str(exc)
            except ExperimentError as exc:
                assert isinstance(exc.__cause__, _RunStarted)
                before_run_zero = None

        # run 0's dataset and training seed, as the experiment derives them
        data_seed = derive_seed(cfg.base_seed, harness._DATA_TAG, 0)
        dataset = generate_blobs(num_classes, clips_per_class, 2, 2, 0.2, data_seed).data
        train_seed = derive_seed(cfg.base_seed, harness._TRAIN_TAG, 0)
        try:
            train(dataset, replace(cfg.train, seed=train_seed))
        except InvalidInputError as exc:
            in_train = str(exc)
        else:
            in_train = None
        assert before_run_zero == in_train


class TestExperiments:
    def test_summary_shape_and_determinism(self):
        result = run_experiment(tiny_experiment())
        assert len(result.runs) == 2
        assert len(result.summary.per_run_accuracy) == 2
        assert result.summary.mean == pytest.approx(
            np.mean(result.summary.per_run_accuracy)
        )
        again = run_experiment(tiny_experiment())
        assert again.summary == result.summary

    def test_single_run_has_zero_half_width(self):
        result = run_experiment(tiny_experiment(runs=1))
        assert result.summary.ci_half_width == 0.0

    def test_runs_see_different_datasets(self):
        result = run_experiment(tiny_experiment(runs=3))
        assert len(set(result.summary.dataset_fingerprints)) == 3

    def test_methods_are_paired_run_for_run(self):
        # same base seed, different loss: the injected datasets match
        noise = NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.4)
        a = run_experiment(tiny_experiment(noise=noise))
        b = run_experiment(
            tiny_experiment(
                noise=noise,
                train=TrainConfig(
                    loss=LossSpec(LossKind.LQ, q=0.7),
                    max_epochs=8,
                    batch_size=8,
                    initial_lr=0.01,
                    val_fraction=0.25,
                ),
            )
        )
        assert a.summary.dataset_fingerprints == b.summary.dataset_fingerprints
        assert a.summary.config_fingerprint != b.summary.config_fingerprint

    @pytest.mark.parametrize("section", ["train", "noise"])
    def test_seed_fields_are_rejected_inside_experiments(self, section):
        # run_experiment derives both seeds per run, so a set one would only split the fingerprint
        overrides = {
            "train": dict(train=replace(tiny_experiment().train, seed=2)),
            "noise": dict(noise=NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.4, seed=2)),
        }[section]
        with pytest.raises(ConfigurationError, match=rf"^{section}\.seed is 2, .* base_seed "):
            tiny_experiment(**overrides)

    def test_base_seed_changes_the_data(self):
        a = run_experiment(tiny_experiment())
        b = run_experiment(tiny_experiment(base_seed=1))
        assert a.summary.dataset_fingerprints != b.summary.dataset_fingerprints

    def test_oov_noise_runs(self):
        result = run_experiment(
            tiny_experiment(noise=NoiseSpec(NoiseKind.OOV_REPLACE, rate=0.3))
        )
        assert len(result.runs) == 2

    def test_auto_noise_groups_requires_smoothing(self):
        with pytest.raises(ConfigurationError):
            tiny_experiment(auto_noise_groups=True)

    def test_auto_noise_groups_applied(self):
        cfg = tiny_experiment(
            noise=NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.4),
            train=TrainConfig(
                loss=LossSpec(LossKind.CCE),
                max_epochs=4,
                batch_size=8,
                initial_lr=0.01,
                val_fraction=0.25,
                smoothing=SmoothingPolicy(epsilon=0.15, delta_epsilon=0.05),
            ),
            auto_noise_groups=True,
        )
        result = run_experiment(cfg)
        assert len(result.runs) == 2

    def test_auto_noise_groups_replace_a_partial_map(self):
        # the derived map replaces the given one in every run, so the up-front
        # check of class maps leaves it alone
        smoothing = SmoothingPolicy(
            epsilon=0.15, delta_epsilon=0.05, group_of_class={0: NoiseGroup.LOW_NOISE}
        )
        cfg = tiny_experiment(
            noise=NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.4),
            train=replace(tiny_experiment().train, smoothing=smoothing),
            auto_noise_groups=True,
        )
        assert len(run_experiment(cfg).runs) == 2
        with pytest.raises(ConfigurationError, match=r"missing \[1\], unknown \[\]"):
            run_experiment(replace(cfg, auto_noise_groups=False))

    def test_auto_noise_groups_require_noise(self):
        smoothing = SmoothingPolicy(epsilon=0.15, delta_epsilon=0.05)
        with pytest.raises(ConfigurationError) as excinfo:
            tiny_experiment(
                train=replace(tiny_experiment().train, smoothing=smoothing),
                auto_noise_groups=True,
            )
        assert str(excinfo.value) == (
            "auto noise groups require a noise spec to derive the group map from"
        )

    def test_failures_carry_the_run_index(self):
        # a learning rate this large overflows the weights, so run 0 fails in training
        cfg = tiny_experiment(train=replace(tiny_experiment().train, initial_lr=1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ExperimentError, match="training diverged") as excinfo:
                run_experiment(cfg)
        assert excinfo.value.run_index == 0

    def test_config_error_inside_a_run_keeps_its_class(self):
        # the noise-free split keeps 6 train clips, so the prune plan passes the check
        # before run 0; label noise leaves run 0 with 5, which the plan would empty
        cfg = tiny_experiment(
            dataset=DatasetParams(2, 4, 2, 4, 0.2, 3),
            noise=NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.3),
            train=replace(
                tiny_experiment().train, max_epochs=3, batch_size=4,
                stage=StagePlan(strategy=Strategy.PRUNE, start_epoch=1, prune_count=5),
            ),
            runs=4,
        )
        with pytest.raises(InvalidInputError) as excinfo:
            run_experiment(cfg)
        assert type(excinfo.value) is InvalidInputError
        assert str(excinfo.value) == (
            "run 0: 1 prune round(s) of 5 clips would remove 5 of the 5 train-split clips;"
            " at least one must survive"
        )

    @pytest.mark.parametrize("error", [InvalidInputError, ConfigurationError])
    def test_input_errors_keep_their_class_with_the_run_index(self, monkeypatch, error):
        cause = error("bad value")

        def fail_on_run_one(cfg, run_index):
            if run_index == 1:
                raise cause
            return real_single_run(cfg, run_index)

        real_single_run = harness._single_run
        monkeypatch.setattr(harness, "_single_run", fail_on_run_one)
        with pytest.raises(error) as excinfo:
            run_experiment(tiny_experiment())
        assert type(excinfo.value) is error
        assert str(excinfo.value) == "run 1: bad value"
        assert excinfo.value.__cause__ is cause

    @pytest.mark.parametrize("clips_per_class, val_fraction", [(2, 0.9), (10, 0.95)])
    def test_all_validation_split_rejected_before_run_zero(
        self, monkeypatch, clips_per_class, val_fraction
    ):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started before the split was checked")

        monkeypatch.setattr("labelnoise.harness._single_run", no_runs)
        base = tiny_experiment()
        cfg = tiny_experiment(
            dataset=replace(base.dataset, clips_per_class=clips_per_class),
            train=replace(base.train, val_fraction=val_fraction),
        )
        with pytest.raises(InvalidInputError, match="sends every clip to validation"):
            run_experiment(cfg)

    def test_one_clip_class_rejected_before_run_zero_in_the_splits_words(self, monkeypatch):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started before the split was checked")

        monkeypatch.setattr("labelnoise.harness._single_run", no_runs)
        base = tiny_experiment()
        cfg = tiny_experiment(
            dataset=replace(base.dataset, clips_per_class=1),
            train=replace(base.train, val_fraction=0.25),
        )
        with pytest.raises(InvalidInputError) as excinfo:
            run_experiment(cfg)
        assert str(excinfo.value) == "class 0 has 1 clip(s); need at least 2 to split"

    def test_runs_lower_bound(self):
        with pytest.raises(InvalidInputError):
            tiny_experiment(runs=0)

    def test_summary_round_trip(self, tmp_path):
        result = run_experiment(tiny_experiment())
        path = tmp_path / "summary.json"
        write_summary(path, result.summary)
        assert read_summary(path) == result.summary

    def test_prune_precision_reported(self):
        from labelnoise import SelectionRule, StagePlan, Strategy

        cfg = tiny_experiment(
            noise=NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.4),
            train=TrainConfig(
                loss=LossSpec(LossKind.CCE),
                max_epochs=6,
                batch_size=8,
                initial_lr=0.01,
                val_fraction=0.25,
                stage=StagePlan(strategy=Strategy.PRUNE, start_epoch=2, prune_count=3),
            ),
        )
        result = run_experiment(cfg)
        for run in result.runs:
            assert run.prune_report is not None
            assert 0.0 <= run.prune_precision <= 1.0
