"""Tests for the Dataset container, the grouped mean and the per-class clip draw."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelnoise import (
    AnnotatedDataset,
    Architecture,
    Dataset,
    InvalidInputError,
    NoiseKind,
    NoiseSpec,
    RngStream,
    forward,
    init_params,
    inject_oov_noise,
    inject_symmetric_noise,
)
from labelnoise.data import GroupMeans
from labelnoise.harness import _NOISE_STREAM, _round_count
from labelnoise.numerics import softmax_rows
from labelnoise.trainer import split_rows


def small_dataset():
    return Dataset(
        example_ids=np.arange(6),
        clip_ids=np.array([0, 0, 1, 1, 2, 2]),
        features=np.arange(12, dtype=float).reshape(6, 2),
        labels=np.array([0, 0, 1, 1, 0, 0]),
        num_classes=2,
    )


class TestConstruction:
    def test_basic_fields(self):
        ds = small_dataset()
        assert ds.n_examples == 6
        assert ds.feature_dim == 2
        assert ds.num_classes == 2
        assert ds.features.dtype == np.float64
        assert ds.labels.dtype == np.int64

    def test_coerces_lists(self):
        ds = Dataset(
            example_ids=[0, 1],
            clip_ids=[5, 5],
            features=[[1.0], [2.0]],
            labels=[1, 1],
            num_classes=2,
        )
        assert isinstance(ds.features, np.ndarray)
        assert ds.features.shape == (2, 1)

    def test_empty_dataset_is_allowed(self):
        ds = Dataset(
            example_ids=np.array([], dtype=int),
            clip_ids=np.array([], dtype=int),
            features=np.zeros((0, 3)),
            labels=np.array([], dtype=int),
            num_classes=4,
        )
        assert ds.n_examples == 0

    @pytest.mark.parametrize(
        "example_ids, clip_ids, features, labels, num_classes, message",
        [
            (
                np.arange(3), np.zeros(3, dtype=int), np.zeros((2, 2)), np.zeros(3, dtype=int), 2,
                "features must be a (N, F) array aligned with ids",
            ),
            (
                np.arange(2), np.zeros(2, dtype=int), np.zeros(2), np.zeros(2, dtype=int), 2,
                "features must be a (N, F) array aligned with ids",
            ),
            (
                np.array([0, 0]), np.array([0, 1]), np.zeros((2, 2)), np.array([0, 1]), 2,
                "example ids must be unique",
            ),
            (
                np.arange(2), np.arange(2), np.zeros((2, 2)), np.zeros(2, dtype=int), 1,
                "num_classes must lie in [2, inf), got 1",
            ),
            (
                np.arange(3), np.zeros(2, dtype=int), np.zeros((3, 2)), np.zeros(3, dtype=int), 2,
                "dataset columns must have equal lengths",
            ),
        ],
        ids=[
            "length_mismatch", "features_must_be_2d", "duplicate_example_ids",
            "fewer_than_two_classes", "clip_ids_short",
        ],
    )
    def test_refuses_a_malformed_dataset(
        self, example_ids, clip_ids, features, labels, num_classes, message
    ):
        with pytest.raises(InvalidInputError) as excinfo:
            Dataset(example_ids, clip_ids, features, labels, num_classes)
        assert str(excinfo.value) == message

    @settings(max_examples=100, deadline=None)
    @given(ids=st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3), max_size=12))
    def test_refuses_exactly_the_ids_with_a_repeat(self, ids):
        n = len(ids)

        def build():
            return Dataset(ids, np.zeros(n, dtype=int), np.zeros((n, 1)), np.zeros(n, dtype=int), 2)

        if len(set(ids)) == n:
            assert build().n_examples == n
        else:
            with pytest.raises(InvalidInputError, match="^example ids must be unique$"):
                build()

    def test_label_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Dataset(
                example_ids=np.arange(2),
                clip_ids=np.arange(2),
                features=np.zeros((2, 2)),
                labels=np.array([0, 2]),
                num_classes=2,
            )
        with pytest.raises(InvalidInputError):
            Dataset(
                example_ids=np.arange(2),
                clip_ids=np.arange(2),
                features=np.zeros((2, 2)),
                labels=np.array([-1, 0]),
                num_classes=2,
            )

    @pytest.mark.parametrize("rows", [2, 0])
    def test_features_need_a_column(self, rows):
        with pytest.raises(InvalidInputError, match="^features must have at least one column$"):
            Dataset(
                example_ids=np.arange(rows),
                clip_ids=np.arange(rows),
                features=np.zeros((rows, 0)),
                labels=np.zeros(rows, dtype=int),
                num_classes=2,
            )

    @pytest.mark.parametrize(
        "clip_ids, labels",
        [([7, 7], [0, 1]), ([7, 3, 3, 7], [0, 1, 1, 1])],
        ids=["adjacent", "apart"],
    )
    def test_patches_of_one_clip_share_a_label(self, clip_ids, labels):
        with pytest.raises(InvalidInputError, match="^patches of one clip must share a label$"):
            Dataset(
                example_ids=np.arange(len(clip_ids)),
                clip_ids=np.array(clip_ids),
                features=np.zeros((len(clip_ids), 2)),
                labels=np.array(labels),
                num_classes=2,
            )

    @settings(max_examples=150, deadline=None)
    @given(
        ids=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8, unique=True),
        width=st.integers(1, 4),
        cells=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.integers(0, 3),
                st.sampled_from([math.nan, math.inf, -math.inf])
                | st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=6,
        ),
    )
    def test_names_the_first_row_with_a_non_finite_feature(self, ids, width, cells):
        rows = len(ids)
        features = np.zeros((rows, width))
        for row, column, value in cells:
            features[row % rows, column % width] = value
        bad = [i for i, row in enumerate(features.tolist()) if not all(map(math.isfinite, row))]
        labels = np.zeros(rows, dtype=int)
        clean = Dataset(ids, np.arange(rows), np.zeros((rows, width)), labels, 2)
        for build in (
            lambda: Dataset(ids, np.arange(rows), features, labels, 2),
            lambda: replace(clean, features=features),
        ):
            if bad:
                message = f"^example {ids[bad[0]]} has a non-finite feature value$"
                with pytest.raises(InvalidInputError, match=message):
                    build()
            else:
                assert build().features.tobytes() == features.tobytes()

    def test_keeps_its_columns_and_makes_them_read_only(self):
        labels = np.array([0, 0, 1, 1])
        ds = Dataset(np.arange(4), np.array([0, 0, 1, 1]), np.zeros((4, 1)), labels, 2)
        assert ds.labels is labels
        # a write into the array the dataset was built from would leave its clip table stale
        with pytest.raises(ValueError, match="read-only"):
            labels[:] = 1
        for column in (ds.example_ids, ds.clip_ids, ds.features, ds.labels):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        np.testing.assert_array_equal(ds.labels, [0, 0, 1, 1])
        np.testing.assert_array_equal(ds.clip_table()[2], [0, 1])

    def test_copies_a_column_that_views_a_writeable_array(self):
        # a write into the viewed array would change the labels under their clip table
        base = np.array([0, 0, 1, 1])
        ds = Dataset(np.arange(4), np.array([0, 0, 1, 1]), np.zeros((4, 1)), base[:], 2)
        base[:] = 1
        np.testing.assert_array_equal(ds.labels, [0, 0, 1, 1])
        np.testing.assert_array_equal(ds.clip_table()[2], [0, 1])
        # a view of a read-only array is kept as it is
        base.flags.writeable = False
        assert Dataset(np.arange(4), base, np.zeros((4, 1)), base[:], 2).labels.base is base

    def test_copies_annotations_that_view_writeable_arrays(self):
        ds = small_dataset()
        clean, flags = ds.labels.copy(), np.zeros(ds.n_examples, dtype=bool)
        annotated = AnnotatedDataset(ds, clean[:], flags[:])
        clean[:], flags[:] = 0, True
        np.testing.assert_array_equal(annotated.clean_labels, ds.labels)
        assert not annotated.corrupted.any()

    @pytest.mark.parametrize("rows", [4, 0])
    def test_annotations_are_kept_and_made_read_only(self, rows):
        ds = small_dataset().subset(np.arange(rows))
        clean = ds.labels.copy()
        flags = np.zeros(rows, dtype=bool)
        annotated = AnnotatedDataset(ds, clean, flags)
        assert annotated.clean_labels is clean and annotated.corrupted is flags
        kept = [clean, flags, *(annotated._clip_truth if rows else ())]
        for column in kept:
            with pytest.raises(ValueError, match="read-only"):
                column[:] = 1

    @pytest.mark.parametrize(
        "clean, flags, message",
        [
            ([1, 0, 1, 1, 0, 0], [0] * 6, "uncorrupted rows must keep label == clean_label"),
            ([0, 0, 1, 1, -5, -5], [0, 0, 0, 0, 1, 1], "clean_label -5 of clip 2 is neither"),
            ([0, 0, 1, 1, 0, 1], [0, 0, 0, 0, 0, 1], "patches of clip 2 disagree"),
            ([0, 0, 1, 1, 0], [0] * 5, "^annotations must align with the dataset rows$"),
        ],
        ids=["label_kept", "clean_label_range", "clip_agreement", "alignment"],
    )
    def test_refused_annotations_stay_writeable(self, clean, flags, message):
        clean, flags = np.array(clean, dtype=np.int64), np.array(flags, dtype=bool)
        with pytest.raises(InvalidInputError, match=message):
            AnnotatedDataset(small_dataset(), clean, flags)
        # the caller's arrays, which the refused record would have kept, are left as they were
        assert clean.flags.writeable and flags.flags.writeable
        clean[:], flags[:] = 0, False


class TestSubset:
    def test_selects_rows_by_position(self):
        ds = small_dataset()
        sub = ds.subset(np.array([4, 5]))
        np.testing.assert_array_equal(sub.example_ids, [4, 5])
        np.testing.assert_array_equal(sub.clip_ids, [2, 2])
        np.testing.assert_array_equal(sub.features, ds.features[4:])
        assert sub.num_classes == 2

    def test_boolean_mask(self):
        ds = small_dataset()
        sub = ds.subset(ds.labels == 1)
        np.testing.assert_array_equal(sub.example_ids, [2, 3])

    def test_preserves_order_given(self):
        sub = small_dataset().subset(np.array([3, 0]))
        np.testing.assert_array_equal(sub.example_ids, [3, 0])
        np.testing.assert_array_equal(sub.labels, [1, 0])

    def test_empty_selection(self):
        assert small_dataset().subset(np.array([], dtype=int)).n_examples == 0

    def test_repeated_index_refused(self):
        # an index array may name a row twice; the subset's own checks must refuse it
        with pytest.raises(InvalidInputError, match="^example ids must be unique$"):
            small_dataset().subset(np.array([0, 0]))


class TestClipAccessors:
    def test_clip_table_structure(self):
        clips, inverse, clip_labels = small_dataset().clip_table()
        np.testing.assert_array_equal(clips, [0, 1, 2])
        np.testing.assert_array_equal(inverse, [0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(clip_labels, [0, 1, 0])

    def test_clip_table_inverse_recovers_clip_ids(self):
        ds = small_dataset()
        clips, inverse, _ = ds.clip_table()
        np.testing.assert_array_equal(clips[inverse], ds.clip_ids)

    def test_clip_table_on_shuffled_rows(self):
        ds = small_dataset()
        rng = np.random.default_rng(0)
        shuffled = ds.subset(rng.permutation(6))
        clips, inverse, clip_labels = shuffled.clip_table()
        np.testing.assert_array_equal(clips, [0, 1, 2])
        np.testing.assert_array_equal(clips[inverse], shuffled.clip_ids)
        np.testing.assert_array_equal(clip_labels, [0, 1, 0])

    def test_clip_table_empty_raises(self):
        empty = small_dataset().subset(np.array([], dtype=int))
        with pytest.raises(InvalidInputError):
            empty.clip_table()

    def test_clip_table_is_built_once(self):
        ds = small_dataset()
        for first, second in zip(ds.clip_table(), ds.clip_table()):
            assert first is second

    @pytest.mark.parametrize("column", range(3))
    def test_clip_table_is_read_only(self, column):
        table = small_dataset().clip_table()
        with pytest.raises(ValueError, match="read-only"):
            table[column][0] = 1

    def test_clip_of_example_mapping(self):
        ds = small_dataset()
        assert ds.clip_of_example() == {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}

    def test_n_clips(self):
        assert np.unique(small_dataset().clip_ids).size == 3

    def test_empty_dataset_has_no_clips(self):
        assert np.unique(small_dataset().subset(np.array([], dtype=int)).clip_ids).size == 0


@st.composite
def grouped_rows(draw):
    """(group of each row, group count, row width, values). Either up to 30 rows over 1 to 8
    groups, some of them empty and some rows past the count, with 1-D values or rows of width
    1 to 4; or, as validation scores clips, the softmax rows of a seeded model's logits on
    clips of unequal patch counts, rows interleaved, grouped by the clip table's inverse."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        patches = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
        num_classes = draw(st.integers(2, 5))
        clip_of_row = np.repeat(np.arange(len(patches)) * 5 + 3, patches)
        _, inverse = np.unique(clip_of_row[rng.permutation(clip_of_row.size)], return_inverse=True)
        architecture = draw(st.sampled_from(list(Architecture)))
        params = init_params(architecture, 3, num_classes, 4, RngStream(seed).generator())
        logits = forward(params, rng.standard_normal((inverse.size, 3)))
        return inverse, len(patches), num_classes, softmax_rows(logits)
    count = draw(st.integers(1, 8))
    n = draw(st.integers(0, 30))
    group = np.asarray(draw(st.lists(st.integers(0, count + 1), min_size=n, max_size=n)))
    width = draw(st.sampled_from([None, 1, 2, 4]))
    shape = (n,) if width is None else (n, width)
    entries = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1])
    values = draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))
    return group.astype(np.int64), count, width or 1, np.asarray(values).reshape(shape)


class TestGroupMeans:
    @settings(max_examples=100, deadline=None)
    @given(grouped_rows())
    def test_each_mean_is_a_running_sum_over_the_group_size(self, case):
        group, count, width, values = case
        got = GroupMeans(group, count, width)(values)
        # np.add.at adds each group's rows one by one, in row order, from 0.0
        inside = group < count
        sums = np.zeros((count,) + values.shape[1:])
        np.add.at(sums, group[inside], values[inside])
        sizes = np.bincount(group[inside], minlength=count)
        expected = np.zeros_like(sums)
        for g in np.flatnonzero(sizes):
            expected[g] = sums[g] / sizes[g]
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert not got[sizes == 0].any()


# Reference copies of the three per-class clip draws as each once kept its own loop: the
# validation split, and the uniform and per-class clip selection of the noise injectors.
def reference_split_rows(dataset, val_fraction, seed):
    gen = RngStream(seed).generator()
    clips, _, clip_labels = dataset.clip_table()
    val_clips = []
    for cls in np.unique(clip_labels):
        class_clips = clips[clip_labels == cls]
        if class_clips.size < 2:
            raise InvalidInputError(
                f"class {int(cls)} has {class_clips.size} clip(s); need at least 2 to split"
            )
        n_val = math.ceil(val_fraction * class_clips.size)
        order = gen.permutation(class_clips.size)
        val_clips.extend(int(c) for c in class_clips[order[:n_val]])
    val_mask = np.isin(dataset.clip_ids, np.asarray(val_clips, dtype=np.int64))
    return np.flatnonzero(~val_mask), np.flatnonzero(val_mask)


def reference_noisy_clips(annotated, spec):
    """The sorted ids of the clips ``spec`` corrupts, and the generator after drawing them."""
    gen = RngStream(spec.seed, _NOISE_STREAM).generator()
    clips, inverse, clip_labels = annotated.data.clip_table()
    if spec.rate_by_class is None:
        order = gen.permutation(clips.size)
        return np.sort(clips[order[: _round_count(spec.rate * clips.size)]]), gen
    clean = np.empty(clips.size, dtype=np.int64)
    clean[inverse] = annotated.clean_labels
    original = np.where(clean >= 0, clean, clip_labels)
    selected = []
    for cls in range(annotated.data.num_classes):
        class_clips = clips[original == cls]
        count = _round_count(float(spec.rate_by_class[cls]) * class_clips.size)
        order = gen.permutation(class_clips.size)
        selected.extend(int(c) for c in class_clips[order[:count]])
    return np.sort(np.asarray(selected, dtype=np.int64)), gen


@st.composite
def clip_layouts(draw):
    """A dataset of 2 to 4 classes, each with 0 to 4 clips of 1 to 3 patches, under scattered
    clip ids and in shuffled row order."""
    num_classes = draw(st.integers(2, 4))
    clips_per_class = draw(st.lists(st.integers(0, 4), min_size=num_classes, max_size=num_classes))
    clip_classes = np.repeat(np.arange(num_classes), clips_per_class)
    if clip_classes.size == 0:
        clip_classes = np.array([draw(st.integers(0, num_classes - 1))])
    n_clips = clip_classes.size
    clip_ids = np.asarray(draw(st.permutations(range(3 * n_clips))))[:n_clips]
    patches = draw(st.lists(st.integers(1, 3), min_size=n_clips, max_size=n_clips))
    rows = np.asarray(draw(st.permutations(range(sum(patches)))))
    row_clips = np.repeat(np.arange(n_clips), patches)[rows]
    return Dataset(
        example_ids=np.arange(rows.size),
        clip_ids=clip_ids[row_clips],
        features=np.arange(2.0 * rows.size).reshape(rows.size, 2),
        labels=clip_classes[row_clips],
        num_classes=num_classes,
    )


rates = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
INJECT = {NoiseKind.SYMMETRIC_IV: inject_symmetric_noise, NoiseKind.OOV_REPLACE: inject_oov_noise}


class TestDrawClips:
    """The validation split and both noise injectors draw their clips through
    ``data.draw_clips``, and each draws exactly what its own loop once drew."""

    @settings(max_examples=60, deadline=None)
    @given(clip_layouts(), st.floats(0.01, 0.99), st.integers(0, 2**32))
    def test_split_rows_as_its_own_loop(self, dataset, val_fraction, seed):
        try:
            expected = reference_split_rows(dataset, val_fraction, seed)
        except InvalidInputError as exc:  # a class of one clip
            with pytest.raises(InvalidInputError) as excinfo:
                split_rows(dataset, val_fraction, RngStream(seed).generator())
            assert str(excinfo.value) == str(exc)
            return
        gen = RngStream(seed).generator()
        for got, want in zip(split_rows(dataset, val_fraction, gen), expected):
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        clip_layouts(), rates, st.booleans(), st.integers(0, 2**32),
        st.sampled_from([None, NoiseKind.SYMMETRIC_IV, NoiseKind.OOV_REPLACE]), st.data(),
    )
    def test_noise_masks_as_their_own_loops(self, dataset, rate, by_class, seed, prior, data):
        rate_by_class = None
        if by_class:
            rate_by_class = {cls: data.draw(rates) for cls in range(dataset.num_classes)}
        annotated = AnnotatedDataset(
            dataset, dataset.labels.copy(), np.zeros(dataset.n_examples, dtype=bool)
        )
        if prior is not None:  # a clip's original class is then not always its label
            annotated = INJECT[prior](annotated, NoiseSpec(prior, 0.5, seed + 1))
        for kind, inject in INJECT.items():
            spec = NoiseSpec(kind, rate, seed, rate_by_class)
            selected, gen = reference_noisy_clips(annotated, spec)
            noisy = inject(annotated, spec)
            rows = np.isin(annotated.data.clip_ids, selected)
            # an unpicked row keeps its flag; a picked row is corrupted unless a
            # flip restored its clean label
            np.testing.assert_array_equal(noisy.corrupted[~rows], annotated.corrupted[~rows])
            restored = (noisy.data.labels == noisy.clean_labels) & (noisy.clean_labels >= 0)
            np.testing.assert_array_equal(noisy.corrupted[rows], ~restored[rows])
            if kind is NoiseKind.SYMMETRIC_IV and selected.size:
                # the label draws follow the clip draws and land on the clips in id order
                draws = gen.integers(0, dataset.num_classes - 1, size=selected.size)
                clips, inverse, clip_labels = annotated.data.clip_table()
                clip_labels = clip_labels.copy()
                picked = np.searchsorted(clips, selected)
                old = clip_labels[picked]
                clip_labels[picked] = np.where(draws < old, draws, draws + 1)
                np.testing.assert_array_equal(noisy.data.labels, clip_labels[inverse])


def annotated_columns(annotated):
    """The bytes of each label, truth and clip-table column of ``annotated``."""
    columns = (annotated.data.labels, annotated.clean_labels, annotated.corrupted)
    return [column.tobytes() for column in columns + annotated.data.clip_table()]


@settings(max_examples=60, deadline=None)
@given(
    clip_layouts(), rates, st.integers(0, 2**32),
    st.sampled_from([None, NoiseKind.SYMMETRIC_IV, NoiseKind.OOV_REPLACE]),
)
def test_injectors_leave_their_input_unchanged(dataset, rate, seed, prior):
    annotated = AnnotatedDataset(
        dataset, dataset.labels.copy(), np.zeros(dataset.n_examples, dtype=bool)
    )
    if prior is not None:
        annotated = INJECT[prior](annotated, NoiseSpec(prior, 0.5, seed + 1))
    before = annotated_columns(annotated)
    for kind, inject in INJECT.items():
        inject(annotated, NoiseSpec(kind, rate, seed))
        assert annotated_columns(annotated) == before
