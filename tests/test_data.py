"""Tests for the Dataset container."""

import numpy as np
import pytest

from labelnoise import Dataset, InvalidInputError


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

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            Dataset(
                example_ids=np.arange(3),
                clip_ids=np.zeros(3, dtype=int),
                features=np.zeros((2, 2)),
                labels=np.zeros(3, dtype=int),
                num_classes=2,
            )

    def test_duplicate_example_ids(self):
        with pytest.raises(InvalidInputError):
            Dataset(
                example_ids=np.array([0, 0]),
                clip_ids=np.array([0, 1]),
                features=np.zeros((2, 2)),
                labels=np.array([0, 1]),
                num_classes=2,
            )

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

    def test_features_must_be_2d(self):
        with pytest.raises(InvalidInputError):
            Dataset(
                example_ids=np.arange(2),
                clip_ids=np.zeros(2, dtype=int),
                features=np.zeros(2),
                labels=np.zeros(2, dtype=int),
                num_classes=2,
            )

    def test_fewer_than_two_classes(self):
        with pytest.raises(InvalidInputError):
            Dataset(
                example_ids=np.arange(2),
                clip_ids=np.arange(2),
                features=np.zeros((2, 2)),
                labels=np.zeros(2, dtype=int),
                num_classes=1,
            )

    def test_patches_of_one_clip_share_a_label(self):
        with pytest.raises(InvalidInputError):
            Dataset(
                example_ids=np.arange(2),
                clip_ids=np.array([7, 7]),
                features=np.zeros((2, 2)),
                labels=np.array([0, 1]),
                num_classes=2,
            )


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

    def test_clip_of_example_mapping(self):
        ds = small_dataset()
        assert ds.clip_of_example() == {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}

    def test_n_clips(self):
        assert np.unique(small_dataset().clip_ids).size == 3

    def test_empty_dataset_has_no_clips(self):
        assert np.unique(small_dataset().subset(np.array([], dtype=int)).clip_ids).size == 0
