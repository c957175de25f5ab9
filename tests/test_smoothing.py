"""Tests for label smoothing and the two-group smoothing policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelnoise import (
    ConfigurationError,
    InvalidInputError,
    NoiseGroup,
    SmoothingPolicy,
    cce,
    smooth_uniform,
    smooth_with_policy,
    targets_matrix,
)


class TestSmoothUniform:
    def test_reference_row(self):
        # (1 - 0.1) + 0.1/4 and 0.1/4 are both exact in float64
        row = smooth_uniform(2, 4, 0.1)
        np.testing.assert_array_equal(row, [0.025, 0.025, 0.925, 0.025])

    def test_zero_epsilon_is_one_hot(self):
        row = smooth_uniform(1, 3, 0.0)
        np.testing.assert_array_equal(row, [0.0, 1.0, 0.0])

    def test_twenty_classes(self):
        row = smooth_uniform(7, 20, 0.15)
        assert row[7] == pytest.approx(0.8575, abs=1e-15)
        assert row[0] == pytest.approx(0.0075, abs=1e-15)

    def test_row_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(2, 30))
            t = int(rng.integers(0, k))
            eps = float(rng.uniform(0.0, 1.0))
            row = smooth_uniform(t, k, eps)
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert row.min() >= 0.0
            off = np.delete(row, t)
            assert np.all(off == off[0])
            if eps < (k - 1) / k:
                assert row.argmax() == t

    def test_epsilon_one_is_rejected(self):
        with pytest.raises(InvalidInputError):
            smooth_uniform(0, 5, 1.0)

    def test_cce_is_linear_in_the_target(self):
        # smoothing the target mixes the loss values the same way
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(2, 10))
            t = int(rng.integers(0, k))
            eps = float(rng.uniform(0.0, 0.5))
            p = rng.dirichlet(np.ones(k))
            direct = cce(smooth_uniform(t, k, eps), p)
            mixed = (1 - eps) * cce(np.eye(k)[t], p) + eps * np.mean(
                [cce(np.eye(k)[j], p) for j in range(k)]
            )
            assert direct == pytest.approx(mixed, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            smooth_uniform(3, 3, 0.1)
        with pytest.raises(InvalidInputError):
            smooth_uniform(-1, 3, 0.1)
        with pytest.raises(InvalidInputError):
            smooth_uniform(0, 1, 0.1)
        with pytest.raises(InvalidInputError):
            smooth_uniform(0, 3, -0.01)
        with pytest.raises(InvalidInputError):
            smooth_uniform(0, 3, 1.01)


class TestSmoothingPolicy:
    def test_flat_epsilon_without_groups(self):
        policy = SmoothingPolicy(epsilon=0.2)
        assert policy.effective_epsilon(0) == 0.2
        assert policy.effective_epsilon(17) == 0.2

    def test_group_offsets(self):
        groups = {0: NoiseGroup.LOW_NOISE, 1: NoiseGroup.HIGH_NOISE}
        policy = SmoothingPolicy(epsilon=0.15, delta_epsilon=0.05, group_of_class=groups)
        assert policy.effective_epsilon(0) == pytest.approx(0.1, abs=1e-15)
        assert policy.effective_epsilon(1) == 0.2  # 0.15 + 0.05 is exact

    def test_missing_class_raises(self):
        policy = SmoothingPolicy(
            epsilon=0.1, delta_epsilon=0.05, group_of_class={0: NoiseGroup.LOW_NOISE}
        )
        with pytest.raises(ConfigurationError):
            policy.effective_epsilon(1)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SmoothingPolicy(epsilon=-0.1)
        with pytest.raises(InvalidInputError):
            SmoothingPolicy(epsilon=1.2)
        with pytest.raises(InvalidInputError):
            # the HIGH_NOISE offset would push epsilon past 1
            SmoothingPolicy(epsilon=0.9, delta_epsilon=0.2)
        with pytest.raises(InvalidInputError):
            # the LOW_NOISE offset would push epsilon below 0
            SmoothingPolicy(epsilon=0.1, delta_epsilon=0.2)
        with pytest.raises(InvalidInputError):
            SmoothingPolicy(epsilon=0.1, delta_epsilon=-0.01)


class TestSmoothWithPolicy:
    def test_zero_delta_matches_uniform_bitwise(self):
        groups = {t: NoiseGroup.HIGH_NOISE if t % 2 else NoiseGroup.LOW_NOISE for t in range(6)}
        policy = SmoothingPolicy(epsilon=0.3, delta_epsilon=0.0, group_of_class=groups)
        for t in range(6):
            np.testing.assert_array_equal(
                smooth_with_policy(t, 6, policy), smooth_uniform(t, 6, 0.3)
            )

    def test_low_group_matches_reduced_epsilon(self):
        policy = SmoothingPolicy(
            epsilon=0.15, delta_epsilon=0.05, group_of_class={0: NoiseGroup.LOW_NOISE}
        )
        np.testing.assert_allclose(
            smooth_with_policy(0, 4, policy), smooth_uniform(0, 4, 0.1), atol=1e-15
        )

    def test_high_group_twenty_classes_exact(self):
        policy = SmoothingPolicy(
            epsilon=0.15, delta_epsilon=0.05, group_of_class={3: NoiseGroup.HIGH_NOISE}
        )
        row = smooth_with_policy(3, 20, policy)
        assert row[3] == 0.81
        assert row[0] == 0.01

    def test_high_group_softer_peak_than_low(self):
        groups = {0: NoiseGroup.LOW_NOISE, 1: NoiseGroup.HIGH_NOISE}
        policy = SmoothingPolicy(epsilon=0.2, delta_epsilon=0.08, group_of_class=groups)
        low = smooth_with_policy(0, 5, policy)
        high = smooth_with_policy(1, 5, policy)
        assert high[1] < low[0]


class TestTargetsMatrix:
    def test_plain_one_hot(self):
        m = targets_matrix([2, 0, 1], 3)
        np.testing.assert_array_equal(m, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])

    def test_with_policy_rows_match_scalar_op(self):
        groups = {0: NoiseGroup.LOW_NOISE, 1: NoiseGroup.HIGH_NOISE, 2: NoiseGroup.LOW_NOISE}
        policy = SmoothingPolicy(epsilon=0.2, delta_epsilon=0.1, group_of_class=groups)
        labels = [1, 2, 0, 1]
        m = targets_matrix(labels, 3, policy=policy)
        assert m.shape == (4, 3)
        for row, t in zip(m, labels):
            np.testing.assert_array_equal(row, smooth_with_policy(t, 3, policy))

    def test_empty_labels(self):
        assert targets_matrix([], 4).shape == (0, 4)

    def test_out_of_range_label(self):
        with pytest.raises(InvalidInputError):
            targets_matrix([0, 3], 3)


@st.composite
def policies(draw, num_classes, missing=frozenset()):
    """A valid policy: flat, or with a noise group for every class not in ``missing``."""
    epsilon = draw(st.floats(0.0, 0.95))
    # at most epsilon and at most half the room below 1, so both offsets stay valid
    delta = draw(st.floats(0.0, 1.0)) * min(epsilon, (1.0 - epsilon) / 2)
    if not missing and draw(st.booleans()):
        return SmoothingPolicy(epsilon, delta)
    groups = {
        cls: draw(st.sampled_from(list(NoiseGroup)))
        for cls in range(num_classes)
        if cls not in missing
    }
    return SmoothingPolicy(epsilon, delta, groups)


class TestTargetsMatrixProperties:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), num_classes=st.integers(2, 9))
    def test_rows_equal_the_per_class_policy_rows(self, data, num_classes):
        policy = data.draw(policies(num_classes))
        labels = data.draw(st.lists(st.integers(0, num_classes - 1), max_size=20))
        m = targets_matrix(labels, num_classes, policy)
        assert m.shape == (len(labels), num_classes)
        for row, t in zip(m, labels):
            assert row.tobytes() == smooth_with_policy(t, num_classes, policy).tobytes()
        for t in range(num_classes):
            row = targets_matrix([t], num_classes, policy)[0]
            assert row.tobytes() == smooth_with_policy(t, num_classes, policy).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), num_classes=st.integers(2, 9))
    def test_missing_group_names_the_first_missing_class(self, data, num_classes):
        missing = data.draw(
            st.sets(st.integers(0, num_classes - 1), min_size=1, max_size=num_classes)
        )
        policy = data.draw(policies(num_classes, frozenset(missing)))
        message = f"class {min(missing)} is missing from the noise-group map"
        with pytest.raises(ConfigurationError, match=message):
            targets_matrix([0], num_classes, policy)
        with pytest.raises(ConfigurationError, match=message):
            smooth_with_policy(min(missing), num_classes, policy)
