"""Tests for mixup pairing, warm-up gating, and the convex combination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelnoise import (
    Batch,
    ConfigurationError,
    InvalidInputError,
    MixupPolicy,
    Pairing,
    RngStream,
    apply_mixup,
    beta_draws,
    mix_pair,
)
from labelnoise.mixup import _convex_mix


def make_batch(rng, n, feat_dim=6, k=4):
    features = rng.standard_normal((n, feat_dim))
    targets = np.eye(k)[rng.integers(0, k, size=n)]
    return Batch(features=features, targets=targets)


class TestMixPair:
    def test_lambda_one_keeps_first(self):
        x, y = mix_pair(
            np.array([1.0, 2.0]), np.array([1.0, 0.0]),
            np.array([3.0, 4.0]), np.array([0.0, 1.0]),
            1.0,
        )
        np.testing.assert_array_equal(x, [1.0, 2.0])
        np.testing.assert_array_equal(y, [1.0, 0.0])

    def test_lambda_zero_keeps_second(self):
        x, y = mix_pair(
            np.array([1.0, 2.0]), np.array([1.0, 0.0]),
            np.array([3.0, 4.0]), np.array([0.0, 1.0]),
            0.0,
        )
        np.testing.assert_array_equal(x, [3.0, 4.0])
        np.testing.assert_array_equal(y, [0.0, 1.0])

    def test_midpoint(self):
        x, y = mix_pair(
            np.array([0.0, 2.0]), np.array([1.0, 0.0]),
            np.array([4.0, 0.0]), np.array([0.0, 1.0]),
            0.5,
        )
        np.testing.assert_array_equal(x, [2.0, 1.0])
        np.testing.assert_array_equal(y, [0.5, 0.5])

    def test_three_tenths(self):
        _, y = mix_pair(
            np.zeros(2), np.array([1.0, 0.0]),
            np.zeros(2), np.array([0.0, 1.0]),
            0.3,
        )
        np.testing.assert_allclose(y, [0.3, 0.7], atol=1e-15)

    def test_mix_of_one_hot_targets_has_at_most_two_nonzeros(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            i, j = rng.integers(0, k, size=2)
            lam = float(rng.uniform())
            _, y = mix_pair(np.zeros(3), np.eye(k)[i], np.zeros(3), np.eye(k)[j], lam)
            assert np.count_nonzero(y) <= 2
            assert y.sum() == pytest.approx(1.0, abs=1e-12)

    def test_result_stays_inside_the_envelope(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = rng.standard_normal(5)
            b = rng.standard_normal(5)
            lam = float(rng.uniform())
            x, _ = mix_pair(a, np.array([1.0]), b, np.array([1.0]), lam)
            assert np.all(x >= np.minimum(a, b))
            assert np.all(x <= np.maximum(a, b))

    def test_self_mix_is_identity(self):
        a = np.array([0.1, 0.2, 0.3])
        t = np.array([0.0, 1.0])
        x, y = mix_pair(a, t, a, t, 0.37)
        np.testing.assert_array_equal(x, a)
        np.testing.assert_array_equal(y, t)

    def test_lambda_out_of_range(self):
        a, t = np.zeros(2), np.array([1.0, 0.0])
        with pytest.raises(InvalidInputError):
            mix_pair(a, t, a, t, -0.1)
        with pytest.raises(InvalidInputError):
            mix_pair(a, t, a, t, 1.1)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            mix_pair(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2), 0.5)


class TestMixupPolicy:
    def test_defaults(self):
        policy = MixupPolicy(alpha=0.3)
        assert policy.warmup_epochs == 0
        assert policy.pairing == Pairing.INTRA_BATCH

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            MixupPolicy(alpha=0.0)
        with pytest.raises(InvalidInputError):
            MixupPolicy(alpha=-1.0)
        with pytest.raises(InvalidInputError):
            MixupPolicy(alpha=0.3, warmup_epochs=-1)


class TestApplyMixup:
    def test_warmup_returns_batch_unchanged(self):
        rng = np.random.default_rng(2)
        batch = make_batch(rng, 8)
        policy = MixupPolicy(alpha=0.3, warmup_epochs=5)
        out = apply_mixup(batch, None, policy, epoch=4, gen=RngStream(0, 0).generator())
        assert out is batch

    def test_active_after_warmup(self):
        rng = np.random.default_rng(3)
        batch = make_batch(rng, 16)
        policy = MixupPolicy(alpha=0.3, warmup_epochs=5)
        out = apply_mixup(batch, None, policy, epoch=5, gen=RngStream(0, 0).generator())
        assert out is not batch
        assert not np.array_equal(out.features, batch.features)

    def test_deterministic_under_same_stream(self):
        rng = np.random.default_rng(5)
        batch = make_batch(rng, 32)
        policy = MixupPolicy(alpha=0.2)
        a = apply_mixup(batch, None, policy, epoch=0, gen=RngStream(7, 3).generator())
        b = apply_mixup(batch, None, policy, epoch=0, gen=RngStream(7, 3).generator())
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_different_streams_differ(self):
        rng = np.random.default_rng(6)
        batch = make_batch(rng, 32)
        policy = MixupPolicy(alpha=0.2)
        a = apply_mixup(batch, None, policy, epoch=0, gen=RngStream(7, 3).generator())
        b = apply_mixup(batch, None, policy, epoch=0, gen=RngStream(7, 4).generator())
        assert not np.array_equal(a.features, b.features)

    def test_rows_stay_in_convex_hull_of_the_batch(self):
        rng = np.random.default_rng(7)
        batch = make_batch(rng, 24)
        policy = MixupPolicy(alpha=0.4)
        out = apply_mixup(batch, None, policy, epoch=0, gen=RngStream(11, 0).generator())
        assert np.all(out.features >= batch.features.min(axis=0) - 1e-12)
        assert np.all(out.features <= batch.features.max(axis=0) + 1e-12)
        assert np.allclose(out.targets.sum(axis=1), 1.0, atol=1e-12)

    def test_batch_of_one_self_mixes(self):
        rng = np.random.default_rng(8)
        batch = make_batch(rng, 1)
        policy = MixupPolicy(alpha=0.3)
        out = apply_mixup(batch, None, policy, epoch=0, gen=RngStream(0, 0).generator())
        np.testing.assert_array_equal(out.features, batch.features)
        np.testing.assert_array_equal(out.targets, batch.targets)

    def test_mixed_feature_mean_matches_symmetric_beta(self):
        # features 0..n-1 and E[lam] = 0.5 put the mean mixed value at (n-1)/2
        n, trials = 64, 200
        means = []
        for trial in range(trials):
            features = np.arange(n, dtype=float).reshape(n, 1)
            batch = Batch(features=features, targets=np.tile([1.0, 0.0], (n, 1)))
            gen = RngStream(100, trial).generator()
            out = apply_mixup(batch, None, MixupPolicy(alpha=0.5), epoch=0, gen=gen)
            means.append(out.features[:, 0].mean())
        assert np.mean(means) == pytest.approx((n - 1) / 2, abs=1.0)

    def test_inter_mode_requires_partner_batch(self):
        rng = np.random.default_rng(10)
        batch = make_batch(rng, 8)
        policy = MixupPolicy(alpha=0.3, pairing=Pairing.INTER_BATCH)
        with pytest.raises(ConfigurationError):
            apply_mixup(batch, None, policy, epoch=0, gen=RngStream(0, 0).generator())

    def test_inter_mode_partner_size_mismatch(self):
        rng = np.random.default_rng(11)
        batch = make_batch(rng, 8)
        partner = make_batch(rng, 6)
        policy = MixupPolicy(alpha=0.3, pairing=Pairing.INTER_BATCH)
        with pytest.raises(InvalidInputError):
            apply_mixup(batch, partner, policy, epoch=0, gen=RngStream(0, 0).generator())

    @pytest.mark.parametrize(
        "batch_widths, partner_widths",
        [((6, 4), (1, 4)), ((1, 4), (6, 4)), ((6, 4), (5, 4)), ((6, 4), (6, 1))],
        ids=["partner_one_feature", "batch_one_feature", "features", "classes"],
    )
    def test_inter_mode_partner_width_mismatch(self, batch_widths, partner_widths):
        # a width of 1 on either side would broadcast against the other; any other width fails to
        rng = np.random.default_rng(11)
        batch = make_batch(rng, 8, *batch_widths)
        partner = make_batch(rng, 8, *partner_widths)
        policy = MixupPolicy(alpha=0.3, pairing=Pairing.INTER_BATCH)
        with pytest.raises(InvalidInputError, match="^partner batch shapes must equal the batch's"):
            apply_mixup(batch, partner, policy, 0, RngStream(0, 0).generator())

    def test_inter_mode_mixes_positionally(self):
        rng = np.random.default_rng(12)
        batch = make_batch(rng, 8)
        partner = make_batch(rng, 8)
        policy = MixupPolicy(alpha=0.3, pairing=Pairing.INTER_BATCH)
        out = apply_mixup(batch, partner, policy, epoch=0, gen=RngStream(2, 0).generator())
        lo = np.minimum(batch.features, partner.features)
        hi = np.maximum(batch.features, partner.features)
        assert np.all(out.features >= lo - 1e-12)
        assert np.all(out.features <= hi + 1e-12)

    def test_advances_the_generator_it_is_given(self):
        # two calls on one generator draw a permutation then the weights, twice, in order
        rng = np.random.default_rng(14)
        batch = make_batch(rng, 8)
        policy = MixupPolicy(alpha=0.3)
        gen, reference = RngStream(9).generator(), RngStream(9).generator()
        outputs = [apply_mixup(batch, None, policy, 0, gen) for _ in range(2)]
        for out in outputs:
            perm = reference.permutation(len(batch))
            lam = beta_draws(policy.alpha, reference, len(batch))[:, None]
            expected_features = _convex_mix(batch.features, batch.features[perm], lam)
            expected_targets = _convex_mix(batch.targets, batch.targets[perm], lam)
            assert out.features.tobytes() == expected_features.tobytes()
            assert out.targets.tobytes() == expected_targets.tobytes()
        assert not np.array_equal(outputs[0].features, outputs[1].features)

    def test_epoch_before_warmup_window_is_gated(self):
        rng = np.random.default_rng(13)
        batch = make_batch(rng, 4)
        policy = MixupPolicy(alpha=0.3, warmup_epochs=5)
        assert apply_mixup(batch, None, policy, epoch=0, gen=RngStream(0, 0).generator()) is batch


class TestBatch:
    def test_row_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            Batch(features=np.zeros((3, 2)), targets=np.zeros((2, 4)))

    def test_size(self):
        batch = Batch(features=np.zeros((5, 2)), targets=np.full((5, 3), 1 / 3))
        assert len(batch) == 5


@st.composite
def batch_pairs(draw):
    """A batch and an equal-size partner: features of any sign over many scales,
    targets that are distributions (one-hot, smoothed or mixed rows). The partner
    shares about a third of its entries with the batch, where a convex mix whose
    ends are equal can round one ulp outside them."""
    n = draw(st.integers(1, 12))
    width = draw(st.integers(1, 5))
    k = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def make():
        features = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-8, 8, (n, width))
        targets = rng.dirichlet(np.full(k, 0.3), size=n)
        one_hot = rng.random(n) < 0.3
        targets[one_hot] = np.eye(k)[rng.integers(0, k, one_hot.sum())]
        return features, targets / targets.sum(axis=1, keepdims=True)

    features, targets = make()
    partner_features, partner_targets = make()
    shared = rng.random((n, width)) < 0.3
    partner_features[shared] = features[shared]
    same_row = rng.random(n) < 0.3
    partner_targets[same_row] = targets[same_row]
    return Batch(features, targets), Batch(partner_features, partner_targets)


def assert_inside_envelope(mixed, a, b):
    assert np.all(np.minimum(a, b) <= mixed) and np.all(mixed <= np.maximum(a, b))


class TestConvexityProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        pair=batch_pairs(),
        alpha=st.floats(0.05, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mixed_entries_inside_the_pair_envelope_and_targets_sum_to_one(
        self, pair, alpha, seed
    ):
        batch, partner = pair
        policy = MixupPolicy(alpha=alpha, pairing=Pairing.INTER_BATCH)
        mixed = apply_mixup(batch, partner, policy, epoch=0, gen=RngStream(seed).generator())
        assert_inside_envelope(mixed.features, batch.features, partner.features)
        assert_inside_envelope(mixed.targets, batch.targets, partner.targets)
        np.testing.assert_allclose(mixed.targets.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(pair=batch_pairs(), lam=st.floats(0.0, 1.0))
    def test_mix_pair_stays_inside_the_envelope(self, pair, lam):
        batch, partner = pair
        x, y = mix_pair(batch.features[0], batch.targets[0],
                        partner.features[0], partner.targets[0], lam)
        assert_inside_envelope(x, batch.features[0], partner.features[0])
        assert_inside_envelope(y, batch.targets[0], partner.targets[0])
        assert abs(y.sum() - 1.0) <= 1e-12


# signed zeros, infinities and NaN, where a clamp written as max/min can differ from np.clip
_EDGE_ENTRIES = [0.0, -0.0, np.inf, -np.inf, np.nan]


@st.composite
def mix_operands(draw):
    """Two (n, width) operands with edge entries among ordinary floats, and per-row weights of
    0, 1 or a Beta draw."""
    n = draw(st.integers(1, 8))
    width = draw(st.integers(1, 6))
    entry = st.one_of(st.sampled_from(_EDGE_ENTRIES), st.floats(-1e6, 1e6), st.floats())
    a, b = (
        np.array(draw(st.lists(entry, min_size=n * width, max_size=n * width))).reshape(n, width)
        for _ in range(2)
    )
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = beta_draws(draw(st.floats(0.05, 4.0)), gen, size=n)
    ends = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from([0.0, 1.0])))
    for row, end in ends.items():
        lam[row] = end
    return a, b, lam[:, None]


class TestConvexMixBits:
    @settings(max_examples=100, deadline=None)
    @given(operands=mix_operands())
    def test_equals_np_clip_of_the_mix_bit_for_bit(self, operands):
        a, b, lam = operands
        with np.errstate(all="ignore"):
            expected = np.clip(lam * a + (1 - lam) * b, np.minimum(a, b), np.maximum(a, b))
            mixed = _convex_mix(a, b, lam)
        nan = np.isnan(expected)
        np.testing.assert_array_equal(np.isnan(mixed), nan)
        np.testing.assert_array_equal(mixed[~nan].view(np.uint64), expected[~nan].view(np.uint64))
