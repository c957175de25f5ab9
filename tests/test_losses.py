"""Tests for the loss functions and their gradients."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelnoise import (
    InvalidInputError,
    LossKind,
    LossReport,
    LossSpec,
    batch_losses,
    cce,
    loss_gradient_wrt_logits,
    loss_gradients_from_probs,
    lq_loss,
    mae,
    softmax,
)
from labelnoise.losses import _check_loss_values
from labelnoise.numerics import softmax_rows

CCE_SOFT_REFERENCE = 1.0397207708399180  # 1.5 * ln 2, for the pair below
LQ_HALF_Q07 = 0.5491825618964880         # (1 - 0.5^0.7) / 0.7

ALL_SPECS = [
    LossSpec(LossKind.CCE),
    LossSpec(LossKind.MAE),
    LossSpec(LossKind.LQ, q=0.3),
    LossSpec(LossKind.LQ, q=0.5),
    LossSpec(LossKind.LQ, q=0.7),
    LossSpec(LossKind.LQ, q=1.0),
]


def one_hot(t, k):
    y = np.zeros(k)
    y[t] = 1.0
    return y


def scalar_loss(spec, y, p):
    if spec.kind == LossKind.CCE:
        return cce(y, p)
    if spec.kind == LossKind.MAE:
        return mae(y, p)
    return lq_loss(y, p, spec.q)


class TestLossSpec:
    def test_lq_requires_q_in_range(self):
        with pytest.raises(InvalidInputError):
            LossSpec(LossKind.LQ)
        with pytest.raises(InvalidInputError):
            LossSpec(LossKind.LQ, q=0.0)
        with pytest.raises(InvalidInputError):
            LossSpec(LossKind.LQ, q=1.5)
        assert LossSpec(LossKind.LQ, q=1.0).q == 1.0

    def test_cce_ignores_q(self):
        assert LossSpec(LossKind.CCE).q is None


class TestCce:
    def test_uniform_prediction(self):
        assert cce(one_hot(2, 4), np.full(4, 0.25)) == pytest.approx(math.log(4))

    def test_perfect_prediction(self):
        assert cce(one_hot(0, 3), [1.0, 0.0, 0.0]) == 0.0

    def test_soft_target_reference(self):
        value = cce([0.5, 0.5, 0.0, 0.0], [0.5, 0.25, 0.125, 0.125])
        assert value == pytest.approx(CCE_SOFT_REFERENCE, abs=1e-12)
        assert value == pytest.approx(1.039721, abs=1e-6)

    def test_zero_probability_is_floored_not_infinite(self):
        value = cce(one_hot(0, 2), [0.0, 1.0])
        assert math.isfinite(value)
        assert value == pytest.approx(-math.log(1e-12))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            cce([1.0, 0.0], [0.5, 0.25, 0.25])


class TestMae:
    def test_one_hot_form(self):
        assert mae(one_hot(1, 3), [0.4, 0.3, 0.3]) == pytest.approx(1.4)

    def test_identity(self):
        assert mae([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_soft_target_reference(self):
        assert mae([0.5, 0.5, 0.0, 0.0], np.full(4, 0.25)) == pytest.approx(1.0)

    def test_bounded_by_two(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            y = rng.dirichlet(np.ones(k))
            p = rng.dirichlet(np.ones(k))
            assert 0.0 <= mae(y, p) <= 2.0 + 1e-12


class TestLqLoss:
    def test_q_one_reduces_to_one_minus_pt(self):
        assert lq_loss(one_hot(0, 4), [0.3, 0.4, 0.2, 0.1], 1.0) == pytest.approx(0.7)

    def test_q_one_is_exactly_one_minus_dot(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            y = rng.dirichlet(np.ones(k))
            p = rng.dirichlet(np.ones(k))
            assert lq_loss(y, p, 1.0) == 1.0 - float(y @ p)

    def test_q_one_is_half_mae_for_one_hot(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            p = softmax(rng.standard_normal(k))
            y = one_hot(int(rng.integers(0, k)), k)
            assert lq_loss(y, p, 1.0) == pytest.approx(mae(y, p) / 2.0, abs=1e-12)

    def test_reference_value(self):
        value = lq_loss(one_hot(0, 2), [0.5, 0.5], 0.7)
        assert value == pytest.approx(LQ_HALF_Q07, abs=1e-12)
        assert value == pytest.approx(0.549175, abs=1e-5)

    def test_small_q_approaches_cce(self):
        value = lq_loss(one_hot(0, 2), [0.5, 0.5], 1e-6)
        assert value == pytest.approx(math.log(2), abs=1e-6)

    def test_limit_property_one_hot(self):
        """|lq - cce| < 10 q over 1000 frozen one-hot cases, both small q."""
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = rng.dirichlet(np.full(6, 5.0))
            y = one_hot(int(rng.integers(0, 6)), 6)
            base = cce(y, p)
            for q in (1e-3, 1e-4):
                assert abs(lq_loss(y, p, q) - base) < 10.0 * q

    def test_rejects_q_outside_range(self):
        with pytest.raises(InvalidInputError):
            lq_loss([1.0, 0.0], [0.5, 0.5], 0.0)
        with pytest.raises(InvalidInputError):
            lq_loss([1.0, 0.0], [0.5, 0.5], 1.01)


class TestBatchLosses:
    def test_empty_batch(self):
        report = batch_losses(LossSpec(LossKind.CCE), [], [], [])
        assert len(report) == 0

    def test_identical_rows_identical_values(self):
        y = np.tile(one_hot(1, 3), (5, 1))
        p = np.tile([0.2, 0.5, 0.3], (5, 1))
        report = batch_losses(LossSpec(LossKind.MAE), y, p, np.arange(5))
        assert np.all(report.per_example == report.per_example[0])

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_matches_scalar_ops_elementwise(self, spec):
        rng = np.random.default_rng(3)
        k, n = 5, 32
        y = rng.dirichlet(np.ones(k), size=n)
        p = rng.dirichlet(np.ones(k), size=n)
        ids = rng.permutation(n)
        report = batch_losses(spec, y, p, ids)
        np.testing.assert_array_equal(report.example_ids, ids)
        for i in range(n):
            assert report.per_example[i] == pytest.approx(
                scalar_loss(spec, y[i], p[i]), abs=1e-12
            )

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            batch_losses(LossSpec(LossKind.CCE), np.eye(3), np.eye(3), [0, 1])


class TestLossReport:
    def test_rejects_misaligned_ids(self):
        with pytest.raises(InvalidInputError):
            LossReport(np.ones(3), np.arange(2))

    def test_rejects_negative_or_non_finite(self):
        with pytest.raises(InvalidInputError):
            LossReport(np.array([0.5, -0.1]), np.arange(2))
        with pytest.raises(InvalidInputError):
            LossReport(np.array([0.5, np.nan]), np.arange(2))


class TestCheckLossValues:
    """The one loss-value rule: it raises exactly when some value is not finite or is below 0,
    and otherwise returns the values' float sum, bit for bit, an overflowed one included.
    numpy warns of a sum that overflows, as of any; the test silences that warning."""

    @given(
        values=st.lists(
            st.one_of(
                st.floats(),
                st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, -5e-324, 1e308]),
            ),
            max_size=8,
        )
    )
    @example(values=[1e308, 1e308])
    @example(values=[1e308, 1e308, np.nan])
    @example(values=[-0.0, -0.0])
    @example(values=[])
    @settings(max_examples=300, deadline=None)
    def test_raises_exactly_on_a_bad_value_and_returns_the_sum(self, values):
        values = np.array(values, dtype=np.float64)
        bad = not np.isfinite(values).all() or (values < 0).any()
        with np.errstate(over="ignore"):
            if bad:
                with pytest.raises(
                    InvalidInputError, match=r"^loss values must be finite and non-negative$"
                ):
                    _check_loss_values(values)
            else:
                assert _check_loss_values(values).hex() == float(values.sum()).hex()


def finite_difference(spec, y, z, h=1e-4):
    """The fourth-order five-point stencil at h=1e-4.

    Central differences at h=1e-6 carry about 1e-10 of rounding noise, which
    is above the 1e-5 relative bar for gradients near 1e-6. Here rounding
    costs about 18 ulp / 12h, near 2e-12, and truncation O(h^4) less still.
    """
    grad = np.empty_like(z)
    for i in range(z.size):
        def loss_at(step):
            moved = z.copy()
            moved[i] += step * h
            return scalar_loss(spec, y, softmax(moved))

        grad[i] = (loss_at(-2) - 8 * loss_at(-1) + 8 * loss_at(1) - loss_at(2)) / (12 * h)
    return grad


def random_case(rng, one_hot_target):
    k = int(rng.integers(2, 8))
    z = rng.standard_normal(k) * 2.0
    if one_hot_target:
        y = one_hot(int(rng.integers(0, k)), k)
    else:
        y = rng.dirichlet(np.ones(k))
    return y, z


class TestGradients:
    def test_cce_one_hot_closed_form(self):
        grad = loss_gradient_wrt_logits(LossSpec(LossKind.CCE), [1.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(grad, [-0.5, 0.5], atol=1e-15)

    def test_lq_q1_closed_form(self):
        grad = loss_gradient_wrt_logits(
            LossSpec(LossKind.LQ, q=1.0), [1.0, 0.0], [0.0, 0.0]
        )
        np.testing.assert_allclose(grad, [-0.25, 0.25], atol=1e-15)

    def test_cce_stationary_at_matching_prediction(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = rng.standard_normal(int(rng.integers(2, 8)))
            grad = loss_gradient_wrt_logits(LossSpec(LossKind.CCE), softmax(z), z)
            assert np.abs(grad).max() < 1e-9

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    @pytest.mark.parametrize("one_hot_target", [True, False], ids=["onehot", "soft"])
    def test_matches_central_differences(self, spec, one_hot_target):
        # crc32 rather than hash(): string hashes change with PYTHONHASHSEED
        case = f"{spec.kind.value} {spec.q} {one_hot_target}"
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        checked = 0
        while checked < 100:
            y, z = random_case(rng, one_hot_target)
            p = softmax(z)
            if spec.kind == LossKind.MAE and np.abs(p - y).min() < 1e-4:
                continue  # the |.| kink breaks central differences
            analytic = loss_gradient_wrt_logits(spec, y, z)
            numeric = finite_difference(spec, y, z)
            scale = max(float(np.abs(numeric).max()), 1e-6)
            assert np.abs(analytic - numeric).max() / scale < 1e-5
            checked += 1

    def test_lq_to_cce_gradient_norm_ratio(self):
        """For one-hot targets the ratio is exactly p_t to the power q."""
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            z = rng.standard_normal(k) * 2.0
            t = int(rng.integers(0, k))
            y = one_hot(t, k)
            q = float(rng.uniform(0.05, 1.0))
            g_cce = loss_gradient_wrt_logits(LossSpec(LossKind.CCE), y, z)
            g_lq = loss_gradient_wrt_logits(LossSpec(LossKind.LQ, q=q), y, z)
            ratio = np.linalg.norm(g_lq) / np.linalg.norm(g_cce)
            assert abs(ratio - softmax(z)[t] ** q) < 1e-9

    def test_ratio_monotone_in_confidence(self):
        # more confident correct predictions are downweighted less by LQ
        q = 0.7
        ratios = []
        for logit in (0.0, 1.0, 2.0, 3.0):
            z = np.array([logit, 0.0, 0.0])
            y = one_hot(0, 3)
            g_cce = loss_gradient_wrt_logits(LossSpec(LossKind.CCE), y, z)
            g_lq = loss_gradient_wrt_logits(LossSpec(LossKind.LQ, q=q), y, z)
            ratios.append(np.linalg.norm(g_lq) / np.linalg.norm(g_cce))
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_batch_gradients_match_single_rows(self):
        rng = np.random.default_rng(6)
        spec = LossSpec(LossKind.LQ, q=0.5)
        z = rng.standard_normal((8, 4))
        labels = rng.integers(0, 4, size=8)
        y = np.eye(4)[labels]
        p = np.vstack([softmax(row) for row in z])
        grads = loss_gradients_from_probs(spec, y, p)
        for i in range(8):
            np.testing.assert_allclose(
                grads[i], loss_gradient_wrt_logits(spec, y[i], z[i]), atol=1e-12
            )

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            loss_gradient_wrt_logits(LossSpec(LossKind.CCE), [1.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(InvalidInputError):
            loss_gradients_from_probs(LossSpec(LossKind.CCE), np.eye(3), np.eye(4))


class TestMaeNoiseRobustness:
    def test_noisy_argmin_matches_clean_argmin(self):
        """Symmetric label flips below rate (K-1)/K leave the MAE optimum alone.

        The expected noisy MAE is computed by exhaustive enumeration of the
        K possible observed labels; its minimizer over a candidate set of
        predictions must be the clean target itself, same as for clean MAE.
        """
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            t = int(rng.integers(0, k))
            eta = float(rng.uniform(0.0, 0.95 * (k - 1) / k))
            clean = one_hot(t, k)
            candidates = [one_hot(j, k) for j in range(k)]
            candidates += [rng.dirichlet(np.ones(k)) for _ in range(8)]

            def expected_noisy_mae(p):
                value = (1.0 - eta) * mae(clean, p)
                for j in range(k):
                    if j != t:
                        value += eta / (k - 1) * mae(one_hot(j, k), p)
                return value

            noisy_best = min(candidates, key=expected_noisy_mae)
            clean_best = min(candidates, key=lambda p: mae(clean, p))
            np.testing.assert_array_equal(noisy_best, clean)
            np.testing.assert_array_equal(clean_best, clean)


# Logit vectors wide enough to push some probabilities under PROB_FLOOR.
logit_vectors = st.lists(
    st.floats(-60.0, 60.0, allow_nan=False), min_size=2, max_size=10
).map(np.asarray)


@st.composite
def target_and_logits(draw):
    z = draw(logit_vectors)
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=z.size, max_size=z.size))
    y = np.asarray(weights)
    if y.sum() == 0.0:
        y = one_hot(draw(st.integers(0, z.size - 1)), z.size)
    return y / y.sum(), z


class TestScalarFormsAreBatchRows:
    """The scalar functions wrap the batch formulas, so they agree bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(z=logit_vectors)
    def test_softmax_is_the_softmax_rows_row(self, z):
        assert softmax(z).tobytes() == softmax_rows(z[None, :])[0].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=target_and_logits())
    def test_cce_and_mae_are_the_batch_row(self, case):
        y, z = case
        p = softmax(z)
        for spec, scalar in ((LossSpec(LossKind.CCE), cce), (LossSpec(LossKind.MAE), mae)):
            row = batch_losses(spec, y[None, :], p[None, :], [0]).per_example[0]
            assert scalar(y, p) == row


# Stated before the property was run: each Lq value is (1 - dot**q) / q, whose
# subtraction can lose a few ulps of 1.0, magnified by 1/q <= 1000 over the q
# drawn here, and the cross-entropy sums at most ten terms of at most 27.7
# (-log PROB_FLOOR). Both errors stay far below 1e-12 in absolute terms.
LQ_ORDER_TOLERANCE = 1e-12


class TestLqOverQ:
    """(1 - u^q) / q falls as q grows and lies below -log u, which Jensen's
    inequality puts below the cross-entropy of any target distribution."""

    @settings(max_examples=300, deadline=None)
    @given(
        case=target_and_logits(),
        qs=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=2).map(sorted),
    )
    def test_non_increasing_in_q_and_at_most_cce(self, case, qs):
        y, z = case
        p = softmax(z)
        low, high = (lq_loss(y, p, q) for q in qs)
        assert high <= low + LQ_ORDER_TOLERANCE
        assert low <= cce(y, p) + LQ_ORDER_TOLERANCE
