"""Tests for the shared numeric primitives."""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import labelnoise
from labelnoise import (
    InvalidInputError,
    RngStream,
    beta_draws,
    derive_seed,
    mean_ci,
    percentile,
    softmax,
    softmax_rows,
)
from labelnoise import numerics
from labelnoise.numerics import _t_quantile

# High-precision reference values, computed once with 40-digit arithmetic
# and pasted here.
SOFTMAX_123 = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
T_975_DF1 = 12.70620473617471
CI_66_67_HALF = 6.353102368087345


class TestRngStream:
    def test_same_coordinates_reproduce_draws(self):
        a = RngStream(42, 7).generator().standard_normal(16)
        b = RngStream(42, 7).generator().standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = RngStream(42, 0).generator().standard_normal(16)
        b = RngStream(42, 1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_child_streams_are_deterministic_and_distinct(self):
        parent = RngStream(5, 3)
        assert parent.child(2) == parent.child(2)
        assert parent.child(0) != parent.child(1)
        assert parent.child(0).seed == parent.seed

    def test_child_chains_do_not_collide(self):
        """Nested derivations used by the trainer must stay distinct."""
        root = RngStream(0)
        seen = set()
        for tag in range(5):
            for epoch in range(20):
                seen.add(root.child(tag).child(epoch).stream_id)
        assert len(seen) == 100

    def test_negative_child_index_rejected(self):
        with pytest.raises(InvalidInputError) as excinfo:
            RngStream(0).child(-1)
        assert str(excinfo.value) == "stream index must lie in [0, inf), got -1"

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: RngStream(1.5), "seed must be an integer, got 1.5"),
            (lambda: RngStream("a"), 'seed must be an integer, got "a"'),
            (lambda: RngStream(1, 2.5), "stream_id must be an integer, got 2.5"),
            (lambda: RngStream(True), "seed must be an integer, got true"),
            (lambda: RngStream(1).child(1.5), "stream index must be an integer, got 1.5"),
        ],
        ids=["float_seed", "str_seed", "float_stream_id", "bool_seed", "float_child_index"],
    )
    def test_non_integer_coordinates_rejected_by_name(self, make, message):
        with pytest.raises(TypeError) as excinfo:
            make()
        assert str(excinfo.value) == message

    def test_integer_seeds_of_every_kind_draw_as_python_ints(self):
        expected = RngStream(2**64 - 1, 3).generator().integers(0, 2**62, size=4)
        stream = RngStream(np.uint64(2**64 - 1), np.int64(3))
        assert (type(stream.seed), type(stream.stream_id)) == (int, int)
        np.testing.assert_array_equal(stream.generator().integers(0, 2**62, size=4), expected)
        assert RngStream(5).child(np.int64(2)) == RngStream(5).child(2)

    # Literal values pin the seed machinery on every CPU: they are integer arithmetic, while
    # the byte-golden artifacts also depend on the SIMD level numpy dispatches to.
    @pytest.mark.parametrize(
        "seed, stream_id, index, expected",
        [
            (0, 0, 0, 10451216379200822465),
            (5, 3, 2, 1344154044715485647),
            (7, -1, 4, 13168350753275463132),
            (1, 2**64 - 1, 9, 530445201382180217),
        ],
    )
    def test_child_stream_ids_are_pinned(self, seed, stream_id, index, expected):
        assert RngStream(seed, stream_id).child(index) == RngStream(seed, expected)

    @pytest.mark.parametrize(
        "seed, stream_id, expected",
        [
            (0, 0, [8697063857760222071, 2917695245530671819, 6662434433182091798]),
            (42, 7, [14565051441774962, 855540027060222562, 8292205409807071688]),
            (2**64 - 1, -3, [3535242959829952040, 7111229975751715546, 5473610620304226040]),
        ],
    )
    def test_generator_draws_are_pinned(self, seed, stream_id, expected):
        draws = RngStream(seed, stream_id).generator().integers(0, 2**63, size=3)
        assert draws.tolist() == expected

    def test_generator_does_not_mutate_stream(self):
        stream = RngStream(9, 4)
        stream.generator().standard_normal(100)
        np.testing.assert_array_equal(
            stream.generator().standard_normal(3),
            RngStream(9, 4).generator().standard_normal(3),
        )


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_distinct_runs_get_distinct_seeds(self):
        seeds = {derive_seed(0, 1, i) for i in range(1000)}
        assert len(seeds) == 1000

    @pytest.mark.parametrize(
        "parts, expected",
        [
            ((), 0),
            ((0,), 10451216379200822465),
            ((1, 2, 3), 8899212914898005819),
            ((42, -1, 7), 2033193597468809051),
            ((2**64 + 5, 3), 5071209211373118176),
            ((-(2**63), 2**70), 8175989832550291106),
        ],
    )
    def test_values_are_pinned(self, parts, expected):
        # a part is taken mod 2**64, so negative and oversized parts have fixed values too
        assert derive_seed(*parts) == expected

    def test_fits_in_64_bits(self):
        for parts in [(0,), (2**63, 5), (1, 2, 3, 4)]:
            assert 0 <= derive_seed(*parts) < 2**64

    def test_numpy_integer_part_is_its_value(self):
        assert derive_seed(1, np.int64(5)) == derive_seed(1, 5)
        assert derive_seed(np.uint64(2**64 - 1), 3) == derive_seed(2**64 - 1, 3)

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((1, True), "seed part 1 must be an integer, got true"),
            ((1, 1.5), "seed part 1 must be an integer, got 1.5"),
            (("3",), 'seed part 0 must be an integer, got "3"'),
        ],
        ids=["bool", "float", "string"],
    )
    def test_part_that_is_no_integer_refused_by_its_position(self, parts, message):
        with pytest.raises(TypeError) as excinfo:
            derive_seed(*parts)
        assert str(excinfo.value) == message


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0, 0.0]), [0.25] * 4)

    def test_no_overflow_on_large_logits(self):
        out = softmax([1000.0, 0.0])
        assert abs(out[0] - 1.0) < 1e-12
        assert abs(out[1]) < 1e-12

    def test_reference_value(self):
        np.testing.assert_allclose(softmax([1.0, 2.0, 3.0]), SOFTMAX_123, atol=1e-15)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = rng.standard_normal(rng.integers(2, 12)) * rng.uniform(0.1, 50)
            p = softmax(z)
            assert abs(p.sum() - 1.0) < 1e-9
            shifted = softmax(z + rng.uniform(-100, 100))
            np.testing.assert_allclose(shifted, p, atol=1e-12)
            assert shifted.argmax() == p.argmax()

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            softmax([np.nan, 0.0])
        with pytest.raises(InvalidInputError):
            softmax([np.inf, 0.0])

    def test_rejects_short_or_matrix_input(self):
        with pytest.raises(InvalidInputError):
            softmax([1.0])
        with pytest.raises(InvalidInputError):
            softmax(np.zeros((2, 2)))

    def test_rows_variant_matches_vector_softmax(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((6, 5))
        rows = softmax_rows(z)
        for i in range(6):
            np.testing.assert_allclose(rows[i], softmax(z[i]), atol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 10).flatmap(
            lambda k: st.lists(
                st.lists(
                    st.one_of(
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308]),
                    ),
                    min_size=k,
                    max_size=k,
                ),
                min_size=0,
                max_size=6,
            ).map(lambda rows, k=k: np.array(rows, dtype=np.float64).reshape(len(rows), k))
        )
    )
    def test_rows_variant_matches_reduction_max_bit_for_bit(self, z):
        # the reference shifts by max(axis=1); NaN, +-inf, +-0 and values
        # near the float limit included, so the bits must match, NaN for NaN
        with np.errstate(all="ignore"):
            expected = z - z.max(axis=1, keepdims=True)
            np.exp(expected, out=expected)
            expected /= expected.sum(axis=1, keepdims=True)
            got = softmax_rows(z)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestPercentile:
    def test_single_element(self):
        assert percentile([5.0], 0) == 5.0
        assert percentile([5.0], 37.5) == 5.0
        assert percentile([5.0], 100) == 5.0

    def test_extremes(self):
        values = list(range(1, 101))
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 100.0

    def test_interpolated_reference(self):
        # idx = 0.95 * 99 = 94.05, between the 95th and 96th sorted values
        assert percentile(list(range(1, 101)), 95) == pytest.approx(95.05, abs=1e-12)

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(31)
        shuffled = rng.permutation(values)
        assert percentile(values, 73.0) == percentile(shuffled, 73.0)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = rng.standard_normal(rng.integers(1, 40))
            levels = np.sort(rng.uniform(0, 100, size=10))
            results = [percentile(values, lv) for lv in levels]
            assert all(a <= b + 1e-12 for a, b in zip(results, results[1:]))

    def test_median_of_odd_length_is_middle_element(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            values = rng.standard_normal(2 * int(rng.integers(1, 15)) + 1)
            assert percentile(values, 50) == np.sort(values)[values.size // 2]

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            percentile([], 50)
        with pytest.raises(InvalidInputError):
            percentile([1.0, np.nan], 50)
        with pytest.raises(InvalidInputError):
            percentile([1.0], -1)
        with pytest.raises(InvalidInputError):
            percentile([1.0], 100.5)


class TestBetaSampling:
    def test_draws_lie_in_unit_interval(self):
        for alpha in (0.05, 0.3, 1.0, 5.0):
            draws = beta_draws(alpha, RngStream(1, 0).generator(), size=10_000)
            assert draws.min() >= 0.0
            assert draws.max() <= 1.0

    def test_empirical_mean_is_half(self):
        """Beta(a, a) is symmetric about 1/2 for every shape value.

        At a = 1e-3 about a fifth of the gamma pairs underflow to zero, so the endpoint coin
        flip sets much of the mean."""
        for alpha in (1e-3, 0.1, 0.3, 1.0, 2.0):
            draws = beta_draws(alpha, RngStream(42, 7).generator(), size=100_000)
            assert abs(draws.mean() - 0.5) < 0.01

    def test_variance_matches_closed_form(self):
        # Var Beta(a, a) = 1 / (4 (2a + 1)); for a = 0.3 that is 0.15625
        draws = beta_draws(0.3, RngStream(13, 1).generator(), size=1_000_000)
        assert abs(draws.var() - 0.15625) < 0.002

    def test_small_alpha_concentrates_at_endpoints(self):
        # mass of Beta(0.1, 0.1) in [0, 0.1] and [0.9, 1] is about 0.813
        draws = beta_draws(0.1, RngStream(13, 2).generator(), size=1_000_000)
        tail = np.mean((draws <= 0.1) | (draws >= 0.9))
        assert tail >= 0.6

    def test_alpha_one_is_roughly_uniform(self):
        draws = beta_draws(1.0, RngStream(13, 3).generator(), size=200_000)
        hist, _ = np.histogram(draws, bins=10, range=(0, 1))
        np.testing.assert_allclose(hist / draws.size, 0.1, atol=0.01)

    def test_bit_reproducible(self):
        a = beta_draws(0.5, RngStream(3, 4).generator(), size=64)
        b = beta_draws(0.5, RngStream(3, 4).generator(), size=64)
        np.testing.assert_array_equal(a, b)

    def test_rejects_nonpositive_alpha(self):
        gen = RngStream(0).generator()
        with pytest.raises(InvalidInputError):
            beta_draws(0.0, gen, size=1)
        with pytest.raises(InvalidInputError):
            beta_draws(-0.5, gen, size=1)


class TestMeanCi:
    def test_zero_variance(self):
        assert mean_ci([66.5, 66.5, 66.5]) == (66.5, 0.0)

    def test_single_value(self):
        assert mean_ci([42.0]) == (42.0, 0.0)

    def test_two_point_reference(self):
        mean, half = mean_ci([66.0, 67.0])
        assert mean == 66.5
        assert half == pytest.approx(CI_66_67_HALF, abs=1e-9)
        assert half == pytest.approx(6.353, abs=1e-3)

    def test_uses_student_t_quantile(self):
        # two points: s = 1/sqrt(2), se = 1/2, so half = t(0.975, 1) / 2
        _, half = mean_ci([0.0, 1.0])
        assert half == pytest.approx(T_975_DF1 / 2.0, abs=1e-9)

    def test_half_width_scales_inverse_sqrt_n(self):
        """Normalizing out the t quantile leaves exact 1/sqrt(N) decay."""
        stats = pytest.importorskip("scipy.stats")
        normalized = []
        for n in (4, 16, 64):
            a = math.sqrt((n - 1) / 2.0)
            values = np.zeros(n)
            values[0] = a
            values[1] = -a
            _, half = mean_ci(values)  # sample std is exactly 1 here
            t = stats.t.ppf(0.975, df=n - 1)
            normalized.append(half * math.sqrt(n) / t)
        np.testing.assert_allclose(normalized, 1.0, atol=1e-9)

    def test_wider_interval_at_higher_level(self):
        values = [1.0, 2.0, 4.0, 8.0]
        _, h90 = mean_ci(values, level=0.90)
        _, h99 = mean_ci(values, level=0.99)
        assert h99 > h90

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            mean_ci([])
        with pytest.raises(InvalidInputError):
            mean_ci([1.0, 2.0], level=1.0)
        with pytest.raises(InvalidInputError):
            mean_ci([1.0, 2.0], level=0.0)


class TestTQuantile:
    # 40-digit references at the double nearest each p: the closed forms
    # cot(pi (1 - p)) for df 1 and (2p - 1) / sqrt(2p (1 - p)) for df 2, else
    # the root of the regularized incomplete beta function. scipy.stats.t.ppf
    # is 21 ulps off at df 6, p 0.975. At df 1000 the sums run to hundreds of
    # terms and the tail to thousands. The last two rows sit at the switch
    # t^2 (df + 2) = 6 df: just past it, on the tail side, at df 1000, and just
    # before it, on the head side, at df 30.
    @pytest.mark.parametrize(
        "df, p, expected, ulps",
        [
            (1, 0.6, 0.32491969623290623, 2),
            (1, 0.75, 1.0, 2),
            (1, 0.975, 12.706204736174694, 2),
            (1, 0.99995, 6366.197671316637, 2),
            (2, 0.6, 0.2886751345948128, 2),
            (2, 0.75, 0.816496580927726, 2),
            (2, 0.975, 4.302652729749462, 2),
            (2, 0.99995, 99.99249984375004, 2),
            (3, 0.75, 0.7648923284043453, 4),
            (3, 0.975, 3.1824463052837086, 4),
            (3, 0.99995, 28.000130010950006, 4),
            (6, 0.75, 0.7175581964914126, 4),
            (6, 0.975, 2.4469118511449692, 4),
            (6, 0.99995, 9.08234632729417, 4),
            (30, 0.75, 0.6827556933212926, 4),
            (30, 0.975, 2.0422724563012378, 4),
            (30, 0.99995, 4.482417175409786, 4),
            (1000, 0.75, 0.6747351646070094, 32),
            (1000, 0.975, 1.962339080826408, 32),
            (1000, 0.99995, 3.9063437367014084, 32),
            (1000, 0.9927127319388392, 2.4470439221619844, 2),
            (30, 0.987811512245317, 2.370708245126283, 10),
        ],
    )
    def test_within_ulps_of_references(self, df, p, expected, ulps):
        assert abs(_t_quantile(p, df) - expected) <= ulps * math.ulp(expected)

    def test_median_is_zero(self):
        for df in (1, 2, 3, 10, 1000):
            assert _t_quantile(0.5, df) == 0.0

    def test_newton_steps_that_never_settle_raise(self, monkeypatch):
        # each step moves t by 0.001 and stays inside the bracket [0, 4.30], so the
        # iteration runs out of steps
        monkeypatch.setattr(numerics, "_t_excess", lambda *args: (-1.0, 1000.0))
        with pytest.raises(ArithmeticError) as excinfo:
            _t_quantile(0.975, 6)
        assert str(excinfo.value) == "t quantile did not converge at p=0.975, df=6"

    @settings(max_examples=300, deadline=None)
    @given(df=st.integers(1, 1000), level=st.floats(0.5, 0.9999))
    def test_matches_scipy(self, df, level):
        stats = pytest.importorskip("scipy.stats")
        p = 0.5 * (1.0 + level)
        assert _t_quantile(p, df) == pytest.approx(stats.t.ppf(p, df), rel=1e-12, abs=0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        df=st.integers(1, 1000),
        level=st.floats(0.5, 0.9998),
        gap=st.floats(1e-6, 0.1),
    )
    def test_rises_with_level_and_falls_with_df(self, df, level, gap):
        p = 0.5 * (1.0 + level)
        higher = 0.5 * (1.0 + min(level + gap, 0.9999))
        assert _t_quantile(higher, df) > _t_quantile(p, df)
        assert _t_quantile(p, df + 1) < _t_quantile(p, df)


def test_import_loads_no_scipy():
    code = (
        "import sys, labelnoise, labelnoise.cli;"
        " print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(labelnoise.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_all_lists_every_public_name_and_no_module():
    listed = set(labelnoise.__all__)
    assert all(not isinstance(getattr(labelnoise, name), ModuleType) for name in listed)
    public = {
        name for name, value in vars(labelnoise).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert listed == public
    assert labelnoise.__all__ == sorted(listed)
