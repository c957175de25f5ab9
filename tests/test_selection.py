"""Tests for selection thresholds, batch discard, and clip pruning."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelnoise import (
    ConfigurationError,
    Dataset,
    InvalidInputError,
    LossReport,
    PruneRecord,
    SelectionRule,
    StagePlan,
    Strategy,
    clip_losses,
    discard_mask,
    percentile,
    prune_dataset,
    prune_report_rows,
    read_prune_report,
    write_prune_report,
)


def report(values):
    values = np.asarray(values, dtype=float)
    return LossReport(values, np.arange(values.size))


class TestSelectionRule:
    def test_constructors(self):
        assert SelectionRule.max_fraction(0.93).fraction == 0.93
        assert SelectionRule.at_percentile(75.0).level == 75.0

    def test_fraction_bounds(self):
        with pytest.raises(InvalidInputError):
            SelectionRule.max_fraction(-0.1)
        with pytest.raises(InvalidInputError):
            SelectionRule.max_fraction(1.5)
        SelectionRule.max_fraction(0.0)
        SelectionRule.max_fraction(1.0)

    def test_level_bounds(self):
        with pytest.raises(InvalidInputError):
            SelectionRule.at_percentile(-1.0)
        with pytest.raises(InvalidInputError):
            SelectionRule.at_percentile(100.5)

    def test_missing_parameter(self):
        from labelnoise import SelectionKind

        with pytest.raises(InvalidInputError):
            SelectionRule(SelectionKind.MAX_FRACTION)
        with pytest.raises(InvalidInputError):
            SelectionRule(SelectionKind.PERCENTILE)

    @pytest.mark.parametrize("kind, stray", [("max_fraction", "level"), ("percentile", "fraction")])
    def test_parameter_of_the_other_kind_refused(self, kind, stray):
        message = f"^{stray} does not apply to the {kind} rule$"
        with pytest.raises(ConfigurationError, match=message):
            SelectionRule(kind, fraction=0.5, level=50.0)


class TestPercentileRule:
    def test_mask_keeps_values_at_or_below_the_percentile(self):
        rng = np.random.default_rng(0)
        values = rng.exponential(size=40)
        mask = discard_mask(report(values), SelectionRule.at_percentile(80.0), 0, 0)
        np.testing.assert_array_equal(mask, values <= percentile(values, 80.0))
        assert mask.sum() == 32

    @pytest.mark.parametrize(
        "values, level, message",
        [
            ([1.0, np.nan], 50, "percentile requires finite values"),
            ([], 50, "percentile of an empty sequence"),
            ([1.0], -1, r"percentile level must lie in \[0, 100\], got -1"),
        ],
    )
    def test_public_percentile_keeps_its_checks(self, values, level, message):
        with pytest.raises(InvalidInputError, match=rf"^{message}$"):
            percentile(values, level)


class TestDiscardMask:
    @pytest.mark.parametrize(
        "values, fraction, epoch, kept",
        [
            # with fraction 1 the max itself sits on the threshold and is kept
            ([1.0, 2.0], 1.0, 5, [True, True]),
            ([1.0, 3.72, 3.8, 4.0], 0.93, 5, [True, True, False, False]),
            # threshold 5.0 < both losses, so the minimum-loss instance survives
            ([10.0, 10.1], 0.495, 0, [True, False]),
            ([7.0, 7.0, 9.0], 0.1, 0, [True, True, False]),
        ],
        ids=[
            "boundary_keeps_values_at_the_threshold", "rejects_above_threshold",
            "min_loss_guard_when_everything_would_drop", "guard_keeps_all_tied_minima",
        ],
    )
    def test_threshold_and_guard(self, values, fraction, epoch, kept):
        mask = discard_mask(report(values), SelectionRule.max_fraction(fraction), epoch, 0)
        np.testing.assert_array_equal(mask, kept)

    def test_epoch_gating(self):
        rule = SelectionRule.max_fraction(0.5)
        values = report([1.0, 10.0])
        np.testing.assert_array_equal(discard_mask(values, rule, 2, 3), [True, True])
        np.testing.assert_array_equal(discard_mask(values, rule, 3, 3), [True, False])

    def test_all_equal_losses_all_kept(self):
        mask = discard_mask(report([2.0, 2.0, 2.0]), SelectionRule.max_fraction(0.93), 0, 0)
        assert mask.all()

    def test_at_least_one_instance_always_survives(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            values = rng.exponential(size=n)
            fraction = float(rng.uniform())
            mask = discard_mask(report(values), SelectionRule.max_fraction(fraction), 9, 0)
            assert mask.any()

    def test_kept_set_grows_with_the_fraction(self):
        rng = np.random.default_rng(2)
        values = report(rng.exponential(size=30))
        previous = None
        for fraction in (0.2, 0.5, 0.8, 1.0):
            kept = discard_mask(values, SelectionRule.max_fraction(fraction), 1, 0)
            if previous is not None:
                assert np.all(previous <= kept)
            previous = kept

    def test_empty_report(self):
        with pytest.raises(InvalidInputError):
            discard_mask(report([]), SelectionRule.max_fraction(0.9), 0, 0)

    # the batch threshold reads a LossReport's checked values; the report and the
    # mask refuse what the threshold cannot take, under either rule
    @pytest.mark.parametrize(
        "rule", [SelectionRule.max_fraction(0.9), SelectionRule.at_percentile(70.0)]
    )
    @pytest.mark.parametrize(
        "values, message",
        [
            ([1.0, np.nan], "loss values must be finite and non-negative"),
            ([np.inf, 1.0], "loss values must be finite and non-negative"),
            ([-0.5, 1.0], "loss values must be finite and non-negative"),
            ([], "cannot build a mask for an empty loss report"),
        ],
    )
    def test_threshold_inputs_are_checked(self, rule, values, message):
        with pytest.raises(InvalidInputError, match=rf"^{message}$"):
            discard_mask(report(values), rule, 0, 0)


class TestClipLosses:
    def test_mean_over_patches(self):
        patch = LossReport(np.array([1.0, 3.0, 5.0]), np.array([10, 11, 12]))
        losses = clip_losses(patch, {10: 0, 11: 0, 12: 1})
        assert losses == {0: 2.0, 1: 5.0}

    def test_single_patch_clips(self):
        patch = LossReport(np.array([0.25, 0.5]), np.array([3, 4]))
        assert clip_losses(patch, {3: 7, 4: 9}) == {7: 0.25, 9: 0.5}

    def test_missing_clip_assignment(self):
        patch = LossReport(np.array([1.0]), np.array([0]))
        with pytest.raises(ConfigurationError):
            clip_losses(patch, {1: 0})

    @settings(max_examples=200, deadline=None)
    @given(
        patches=st.lists(st.integers(1, 5), min_size=1, max_size=12),
        losses=st.lists(
            st.floats(0.0, 1e6, allow_subnormal=True) | st.sampled_from([0.0, 1e-300, 0.1]),
            min_size=60,
            max_size=60,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_a_running_sum_bit_for_bit(self, patches, losses, seed):
        # shuffled rows, sparse clip ids, unequal patch counts per clip
        rng = np.random.default_rng(seed)
        clips = rng.choice(10**9, size=len(patches), replace=False)
        order = rng.permutation(sum(patches))
        clip_ids = np.repeat(clips, patches)[order]
        example_ids = rng.choice(10**12, size=order.size, replace=False)
        values = np.asarray(losses[: order.size])
        mapping = dict(zip(example_ids.tolist(), clip_ids.tolist()))

        got = clip_losses(LossReport(values, example_ids), mapping)
        # the mean as a Python loop adds it: in row order, from 0.0
        sums, counts = {}, {}
        for clip, value in zip(clip_ids.tolist(), values.tolist()):
            sums[clip] = sums.get(clip, 0.0) + value
            counts[clip] = counts.get(clip, 0) + 1
        reference = {clip: sums[clip] / counts[clip] for clip in sums}

        assert {c: v.hex() for c, v in got.items()} == {c: v.hex() for c, v in reference.items()}
        assert all(type(c) is int and type(v) is float for c, v in got.items())


def patch_dataset():
    # clips 0..3, two patches each, labels balanced over two classes
    return Dataset(
        example_ids=np.arange(8),
        clip_ids=np.repeat(np.arange(4), 2),
        features=np.arange(16, dtype=float).reshape(8, 2),
        labels=np.repeat([0, 0, 1, 1], 2),
        num_classes=2,
    )


class TestPruneDataset:
    def test_removes_top_k_by_loss(self):
        ds = patch_dataset()
        kept, removed = prune_dataset(ds, {0: 1.0, 1: 9.0, 2: 3.0, 3: 7.0}, 2)
        assert removed == [1, 3]
        np.testing.assert_array_equal(np.unique(kept.clip_ids), [0, 2])
        assert kept.n_examples == 4

    def test_keeps_original_row_order(self):
        ds = patch_dataset()
        kept, _ = prune_dataset(ds, {0: 1.0, 1: 9.0, 2: 3.0, 3: 7.0}, 1)
        np.testing.assert_array_equal(kept.example_ids, [0, 1, 4, 5, 6, 7])

    def test_zero_count_is_identity(self):
        ds = patch_dataset()
        kept, removed = prune_dataset(ds, {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}, 0)
        assert kept is ds
        assert removed == []

    def test_tie_break_removes_higher_clip_id_first(self):
        ds = patch_dataset()
        _, removed = prune_dataset(ds, {0: 5.0, 1: 5.0, 2: 5.0, 3: 1.0}, 2)
        assert removed == [2, 1]

    def test_count_must_leave_a_clip(self):
        ds = patch_dataset()
        with pytest.raises(InvalidInputError) as excinfo:
            prune_dataset(ds, {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}, 4)
        assert str(excinfo.value) == "prune_count must lie in [0, 4), got 4"

    def test_missing_loss_entry(self):
        ds = patch_dataset()
        with pytest.raises(ConfigurationError):
            prune_dataset(ds, {0: 1.0, 1: 2.0, 2: 3.0}, 1)

    # True once removed clip 3, and 1.5 failed in numpy's slice (a count below 0 is in the
    # bounds table of test_config.py)
    @pytest.mark.parametrize("count, shown", [(True, "true"), (1.5, "1.5")])
    def test_count_that_is_no_integer_is_refused(self, count, shown):
        with pytest.raises(TypeError) as excinfo:
            prune_dataset(patch_dataset(), {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}, count)
        assert str(excinfo.value) == f"prune_count must be an integer, got {shown}"

    def test_extra_loss_entries_are_ignored(self):
        ds = patch_dataset()
        losses = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0, 99: 100.0}
        _, removed = prune_dataset(ds, losses, 1)
        assert removed == [3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -5.0])
    @pytest.mark.parametrize("count", [0, 2])
    def test_loss_that_is_not_finite_and_non_negative_is_refused(self, bad, count):
        # a NaN once ranked below every loss, so count 2 removed clips 0 and 1
        ds = patch_dataset()
        with pytest.raises(
            InvalidInputError, match=r"^loss values must be finite and non-negative$"
        ):
            prune_dataset(ds, {0: 1.0, 1: bad, 2: 3.0, 3: 7.0}, count)
        # an ignored entry is not checked
        _, removed = prune_dataset(ds, {0: 1.0, 1: 2.0, 2: 3.0, 3: 7.0, 99: bad}, count)
        assert removed == [3, 2][:count]

    def test_empty_dataset_has_no_clips(self):
        empty = patch_dataset().subset(np.arange(0))
        with pytest.raises(InvalidInputError, match=r"^empty dataset has no clips$"):
            prune_dataset(empty, {}, 0)

    def test_top_k_equals_percentile_threshold(self):
        # removing k of n clips keeps exactly those at or below the
        # 100 (1 - k/n) percentile of clip losses when losses are distinct
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            k = int(rng.integers(1, n))
            values = rng.permutation(n).astype(float)  # distinct integers
            losses = {clip: values[clip] for clip in range(n)}
            ds = Dataset(
                example_ids=np.arange(n),
                clip_ids=np.arange(n),
                features=np.zeros((n, 1)),
                labels=np.zeros(n, dtype=int),
                num_classes=2,
            )
            kept, _ = prune_dataset(ds, losses, k)
            cut = percentile(values, 100.0 * (1 - k / n))
            expected = np.sort([clip for clip in range(n) if values[clip] <= cut])
            np.testing.assert_array_equal(np.unique(kept.clip_ids), expected)


class TestStagePlan:
    def test_none_strategy_defaults(self):
        plan = StagePlan()
        assert plan.strategy == Strategy.NONE
        assert plan.prune_rounds == 1

    def test_discard_requires_rule(self):
        with pytest.raises(ConfigurationError):
            StagePlan(strategy=Strategy.DISCARD, start_epoch=3)

    def test_negative_start_epoch(self):
        with pytest.raises(InvalidInputError):
            StagePlan(start_epoch=-1)

    def test_negative_prune_count(self):
        with pytest.raises(InvalidInputError):
            StagePlan(strategy=Strategy.PRUNE, prune_count=-1)

    @pytest.mark.parametrize("field", ["start_epoch", "prune_count", "prune_rounds"])
    def test_counts_are_integers(self, field):
        counts = {"start_epoch": 2, "prune_count": 3}
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got 2.5$"):
            StagePlan(Strategy.PRUNE, **{**counts, field: 2.5})
        plan = StagePlan(Strategy.PRUNE, **{**counts, field: np.int64(3)})
        assert type(getattr(plan, field)) is int and getattr(plan, field) == 3

    def test_iterative_pruning_needs_nonzero_start(self):
        with pytest.raises(ConfigurationError):
            StagePlan(strategy=Strategy.PRUNE, start_epoch=0, prune_count=1, prune_rounds=2)
        StagePlan(strategy=Strategy.PRUNE, start_epoch=1, prune_count=1, prune_rounds=2)

    @pytest.mark.parametrize("strategy", [Strategy.NONE, Strategy.DISCARD])
    def test_a_plan_that_never_prunes_ignores_its_rounds(self, strategy):
        rule = SelectionRule.max_fraction(0.9)
        plan = StagePlan(strategy, start_epoch=0, rule=rule, prune_count=1, prune_rounds=3)
        assert (plan.start_epoch, plan.prune_rounds) == (0, 3)


class TestPruneReport:
    def test_rows_are_ranked_by_removal_order(self):
        rows = prune_report_rows({0: 1.0, 1: 9.0, 2: 3.0}, 1)
        assert [(r.clip_id, r.rank, r.removed) for r in rows] == [
            (1, 1, True),
            (2, 2, False),
            (0, 3, False),
        ]

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -5.0])
    def test_loss_that_is_not_finite_and_non_negative_is_refused(self, bad):
        with pytest.raises(
            InvalidInputError, match=r"^loss values must be finite and non-negative$"
        ):
            prune_report_rows({0: 1.0, 1: bad}, 1)

    # the count is checked as prune_dataset checks it: it must leave a clip, so no clips refuse
    # every count, as an empty dataset is refused
    @pytest.mark.parametrize(
        "losses, count, error, message",
        [
            ({}, 0, InvalidInputError, "prune_count must lie in [0, 0), got 0"),
            ({0: 1.0, 1: 2.0}, 2, InvalidInputError, "prune_count must lie in [0, 2), got 2"),
            ({0: 1.0, 1: 2.0}, -1, InvalidInputError, "prune_count must lie in [0, inf), got -1"),
            ({0: 1.0, 1: 2.0}, True, TypeError, "prune_count must be an integer, got true"),
        ],
        ids=["no_clips", "every_clip", "negative", "bool"],
    )
    def test_count_is_checked_as_prune_dataset_checks_it(self, losses, count, error, message):
        with pytest.raises(error) as excinfo:
            prune_report_rows(losses, count)
        assert str(excinfo.value) == message

    def test_removed_list_is_no_longer_taken(self):
        # a list once flagged any clips, ranked anywhere in the round
        with pytest.raises(TypeError):
            prune_report_rows({0: 1.0, 1: 9.0, 2: 3.0}, removed=[0])

    def test_round_trip(self, tmp_path):
        rows = prune_report_rows({5: 2.5, 6: 2.5, 7: 0.125}, 1)
        path = tmp_path / "prune.jsonl"
        write_prune_report(path, rows)
        assert read_prune_report(path) == rows

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "prune.jsonl"
        write_prune_report(path, [PruneRecord(1, 0.5, 1, True)])
        path.write_text(path.read_text() + "\n\n")
        assert len(read_prune_report(path)) == 1

    # the clips of a round fall in id, as equal losses rank, and the second round of
    # skipped_rank lists clips that the first kept, so that each file's one fault is the rank
    @pytest.mark.parametrize(
        "clips, ranks, line, after",
        [
            ([0], [2], 1, "the start of the report"),
            ([0, 1], [3, 3], 1, "the start of the report"),
            ([2, 1, 0], [1, 2, 2], 3, "rank 2"),
            ([1, 0, 1, 0], [1, 2, 1, 3], 4, "rank 1"),
        ],
        ids=["first_rank_two", "both_rank_three", "repeated_rank", "skipped_rank"],
    )
    def test_rank_that_does_not_continue_its_round_is_refused(
        self, tmp_path, clips, ranks, line, after
    ):
        path = tmp_path / "prune.jsonl"
        write_prune_report(path, [PruneRecord(c, 0.5, r, False) for c, r in zip(clips, ranks)])
        with pytest.raises(InvalidInputError) as excinfo:
            read_prune_report(path)
        fault = f"rank {ranks[line - 1]} follows {after}; each round ranks 1, 2, 3, ..."
        assert str(excinfo.value) == f"{path}, line {line}: {fault}"

    def test_later_round_names_only_clips_the_round_before_kept(self, tmp_path):
        # round 1 removed clip 0 and kept clip 1, and never scored clip 7
        path = tmp_path / "prune.jsonl"
        rows = [PruneRecord(0, 2.0, 1, True), PruneRecord(1, 1.0, 2, False)]
        write_prune_report(path, [*rows, PruneRecord(1, 1.0, 1, False)])
        assert len(read_prune_report(path)) == 3
        write_prune_report(path, [*rows, PruneRecord(7, 1.0, 1, False)])
        with pytest.raises(InvalidInputError) as excinfo:
            read_prune_report(path)
        fault = "clip_id 7 was not kept by the previous prune round"
        assert str(excinfo.value) == f"{path}, line 3: {fault}"

    def test_round_trip_of_three_rounds(self, tmp_path):
        rows = [
            PruneRecord(3, 2.0, 1, True), PruneRecord(2, 1.0, 2, False),
            PruneRecord(1, 1.0, 3, False), PruneRecord(2, 4.0, 1, True),
            PruneRecord(1, 0.0, 2, False), PruneRecord(1, 0.5, 1, False),
        ]
        path = tmp_path / "prune.jsonl"
        write_prune_report(path, rows)
        assert read_prune_report(path) == rows

    @pytest.mark.parametrize(
        "rows, fault",
        [
            (
                [PruneRecord(0, 0.1, 1, False), PruneRecord(1, 5.0, 2, True)],
                ", line 2: clip_id 1 with clip_loss 5.0 is ranked below clip_id 0 with clip_loss"
                " 0.1; a round ranks by falling clip_loss, then falling clip_id",
            ),
            (
                [PruneRecord(0, 1.0, 1, True), PruneRecord(1, 1.0, 2, False)],
                ", line 2: clip_id 1 with clip_loss 1.0 is ranked below clip_id 0 with clip_loss"
                " 1.0; a round ranks by falling clip_loss, then falling clip_id",
            ),
            (
                [PruneRecord(1, 2.0, 1, False), PruneRecord(0, 1.0, 2, False),
                 PruneRecord(1, 1.0, 1, False)],
                # the last round is checked once the file is read, so no line is named
                ": prune round 2 leaves out clip_id 0, which round 1 kept; each round lists every"
                " clip the round before it kept",
            ),
            (
                [PruneRecord(2, 2.0, 1, True), PruneRecord(1, 1.0, 2, False),
                 PruneRecord(0, 1.0, 3, False), PruneRecord(1, 1.0, 1, True),
                 PruneRecord(0, 1.0, 1, False)],
                ", line 5: prune round 2 leaves out clip_id 0, which round 1 kept; each round"
                " lists every clip the round before it kept",
            ),
            (
                # prune_report_rows({0: 1.0, 1: 9.0, 2: 3.0}, removed=[0]) once built these
                [PruneRecord(1, 9.0, 1, False), PruneRecord(2, 3.0, 2, False),
                 PruneRecord(0, 1.0, 3, True)],
                ", line 3: clip_id 0 is removed below kept clip_id 2; a round removes its"
                " top-ranked clips",
            ),
            (
                [PruneRecord(1, 2.0, 1, False), PruneRecord(1, 1.0, 2, False)],
                ", line 2: clip_id 1 appears twice in one prune round",
            ),
            (
                [PruneRecord(1, 2.0, 1, True), PruneRecord(0, 1.0, 2, False),
                 PruneRecord(1, 1.0, 1, False)],
                ", line 3: clip_id 1 was removed by an earlier prune round",
            ),
        ],
        ids=[
            "loss_rises", "equal_losses_id_rises", "last_round_leaves_out", "round_leaves_out",
            "removed_below_kept", "clip_twice_in_a_round", "removed_clip_listed_again",
        ],
    )
    def test_report_its_writer_cannot_produce_is_refused(self, tmp_path, rows, fault):
        path = tmp_path / "prune.jsonl"
        write_prune_report(path, rows)
        with pytest.raises(InvalidInputError) as excinfo:
            read_prune_report(path)
        assert str(excinfo.value) == f"{path}{fault}"


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class TestRemovalOrder:
    """Pruning removes clips in one order, over arrays, in ``prune_dataset``, the report and
    the trainer's prune rounds: the order of ``sorted`` by (-loss, -clip) on Python values."""

    @settings(max_examples=200, deadline=None)
    @given(
        others=st.lists(st.integers(INT64_MIN, INT64_MAX), max_size=12, unique=True),
        pool=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=3),
        picks=st.lists(st.integers(0, 4), min_size=14, max_size=14),
        count=st.integers(0, 13),
    )
    # the two extreme ids tie, at 0.0 and -0.0: the larger goes first
    @example(others=[], pool=[1.0], picks=[0, 1] + [2] * 12, count=1)
    def test_equals_python_sort_by_negated_loss_then_id(self, others, pool, picks, count):
        # both int64 extremes, ties forced through a pool of at most 5 losses, 0.0 and -0.0
        clips = list(dict.fromkeys([INT64_MIN, INT64_MAX, *others]))
        values = [0.0, -0.0, *pool]
        losses = {clip: values[pick % len(values)] for clip, pick in zip(clips, picks)}
        expected = sorted(clips, key=lambda clip: (-losses[clip], -clip))
        count %= len(clips)

        rows = prune_report_rows(losses, count)
        assert [row.clip_id for row in rows] == expected
        assert [row.rank for row in rows] == list(range(1, len(clips) + 1))
        assert [row.removed for row in rows] == [rank < count for rank in range(len(clips))]
        assert [row.clip_loss.hex() for row in rows] == [losses[c].hex() for c in expected]

        # one row per clip, in the drawn order, which is not the table's
        n = len(clips)
        ds = Dataset(np.arange(n), clips, np.zeros((n, 1)), np.zeros(n, dtype=int), 2)
        kept, removed = prune_dataset(ds, losses, count)
        assert removed == expected[:count]
        assert kept.clip_ids.tolist() == [clip for clip in clips if clip not in removed]
