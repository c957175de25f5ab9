"""Tests for the classifier, the training loop, and its schedules."""

import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from labelnoise import (
    Architecture,
    Dataset,
    EpochRecord,
    InvalidInputError,
    LossKind,
    LossSpec,
    MixupPolicy,
    ModelParams,
    NoiseGroup,
    NoiseKind,
    NoiseSpec,
    Pairing,
    RngStream,
    SelectionRule,
    SmoothingPolicy,
    StagePlan,
    Strategy,
    TrainConfig,
    TrainingError,
    evaluate,
    forward,
    generate_blobs,
    init_params,
    inject_symmetric_noise,
    load_model,
    prune_dataset,
    prune_report_rows,
    read_metrics,
    read_prune_report,
    save_model,
    softmax,
    stratified_split,
    train,
    write_metrics,
    write_prune_report,
)
from labelnoise.numerics import softmax_rows
from labelnoise.trainer import (
    _Adam,
    _flat_params,
    _flat_views,
    _forward_cached,
    _param_grads,
    check_plan,
    split_rows,
)


def clip_dataset(num_classes, clips_per_class, patches_per_clip=1, feature_dim=2, seed=0):
    """Tiny synthetic dataset with explicit clip structure."""
    rng = np.random.default_rng(seed)
    n = num_classes * clips_per_class * patches_per_clip
    clip_ids = np.repeat(np.arange(num_classes * clips_per_class), patches_per_clip)
    labels = np.repeat(np.arange(num_classes), clips_per_class * patches_per_clip)
    features = rng.standard_normal((n, feature_dim)) + 3.0 * labels[:, None]
    return Dataset(np.arange(n), clip_ids, features, labels, num_classes)


def blob_dataset(spread=0.1, seed=5):
    annotated = generate_blobs(
        num_classes=2,
        clips_per_class=20,
        patches_per_clip=3,
        feature_dim=4,
        cluster_spread=spread,
        seed=seed,
    )
    return annotated.data


class TestStratifiedSplit:
    def test_validation_counts_per_class(self):
        ds = clip_dataset(4, 100)
        train_split, val_split = stratified_split(ds, 0.15, RngStream(0).generator())
        assert np.unique(val_split.clip_ids).size == 60  # ceil(0.15 * 100) = 15 per class
        assert np.unique(train_split.clip_ids).size == 340
        for cls in range(4):
            assert (val_split.labels == cls).sum() == 15

    def test_ceil_rounds_up(self):
        ds = clip_dataset(2, 7)
        _, val_split = stratified_split(ds, 0.15, RngStream(0).generator())
        assert np.unique(val_split.clip_ids).size == 4  # ceil(1.05) = 2 per class

    def test_no_clip_straddles_and_union_covers(self):
        ds = clip_dataset(3, 9, patches_per_clip=2)
        train_split, val_split = stratified_split(ds, 0.3, RngStream(1).generator())
        train_clips = set(train_split.clip_ids.tolist())
        val_clips = set(val_split.clip_ids.tolist())
        assert not train_clips & val_clips
        assert train_split.n_examples + val_split.n_examples == ds.n_examples

    def test_same_seed_same_split(self):
        ds = clip_dataset(2, 30)
        a_train, a_val = stratified_split(ds, 0.2, RngStream(11).generator())
        b_train, b_val = stratified_split(ds, 0.2, RngStream(11).generator())
        np.testing.assert_array_equal(a_train.example_ids, b_train.example_ids)
        np.testing.assert_array_equal(a_val.example_ids, b_val.example_ids)

    def test_seed_changes_split(self):
        ds = clip_dataset(2, 200)
        _, a_val = stratified_split(ds, 0.2, RngStream(0).generator())
        _, b_val = stratified_split(ds, 0.2, RngStream(1).generator())
        assert set(a_val.clip_ids.tolist()) != set(b_val.clip_ids.tolist())

    def test_advances_the_generator_it_is_given(self):
        ds = clip_dataset(2, 10)
        gen, reference = RngStream(4).generator(), RngStream(4).generator()
        _, val_a = stratified_split(ds, 0.25, gen)
        _, val_b = stratified_split(ds, 0.25, gen)
        np.testing.assert_array_equal(val_a.example_ids, split_rows(ds, 0.25, reference)[1])
        np.testing.assert_array_equal(val_b.example_ids, split_rows(ds, 0.25, reference)[1])
        assert not np.array_equal(val_a.example_ids, val_b.example_ids)

    def test_fraction_bounds(self):
        ds = clip_dataset(2, 4)
        with pytest.raises(InvalidInputError):
            stratified_split(ds, 0.0, RngStream(0).generator())
        with pytest.raises(InvalidInputError):
            stratified_split(ds, 1.0, RngStream(0).generator())

    def test_class_with_one_clip(self):
        ds = Dataset(
            example_ids=np.arange(3),
            clip_ids=np.array([0, 1, 2]),
            features=np.zeros((3, 2)),
            labels=np.array([0, 0, 1]),
            num_classes=2,
        )
        with pytest.raises(InvalidInputError):
            stratified_split(ds, 0.5, RngStream(0).generator())


class TestStratifiedSplitProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        clips_per_class=st.lists(st.integers(2, 7), min_size=1, max_size=4),
        patches=st.lists(st.integers(1, 4), min_size=28, max_size=28),
        val_fraction=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    # a split that sends every clip to validation
    @example(clips_per_class=[2, 3], patches=[1] * 28, val_fraction=0.9, seed=0)
    def test_partition(self, clips_per_class, patches, val_fraction, seed):
        # class c owns clips_per_class[c] clips (class 0 may be left empty by
        # starting at 1), clips have unequal patch counts, rows are shuffled
        clip_labels = np.repeat(np.arange(1, len(clips_per_class) + 1), clips_per_class)
        clip_ids = np.repeat(np.arange(clip_labels.size) * 3 + 1, patches[: clip_labels.size])
        rng = np.random.default_rng(seed)
        order = rng.permutation(clip_ids.size)
        ds = Dataset(
            np.arange(clip_ids.size) * 2,
            clip_ids[order],
            rng.standard_normal((clip_ids.size, 2)),
            np.repeat(clip_labels, patches[: clip_labels.size])[order],
            len(clips_per_class) + 1,
        )
        gen = RngStream(seed).generator()
        if all(math.ceil(val_fraction * n) == n for n in clips_per_class):
            # no clip is left to train on, and a dataset of no rows is refused
            with pytest.raises(InvalidInputError) as excinfo:
                stratified_split(ds, val_fraction, gen)
            assert str(excinfo.value) == "a dataset must have at least one example"
            return
        train_split, val_split = stratified_split(ds, val_fraction, gen)
        train_ids = set(train_split.example_ids.tolist())
        val_ids = set(val_split.example_ids.tolist())
        assert not train_ids & val_ids
        assert train_ids | val_ids == set(ds.example_ids.tolist())
        assert not set(train_split.clip_ids.tolist()) & set(val_split.clip_ids.tolist())
        for split in (train_split, val_split):  # each split keeps the dataset's row order
            in_split = np.isin(ds.example_ids, split.example_ids)
            assert np.array_equal(split.example_ids, ds.example_ids[in_split])
        for cls, n_clips in enumerate(clips_per_class, start=1):
            val_clips = np.unique(val_split.clip_ids[val_split.labels == cls])
            assert val_clips.size == math.ceil(val_fraction * n_clips)


class TestInitParams:
    def test_linear_shapes_and_zero_biases(self):
        params = init_params(Architecture.LINEAR, 5, 3, 32, RngStream(0).generator())
        assert [w.shape for w in params.weights] == [(5, 3), (3,)]
        np.testing.assert_array_equal(params.weights[1], np.zeros(3))

    def test_one_hidden_shapes(self):
        params = init_params(Architecture.ONE_HIDDEN, 5, 3, 8, RngStream(0).generator())
        assert [w.shape for w in params.weights] == [(5, 8), (8,), (8, 3), (3,)]
        np.testing.assert_array_equal(params.weights[1], np.zeros(8))
        np.testing.assert_array_equal(params.weights[3], np.zeros(3))

    def test_deterministic(self):
        a = init_params(Architecture.LINEAR, 4, 2, 1, RngStream(9).generator())
        b = init_params(Architecture.LINEAR, 4, 2, 1, RngStream(9).generator())
        np.testing.assert_array_equal(a.weights[0], b.weights[0])

    def test_scale_tracks_fan_in(self):
        # std of entries is 1/sqrt(fan_in); a 4096-wide layer estimates it well
        params = init_params(Architecture.LINEAR, 4096, 64, 1, RngStream(3).generator())
        assert params.weights[0].std() == pytest.approx(1 / 64.0, rel=0.02)

    def test_model_params_shape_validation(self):
        with pytest.raises(InvalidInputError):
            ModelParams(Architecture.LINEAR, 4, 2, 1, [np.zeros((4, 3)), np.zeros(2)])
        with pytest.raises(InvalidInputError):
            ModelParams(
                Architecture.LINEAR, 4, 2, 1, [np.full((4, 2), np.nan), np.zeros(2)]
            )

    def test_model_file_of_a_hidden_layer_without_units_is_refused(self, tmp_path):
        # what save_model wrote for such a model: the logits were only the last bias
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "architecture": "one_hidden", "feature_dim": 2, "hidden_units": 0,
            "num_classes": 2, "weights": [[[], []], [], [], [0.5, 0.0]],
        }))
        with pytest.raises(InvalidInputError) as excinfo:
            load_model(path)
        assert str(excinfo.value).endswith("hidden_units must lie in [1, inf), got 0")


class TestForwardAndEvaluate:
    def linear_params(self, w, b):
        w = np.asarray(w, dtype=float)
        b = np.asarray(b, dtype=float)
        return ModelParams(Architecture.LINEAR, w.shape[0], w.shape[1], 1, [w, b])

    def test_forward_linear_oracle(self):
        params = self.linear_params([[1.0, 0.0], [0.0, 2.0]], [0.5, -0.5])
        logits = forward(params, np.array([[1.0, 1.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(logits, [[1.5, 1.5], [2.5, -0.5]])

    def test_forward_one_hidden_applies_rectifier(self):
        params = ModelParams(
            Architecture.ONE_HIDDEN,
            1,
            2,
            2,
            [np.array([[1.0, -1.0]]), np.zeros(2), np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2)],
        )
        # input -3 drives the first hidden unit negative, so it is clamped
        logits = forward(params, np.array([[-3.0]]))
        np.testing.assert_array_equal(logits, [[0.0, 3.0]])

    def test_evaluate_perfect_and_half(self):
        params = self.linear_params([[2.0, 0.0], [0.0, 2.0]], [0.0, 0.0])
        ds = Dataset(
            example_ids=np.arange(2),
            clip_ids=np.array([0, 1]),
            features=np.array([[1.0, 0.0], [0.0, 1.0]]),
            labels=np.array([0, 1]),
            num_classes=2,
        )
        assert evaluate(params, ds) == 1.0
        flipped = Dataset(
            ds.example_ids, ds.clip_ids, ds.features, np.array([0, 0]), 2
        )
        assert evaluate(params, flipped) == 0.5

    def test_evaluate_averages_probabilities_not_votes(self):
        # two of three patches lean class 0, but the third is confident
        # enough that the mean probability picks class 1
        params = self.linear_params([[1.0, 0.0]], [0.0, 0.0])
        x = np.array([[math.log(1.5)], [math.log(1.5)], [math.log(0.05 / 0.95)]])
        ds = Dataset(
            example_ids=np.arange(3),
            clip_ids=np.zeros(3, dtype=int),
            features=x,
            labels=np.ones(3, dtype=int),
            num_classes=2,
        )
        probs = [softmax(row) for row in forward(params, x)]
        assert sum(p.argmax() == 0 for p in probs) == 2  # vote would say class 0
        assert evaluate(params, ds) == 1.0

    def test_evaluate_refuses_non_finite_logits(self):
        # weights this large overflow every logit, and NaN probabilities would score 0.25
        data = generate_blobs(4, 20, 3, 8, 0.25, seed=1).data
        params = self.linear_params(np.full((8, 4), 1e308), np.full(4, 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError) as excinfo:
                evaluate(params, data)
        assert str(excinfo.value) == "cannot evaluate a model whose logits are not all finite"

    def test_forward_refuses_features_of_another_width(self):
        params = self.linear_params(np.eye(3), np.zeros(3))
        with pytest.raises(InvalidInputError) as excinfo:
            forward(params, np.zeros((2, 4)))
        assert str(excinfo.value) == "features of shape (2, 4) do not fit a model of 3 inputs"
        data = generate_blobs(3, 20, 3, 8, 0.25, seed=1).data
        with pytest.raises(InvalidInputError, match=r"^features of shape \(180, 8\) do not fit"):
            evaluate(params, data)

    def test_evaluate_refuses_a_label_the_model_has_no_class_for(self):
        # a 3-class model would score 4-class blobs as if class 3 were never right
        data = generate_blobs(4, 20, 3, 8, 0.25, seed=1).data
        params = self.linear_params(np.zeros((8, 3)), np.zeros(3))
        with pytest.raises(InvalidInputError) as excinfo:
            evaluate(params, data)
        assert str(excinfo.value) == "label 3 is not a class of a 3-class model"
        assert evaluate(params, data.subset(data.labels < 3)) == pytest.approx(1 / 3)

    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(1, 40),
        n_clip_ids=st.integers(1, 12),
        num_classes=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_evaluate_matches_add_at_reference(self, n_rows, n_clip_ids, num_classes, seed):
        rng = np.random.default_rng(seed)
        clip_ids = rng.integers(0, n_clip_ids, size=n_rows) * 7  # sparse, unsorted ids
        label_of_clip = rng.integers(0, num_classes, size=7 * n_clip_ids)
        ds = Dataset(
            np.arange(n_rows),
            clip_ids,
            rng.standard_normal((n_rows, 3)),
            label_of_clip[clip_ids],
            num_classes,
        )
        params = init_params(Architecture.LINEAR, 3, num_classes, 1, RngStream(seed).generator())
        probs = softmax_rows(forward(params, ds.features))
        clips, inverse = np.unique(ds.clip_ids, return_inverse=True)
        sums = np.zeros((clips.size, num_classes))
        np.add.at(sums, inverse, probs)
        counts = np.bincount(inverse, minlength=clips.size).astype(np.float64)
        predicted = (sums / counts[:, None]).argmax(axis=1)
        expected = float((predicted == label_of_clip[clips]).mean())
        assert evaluate(params, ds) == expected


    @settings(max_examples=80, deadline=None)
    @given(
        patches=st.lists(st.integers(1, 6), min_size=1, max_size=12),
        num_classes=st.integers(2, 5),
        architecture=st.sampled_from(list(Architecture)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_evaluate_on_interleaved_unequal_clips(self, patches, num_classes, architecture, seed):
        # clips with unequal patch counts, their rows interleaved at random
        rng = np.random.default_rng(seed)
        clip_of_row = np.repeat(np.arange(len(patches)) * 5 + 3, patches)
        clip_ids = clip_of_row[rng.permutation(clip_of_row.size)]
        label_of_clip = rng.integers(0, num_classes, size=5 * len(patches) + 3)
        ds = Dataset(
            np.arange(clip_ids.size),
            clip_ids,
            rng.standard_normal((clip_ids.size, 3)),
            label_of_clip[clip_ids],
            num_classes,
        )
        params = init_params(architecture, 3, num_classes, 4, RngStream(seed).generator())
        probs = softmax_rows(forward(params, ds.features))
        clips, inverse = np.unique(ds.clip_ids, return_inverse=True)
        sums = np.zeros((clips.size, num_classes))
        np.add.at(sums, inverse, probs)
        means = sums / np.bincount(inverse).astype(np.float64)[:, None]
        expected = float((means.argmax(axis=1) == label_of_clip[clips]).mean())
        assert evaluate(params, ds) == expected


def per_array_adam(weights, grads_per_step, lr):
    """Adam as one loop over separate arrays: the reference for the flat update."""
    first = [np.zeros_like(w) for w in weights]
    second = [np.zeros_like(w) for w in weights]
    for step, grads in enumerate(grads_per_step, start=1):
        correction1 = 1.0 - 0.9**step
        correction2 = 1.0 - 0.999**step
        for w, g, m, v in zip(weights, grads, first, second):
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            w -= lr * (m / correction1) / (np.sqrt(v / correction2) + 1e-8)


class TestAdam:
    def test_first_step_is_sign_scaled(self):
        # after one step the bias-corrected moments give lr * g / (|g| + eps)
        w = np.array([1.0, -2.0])
        adam = _Adam(2)
        adam.step(w, np.array([0.5, -0.25]), lr=0.1)
        expected = np.array(
            [1.0 - 0.1 * 0.5 / (0.5 + 1e-8), -2.0 + 0.1 * 0.25 / (0.25 + 1e-8)]
        )
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_zero_gradient_no_move(self):
        w = np.array([3.0])
        adam = _Adam(1)
        adam.step(w, np.zeros(1), lr=0.1)
        np.testing.assert_array_equal(w, [3.0])

    def test_single_step_decreases_loss(self):
        rng = np.random.default_rng(7)
        from labelnoise import batch_losses, loss_gradients_from_probs, softmax_rows

        spec = LossSpec(LossKind.CCE)
        for _ in range(50):
            params, flat, grads, flat_grads = _flat_params(
                init_params(
                    Architecture.LINEAR, 3, 4, 1, RngStream(int(rng.integers(1 << 30))).generator()
                )
            )
            x = rng.standard_normal((16, 3))
            y = np.eye(4)[rng.integers(0, 4, size=16)]
            adam = _Adam(flat.size)

            def mean_loss():
                probs = softmax_rows(forward(params, x))
                return batch_losses(spec, y, probs, np.arange(16)).per_example.mean()

            before = mean_loss()
            probs = softmax_rows(forward(params, x))
            logit_grads = loss_gradients_from_probs(spec, y, probs) / 16
            _param_grads(params, x, logit_grads, None, grads)
            adam.step(flat, flat_grads, lr=1e-4)
            assert mean_loss() < before

    @settings(max_examples=60, deadline=None)
    @given(
        shapes=st.lists(
            st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple),
            min_size=1,
            max_size=4,
        ),
        steps=st.integers(1, 4),
        lr=st.floats(1e-5, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flat_step_matches_per_array_formula(self, shapes, steps, lr, seed):
        rng = np.random.default_rng(seed)
        weights = [rng.standard_normal(shape) for shape in shapes]
        grads_per_step = [
            [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3) for shape in shapes]
            for _ in range(steps)
        ]
        flat = np.concatenate([w.ravel() for w in weights])
        flat_grads = np.zeros_like(flat)
        grad_views = _flat_views(flat_grads, shapes)
        adam = _Adam(flat.size)
        for grads in grads_per_step:
            for view, g in zip(grad_views, grads):
                view[...] = g
            adam.step(flat, flat_grads, lr)
        per_array_adam(weights, grads_per_step, lr)
        for view, w in zip(_flat_views(flat, shapes), weights):
            assert view.tobytes() == w.tobytes()


class TestParamGrads:
    @pytest.mark.parametrize(
        "architecture", [Architecture.LINEAR, Architecture.ONE_HIDDEN]
    )
    def test_matches_finite_differences(self, architecture):
        from labelnoise import batch_losses, softmax_rows
        from labelnoise import loss_gradients_from_probs

        rng = np.random.default_rng(17)
        spec = LossSpec(LossKind.LQ, q=0.7)
        gen = RngStream(21).generator()
        params, _, grads, _ = _flat_params(init_params(architecture, 3, 4, 6, gen))
        x = rng.standard_normal((10, 3))
        y = np.eye(4)[rng.integers(0, 4, size=10)]

        def mean_loss():
            probs = softmax_rows(forward(params, x))
            return batch_losses(spec, y, probs, np.arange(10)).per_example.mean()

        logits, hidden = _forward_cached(params, x)
        probs = softmax_rows(logits)
        logit_grads = loss_gradients_from_probs(spec, y, probs) / 10
        _param_grads(params, x, logit_grads, hidden, grads)

        h = 1e-6
        for w, g in zip(params.weights, grads):
            flat_w, flat_g = w.ravel(), g.ravel()
            for i in range(0, flat_w.size, max(1, flat_w.size // 5)):
                original = flat_w[i]
                flat_w[i] = original + h
                up = mean_loss()
                flat_w[i] = original - h
                down = mean_loss()
                flat_w[i] = original
                numeric = (up - down) / (2 * h)
                assert abs(flat_g[i] - numeric) < 1e-4 * max(1.0, abs(numeric))

    # Tolerance, fixed before the first run: |analytic - numeric| <= 1e-5 *
    # (1 + |numeric|). With h = 1e-6 a central difference is off by about h**2
    # times the loss's third derivative, plus the loss's rounding divided by
    # h. Lq's 1 - u**q cancels, so its rounding grows as eps / q; q stays at
    # 1e-3 or more, where that term is about 2e-7.
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from([LossKind.CCE, LossKind.MAE, LossKind.LQ]),
        q=st.floats(1e-3, 1.0),
        soft=st.booleans(),
        architecture=st.sampled_from([Architecture.LINEAR, Architecture.ONE_HIDDEN]),
        # rows, features, classes, hidden units
        sizes=st.tuples(
            st.integers(1, 8), st.integers(1, 5), st.integers(2, 5), st.integers(1, 6)
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_central_differences_of_the_mean_loss(
        self, kind, q, soft, architecture, sizes, seed
    ):
        from labelnoise import loss_gradients_from_probs
        from labelnoise.losses import _loss_values

        n, f, k, hidden_units = sizes
        rng = np.random.default_rng(seed)
        spec = LossSpec(kind, q=q if kind == LossKind.LQ else None)
        params, _, grads, _ = _flat_params(
            init_params(architecture, f, k, hidden_units, RngStream(seed).generator())
        )
        for w in params.weights:  # nonzero biases too
            w += 0.3 * rng.standard_normal(w.shape)
        x = rng.standard_normal((n, f))
        if soft:
            y = rng.dirichlet(np.ones(k), size=n)
        else:
            y = np.eye(k)[rng.integers(0, k, size=n)]

        logits, hidden = _forward_cached(params, x)
        probs = softmax_rows(logits)
        if architecture == Architecture.ONE_HIDDEN:
            w1, b1 = params.weights[:2]
            assume(np.abs(x @ w1 + b1).min() > 1e-3)  # the ReLU kink
        if kind == LossKind.MAE:
            # |y - p| has a kink where p meets a target strictly inside (0, 1)
            inside = (y > 0.0) & (y < 1.0)
            assume(not inside.any() or np.abs(probs - y)[inside].min() > 1e-3)

        logit_grads = loss_gradients_from_probs(spec, y, probs) / n
        _param_grads(params, x, logit_grads, hidden, grads)

        def mean_loss():
            return _loss_values(spec, y, softmax_rows(forward(params, x))).mean()

        h = 1e-6
        for w, g in zip(params.weights, grads):
            flat_w, flat_g = w.ravel(), g.ravel()
            for i in range(flat_w.size):
                original = flat_w[i]
                flat_w[i] = original + h
                up = mean_loss()
                flat_w[i] = original - h
                down = mean_loss()
                flat_w[i] = original
                numeric = (up - down) / (2 * h)
                assert abs(flat_g[i] - numeric) <= 1e-5 * (1.0 + abs(numeric))

    @pytest.mark.parametrize(
        "architecture", [Architecture.LINEAR, Architecture.ONE_HIDDEN]
    )
    def test_in_place_matches_allocating_products(self, architecture):
        rng = np.random.default_rng(5)
        gen = RngStream(2).generator()
        params, _, grads, _ = _flat_params(init_params(architecture, 7, 3, 9, gen))
        x = rng.standard_normal((13, 7))
        logits, hidden = _forward_cached(params, x)
        logit_grads = rng.standard_normal(logits.shape)
        _param_grads(params, x, logit_grads, hidden, grads)
        if architecture == Architecture.LINEAR:
            expected = [x.T @ logit_grads, logit_grads.sum(axis=0)]
        else:
            hidden_grads = (logit_grads @ params.weights[2].T) * (hidden > 0.0)
            expected = [
                x.T @ hidden_grads,
                hidden_grads.sum(axis=0),
                hidden.T @ logit_grads,
                logit_grads.sum(axis=0),
            ]
        for g, e in zip(grads, expected):
            assert g.tobytes() == e.tobytes()


def quick_config(**overrides):
    defaults = dict(
        loss=LossSpec(LossKind.CCE),
        max_epochs=12,
        batch_size=16,
        initial_lr=0.01,
        val_fraction=0.25,
        seed=3,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def scheduled_lrs(accuracies, initial_lr, halving_patience, early_stop_patience):
    """The learning rate of each epoch that runs when validation scores ``accuracies``. An
    epoch's stall is the number of epochs since the last one that beat every earlier score (a
    tie beats none); the rate halves after each epoch whose stall is a positive multiple of
    ``halving_patience``, and the run ends with the first epoch whose stall reaches
    ``early_stop_patience``."""
    stalls = [
        i - max(j for j in range(i + 1) if all(accuracies[j] > a for a in accuracies[:j]))
        for i in range(len(accuracies))
    ]
    runs = next((i + 1 for i, s in enumerate(stalls) if s >= early_stop_patience), len(stalls))
    return [
        initial_lr / 2 ** sum(s > 0 and s % halving_patience == 0 for s in stalls[:epoch])
        for epoch in range(runs)
    ]


def scripted_lrs(accuracies, halving_patience, early_stop_patience):
    """The learning rate of each epoch ``train`` records when validation scores
    ``accuracies``, with ``quick_config``'s initial rate of 0.01."""
    import labelnoise.trainer as trainer_module

    scores = iter(accuracies)
    config = quick_config(
        max_epochs=len(accuracies), batch_size=64, lr_halving_patience=halving_patience,
        early_stop_patience=early_stop_patience,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer_module, "_clip_accuracy", lambda *scoring: next(scores))
        result = train(clip_dataset(num_classes=2, clips_per_class=4), config)
    return [r.lr for r in result.history]


class TestStallCount:
    """One count of consecutive epochs without a strict improvement in validation accuracy
    drives both the halving of the learning rate and early stopping."""

    def test_improvement_resets_the_count(self):
        # stalls 0, 1, 0, 1, 2: without the reset the fourth epoch's stall of 2 would halve
        assert scripted_lrs([0.25, 0.25, 0.5, 0.5, 0.5], 2, 8) == [0.01] * 5

    def test_tie_counts_as_stall(self):
        assert scripted_lrs([0.5, 0.5, 0.5, 0.5], 2, 8) == [0.01, 0.01, 0.01, 0.01 / 2]

    def test_halves_at_every_patience_th_stall(self):
        assert scripted_lrs([0.5] * 7, 2, 8) == [0.01] * 3 + [0.01 / 2] * 2 + [0.01 / 4] * 2

    def test_count_runs_below_patience_without_halving(self):
        assert scripted_lrs([0.5] * 5, 5, 8) == [0.01] * 5

    def test_record_shows_the_rate_its_epoch_ran_with(self):
        # the second epoch's stall halves the rate for the third, which then improves
        assert scripted_lrs([0.5, 0.5, 0.75, 0.5], 1, 8) == [0.01, 0.01, 0.01 / 2, 0.01 / 2]

    def test_stops_when_the_count_reaches_early_stop_patience(self):
        # the fourth epoch's stall of 3 ends the run before the halving patience of 4
        assert scripted_lrs([0.5] * 10, 4, 3) == [0.01] * 4


class TestTrainLoop:
    def test_learns_separable_blobs(self):
        result = train(blob_dataset(), quick_config(max_epochs=50))
        assert result.history[-1].val_accuracy >= 0.95
        assert result.prune_report is None

    def test_deterministic_runs(self):
        ds = blob_dataset()
        a = train(ds, quick_config())
        b = train(ds, quick_config())
        assert [r.val_accuracy for r in a.history] == [r.val_accuracy for r in b.history]
        for wa, wb in zip(a.params.weights, b.params.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_seed_changes_the_run(self):
        ds = blob_dataset()
        a = train(ds, quick_config(seed=3))
        b = train(ds, quick_config(seed=4))
        assert any(
            not np.array_equal(wa, wb) for wa, wb in zip(a.params.weights, b.params.weights)
        )

    def test_tiny_q_matches_cce_closely(self):
        ds = blob_dataset()
        base = train(ds, quick_config())
        tiny = train(ds, quick_config(loss=LossSpec(LossKind.LQ, q=1e-6)))
        worst = max(
            np.abs(wa - wb).max() for wa, wb in zip(base.params.weights, tiny.params.weights)
        )
        assert worst < 1e-3

    def test_history_is_zero_indexed_and_contiguous(self):
        result = train(blob_dataset(), quick_config(max_epochs=5))
        assert [r.epoch for r in result.history] == list(range(5))

    def test_max_epochs_zero_returns_initial_params(self):
        ds = blob_dataset()
        result = train(ds, quick_config(max_epochs=0))
        assert result.history == []
        reference = init_params(Architecture.LINEAR, 4, 2, 32, RngStream(3).child(1).generator())
        for w, ref in zip(result.params.weights, reference.weights):
            np.testing.assert_array_equal(w, ref)

    def test_split_without_train_clips_is_rejected(self):
        # ceil(0.9 * 2) = 2: every clip of both classes goes to validation
        ds = clip_dataset(num_classes=2, clips_per_class=2)
        with pytest.raises(InvalidInputError, match="none is left to train on"):
            train(ds, quick_config(val_fraction=0.9))

    def test_returns_best_epoch_snapshot(self):
        # rerunning the loop truncated right after the best epoch must land
        # on bit-identical parameters, because every random stream is keyed
        # by epoch rather than drawn sequentially
        ds = blob_dataset()
        full = train(ds, quick_config(max_epochs=20))
        best_epoch = max(
            range(len(full.history)),
            key=lambda i: (full.history[i].val_accuracy, -i),
        )
        truncated = train(ds, quick_config(max_epochs=best_epoch + 1))
        for wa, wb in zip(full.params.weights, truncated.params.weights):
            np.testing.assert_array_equal(wa, wb)

    @pytest.mark.parametrize("max_epochs", [0, 3])
    def test_returned_params_own_their_arrays(self, max_epochs):
        # the loop trains views into one flat buffer; what it returns must not
        # alias that buffer or another run's
        ds = blob_dataset()
        a = train(ds, quick_config(max_epochs=max_epochs))
        b = train(ds, quick_config(max_epochs=max_epochs))
        for wa, wb in zip(a.params.weights, b.params.weights):
            assert wa.flags.owndata and wb.flags.owndata
            wa += 1.0
            assert not np.array_equal(wa, wb)

    def test_returns_the_best_epoch_when_later_epochs_are_worse(self, monkeypatch):
        # validation scores are scripted so that epoch 1 is best and every
        # later epoch is worse; the weights scored at epoch 1 come back
        import labelnoise.trainer as trainer_module

        scores = iter([0.5, 0.9, 0.7, 0.6, 0.8])
        trained = []  # the model train updates in place
        scored_weights = []
        real_forward = trainer_module._checked_forward

        def watched(params, *args):
            trained[:] = [params]
            return real_forward(params, *args)

        def scripted(logits, *scoring):
            scored_weights.append([w.copy() for w in trained[0].weights])
            return next(scores)

        monkeypatch.setattr(trainer_module, "_checked_forward", watched)
        monkeypatch.setattr(trainer_module, "_clip_accuracy", scripted)
        result = train(blob_dataset(), quick_config(max_epochs=5, initial_lr=0.05))
        assert [r.val_accuracy for r in result.history] == [0.5, 0.9, 0.7, 0.6, 0.8]
        for returned, best, last in zip(
            result.params.weights, scored_weights[1], scored_weights[-1]
        ):
            np.testing.assert_array_equal(returned, best)
            assert not np.array_equal(returned, last)
            assert returned.flags.owndata

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
    @pytest.mark.parametrize("strategy", [Strategy.NONE, Strategy.DISCARD])
    def test_bad_loss_values_raise_on_any_step(self, monkeypatch, bad, strategy):
        # the one loss-value rule runs on every step, with or without a discard rule: both
        # paths raise in the step that computes the bad value, the third of epoch 1's six
        import labelnoise.trainer as trainer_module

        real = trainer_module._loss_values
        steps = []

        def poisoned(spec, targets, probs):
            values = real(spec, targets, probs)
            steps.append(len(values))
            if len(steps) == 9:
                values[-1] = bad
            return values

        monkeypatch.setattr(trainer_module, "_loss_values", poisoned)
        stage = StagePlan(
            strategy=strategy,
            rule=SelectionRule.max_fraction(0.5) if strategy == Strategy.DISCARD else None,
        )
        with pytest.raises(
            InvalidInputError, match=r"^loss values must be finite and non-negative$"
        ):
            train(blob_dataset(), quick_config(max_epochs=3, stage=stage))
        assert len(steps) == 9

    def test_early_stopping_length(self):
        # a learning rate this small never improves validation accuracy
        # after the first epoch, so the run stops at 1 + patience epochs
        ds = blob_dataset()
        result = train(
            ds,
            quick_config(
                max_epochs=100, initial_lr=1e-13, early_stop_patience=6
            ),
        )
        assert len(result.history) == 7

    def test_lr_halves_on_plateau(self):
        ds = blob_dataset()
        result = train(
            ds,
            quick_config(
                max_epochs=12,
                initial_lr=1e-13,
                lr_halving_patience=3,
                early_stop_patience=50,
            ),
        )
        lrs = [r.lr for r in result.history]
        assert lrs[:3] == [1e-13] * 3
        # the record shows the lr the epoch ran with; the halving lands after
        assert lrs[3] == pytest.approx(5e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        accuracies=st.lists(st.sampled_from([0.25, 0.5, 0.75]), min_size=1, max_size=16),
        halving_patience=st.integers(1, 4),
        early_stop_patience=st.integers(1, 8),
    )
    @example(accuracies=[0.5] * 12, halving_patience=2, early_stop_patience=8)
    @example(accuracies=[0.25, 0.5, 0.5, 0.75, 0.5, 0.5, 0.5], halving_patience=2,
             early_stop_patience=3)
    def test_lr_schedule_keeps_one_stall_count(
        self, accuracies, halving_patience, early_stop_patience
    ):
        # the validation scores are scripted; every record's rate and the run's length follow
        # from them by the rule of scheduled_lrs
        assert scripted_lrs(accuracies, halving_patience, early_stop_patience) == scheduled_lrs(
            accuracies, quick_config().initial_lr, halving_patience, early_stop_patience
        )

    def test_learning_rate_halved_to_zero_is_a_training_error(self):
        # about 1,070 halvings take 0.01 to 0.0; the epoch that would train with it raises,
        # and a run that ends before it passes
        data = generate_blobs(2, 4, 2, 2, 0.3, seed=0).data
        config = TrainConfig(
            LossSpec("cce"), max_epochs=1300, lr_halving_patience=1, early_stop_patience=1300,
            initial_lr=0.01, val_fraction=0.5,
        )
        with pytest.raises(TrainingError) as excinfo:
            train(data, config)
        epoch = excinfo.value.epoch
        assert re.fullmatch(
            rf"epoch {epoch}: learning rate halved to 0\.0 after \d+ stalled epochs",
            str(excinfo.value),
        )
        result = train(data, replace(config, max_epochs=epoch))
        assert len(result.history) == epoch and result.history[-1].lr > 0.0

    def test_non_finite_logits_raise_at_first_epoch(self):
        # finite features of +-1e308, a random sign per cell, overflow the product with the
        # initial weights: a row's logit is 1e308 times a sum of 16 signed weights
        ds = generate_blobs(2, 20, 3, 16, 0.1, seed=5).data
        signs = np.random.default_rng(0).choice([-1.0, 1.0], size=ds.features.shape)
        bad = Dataset(ds.example_ids, ds.clip_ids, 1e308 * signs, ds.labels, ds.num_classes)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingError) as excinfo:
                train(bad, quick_config())
        assert excinfo.value.epoch == 0
        assert str(excinfo.value) == "epoch 0: training diverged: non-finite logits"

    def test_non_finite_validation_logits_raise(self):
        # one step per epoch: its logits are finite, and the step it takes overflows the
        # weights, so validation is the first forward to see non-finite logits
        data = generate_blobs(4, 20, 3, 8, 0.25, seed=1).data
        config = TrainConfig(LossSpec("cce"), max_epochs=1, batch_size=1000, initial_lr=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError) as excinfo:
                train(data, config)
        assert excinfo.value.epoch == 0
        assert str(excinfo.value) == "epoch 0: training diverged: non-finite logits in validation"


class TestTrainWithDefenses:
    def test_discard_keeps_everything_before_start_epoch(self):
        stage = StagePlan(
            strategy=Strategy.DISCARD,
            start_epoch=4,
            rule=SelectionRule.max_fraction(0.5),
        )
        result = train(blob_dataset(), quick_config(max_epochs=8, stage=stage))
        kept = [r.kept_fraction for r in result.history]
        assert all(k == 1.0 for k in kept[:4])
        assert any(k < 1.0 for k in kept[4:])

    HOOKED_DISCARDS = {
        "linear_max_fraction": dict(rule=SelectionRule.max_fraction(0.5)),
        # the hidden activations are gathered with the kept rows, after an inter-batch mix
        "hidden_inter_mixup_percentile": dict(
            rule=SelectionRule.at_percentile(70.0),
            architecture=Architecture.ONE_HIDDEN,
            hidden_units=6,
            mixup=MixupPolicy(alpha=0.4, warmup_epochs=1, pairing=Pairing.INTER_BATCH),
        ),
    }

    @pytest.mark.parametrize("case", sorted(HOOKED_DISCARDS))
    def test_gradient_and_discard_hooks_see_every_step(self, monkeypatch, case):
        # the benchmark counts training rows by wrapping these two functions
        # where the trainer binds them; bypassing either must fail here. The
        # backprop and the loss check are wrapped too, to see each step's
        # gradient scale and each epoch's loss sum
        import labelnoise.trainer as trainer_module

        masks, grad_rows, returned, scaled, loss_sums = [], [], [], [], []
        real_mask = trainer_module.discard_mask
        real_grads = trainer_module.loss_gradients_from_probs
        real_param_grads = trainer_module._param_grads
        real_check = trainer_module._check_loss_values

        def counted_mask(*args, **kwargs):
            keep = real_mask(*args, **kwargs)
            masks.append(keep.copy())
            return keep

        def counted_grads(spec, targets, probs):
            grad_rows.append(len(targets))
            rows = real_grads(spec, targets, probs)
            returned.append(rows.copy())
            return rows

        def seen_param_grads(params, features, logit_grads, *rest):
            scaled.append(logit_grads.copy())
            return real_param_grads(params, features, logit_grads, *rest)

        def seen_check(values):
            total = real_check(values)
            loss_sums.append((total, len(values)))
            return total

        monkeypatch.setattr(trainer_module, "discard_mask", counted_mask)
        monkeypatch.setattr(trainer_module, "loss_gradients_from_probs", counted_grads)
        monkeypatch.setattr(trainer_module, "_param_grads", seen_param_grads)
        monkeypatch.setattr(trainer_module, "_check_loss_values", seen_check)
        overrides = dict(self.HOOKED_DISCARDS[case])
        stage = StagePlan(strategy=Strategy.DISCARD, start_epoch=2, rule=overrides.pop("rule"))
        result = train(blob_dataset(), quick_config(max_epochs=5, stage=stage, **overrides))
        steps_per_epoch = math.ceil(90 / 16)  # 30 train clips x 3 patches
        assert len(masks) == len(grad_rows) == 5 * steps_per_epoch
        assert grad_rows == [int(keep.sum()) for keep in masks]
        assert sum(len(keep) for keep in masks) == 5 * 90
        assert any(rows < len(keep) for rows, keep in zip(grad_rows, masks))
        # the run's own counts are those the hooks see
        assert result.steps == len(grad_rows)
        assert result.rows_kept == sum(grad_rows)
        assert result.rows_seen == sum(len(keep) for keep in masks)
        # each step's gradient rows are scaled by the kept row count, bit for bit
        assert len(scaled) == len(returned) == len(masks)
        for rows, step in zip(returned, scaled):
            assert step.shape == rows.shape
            assert step.tobytes() == (rows / len(rows)).tobytes()
        for epoch, record in enumerate(result.history):
            epoch_steps = slice(epoch * steps_per_epoch, (epoch + 1) * steps_per_epoch)
            kept = sum(int(keep.sum()) for keep in masks[epoch_steps])
            assert record.kept_fraction == kept / 90
            # the mean kept loss: the step sums added in step order, over the kept rows
            total = 0.0
            for step_sum, _ in loss_sums[epoch_steps]:
                total += step_sum
            assert record.train_loss == total / kept
            assert kept == sum(rows for _, rows in loss_sums[epoch_steps])

    def test_mixup_draws_never_shift_the_batches(self, monkeypatch):
        # each concern draws from its own stream: with or without mixup, of either
        # pairing and at any warm-up, every step trains on the same shuffled rows
        import labelnoise.trainer as trainer_module

        real_mask = trainer_module.discard_mask
        stage = StagePlan(
            strategy=Strategy.DISCARD, start_epoch=0, rule=SelectionRule.max_fraction(0.5)
        )
        policies = [None] + [
            MixupPolicy(alpha=0.4, warmup_epochs=warmup, pairing=pairing)
            for pairing in Pairing
            for warmup in (0, 2)
        ]
        batches = []
        for mixup in policies:
            ids = []

            def recorded_mask(report, *args):
                ids.append(report.example_ids.copy())
                return real_mask(report, *args)

            monkeypatch.setattr(trainer_module, "discard_mask", recorded_mask)
            train(blob_dataset(), quick_config(max_epochs=4, stage=stage, mixup=mixup))
            batches.append(ids)
        assert len(batches[0]) == 4 * math.ceil(90 / 16)  # 30 train clips x 3 patches
        for ids in batches[1:]:
            assert len(ids) == len(batches[0])
            for step, step_ids in zip(batches[0], ids):
                np.testing.assert_array_equal(step_ids, step)

    def test_prune_runs_once_and_reports(self):
        ds = blob_dataset()  # split at 0.25 leaves 30 train clips
        stage = StagePlan(strategy=Strategy.PRUNE, start_epoch=2, prune_count=5)
        result = train(ds, quick_config(max_epochs=6, stage=stage))
        assert result.prune_report is not None
        assert len(result.prune_report) == 30
        assert sum(r.removed for r in result.prune_report) == 5
        ranks = [r.rank for r in result.prune_report]
        assert ranks == list(range(1, 31))

    def test_prune_immediately_when_start_epoch_zero(self):
        stage = StagePlan(strategy=Strategy.PRUNE, start_epoch=0, prune_count=3)
        result = train(blob_dataset(), quick_config(max_epochs=2, stage=stage))
        assert sum(r.removed for r in result.prune_report) == 3

    def test_iterative_prune_accumulates_rows(self):
        stage = StagePlan(
            strategy=Strategy.PRUNE, start_epoch=2, prune_count=4, prune_rounds=2
        )
        result = train(blob_dataset(), quick_config(max_epochs=6, stage=stage))
        # first round scores 30 clips, second scores the surviving 26
        assert len(result.prune_report) == 56
        assert sum(r.removed for r in result.prune_report) == 8

    @settings(max_examples=15, deadline=None)
    @given(
        clips=st.integers(2, 5),
        patches=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        rounds=st.integers(1, 3),
        data=st.data(),
    )
    def test_iterative_prune_report_reads_back(
        self, tmp_path_factory, clips, patches, seed, rounds, data
    ):
        # each round lists the earlier rounds' survivors again, ranked from 1
        start = data.draw(st.integers(0 if rounds == 1 else 1, 2), "start_epoch")
        count = data.draw(st.integers(0, 2 * clips), "prune_count")
        stage = StagePlan(Strategy.PRUNE, start, prune_count=count, prune_rounds=rounds)
        config = quick_config(max_epochs=start * rounds + 1, stage=stage)
        try:
            check_plan(config, [clips, clips])
        except InvalidInputError:
            assume(False)
        blobs = generate_blobs(2, clips, patches, 2, cluster_spread=0.5, seed=seed)
        report = train(blobs.data, config).prune_report
        path = tmp_path_factory.mktemp("report") / "prune_report.jsonl"
        write_prune_report(path, report)
        assert read_prune_report(path) == report
        starts = [at for at, row in enumerate(report) if row.rank == 1] + [len(report)]
        assert len(starts) == rounds + 1
        for begin, end in zip(starts, starts[1:]):
            assert [row.rank for row in report[begin:end]] == list(range(1, end - begin + 1))
            assert sum(row.removed for row in report[begin:end]) == min(count, end - begin)

    def test_prune_overflow_rejected_before_first_epoch(self, monkeypatch):
        # 4 rounds x 10 clips cannot come out of the 30 train-split clips
        def no_batches(*args, **kwargs):
            raise AssertionError("an epoch ran before the prune check")

        monkeypatch.setattr("labelnoise.trainer.batch_losses", no_batches)
        stage = StagePlan(
            strategy=Strategy.PRUNE, start_epoch=2, prune_count=10, prune_rounds=4
        )
        with pytest.raises(InvalidInputError, match="would remove 40 of the 30"):
            train(blob_dataset(), quick_config(max_epochs=10, stage=stage))

    def test_prune_check_counts_only_rounds_before_max_epochs(self):
        # rounds would fall at epochs 2, 4, 6, 8; only the first two run
        stage = StagePlan(
            strategy=Strategy.PRUNE, start_epoch=2, prune_count=10, prune_rounds=4
        )
        result = train(blob_dataset(), quick_config(max_epochs=5, stage=stage))
        assert len(result.prune_report) == 30 + 20
        assert sum(r.removed for r in result.prune_report) == 20

    def test_smoothing_changes_the_fit(self):
        from labelnoise import SmoothingPolicy

        ds = blob_dataset()
        plain = train(ds, quick_config())
        smoothed = train(ds, quick_config(smoothing=SmoothingPolicy(epsilon=0.2)))
        assert any(
            not np.array_equal(wa, wb)
            for wa, wb in zip(plain.params.weights, smoothed.params.weights)
        )

    def test_mixup_intra_trains(self):
        result = train(
            blob_dataset(),
            quick_config(max_epochs=30, mixup=MixupPolicy(alpha=0.3, warmup_epochs=5)),
        )
        assert result.history[-1].val_accuracy >= 0.9

    def test_mixup_inter_trains(self):
        policy = MixupPolicy(alpha=0.3, pairing=Pairing.INTER_BATCH)
        result = train(blob_dataset(), quick_config(max_epochs=10, mixup=policy))
        assert len(result.history) == 10

    def test_one_hidden_architecture_trains(self):
        result = train(
            blob_dataset(),
            quick_config(
                max_epochs=30, architecture=Architecture.ONE_HIDDEN, hidden_units=16
            ),
        )
        assert result.history[-1].val_accuracy >= 0.9


def assert_same_rows(got: Dataset, want: Dataset):
    for column in ("example_ids", "clip_ids", "labels", "features"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), column
    assert got.num_classes == want.num_classes


def scattered_clips(clips_per_class, patches, seed):
    """A dataset of ``clips_per_class[c]`` clips of class c, their patch counts taken in
    order from ``patches``, under sparse clip and example ids and in shuffled row order."""
    rng = np.random.default_rng(seed)
    clip_labels = np.repeat(np.arange(len(clips_per_class)), clips_per_class)
    counts = patches[: clip_labels.size]
    sparse_ids = rng.choice(10**6, size=clip_labels.size, replace=False)
    order = rng.permutation(sum(counts))
    return Dataset(
        rng.choice(10**9, size=order.size, replace=False),
        np.repeat(sparse_ids, counts)[order],
        rng.standard_normal((order.size, 3)),
        np.repeat(clip_labels, counts)[order],
        len(clips_per_class),
    )


class TestTrainValidation:
    """``train`` scores validation as row positions of the caller's dataset, through its
    clip table, and builds no dataset of its own."""

    def test_train_builds_no_dataset(self, monkeypatch):
        ds = clip_dataset(3, 8, patches_per_clip=2)
        stage = StagePlan(strategy=Strategy.PRUNE, start_epoch=1, prune_count=1, prune_rounds=2)
        config = quick_config(max_epochs=4, stage=stage)
        built = []
        real_check = Dataset.__post_init__

        def counted(self):
            built.append(self)
            real_check(self)

        monkeypatch.setattr(Dataset, "__post_init__", counted)
        result = train(ds, config)
        assert len(result.history) == 4 and result.prune_report
        assert built == []

    @settings(max_examples=40, deadline=None)
    @given(
        clips_per_class=st.lists(st.integers(2, 6), min_size=2, max_size=4),
        patches=st.lists(st.integers(1, 4), min_size=24, max_size=24),
        val_fraction=st.floats(0.05, 0.6),
        architecture=st.sampled_from(Architecture),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_val_accuracy_is_evaluate_on_the_split_bit_for_bit(
        self, clips_per_class, patches, val_fraction, architecture, seed
    ):
        ds = scattered_clips(clips_per_class, patches, seed)
        _, val_rows = split_rows(ds, val_fraction, RngStream(seed).child(0).generator())
        assume(val_rows.size < ds.n_examples)
        config = quick_config(
            max_epochs=1, batch_size=4, val_fraction=val_fraction, seed=seed,
            architecture=architecture, hidden_units=5,
        )
        result = train(ds, config)
        assert result.history[0].val_accuracy == evaluate(result.params, ds.subset(val_rows))


class TestTrainRows:
    """``train`` keeps its train set as row positions; they must select what the
    dataset-level split and prune select."""

    @settings(max_examples=40, deadline=None)
    @given(
        clips_per_class=st.lists(st.integers(2, 6), min_size=2, max_size=4),
        patches=st.lists(st.integers(1, 4), min_size=24, max_size=24),
        val_fraction=st.floats(0.05, 0.6),
        prune_draw=st.integers(0, 1000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_split_and_prune(
        self, clips_per_class, patches, val_fraction, prune_draw, seed
    ):
        import labelnoise.trainer as trainer_module

        ds = scattered_clips(clips_per_class, patches, seed)
        split_gen = RngStream(seed).child(0).generator()
        train_half, val_half = stratified_split(ds, val_fraction, split_gen)
        train_clips = np.unique(train_half.clip_ids).size
        assume(train_clips >= 1)

        calls = []
        real_split, real_prune = trainer_module.split_rows, trainer_module._prune_now

        def recorded_split(*args):
            calls.append(("split", real_split(*args)))
            return calls[-1][1]

        def recorded_prune(params, dataset, rows, targets, config, epoch):
            # targets cover every dataset row, so pruning leaves them as they are
            assert targets.shape == (dataset.n_examples, dataset.num_classes)
            kept, report_rows = real_prune(params, dataset, rows, targets, config, epoch)
            calls.append(("prune", rows.copy(), kept))
            return kept, report_rows

        prune_count = prune_draw % train_clips
        stage = StagePlan(strategy=Strategy.PRUNE, start_epoch=1, prune_count=prune_count)
        config = quick_config(
            max_epochs=2, batch_size=4, val_fraction=val_fraction, seed=seed, stage=stage
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainer_module, "split_rows", recorded_split)
            patch.setattr(trainer_module, "_prune_now", recorded_prune)
            result = train(ds, config)

        (_, (train_rows, val_rows)), (_, before, after) = calls
        assert_same_rows(ds.subset(train_rows), train_half)
        assert_same_rows(ds.subset(val_rows), val_half)
        assert np.array_equal(before, train_rows)
        losses = {row.clip_id: row.clip_loss for row in result.prune_report}
        kept, removed = prune_dataset(train_half, losses, prune_count)
        assert_same_rows(ds.subset(after), kept)
        assert removed == [row.clip_id for row in result.prune_report if row.removed]
        # the public report of the same losses is train's, loss bits included
        rows = prune_report_rows(losses, prune_count)
        assert rows == result.prune_report
        assert [r.clip_loss.hex() for r in rows] == [r.clip_loss.hex() for r in result.prune_report]


class TestTrainMemory:
    """``train`` gathers batches from the caller's dataset instead of copying its
    train rows; 8192 rows x 64 features, 2 Lq epochs. Each peak is taken after one untraced
    run of the same ``train``: the first run in a process imports modules (the first
    ``np.unique`` imports ``numpy.ma``), and the trace would count them when the test runs
    alone."""

    @staticmethod
    def peak_over_feature_bytes(traced_peak, stage):
        data = generate_blobs(8, 256, 4, 64, 0.25, seed=3).data
        config = quick_config(
            loss=LossSpec(LossKind.LQ, q=0.7),
            max_epochs=2,
            batch_size=64,
            val_fraction=0.15,
            stage=stage,
        )
        train(data, config)
        return traced_peak(lambda: train(data, config)) / data.features.nbytes

    def test_peak_without_pruning(self, traced_peak):
        # the validation copy and the targets; copying the train rows gave 1.26
        assert self.peak_over_feature_bytes(traced_peak, StagePlan()) <= 0.6

    def test_peak_with_one_prune_round(self, traced_peak):
        # plus one transient gather of the current rows for the prune forward;
        # copying the train rows and then the survivors gave 2.37
        # 347 of the 1736 train-split clips
        stage = StagePlan(strategy=Strategy.PRUNE, start_epoch=1, prune_count=347)
        assert self.peak_over_feature_bytes(traced_peak, stage) <= 1.6


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidInputError):
            quick_config(batch_size=0)
        with pytest.raises(InvalidInputError):
            quick_config(max_epochs=-1)
        with pytest.raises(InvalidInputError):
            quick_config(initial_lr=0.0)
        with pytest.raises(InvalidInputError):
            quick_config(lr_halving_patience=0)
        with pytest.raises(InvalidInputError):
            quick_config(early_stop_patience=0)
        with pytest.raises(InvalidInputError):
            quick_config(val_fraction=0.0)
        with pytest.raises(InvalidInputError):
            quick_config(val_fraction=1.0)
        with pytest.raises(InvalidInputError):
            quick_config(architecture=Architecture.ONE_HIDDEN, hidden_units=0)

    def test_epoch_record_validation(self):
        good = dict(epoch=0, train_loss=0.5, val_accuracy=0.5, lr=0.01, kept_fraction=1.0)
        EpochRecord(**good)
        for key, value in [
            ("lr", 0.0),
            ("kept_fraction", 0.0),
            ("kept_fraction", 1.5),
            ("val_accuracy", 1.2),
            ("train_loss", -1.0),
            ("train_loss", float("nan")),
        ]:
            with pytest.raises(InvalidInputError):
                EpochRecord(**{**good, key: value})


class TestArtifacts:
    def test_metrics_round_trip(self, tmp_path):
        history = [
            EpochRecord(0, 1.25, 0.5, 0.01, 1.0),
            EpochRecord(1, 0.75, 0.625, 0.01, 0.921875),
        ]
        path = tmp_path / "metrics.jsonl"
        write_metrics(path, history)
        assert read_metrics(path) == history

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"epoch": 2, "lr": 0.01', "not valid JSON (Expecting ',' delimiter at column 24)"),
            ('{"epoch": 2, "lr": 0.01}', "missing field 'train_loss'"),
            (
                '{"epoch": 2, "kept_fraction": 1.5, "lr": 0.01, "train_loss": 0.5,'
                ' "val_accuracy": 0.5}',
                "kept_fraction must lie in (0, 1], got 1.5",
            ),
            (
                '{"epoch": "3", "kept_fraction": 1.0, "lr": 0.01, "train_loss": 0.5,'
                ' "val_accuracy": 0.5}',
                'epoch must be an integer, got "3"',
            ),
            (
                '{"epoch": 3, "kept_fraction": 1.0, "lr": "0.01", "train_loss": 0.5,'
                ' "val_accuracy": 0.5}',
                'lr must be a number, got "0.01"',
            ),
            (
                '{"epoch": 4.9, "kept_fraction": 1.0, "lr": 0.01, "train_loss": 0.5,'
                ' "val_accuracy": 0.5}',
                "epoch must be an integer, got 4.9",
            ),
            (
                '{"epoch": 3, "kept_fraction": true, "lr": 0.01, "train_loss": 0.5,'
                ' "val_accuracy": 0.5}',
                "kept_fraction must be a number, got true",
            ),
            (
                '{"epoch": 3, "kept_fraction": 1.0, "lr": NaN, "train_loss": 0.5,'
                ' "val_accuracy": 0.5}',
                "lr must be a finite number, got NaN",
            ),
            (
                '{"epoch": 3, "kept_fraction": 1.0, "lr": Infinity, "train_loss": 0.5,'
                ' "val_accuracy": 0.5}',
                "lr must be a finite number, got Infinity",
            ),
            (
                '{"epoch": -5, "kept_fraction": 1.0, "lr": 0.01, "train_loss": 0.5,'
                ' "val_accuracy": 0.5}',
                "epoch must lie in [0, inf), got -5",
            ),
            # json's message ends in "at"; the column follows it once
            ('{"epoch": 1, "lr": "0.0', "(Unterminated string starting at column 20)"),
        ],
        ids=[
            "not_json", "missing_field", "out_of_range",
            "epoch_string", "lr_string", "epoch_float", "kept_fraction_bool",
            "lr_nan", "lr_infinity", "epoch_negative", "unterminated_string",
        ],
    )
    def test_malformed_metrics_line_named(self, tmp_path, line, message):
        path = tmp_path / "metrics.jsonl"
        write_metrics(path, [EpochRecord(0, 1.25, 0.5, 0.01, 1.0)])
        path.write_text(path.read_text() + "\n" + line + "\n")  # blank lines count
        with pytest.raises(InvalidInputError, match=r"metrics\.jsonl, line 3: ") as excinfo:
            read_metrics(path)
        assert message in str(excinfo.value)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(1, 0.01)], "line 1: epoch 1 follows the start of the file"),
            ([(0, 0.01), (5, 0.01), (2, 0.5)], "line 2: epoch 5 follows epoch 0"),
            ([(0, 0.01), (1, 0.005), (1, 0.005)], "line 3: epoch 1 follows epoch 1"),
            ([(0, 0.01), (1, 0.5)], "line 2: lr 0.5 follows lr 0.01"),
            ([(0, 0.01), (1, 0.005), (2, 0.001)], "line 3: lr 0.001 follows lr 0.005"),
        ],
        ids=["first_epoch_not_0", "epoch_skips", "epoch_repeats", "lr_rises", "lr_not_halved"],
    )
    def test_metrics_lines_follow_as_train_writes_them(self, tmp_path, rows, message):
        path = tmp_path / "metrics.jsonl"
        write_metrics(path, [EpochRecord(epoch, 0.5, 0.5, lr, 1.0) for epoch, lr in rows])
        with pytest.raises(InvalidInputError) as excinfo:
            read_metrics(path)
        rule = "epochs run 0, 1, 2, ..." if "epoch" in message else "the rate only stays or halves"
        assert str(excinfo.value) == f"{path}, {message}; {rule}"

    def test_trained_metrics_read_back(self, tmp_path, monkeypatch):
        # every epoch after the first ties the first, so each stall halves the rate
        scores = iter([0.5] * 6)
        monkeypatch.setattr("labelnoise.trainer._clip_accuracy", lambda *scoring: next(scores))
        config = quick_config(
            max_epochs=6, batch_size=64, lr_halving_patience=1, early_stop_patience=8
        )
        history = train(clip_dataset(num_classes=2, clips_per_class=4), config).history
        assert [record.lr for record in history] == [0.01 / 2**k for k in (0, 0, 1, 2, 3, 4)]
        path = tmp_path / "metrics.jsonl"
        write_metrics(path, history)
        assert read_metrics(path) == history

    def test_model_round_trip(self, tmp_path):
        params = init_params(Architecture.ONE_HIDDEN, 3, 4, 5, RngStream(2).generator())
        path = tmp_path / "model.json"
        save_model(path, params)
        loaded = load_model(path)
        assert loaded.architecture == params.architecture
        assert loaded.hidden_units == params.hidden_units
        for wa, wb in zip(params.weights, loaded.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_numpy_class_count_survives_save_and_load(self, tmp_path):
        ds = blob_dataset()
        ds = Dataset(ds.example_ids, ds.clip_ids, ds.features, ds.labels, np.int64(2))
        assert type(ds.num_classes) is int
        result = train(ds, quick_config(max_epochs=2))
        path = tmp_path / "model.json"
        save_model(path, result.params)
        loaded = load_model(path)
        assert loaded.num_classes == 2
        for loaded_w, trained_w in zip(loaded.weights, result.params.weights):
            assert loaded_w.tobytes() == trained_w.tobytes()

    def test_loaded_model_evaluates_identically(self, tmp_path):
        ds = blob_dataset()
        result = train(ds, quick_config(max_epochs=5))
        path = tmp_path / "model.json"
        save_model(path, result.params)
        assert evaluate(load_model(path), ds) == evaluate(result.params, ds)


def noisy_blobs():
    """Three classes with 30% flipped clip labels, so discard rejects rows."""
    annotated = generate_blobs(
        num_classes=3,
        clips_per_class=12,
        patches_per_clip=2,
        feature_dim=4,
        cluster_spread=0.3,
        seed=11,
    )
    return inject_symmetric_noise(
        annotated, NoiseSpec(NoiseKind.SYMMETRIC_IV, rate=0.3, seed=12)
    ).data


_LQ = LossSpec(LossKind.LQ, q=0.7)
_TWO_GROUPS = SmoothingPolicy(
    epsilon=0.2,
    delta_epsilon=0.1,
    group_of_class={
        0: NoiseGroup.LOW_NOISE,
        1: NoiseGroup.HIGH_NOISE,
        2: NoiseGroup.HIGH_NOISE,
    },
)

# One small configuration per trainer path; the batch size of 10 leaves a
# short last batch in every epoch.
GOLDEN_CONFIGS = {
    "linear_cce": dict(),
    "linear_mae": dict(loss=LossSpec(LossKind.MAE)),
    "linear_lq_max_fraction_discard": dict(
        loss=_LQ,
        stage=StagePlan(
            strategy=Strategy.DISCARD,
            start_epoch=2,
            rule=SelectionRule.max_fraction(0.6),
        ),
    ),
    "hidden_lq_percentile_discard_inter_mixup": dict(
        loss=_LQ,
        architecture=Architecture.ONE_HIDDEN,
        hidden_units=6,
        stage=StagePlan(
            strategy=Strategy.DISCARD,
            start_epoch=1,
            rule=SelectionRule.at_percentile(70.0),
        ),
        mixup=MixupPolicy(alpha=0.4, pairing=Pairing.INTER_BATCH),
    ),
    # warm-up epochs draw no partner permutation and no mixup stream
    "hidden_lq_percentile_discard_inter_mixup_warmup": dict(
        loss=_LQ,
        architecture=Architecture.ONE_HIDDEN,
        hidden_units=6,
        stage=StagePlan(
            strategy=Strategy.DISCARD,
            start_epoch=1,
            rule=SelectionRule.at_percentile(70.0),
        ),
        mixup=MixupPolicy(alpha=0.4, warmup_epochs=2, pairing=Pairing.INTER_BATCH),
    ),
    "hidden_cce_intra_mixup": dict(
        architecture=Architecture.ONE_HIDDEN,
        hidden_units=5,
        mixup=MixupPolicy(alpha=0.3, warmup_epochs=2),
    ),
    "linear_lq_iterative_prune": dict(
        loss=_LQ,
        stage=StagePlan(
            strategy=Strategy.PRUNE, start_epoch=2, prune_count=3, prune_rounds=2
        ),
    ),
    "hidden_mae_prune_at_start": dict(
        loss=LossSpec(LossKind.MAE),
        architecture=Architecture.ONE_HIDDEN,
        hidden_units=4,
        stage=StagePlan(strategy=Strategy.PRUNE, start_epoch=0, prune_count=2),
    ),
    "linear_cce_two_group_smoothing": dict(smoothing=_TWO_GROUPS),
    "linear_early_stop": dict(max_epochs=40, early_stop_patience=2),
    "linear_no_epochs": dict(max_epochs=0),
}

# SHA-256 of the metrics, model and prune-report bytes each configuration
# writes. A change to the training loop must leave all of them unchanged.
GOLDEN_DIGESTS = {
    "hidden_cce_intra_mixup": "3d7be7fef69873ae241d22b98eb88c64eb157167e1289c40f79a87e53f447074",
    "hidden_lq_percentile_discard_inter_mixup": "7710ac9d3e30913142e9b35f65021d2badd60d4d8c0caea113655208a87e017a",
    "hidden_lq_percentile_discard_inter_mixup_warmup": "5cca50da49b212f122b67d3126f58ca6eed01fba8e500f633bb6d147062c8dfa",
    "hidden_mae_prune_at_start": "2266b353e43c73d2ab9ee726e117fa562db7535f0cd1fbf709489127cc910fa1",
    "linear_cce": "a190434fb97c8bac95fb000f8815ea611cd580f44a6d6d1fc9cd2457eeb211c2",
    "linear_cce_two_group_smoothing": "c80e0c1ad3bf76bf96e6ae5e514d39d99f3142b972aa62f58520dbfb62670bde",
    "linear_early_stop": "aeecaebf0ff67cac8ee19cfbf43c350a32e0a799968169d95f077b97c2cc54c0",
    "linear_lq_iterative_prune": "2ee69b84e1d0ed9b2d62bac74fd0877e149af5e0b130dcd5b91b997b48845932",
    "linear_lq_max_fraction_discard": "3020f3af04192b59f6f8787dd9587ad56d8f551dda80b7cfc0e857c06b03fdd0",
    "linear_mae": "794aa5e945b5288b37f2489b9fec29160042c6b5d15738ba820e779d5cf3bc32",
    "linear_no_epochs": "10165f09ae1899e6a0d49b50a842de07a55d59384b4113d5da8a4198f5cb1c14",
}


def artifact_digest(result, tmp_path):
    digest = hashlib.sha256()
    write_metrics(tmp_path / "metrics.jsonl", result.history)
    save_model(tmp_path / "model.json", result.params)
    digest.update((tmp_path / "metrics.jsonl").read_bytes())
    digest.update((tmp_path / "model.json").read_bytes())
    if result.prune_report is not None:
        write_prune_report(tmp_path / "prune.jsonl", result.prune_report)
        digest.update((tmp_path / "prune.jsonl").read_bytes())
    return digest.hexdigest()


class TestGoldenArtifacts:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_artifact_bytes_unchanged(self, name, tmp_path):
        config = quick_config(
            **{"max_epochs": 6, "batch_size": 10, "initial_lr": 0.05, "seed": 7,
               **GOLDEN_CONFIGS[name]}
        )
        result = train(noisy_blobs(), config)
        assert artifact_digest(result, tmp_path) == GOLDEN_DIGESTS[name]
