"""A small deterministic classifier and the training loop around it.

The model is a linear softmax classifier by default (features -> classes),
with an optional one-hidden-layer variant using max(0, .) activation. The
loop follows a fixed protocol: seeded shuffled mini-batches, Adam updates,
learning-rate halving when validation accuracy plateaus, early stopping,
and a stratified clip-level validation split. Noise defenses compose in a
fixed order per batch: smoothing is pre-applied to the target matrix at
dataset preparation, mixup mixes the batch (epoch-gated by its warm-up),
losses are computed per example, a discard rule may reject high-loss
instances, and the Adam step uses the mean gradient of the kept instances
only. With the prune strategy, the train set sheds its highest-loss clips
once the stage plan's start epoch has completed, and training continues on
the survivors.

Validation data is never smoothed, mixed, or discarded, and accuracy is
always clip-level: patch softmax outputs are averaged per clip before the
argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from typing import Annotated

import numpy as np

from .data import Dataset, GroupMeans, draw_clips
from .errors import Checked, InvalidInputError, TrainingError, check_class_map, within
from .losses import (
    LossReport,
    LossSpec,
    _check_loss_values,
    _loss_values,
    batch_losses,
    loss_gradients_from_probs,
)
from .mixup import Batch, MixupPolicy, Pairing, apply_mixup
from .numerics import RngStream, softmax_rows
from .records import read_record, read_records, write_record, write_records
from .selection import (
    PruneRecord,
    StagePlan,
    Strategy,
    _prune_round,
    _report,
    discard_mask,
)
from .smoothing import SmoothingPolicy, targets_matrix

# Sub-stream ids carved out of the run-level stream. Each concern draws
# from its own stream so that toggling one feature never shifts another's
# randomness.
_SPLIT, _INIT, _SHUFFLE, _MIXUP, _PARTNER = 0, 1, 2, 3, 4

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Architecture(str, Enum):
    LINEAR = "linear"
    ONE_HIDDEN = "one_hidden"


class _Layout(Checked):
    """A checked record of a model layout, whose hidden layer, if any, has at least one unit."""

    def __post_init__(self):
        super().__post_init__()
        if self.architecture == Architecture.ONE_HIDDEN:
            within("hidden_units", self.hidden_units, "[1, inf)")


@dataclass
class ModelParams(_Layout):
    """Weights of the classifier; ``weights`` is [W, b] or [W1, b1, W2, b2]."""

    architecture: Architecture
    feature_dim: Annotated[int, "[1, inf)"]
    num_classes: Annotated[int, "[2, inf)"]
    hidden_units: int
    weights: list[np.ndarray]

    def __post_init__(self):
        super().__post_init__()
        expected = _weight_shapes(
            self.architecture, self.feature_dim, self.num_classes, self.hidden_units
        )
        shapes = [w.shape for w in self.weights]
        if shapes != expected:
            raise InvalidInputError(
                f"weight shapes {shapes} do not match architecture layout {expected}"
            )
        if not all(np.all(np.isfinite(w)) for w in self.weights):
            raise InvalidInputError("model weights must be finite")


def _weight_shapes(
    architecture: Architecture, feature_dim: int, num_classes: int, hidden_units: int
) -> list[tuple[int, ...]]:
    if architecture == Architecture.LINEAR:
        return [(feature_dim, num_classes), (num_classes,)]
    return [
        (feature_dim, hidden_units),
        (hidden_units,),
        (hidden_units, num_classes),
        (num_classes,),
    ]


def init_params(
    architecture: Architecture,
    feature_dim: int,
    num_classes: int,
    hidden_units: int,
    gen: np.random.Generator,
) -> ModelParams:
    """Gaussian weights of standard deviation 1/sqrt(fan_in) drawn from ``gen``; zero biases."""
    weights: list[np.ndarray] = []
    for shape in _weight_shapes(architecture, feature_dim, num_classes, hidden_units):
        if len(shape) == 2:
            fan_in = shape[0]
            weights.append(gen.standard_normal(shape) / math.sqrt(fan_in))
        else:
            weights.append(np.zeros(shape))
    return ModelParams(architecture, feature_dim, num_classes, hidden_units, weights)


def _forward_cached(
    params: ModelParams, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    # the biases and the ReLU go into the product's own array: the bits of ``x @ w + b``
    # and ``np.maximum(..., 0.0)`` without their copies
    if params.architecture == Architecture.LINEAR:
        w, b = params.weights
        logits = features @ w
        logits += b
        return logits, None
    w1, b1, w2, b2 = params.weights
    hidden = features @ w1
    hidden += b1
    np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ w2
    logits += b2
    return logits, hidden


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Logits for a (N, F) feature matrix, F the model's ``feature_dim``."""
    if features.shape[1:] != (params.feature_dim,):
        raise InvalidInputError(
            f"features of shape {features.shape} do not fit a model of {params.feature_dim} inputs"
        )
    return _forward_cached(params, features)[0]


def _checked_forward(params: ModelParams, features, epoch: int, where: str = "") -> tuple:
    """:func:`_forward_cached` during training: logits that are not all finite mean that
    training diverged, raised as ``TrainingError`` at ``epoch``, its message ending ``where``."""
    logits, hidden = _forward_cached(params, features)
    if not np.isfinite(logits).all():
        raise TrainingError(f"training diverged: non-finite logits{where}", epoch)
    return logits, hidden


def _param_grads(
    params: ModelParams,
    features: np.ndarray,
    logit_grads: np.ndarray,
    hidden: np.ndarray | None,
    grads: list[np.ndarray],
) -> None:
    """Backprop pre-scaled per-row logit gradients into ``grads`` (one array per weight)."""
    if params.architecture == Architecture.LINEAR:
        np.matmul(features.T, logit_grads, out=grads[0])
        logit_grads.sum(axis=0, out=grads[1])
        return
    w1, b1, w2, b2 = params.weights
    hidden_grads = logit_grads @ w2.T
    hidden_grads *= hidden > 0.0
    np.matmul(features.T, hidden_grads, out=grads[0])
    hidden_grads.sum(axis=0, out=grads[1])
    np.matmul(hidden.T, logit_grads, out=grads[2])
    logit_grads.sum(axis=0, out=grads[3])


def _flat_views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive slices of a flat buffer, reshaped to ``shapes`` (views, not copies)."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


def _flat_params(
    params: ModelParams,
) -> tuple[ModelParams, np.ndarray, list[np.ndarray], np.ndarray]:
    """Copy ``params`` into one flat weight buffer and add a zeroed gradient buffer.

    Returns (params whose weights view the buffer, the weight buffer,
    gradient views shaped like the weights, the gradient buffer).
    """
    shapes = [w.shape for w in params.weights]
    flat_weights = np.concatenate([w.ravel() for w in params.weights])
    flat_grads = np.zeros_like(flat_weights)
    viewed = replace(params, weights=_flat_views(flat_weights, shapes))
    return viewed, flat_weights, _flat_views(flat_grads, shapes), flat_grads


class _Adam:
    """Adam over one flat parameter buffer: a single vectorized update per step."""

    def __init__(self, size: int):
        self.first = np.zeros(size)
        self.second = np.zeros(size)
        self.step_count = 0

    def step(self, weights: np.ndarray, grads: np.ndarray, lr: float) -> None:
        self.step_count += 1
        correction1 = 1.0 - ADAM_BETA1**self.step_count
        correction2 = 1.0 - ADAM_BETA2**self.step_count
        m, v = self.first, self.second
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grads
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grads * grads
        weights -= lr * (m / correction1) / (np.sqrt(v / correction2) + ADAM_EPS)


@dataclass(frozen=True)
class TrainConfig(_Layout):
    loss: LossSpec
    max_epochs: Annotated[int, "[0, inf)"] = 100
    batch_size: Annotated[int, "[1, inf)"] = 64
    initial_lr: Annotated[float, "(0, inf)"] = 0.001
    lr_halving_patience: Annotated[int, "[1, inf)"] = 5
    early_stop_patience: Annotated[int, "[1, inf)"] = 15
    val_fraction: Annotated[float, "(0, 1)"] = 0.15
    seed: int = 0
    stage: StagePlan = field(default_factory=StagePlan)
    smoothing: SmoothingPolicy | None = None
    mixup: MixupPolicy | None = None
    architecture: Architecture = Architecture.LINEAR
    hidden_units: int = 32


@dataclass(frozen=True)
class EpochRecord(Checked):
    epoch: Annotated[int, "[0, inf)"]
    train_loss: Annotated[float, "[0, inf)"]
    val_accuracy: Annotated[float, "[0, 1]"]
    lr: Annotated[float, "(0, inf)"]
    kept_fraction: Annotated[float, "(0, 1]"]


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochRecord]
    prune_report: list[PruneRecord] | None
    steps: int  # optimizer steps, one per batch, over every epoch run
    rows_seen: int  # batch rows whose losses were computed, summed over those steps
    rows_kept: int  # the rows of those the steps trained on: all but what discard drops


def split_rows(
    dataset: Dataset, val_fraction: float, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Clip-level stratified split: per class, :func:`_val_clips` of its clips go to validation.

    Clips are assigned by a shuffle within each class, drawn from ``gen`` by
    :func:`draw_clips`; no clip straddles the two splits, and together they
    cover the dataset. Returns the ascending positions in ``dataset`` of the
    train rows and of the validation rows.
    """
    within("val_fraction", val_fraction, "(0, 1)")
    _, inverse, clip_labels = dataset.clip_table()
    val_mask = draw_clips(clip_labels, partial(_val_clips, val_fraction), gen)[inverse]
    return np.flatnonzero(~val_mask), np.flatnonzero(val_mask)


def _val_clips(val_fraction: float, cls: int, n: int) -> int:
    """The clips of class ``cls``, of ``n >= 1``, that the split sends to validation; a class
    of one clip cannot be split."""
    if n < 2:
        raise InvalidInputError(f"class {cls} has {n} clip(s); need at least 2 to split")
    return math.ceil(val_fraction * n)


def stratified_split(
    dataset: Dataset, val_fraction: float, gen: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """The train and validation rows of :func:`split_rows` as two datasets, in row order."""
    train_rows, val_rows = split_rows(dataset, val_fraction, gen)
    return dataset.subset(train_rows), dataset.subset(val_rows)


def evaluate(params: ModelParams, dataset: Dataset) -> float:
    """Clip-level accuracy: average patch softmax per clip, argmax vs clip label. A label the
    model has no class for, or logits that are not all finite, raise ``InvalidInputError``."""
    if (top := dataset.labels.max()) >= params.num_classes:
        raise InvalidInputError(f"label {top} is not a class of a {params.num_classes}-class model")
    logits = forward(params, dataset.features)
    if not np.isfinite(logits).all():
        raise InvalidInputError("cannot evaluate a model whose logits are not all finite")
    clips, inverse, clip_labels = dataset.clip_table()
    return _clip_accuracy(logits, GroupMeans(inverse, clips.size, params.num_classes), clip_labels)


def _clip_accuracy(logits: np.ndarray, clip_means: GroupMeans, clip_labels: np.ndarray) -> float:
    predicted = clip_means(softmax_rows(logits)).argmax(axis=1)
    # an exact count over an exact size: the same float as the mean of the bools
    return np.count_nonzero(predicted == clip_labels) / predicted.size


def check_plan(config: TrainConfig, clips_per_class: list[int]) -> set[int]:
    """The epochs before ``config.max_epochs`` that start a prune round, once classes of
    ``clips_per_class`` clips each are known to keep a train clip through the split and rounds.

    Raises ``InvalidInputError`` when a class has one clip (a class of none is skipped, as
    the split skips it), when the split sends every clip to validation, and when
    ``prune_count`` times the rounds that start before ``max_epochs`` is positive and reaches
    the train-split clips.
    """
    val_clips = sum(
        _val_clips(config.val_fraction, cls, n) for cls, n in enumerate(clips_per_class) if n
    )
    train_clips = sum(clips_per_class) - val_clips
    if train_clips == 0:
        raise InvalidInputError(
            f"val_fraction {config.val_fraction} sends every clip to validation"
            f" ({val_clips} of {val_clips} clips); none is left to train on"
        )
    plan = config.stage
    if plan.strategy != Strategy.PRUNE:
        return set()
    # a plan that starts at epoch 0 has one round (StagePlan checks this)
    starts = (plan.start_epoch * (k + 1) for k in range(plan.prune_rounds))
    prune_epochs = {epoch for epoch in starts if epoch < config.max_epochs}
    to_remove = plan.prune_count * len(prune_epochs)
    if to_remove and to_remove >= train_clips:
        raise InvalidInputError(
            f"{len(prune_epochs)} prune round(s) of {plan.prune_count} clips"
            f" would remove {to_remove} of the {train_clips} train-split clips;"
            " at least one must survive"
        )
    return prune_epochs


def train(
    dataset: Dataset, config: TrainConfig, rng: RngStream | None = None
) -> TrainResult:
    """Run the full training protocol on ``dataset``; see the module docstring.

    Returns the parameters of the best-validation epoch (ties resolved to
    the earliest), the per-epoch history, the prune report when the
    stage plan pruned, and the counts of steps and rows the run trained.
    """
    if config.smoothing is not None:
        check_class_map(
            "train.smoothing.groups", config.smoothing.group_of_class, dataset.num_classes
        )
    if rng is None:
        rng = RngStream(config.seed)

    # The train set is ``rows``, the ascending positions of its rows in
    # ``dataset``: batches gather their features and targets by those positions.
    # Validation is one contiguous gather, since a product's bits depend on
    # its row count, scored through the clip table: no clip straddles the
    # split, and table positions sort as clip ids do.
    rows, val_rows = split_rows(dataset, config.val_fraction, rng.child(_SPLIT).generator())
    _, inverse, clip_labels = dataset.clip_table()
    prune_epochs = check_plan(config, np.bincount(clip_labels).tolist())
    val_features = dataset.features.take(val_rows, axis=0)
    val_clips, val_groups = np.unique(inverse.take(val_rows), return_inverse=True)
    val_scoring = GroupMeans(val_groups, val_clips.size, dataset.num_classes)
    val_clip_labels = clip_labels.take(val_clips)
    targets = targets_matrix(dataset.labels, dataset.num_classes, config.smoothing)

    # The weights, their gradient and the Adam moments each live in one flat
    # buffer; ``params.weights`` and ``grads`` are reshaped views into them.
    params, flat_weights, grads, flat_grads = _flat_params(
        init_params(
            config.architecture,
            dataset.feature_dim,
            dataset.num_classes,
            config.hidden_units,
            rng.child(_INIT).generator(),
        )
    )
    adam = _Adam(flat_weights.size)
    lr = config.initial_lr
    best_val = -math.inf
    # The best epoch's weights, as a flat copy; the initial weights are
    # returned if no epoch runs.
    best_weights = flat_weights.copy()
    # consecutive epochs without a strict improvement; a tie is a stall
    stall = 0
    history: list[EpochRecord] = []
    prune_report: list[PruneRecord] | None = None
    discard = config.stage.strategy == Strategy.DISCARD
    inter_mixup = config.mixup is not None and config.mixup.pairing == Pairing.INTER_BATCH
    # one generator per concern, each drawn in order over the whole run
    shuffle_gen = rng.child(_SHUFFLE).generator()
    partner_gen = rng.child(_PARTNER).generator()
    mixup_gen = rng.child(_MIXUP).generator()
    steps = rows_seen = rows_kept = 0

    for epoch in range(config.max_epochs):
        if lr == 0.0:
            raise TrainingError(f"learning rate halved to 0.0 after {stall} stalled epochs", epoch)
        if epoch in prune_epochs:
            rows, report_rows = _prune_now(params, dataset, rows, targets, config, epoch)
            prune_report = (prune_report or []) + report_rows

        n = rows.size
        shuffled = rows.take(shuffle_gen.permutation(n))
        # a warm-up epoch mixes nothing, so it draws no partner permutation or mixup weight
        mixing = config.mixup is not None and epoch >= config.mixup.warmup_epochs
        if mixing and inter_mixup:
            partners = rows.take(partner_gen.permutation(n))

        kept_loss_sum = 0.0
        kept_count = 0
        batches = range(0, n, config.batch_size)
        for start in batches:
            stop = start + config.batch_size
            batch_rows = shuffled[start:stop]
            # take copies the same rows as fancy indexing, with less overhead
            features = dataset.features.take(batch_rows, axis=0)
            batch_targets = targets.take(batch_rows, axis=0)
            if mixing:
                partner = None
                if inter_mixup:
                    partner_rows = partners[start:stop]
                    partner = Batch(
                        dataset.features.take(partner_rows, axis=0),
                        targets.take(partner_rows, axis=0),
                    )
                mixed = apply_mixup(
                    Batch(features, batch_targets), partner, config.mixup, epoch, mixup_gen
                )
                features, batch_targets = mixed.features, mixed.targets

            logits, hidden = _checked_forward(params, features, epoch)
            probs = softmax_rows(logits)
            losses = _loss_values(config.loss, batch_targets, probs)
            if discard:
                report = LossReport(losses, dataset.example_ids.take(batch_rows))
                keep = discard_mask(
                    report, config.stage.rule, epoch, config.stage.start_epoch
                )
                if not keep.all():
                    # one index array and five takes: the rows of five boolean
                    # masks, at half their cost
                    kept = np.flatnonzero(keep)
                    features = features.take(kept, axis=0)
                    batch_targets = batch_targets.take(kept, axis=0)
                    probs = probs.take(kept, axis=0)
                    losses = losses.take(kept)
                    if hidden is not None:
                        hidden = hidden.take(kept, axis=0)
            loss_sum = _check_loss_values(losses)

            n_kept = len(losses)
            logit_grads = loss_gradients_from_probs(config.loss, batch_targets, probs)
            logit_grads /= n_kept
            _param_grads(params, features, logit_grads, hidden, grads)
            adam.step(flat_weights, flat_grads, lr)

            kept_loss_sum += loss_sum
            kept_count += n_kept
        steps += len(batches)
        rows_seen += n
        rows_kept += kept_count

        val_logits, _ = _checked_forward(params, val_features, epoch, " in validation")
        val_acc = _clip_accuracy(val_logits, val_scoring, val_clip_labels)
        history.append(
            EpochRecord(
                epoch=epoch,
                train_loss=kept_loss_sum / kept_count,
                val_accuracy=val_acc,
                lr=lr,
                kept_fraction=kept_count / n,
            )
        )
        if val_acc > best_val:
            best_val = val_acc
            np.copyto(best_weights, flat_weights)
            stall = 0
        else:
            stall += 1
            if stall % config.lr_halving_patience == 0:
                lr /= 2.0
            if stall >= config.early_stop_patience:
                break

    shapes = [w.shape for w in params.weights]
    best = [w.copy() for w in _flat_views(best_weights, shapes)]
    return TrainResult(
        replace(params, weights=best), history, prune_report, steps, rows_seen, rows_kept
    )


def _prune_now(
    params: ModelParams,
    dataset: Dataset,
    rows: np.ndarray,
    targets: np.ndarray,
    config: TrainConfig,
    epoch: int,
) -> tuple[np.ndarray, list[PruneRecord]]:
    """One prune round over the train ``rows``: (surviving rows, report rows). Its clips are
    ranked in ``dataset``'s clip table by the mean loss of their rows; ``targets`` has one row
    per row of ``dataset``. The forward runs on one contiguous gather of the rows, freed once it
    has run; a forward over chunks, or over all of ``dataset``, could change the losses' bits."""
    logits, _ = _checked_forward(
        params, dataset.features.take(rows, axis=0), epoch, " while pruning"
    )
    probs = softmax_rows(logits)
    report = batch_losses(
        config.loss, targets.take(rows, axis=0), probs, dataset.example_ids.take(rows)
    )
    clips, inverse, _ = dataset.clip_table()
    groups = inverse.take(rows)
    means = GroupMeans(groups, clips.size)
    losses = means(report.per_example)
    # the round's clips: those with a row in rows
    order, dropped = _prune_round(clips, losses, config.stage.prune_count, means.sizes > 0)
    return rows[~dropped[groups]], _report(clips, losses, order, dropped)


def write_metrics(path, history: list[EpochRecord]) -> None:
    """Epoch metrics, one JSON record per line, replacing ``path`` whole and atomically."""
    write_records(path, history)


def read_metrics(path) -> list[EpochRecord]:
    """Epoch records of a metrics file; a malformed line raises ``InvalidInputError`` naming it.

    Besides what :class:`EpochRecord` checks, a line is malformed, as :func:`train` never
    writes it, when its epoch is not the previous line's plus one (0 on the first line), or
    when its ``lr`` is neither the previous line's nor exactly half of it.
    """
    last: EpochRecord | None = None

    def check(row: EpochRecord) -> EpochRecord:
        nonlocal last
        if row.epoch != (last.epoch + 1 if last else 0):
            after = f"epoch {last.epoch}" if last else "the start of the file"
            raise ValueError(f"epoch {row.epoch} follows {after}; epochs run 0, 1, 2, ...")
        if last and row.lr not in (last.lr, last.lr / 2.0):
            raise ValueError(f"lr {row.lr} follows lr {last.lr}; the rate only stays or halves")
        last = row
        return row

    return read_records(path, EpochRecord, check)


def save_model(path, params: ModelParams) -> None:
    """Portable JSON model file: architecture descriptor plus weight arrays, written atomically."""
    write_record(path, params)


def load_model(path) -> ModelParams:
    """The model in a :func:`save_model` file; a malformed one raises ``InvalidInputError``."""
    return read_record(path, ModelParams)
