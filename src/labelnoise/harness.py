"""Synthetic clip/patch datasets, controlled label noise, and experiments.

Data is generated as Gaussian blobs with the clip structure of audio
tagging: class centers sit on a seeded unit sphere, each clip draws a
center near its class center, and each patch draws features near its clip
center. Labels attach to clips. Two kinds of corruption can be injected at
the clip level:

* symmetric in-vocabulary noise, where a clip's label is flipped to a
  uniformly chosen different class (the true label stays inside the class
  set);
* out-of-vocabulary replacement, where a clip's features are replaced by
  draws from a uniform box twice the dataset's per-dimension range while
  its label is kept; the true content then belongs to none of the classes,
  recorded with the ``OOV_CLEAN_LABEL`` sentinel.

Ground truth (clean labels and corruption flags) lives only in
:class:`AnnotatedDataset`, which also holds it per clip, and training code
receives the plain ``data`` view and cannot observe it. Experiments run
several independent generate -> corrupt -> train -> evaluate pipelines on
seeds derived from ``(base_seed, run_index)`` alone, evaluate on an
uncorrupted held-out test set drawn from the same class centers, and
aggregate accuracies as mean plus a 95% Student-t half-width.

Dataset files, laid out by :mod:`labelnoise.records`, hold one example per
line; the harness-private variant adds ``clean_label`` and ``corrupted``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from typing import Annotated, Mapping

import numpy as np

from .data import Dataset, GroupMeans, draw_clips, own_column
from .errors import (
    Checked, ConfigurationError, ExperimentError, InvalidInputError, check_class_map, json_text,
)
from .numerics import RngStream, _mean, derive_seed, mean_ci
from .records import read_dataset_rows, read_record, write_dataset_rows, write_record
from .selection import PruneRecord
from .smoothing import NoiseGroup
from .trainer import TrainConfig, TrainResult, check_plan, evaluate, train

OOV_CLEAN_LABEL = -1

# Stream tags: one independent stream per concern.
_CENTER_STREAM = 101
_CLIP_STREAM = {"train": 102, "test": 103}
_NOISE_STREAM = 104

# Seed-derivation tags for per-run seeds inside an experiment.
_DATA_TAG = 1
_NOISE_TAG = 2
_TRAIN_TAG = 3


class NoiseKind(str, Enum):
    SYMMETRIC_IV = "symmetric"
    OOV_REPLACE = "oov"


@dataclass(frozen=True)
class NoiseSpec(Checked):
    """What corruption to inject and how much.

    ``rate`` applies to all clips; ``rate_by_class`` (class index -> rate)
    overrides it per class and must then cover every class. An
    :class:`ExperimentConfig` derives the seed of each run and requires 0 here.
    """

    kind: NoiseKind
    rate: Annotated[float, "[0, 1]"] = 0.0
    seed: int = 0
    rate_by_class: Mapping[int, Annotated[float, "[0, 1]"]] | None = None


@dataclass(frozen=True)
class AnnotatedDataset:
    """A dataset plus the ground truth that training code must never see.

    An uncorrupted row keeps its label as its clean label; a clean label is a class in
    ``[0, num_classes)`` or ``OOV_CLEAN_LABEL``; and the patches of one clip share their
    clean label and flag. The check keeps, in clip-table order, each clip's original class
    (its clean label, or its label if out of vocabulary) and flag, for the noise functions.
    The constructor keeps the arrays it is given, each as ``own_column`` gives it, and makes
    them read-only once they pass its checks.
    """

    data: Dataset
    clean_labels: np.ndarray  # int64; OOV_CLEAN_LABEL marks out-of-vocabulary content
    corrupted: np.ndarray     # bool

    def __post_init__(self):
        clean = own_column(np.asarray(self.clean_labels, dtype=np.int64))
        flags = own_column(np.asarray(self.corrupted, dtype=bool))
        object.__setattr__(self, "clean_labels", clean)
        object.__setattr__(self, "corrupted", flags)
        data = self.data
        n = data.n_examples
        if clean.shape != (n,) or flags.shape != (n,):
            raise InvalidInputError("annotations must align with the dataset rows")
        if np.any(data.labels[~flags] != clean[~flags]):
            raise InvalidInputError("uncorrupted rows must keep label == clean_label")
        # OOV_CLEAN_LABEL is -1, just below the classes
        outside = (clean < OOV_CLEAN_LABEL) | (clean >= data.num_classes)
        if outside.any():
            at = outside.argmax()
            raise InvalidInputError(
                f"clean_label {clean[at]} of clip {data.clip_ids[at]} is neither a class in"
                f" [0, {data.num_classes}) nor OOV_CLEAN_LABEL ({OOV_CLEAN_LABEL})"
            )
        truth = clean * 2 + flags  # one integer per (clean label, flag) pair
        _, inverse, clip_labels = data.clip_table()
        truth_of_clip = np.empty(clip_labels.size, dtype=np.int64)
        truth_of_clip[inverse] = truth
        disagree = truth_of_clip[inverse] != truth
        if disagree.any():
            raise InvalidInputError(
                f"patches of clip {data.clip_ids[disagree.argmax()]}"
                " disagree on clean_label or corrupted"
            )
        original = np.where(truth_of_clip >= 0, truth_of_clip // 2, clip_labels)
        clip_flags = truth_of_clip % 2 == 1
        # frozen only once every check has passed, so a refused call leaves its arrays writeable
        for column in (clean, flags, original, clip_flags):
            column.flags.writeable = False
        object.__setattr__(self, "_clip_truth", (original, clip_flags))


def generate_blobs(
    num_classes: int,
    clips_per_class: int,
    patches_per_clip: int,
    feature_dim: int,
    cluster_spread: float,
    seed: int,
    partition: str = "train",
) -> AnnotatedDataset:
    """Clip-structured Gaussian blobs; labels equal the generating class.

    Class centers depend on ``seed`` only, so ``partition="test"`` yields a
    fresh set of clips from the same centers to serve as held-out
    evaluation data. The sizes are checked as :class:`DatasetParams` checks them.
    """
    DatasetParams(num_classes, clips_per_class, patches_per_clip, feature_dim, cluster_spread)
    if not isinstance(partition, str) or partition not in _CLIP_STREAM:
        raise InvalidInputError(f'partition must be "train" or "test", got {json_text(partition)}')

    center_gen = RngStream(seed, _CENTER_STREAM).generator()
    raw = center_gen.standard_normal((num_classes, feature_dim))
    centers = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    n_clips = num_classes * clips_per_class
    n = n_clips * patches_per_clip
    if n * feature_dim * 8 > np.iinfo(np.intp).max:
        # numpy refuses a float64 array of this many bytes with a ValueError before
        # allocating; fail as an allocation too large for memory does
        raise MemoryError(f"{n} patches x {feature_dim} dims is too big for an array")
    clip_gen = RngStream(seed, _CLIP_STREAM[partition]).generator()
    clip_offsets = clip_gen.standard_normal((n_clips, feature_dim)) * cluster_spread
    patch_offsets = clip_gen.standard_normal((n, feature_dim)) * cluster_spread

    clip_centers = np.repeat(centers, clips_per_class, axis=0) + clip_offsets
    features = np.repeat(clip_centers, patches_per_clip, axis=0) + patch_offsets
    labels = np.repeat(np.arange(num_classes), clips_per_class * patches_per_clip)
    dataset = Dataset(
        example_ids=np.arange(n),
        clip_ids=np.repeat(np.arange(n_clips), patches_per_clip),
        features=features,
        labels=labels,
        num_classes=num_classes,
    )
    return AnnotatedDataset(dataset, labels, np.zeros(n, dtype=bool))


def _round_count(x: float) -> int:
    # round-half-up, so rate 0.5 over 3 clips corrupts 2 of them
    return int(math.floor(x + 0.5))


def _draw_clips(annotated: AnnotatedDataset, spec: NoiseSpec, kind: NoiseKind) -> tuple:
    """``(gen, picked)`` for an injector of ``kind``: the noise generator of ``spec`` and the
    mask of the clips to corrupt, by a seeded draw of exact counts.

    Uniform rate: exactly round(rate * N_clips) over the whole dataset.
    Per-class rates: exactly round(rate_c * N_clips_c) within each class.
    """
    if spec.kind != kind:
        named = {NoiseKind.SYMMETRIC_IV: "a symmetric", NoiseKind.OOV_REPLACE: "an oov"}[kind]
        raise InvalidInputError(f"expected {named} noise spec, got {json_text(spec.kind)}")
    gen = RngStream(spec.seed, _NOISE_STREAM).generator()
    original, _ = annotated._clip_truth
    rates = spec.rate_by_class
    check_class_map("noise.rate_by_class", rates, annotated.data.num_classes)
    if rates is None:  # every clip in one class, at the uniform rate
        original, rates = np.zeros_like(original), {0: spec.rate}
    return gen, draw_clips(original, lambda cls, n: _round_count(rates[cls] * n), gen)


def inject_symmetric_noise(annotated: AnnotatedDataset, spec: NoiseSpec) -> AnnotatedDataset:
    """Flip the labels of a seeded-exact subset of clips to other classes."""
    gen, picked = _draw_clips(annotated, spec, NoiseKind.SYMMETRIC_IV)
    if not picked.any():
        return annotated
    _, inverse, clip_labels = annotated.data.clip_table()
    draws = gen.integers(0, annotated.data.num_classes - 1, size=np.count_nonzero(picked))
    labels = clip_labels.copy()
    old = labels[picked]
    # a draw at or above the old label skips it, so the new label always differs
    labels[picked] = np.where(draws < old, draws, draws + 1)
    return _annotate(replace(annotated.data, labels=labels[inverse]), annotated.clean_labels)


def inject_oov_noise(annotated: AnnotatedDataset, spec: NoiseSpec) -> AnnotatedDataset:
    """Replace a seeded-exact subset of clips' features with box noise.

    The box spans twice the dataset's per-dimension range, centered on it,
    so replaced features land outside the clean data's bounding box with
    overwhelming probability in moderate dimension. Labels are kept; the
    clean label becomes the out-of-vocabulary sentinel.
    """
    gen, picked = _draw_clips(annotated, spec, NoiseKind.OOV_REPLACE)
    if not picked.any():
        return annotated
    lo = annotated.data.features.min(axis=0)
    hi = annotated.data.features.max(axis=0)
    center = (lo + hi) / 2.0
    width = hi - lo
    features = annotated.data.features.copy()
    clean = annotated.clean_labels.copy()
    _, inverse, _ = annotated.data.clip_table()
    rows = np.flatnonzero(picked[inverse])
    features[rows] = gen.uniform(
        center - width, center + width, size=(rows.size, features.shape[1])
    )
    clean[rows] = OOV_CLEAN_LABEL
    return _annotate(replace(annotated.data, features=features), clean)


def _annotate(dataset: Dataset, clean_labels: np.ndarray) -> AnnotatedDataset:
    """``dataset`` and its clean labels; a row is corrupted when its label is not its clean label
    or its content is out of vocabulary, so a flip back to the clean label clears its clip."""
    corrupted = (dataset.labels != clean_labels) | (clean_labels == OOV_CLEAN_LABEL)
    return AnnotatedDataset(dataset, clean_labels, corrupted)


def inject_noise(annotated: AnnotatedDataset, spec: NoiseSpec) -> AnnotatedDataset:
    """Corrupt ``annotated`` with the injector of ``spec``'s kind, looked up by name at each
    call (so a wrapper installed on that module attribute sees the call)."""
    if spec.kind == NoiseKind.SYMMETRIC_IV:
        return inject_symmetric_noise(annotated, spec)
    return inject_oov_noise(annotated, spec)


def per_class_corruption_rates(annotated: AnnotatedDataset) -> np.ndarray:
    """Fraction of corrupted clips per original class (clip-level); 0 for a class with no clip."""
    original, flags = annotated._clip_truth
    return GroupMeans(original, annotated.data.num_classes)(flags)


def noise_group_map(annotated: AnnotatedDataset) -> dict[int, NoiseGroup]:
    """Two-group split of the classes by injected corruption rate.

    Classes whose rate falls strictly below the median are LOW_NOISE; the
    rest (median included) are HIGH_NOISE.
    """
    rates = per_class_corruption_rates(annotated)
    median = float(np.median(rates))
    return {
        cls: NoiseGroup.LOW_NOISE if rates[cls] < median else NoiseGroup.HIGH_NOISE
        for cls in range(annotated.data.num_classes)
    }


def prune_precision(
    report: list[PruneRecord], annotated: AnnotatedDataset
) -> float | None:
    """Fraction of removed clips that were actually corrupted; None if none removed."""
    removed = np.unique([row.clip_id for row in report if row.removed]).astype(np.int64)
    if not removed.size:
        return None
    clips, _, _ = annotated.data.clip_table()
    _, flags = annotated._clip_truth
    at = np.minimum(np.searchsorted(clips, removed), clips.size - 1)
    missing = removed[clips[at] != removed]
    if missing.size:
        raise InvalidInputError(f"removed clips not present in the dataset: {missing[:5].tolist()}")
    return float(flags[at].mean())


# --- serialization ---------------------------------------------------------


def write_dataset(path, dataset: Dataset) -> None:
    """Public dataset file: no ground-truth fields."""
    write_dataset_rows(path, dataset)


def write_annotated(path, annotated: AnnotatedDataset) -> None:
    """Harness-private dataset file including clean labels and flags."""
    write_dataset_rows(path, annotated.data, (annotated.clean_labels, annotated.corrupted))


def read_dataset(path) -> Dataset:
    """Read any dataset file as the public view (ground truth dropped)."""
    return read_dataset_rows(path, require_truth=False, annotate=AnnotatedDataset).data


def read_as_annotated(path) -> AnnotatedDataset:
    """Read any dataset file as annotated.

    Files without ground-truth fields are treated as clean: every row keeps
    its label as the clean label and carries a false corruption flag. A
    file that annotates only some rows is rejected. Use
    :func:`read_annotated` when the annotations must actually be present.
    """
    return read_dataset_rows(path, require_truth=False, annotate=AnnotatedDataset)


def read_annotated(path) -> AnnotatedDataset:
    """Read a harness-private dataset file; fails if ground truth is absent."""
    return read_dataset_rows(path, require_truth=True, annotate=AnnotatedDataset)


def dataset_fingerprint(annotated: AnnotatedDataset) -> str:
    """Content hash of the columns and ground truth (order-sensitive).

    A shape header (rows, feature dim) is followed by each column's
    canonical bytes: ids, labels and clean labels as little-endian int64,
    corruption flags as one byte each, features as little-endian float64
    in row-major order. Non-contiguous or Fortran-ordered columns hash the
    same as their contiguous copies.
    """
    data = annotated.data
    digest = hashlib.sha256()
    digest.update(np.asarray([data.n_examples, data.feature_dim], dtype="<i8"))
    columns = (
        (data.example_ids, "<i8"),
        (data.clip_ids, "<i8"),
        (data.labels, "<i8"),
        (annotated.clean_labels, "<i8"),
        (annotated.corrupted, "u1"),
        (data.features, "<f8"),
    )
    for column, dtype in columns:
        digest.update(memoryview(np.ascontiguousarray(column, dtype=dtype)))
    return digest.hexdigest()[:16]


# --- experiments -----------------------------------------------------------


@dataclass(frozen=True)
class DatasetParams(Checked):
    num_classes: Annotated[int, "[2, inf)"] = 4
    clips_per_class: Annotated[int, "[1, inf)"] = 50
    patches_per_clip: Annotated[int, "[1, inf)"] = 3
    feature_dim: Annotated[int, "[1, inf)"] = 8
    cluster_spread: Annotated[float, "[0, inf)"] = 0.25
    test_clips_per_class: Annotated[int, "[1, inf)"] = 25


@dataclass(frozen=True)
class ExperimentConfig(Checked):
    """Everything one experiment needs: data, noise, method, protocol. Each run's seeds
    derive from ``base_seed`` and the run index, so ``train.seed`` and ``noise.seed`` stay 0."""

    dataset: DatasetParams
    train: TrainConfig
    noise: NoiseSpec | None = None
    runs: Annotated[int, "[1, inf)"] = 7
    base_seed: int = 0
    auto_noise_groups: bool = False

    def __post_init__(self):
        super().__post_init__()
        for name, spec in (("train", self.train), ("noise", self.noise)):
            if spec is not None and spec.seed != 0:
                raise ConfigurationError(
                    f"{name}.seed is {spec.seed}, but an experiment derives each run's seeds"
                    " from base_seed and the run index; leave it out"
                )
        if self.auto_noise_groups and self.train.smoothing is None:
            raise ConfigurationError(
                "auto noise groups require a smoothing policy to apply them to"
            )
        if self.auto_noise_groups and self.noise is None:
            raise ConfigurationError(
                "auto noise groups require a noise spec to derive the group map from"
            )


@dataclass(frozen=True)
class RunSummary(Checked):
    """What ``summary.json`` holds: at least one run, each with its accuracy and the
    fingerprint of its dataset, and the mean and confidence half-width of the accuracies. The
    mean must be exactly the one :func:`mean_ci` takes; the half-width keeps only its bound,
    since the last bits of its t quantile vary with the CPU's SIMD level."""

    per_run_accuracy: tuple[Annotated[float, "[0, 100]"], ...]  # percent
    mean: Annotated[float, "[0, 100]"]
    ci_half_width: Annotated[float, "[0, inf)"]
    config_fingerprint: str
    dataset_fingerprints: tuple[str, ...]

    def __post_init__(self):
        super().__post_init__()
        runs = len(self.per_run_accuracy)
        if runs == 0:
            raise InvalidInputError("per_run_accuracy must list at least one run")
        if len(self.dataset_fingerprints) != runs:
            raise InvalidInputError(
                f"{len(self.dataset_fingerprints)} dataset fingerprint(s) for {runs} run(s);"
                " each run has one"
            )
        if self.mean != (mean := _mean(self.per_run_accuracy)):
            raise InvalidInputError(
                f"mean {self.mean!r} is not the mean of per_run_accuracy, {mean!r}"
            )


@dataclass(frozen=True)
class RunResult(TrainResult):
    """A run's :class:`TrainResult`, as ``train`` returned it, plus what the harness measured."""

    accuracy: float  # percent, on the clean held-out test set
    prune_precision: float | None
    dataset_fingerprint: str


@dataclass(frozen=True)
class ExperimentResult:
    summary: RunSummary
    runs: tuple[RunResult, ...]


def config_fingerprint(cfg: ExperimentConfig) -> str:
    """Stable hash of the fully resolved configuration."""
    canonical = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _single_run(cfg: ExperimentConfig, run_index: int) -> RunResult:
    dp = cfg.dataset
    data_seed = derive_seed(cfg.base_seed, _DATA_TAG, run_index)
    noise_seed = derive_seed(cfg.base_seed, _NOISE_TAG, run_index)
    train_seed = derive_seed(cfg.base_seed, _TRAIN_TAG, run_index)

    train_annotated = generate_blobs(
        dp.num_classes, dp.clips_per_class, dp.patches_per_clip,
        dp.feature_dim, dp.cluster_spread, data_seed, partition="train",
    )
    test_annotated = generate_blobs(
        dp.num_classes, dp.test_clips_per_class, dp.patches_per_clip,
        dp.feature_dim, dp.cluster_spread, data_seed, partition="test",
    )
    if cfg.noise is not None:
        train_annotated = inject_noise(train_annotated, replace(cfg.noise, seed=noise_seed))

    train_cfg = cfg.train
    if cfg.auto_noise_groups:
        groups = noise_group_map(train_annotated)
        train_cfg = replace(
            train_cfg, smoothing=replace(train_cfg.smoothing, group_of_class=groups)
        )
    result = train(train_annotated.data, replace(train_cfg, seed=train_seed))
    accuracy = 100.0 * evaluate(result.params, test_annotated.data)
    precision = (
        prune_precision(result.prune_report, train_annotated)
        if result.prune_report is not None
        else None
    )
    return RunResult(
        *(getattr(result, f.name) for f in fields(TrainResult)),
        accuracy, precision, dataset_fingerprint(train_annotated),
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute ``cfg.runs`` paired pipelines and aggregate their accuracies.

    Dataset and corruption seeds depend only on (base_seed, run index), so
    two methods run with the same base seed see identical noisy datasets
    run for run.

    Four config errors are rejected before run 0. A per-class map
    (``rate_by_class``, or a smoothing group map that is not derived
    automatically) that does not key exactly the classes raises
    ``ConfigurationError``. A class of one clip, which the split cannot
    divide, a ``val_fraction`` that sends every clip to validation, and a
    prune plan that cannot fit the train split, raise ``InvalidInputError``
    from :func:`trainer.check_plan`, on the clip counts of the noise-free
    dataset; label noise moves clips between classes, so a run's own split
    may differ and ``train`` checks it again.

    A failure inside run ``i`` is prefixed ``run i:``. An ``InvalidInputError``
    or ``ConfigurationError`` keeps its class, as if it had been found before
    run 0; any other exception becomes an ``ExperimentError`` carrying ``i``.
    """
    dp = cfg.dataset
    if cfg.noise is not None:
        check_class_map("noise.rate_by_class", cfg.noise.rate_by_class, dp.num_classes)
    if cfg.train.smoothing is not None and not cfg.auto_noise_groups:
        groups = cfg.train.smoothing.group_of_class
        check_class_map("train.smoothing.groups", groups, dp.num_classes)
    check_plan(cfg.train, [dp.clips_per_class] * dp.num_classes)
    runs: list[RunResult] = []
    for run_index in range(cfg.runs):
        try:
            runs.append(_single_run(cfg, run_index))
        except (InvalidInputError, ConfigurationError) as exc:
            raise type(exc)(f"run {run_index}: {exc}") from exc
        except Exception as exc:
            raise ExperimentError(str(exc), run_index) from exc
    accuracies = [run.accuracy for run in runs]
    mean, half_width = mean_ci(accuracies)
    summary = RunSummary(
        per_run_accuracy=tuple(accuracies),
        mean=mean,
        ci_half_width=half_width,
        config_fingerprint=config_fingerprint(cfg),
        dataset_fingerprints=tuple(run.dataset_fingerprint for run in runs),
    )
    return ExperimentResult(summary, tuple(runs))


def write_summary(path, summary: RunSummary) -> None:
    """``summary.json``, written atomically: each field of ``summary``, tuples as lists."""
    write_record(path, summary, indent=2)


def read_summary(path) -> RunSummary:
    """The summary in a ``summary.json``; a malformed one raises ``InvalidInputError``."""
    return read_record(path, RunSummary)
