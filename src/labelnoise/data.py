"""The column-oriented dataset view that training code operates on.

A :class:`Dataset` carries exactly four parallel columns (example id,
clip id, feature vector, observed label) plus the class count. Ground
truth about injected corruption lives in the harness's annotated wrapper,
never here, so losses, smoothing, mixup, selection, and the trainer cannot
peek at it even by accident.

Examples are patches; several patches share a clip, and labels attach to
clips (every patch of a clip carries the same label).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, integer_fields


@dataclass(frozen=True)
class Dataset:
    example_ids: np.ndarray  # (N,) int64, unique
    clip_ids: np.ndarray     # (N,) int64
    features: np.ndarray     # (N, F) float64
    labels: np.ndarray       # (N,) int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "example_ids", np.asarray(self.example_ids, dtype=np.int64))
        object.__setattr__(self, "clip_ids", np.asarray(self.clip_ids, dtype=np.int64))
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        integer_fields(self, "num_classes")
        n = self.example_ids.shape[0]
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise InvalidInputError("features must be a (N, F) array aligned with ids")
        if self.clip_ids.shape != (n,) or self.labels.shape != (n,):
            raise InvalidInputError("dataset columns must have equal lengths")
        if self.num_classes < 2:
            raise InvalidInputError(f"need at least 2 classes, got {self.num_classes}")
        if n:
            if np.unique(self.example_ids).size != n:
                raise InvalidInputError("example ids must be unique")
            if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
                raise InvalidInputError("labels outside [0, num_classes)")
            order = np.argsort(self.clip_ids, kind="stable")
            boundary = np.diff(self.clip_ids[order]) != 0
            disagree = (np.diff(self.labels[order]) != 0) & ~boundary
            if np.any(disagree):
                raise InvalidInputError("patches of one clip must share a label")

    @property
    def n_examples(self) -> int:
        return int(self.example_ids.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def subset(self, index) -> "Dataset":
        """Row subset (boolean mask or index array); original order preserved."""
        return Dataset(
            self.example_ids[index],
            self.clip_ids[index],
            self.features[index],
            self.labels[index],
            self.num_classes,
        )

    def clip_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(unique clip ids, per-example clip index, per-clip label).

        Unique clip ids are sorted ascending; the per-example index maps
        each row to its position in that list.
        """
        if self.n_examples == 0:
            raise InvalidInputError("empty dataset has no clips")
        clips, inverse = np.unique(self.clip_ids, return_inverse=True)
        clip_labels = np.empty(clips.size, dtype=np.int64)
        clip_labels[inverse] = self.labels
        return clips, inverse, clip_labels

    def clip_of_example(self) -> dict[int, int]:
        return {
            int(example): int(clip)
            for example, clip in zip(self.example_ids, self.clip_ids)
        }
