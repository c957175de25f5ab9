"""The column-oriented dataset view that training code operates on.

A :class:`Dataset` carries exactly four parallel columns (example id, clip id, feature vector,
observed label) plus the class count, checked as it is built (at least one row, every feature
finite); it keeps the arrays it is given, each as :func:`own_column` gives it, and makes them
read-only. Ground truth about injected corruption lives in the harness's annotated wrapper,
never here, so losses, smoothing, mixup, selection, and the trainer cannot peek at it even by
accident.

Examples are patches; several patches share a clip, and labels attach to
clips (every patch of a clip carries the same label). The clip table, built
once with the dataset, maps each row to its clip, :class:`GroupMeans` is the
one mean of rows per group (per clip, or per class), and :func:`draw_clips` is
the one seeded per-class draw of clips (the split and both injectors make it).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import Checked, InvalidInputError


@dataclass(frozen=True)
class Dataset(Checked):
    """The four columns and the class count, checked as they are built. A dataset has at least
    one row, since nothing can split, train on, evaluate or corrupt one of none; that check
    comes after the shape and length checks, so a malformed column keeps its own message. Each
    column is kept as :func:`own_column` gives it and made read-only, which does not reach a
    view taken of it before: a writeable view that a caller kept of an array still changes the
    dataset built from that array, past its checks and its clip table."""

    example_ids: np.ndarray  # (N,) int64, unique
    clip_ids: np.ndarray     # (N,) int64
    features: np.ndarray     # (N, F) float64, F >= 1
    labels: np.ndarray       # (N,) int64 in [0, num_classes)
    num_classes: Annotated[int, "[2, inf)"]

    def __post_init__(self):
        for name in ("example_ids", "clip_ids", "features", "labels"):
            kind = np.float64 if name == "features" else np.int64
            column = np.asarray(getattr(self, name), dtype=kind)
            object.__setattr__(self, name, own_column(column))
        super().__post_init__()
        n = self.example_ids.shape[0]
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise InvalidInputError("features must be a (N, F) array aligned with ids")
        if self.features.shape[1] == 0:
            raise InvalidInputError("features must have at least one column")
        if self.clip_ids.shape != (n,) or self.labels.shape != (n,):
            raise InvalidInputError("dataset columns must have equal lengths")
        if n == 0:
            raise InvalidInputError("a dataset must have at least one example")
        ids = np.sort(self.example_ids)
        if (ids[1:] == ids[:-1]).any():
            raise InvalidInputError("example ids must be unique")
        if ((self.labels < 0) | (self.labels >= self.num_classes)).any():
            raise InvalidInputError("labels outside [0, num_classes)")
        clips, inverse = np.unique(self.clip_ids, return_inverse=True)
        clip_labels = np.empty(clips.size, dtype=np.int64)
        clip_labels[inverse] = self.labels
        if np.any(clip_labels[inverse] != self.labels):
            raise InvalidInputError("patches of one clip must share a label")
        finite = np.isfinite(self.features).all(axis=1)
        if not finite.all():
            bad = self.example_ids[finite.argmin()]
            raise InvalidInputError(f"example {bad} has a non-finite feature value")
        columns = (self.example_ids, self.clip_ids, self.features, self.labels)
        for column in (*columns, clips, inverse, clip_labels):
            column.flags.writeable = False
        object.__setattr__(self, "_clip_table", (clips, inverse, clip_labels))

    @property
    def n_examples(self) -> int:
        return int(self.example_ids.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def subset(self, index) -> "Dataset":
        """The rows a boolean mask selects, in dataset order, or those an index array names, in
        the array's order; a subset, like any dataset, keeps at least one row."""
        return Dataset(
            self.example_ids[index],
            self.clip_ids[index],
            self.features[index],
            self.labels[index],
            self.num_classes,
        )

    def clip_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(unique clip ids, per-example clip index, per-clip label), built with the dataset.

        Unique clip ids are sorted ascending; the per-example index maps
        each row to its position in that list. The arrays are read-only.
        """
        return self._clip_table

    def clip_of_example(self) -> dict[int, int]:
        return {
            int(example): int(clip)
            for example, clip in zip(self.example_ids, self.clip_ids)
        }


def own_column(column: np.ndarray) -> np.ndarray:
    """``column``, or a copy of it when it views a writeable array, which could change it after
    a record that keeps the column has checked it and made it read-only."""
    base = column.base
    return column.copy() if isinstance(base, np.ndarray) and base.flags.writeable else column


class GroupMeans:
    """Each group's mean row of a (N,) or (N, ``width``) table whose row i is in group
    ``group[i]``: a clip table's ``inverse``, say, or each clip's original class.

    Built once per grouping; each call is one bincount and one divide. The bincount adds each
    group's rows in row order from 0.0, as ``np.add.at`` does (``np.add.reduceat`` adds a
    segment's first row to the sum of the others), so every mean has the bits of a running sum
    divided by the group's size. An empty group's mean is 0, and a row whose group is at or
    past ``count`` adds to none.
    """

    def __init__(self, group: np.ndarray, count: int, width: int = 1):
        self.width = width
        # the cell of each table entry, row-major: group * width + column
        self.cells = (group[:, None] * width + np.arange(width)).ravel()
        self.sizes = np.bincount(group, minlength=count)[:count]
        # an empty group's sum is 0.0, divided by 1
        self._divisors = np.maximum(self.sizes, 1).astype(np.float64)[:, None]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The (count,) or (count, width) means of ``values``, shaped (N,) or (N, width)."""
        count, width = self.sizes.size, self.width
        sums = np.bincount(self.cells, weights=values.ravel(), minlength=count * width)
        means = sums[: count * width].reshape(count, width) / self._divisors
        return means.reshape((count,) + values.shape[1:])


def draw_clips(
    clip_classes: np.ndarray, count: Callable[[int, int], int], gen: np.random.Generator
) -> np.ndarray:
    """A seeded per-class draw of clips, as a boolean mask over ``clip_classes``.

    For each class present, in ascending order, ``gen`` shuffles that class's ``n`` clips
    (taken in clip order) and the first ``count(cls, n)`` of the shuffle are drawn.
    """
    drawn = np.zeros(clip_classes.size, dtype=bool)
    for cls in np.unique(clip_classes):
        members = np.flatnonzero(clip_classes == cls)
        take = count(int(cls), members.size)
        drawn[members[gen.permutation(members.size)[:take]]] = True
    return drawn
