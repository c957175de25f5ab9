"""Large-loss instance rejection: thresholds, mini-batch discard, pruning.

Training is treated as two stages. For the first ``start_epoch`` completed
epochs every instance participates. Afterwards a selection rule converts
the batch's loss values into a rejection threshold (either a fraction of
the largest loss or a percentile) and instances above it are dropped from
the gradient update (DISCARD), or the train set itself is pruned once by
removing the highest-loss clips (PRUNE). Patch losses aggregate to clip
losses by arithmetic mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .errors import ConfigurationError, InvalidInputError, enum_member, integer_fields
from .losses import LossReport, _check_loss_values
from .numerics import percentile
from .records import read_records, write_records


class SelectionKind(str, Enum):
    MAX_FRACTION = "max_fraction"
    PERCENTILE = "percentile"


@dataclass(frozen=True)
class SelectionRule:
    """Threshold rule: ``fraction * max(losses)`` or ``percentile(losses, level)``."""

    kind: SelectionKind
    fraction: float | None = None
    level: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", enum_member("kind", self.kind, SelectionKind))
        if self.kind == SelectionKind.MAX_FRACTION:
            if self.fraction is None or not 0.0 <= self.fraction <= 1.0:
                raise InvalidInputError(
                    f"max-fraction rule needs fraction in [0, 1], got {self.fraction}"
                )
        elif self.level is None or not 0.0 <= self.level <= 100.0:
            raise InvalidInputError(f"percentile rule needs level in [0, 100], got {self.level}")

    @classmethod
    def max_fraction(cls, fraction: float) -> "SelectionRule":
        return cls(SelectionKind.MAX_FRACTION, fraction=fraction)

    @classmethod
    def at_percentile(cls, level: float) -> "SelectionRule":
        return cls(SelectionKind.PERCENTILE, level=level)


class Strategy(str, Enum):
    NONE = "none"
    DISCARD = "discard"
    PRUNE = "prune"


@dataclass(frozen=True)
class StagePlan:
    """When and how stage-two selection kicks in.

    ``start_epoch`` counts completed epochs: discarding first applies in
    epoch ``start_epoch``, and pruning runs right before it. With
    ``prune_rounds > 1`` pruning repeats every ``start_epoch`` epochs
    (an optional iterative mode; single-shot is the default).
    """

    strategy: Strategy = Strategy.NONE
    start_epoch: int = 0
    rule: SelectionRule | None = None
    prune_count: int = 0
    prune_rounds: int = 1

    def __post_init__(self):
        object.__setattr__(self, "strategy", enum_member("strategy", self.strategy, Strategy))
        integer_fields(self, "start_epoch", "prune_count", "prune_rounds")
        if self.start_epoch < 0:
            raise InvalidInputError(f"start_epoch must be >= 0, got {self.start_epoch}")
        if self.strategy == Strategy.DISCARD and self.rule is None:
            raise ConfigurationError("discard strategy requires a selection rule")
        if self.prune_count < 0:
            raise InvalidInputError(f"prune_count must be >= 0, got {self.prune_count}")
        if self.prune_rounds < 1:
            raise InvalidInputError(f"prune_rounds must be >= 1, got {self.prune_rounds}")
        if self.prune_rounds > 1 and self.start_epoch == 0:
            raise ConfigurationError("iterative pruning requires start_epoch >= 1")


def threshold_from_rule(losses, rule: SelectionRule) -> float:
    """Rejection threshold for a non-empty array of non-negative losses."""
    values = np.asarray(losses, dtype=np.float64)
    if values.size == 0:
        raise InvalidInputError("cannot derive a threshold from an empty loss array")
    _check_loss_values(values)
    if rule.kind == SelectionKind.MAX_FRACTION:
        return float(rule.fraction * values.max())
    return percentile(values, rule.level)


def discard_mask(
    losses: LossReport, rule: SelectionRule, epoch: int, start_epoch: int
) -> np.ndarray:
    """Keep-mask for one batch (True = keep).

    Before ``start_epoch`` completed epochs everything is kept. Afterwards
    instances with loss above the rule's threshold are rejected, except
    that a batch never rejects everything: if it would, the instances
    attaining the minimum loss are kept instead.
    """
    if len(losses) == 0:
        raise InvalidInputError("cannot build a mask for an empty loss report")
    values = losses.per_example
    if epoch < start_epoch:
        return np.ones(len(losses), dtype=bool)
    keep = values <= threshold_from_rule(values, rule)
    if not keep.any():
        keep = values == values.min()
    return keep


def _clip_means(clip_ids: np.ndarray, losses: np.ndarray) -> dict[int, float]:
    """Arithmetic mean of ``losses`` per clip of the rows' ``clip_ids``, keyed by clip id.

    bincount adds each clip's losses in row order from 0.0, so every mean has
    the bits of a plain running sum divided by the clip's row count.
    """
    clips, inverse = np.unique(clip_ids, return_inverse=True)
    means = np.bincount(inverse, weights=losses) / np.bincount(inverse)
    return dict(zip(clips.tolist(), means.tolist()))


def clip_losses(
    patch_losses: LossReport, clip_of_example: Mapping[int, int]
) -> dict[int, float]:
    """Arithmetic mean of patch losses per clip."""
    clip_ids = []
    for example_id in patch_losses.example_ids:
        key = int(example_id)
        if key not in clip_of_example:
            raise ConfigurationError(f"example {key} has no clip assignment")
        clip_ids.append(int(clip_of_example[key]))
    return _clip_means(np.asarray(clip_ids, dtype=np.int64), patch_losses.per_example)


def _removal_order(clip_loss_map: Mapping[int, float]) -> list[int]:
    # Largest loss first; among equal losses the higher clip id goes first,
    # so lower ids survive longest.
    return sorted(clip_loss_map, key=lambda clip: (-clip_loss_map[clip], -clip))


def prune_rows(
    clip_ids: np.ndarray, clip_loss_map: Mapping[int, float], prune_count: int
) -> tuple[np.ndarray, list[int]]:
    """Drop the ``prune_count`` highest-loss clips from rows with these clip ids.

    Every clip must have a loss entry. Returns the ascending positions of
    the kept rows and the removed clip ids, highest loss first.
    """
    clips = np.unique(clip_ids)
    if prune_count >= clips.size:
        raise InvalidInputError(
            f"prune_count {prune_count} must be smaller than the clip count {clips.size}"
        )
    missing = [int(c) for c in clips if int(c) not in clip_loss_map]
    if missing:
        raise ConfigurationError(f"clips without a loss entry: {missing[:5]}")
    if prune_count == 0:
        return np.arange(clip_ids.size), []
    scored = {int(c): float(clip_loss_map[int(c)]) for c in clips}
    removed = _removal_order(scored)[:prune_count]
    return np.flatnonzero(~np.isin(clip_ids, np.asarray(removed, dtype=np.int64))), removed


def prune_dataset(
    dataset: Dataset, clip_loss_map: Mapping[int, float], prune_count: int
) -> tuple[Dataset, list[int]]:
    """:func:`prune_rows` on ``dataset``: the kept dataset, in row order, and the removed clips."""
    kept, removed = prune_rows(dataset.clip_ids, clip_loss_map, prune_count)
    return (dataset.subset(kept) if removed else dataset), removed


@dataclass(frozen=True)
class PruneRecord:
    """One line of a prune report: a clip's loss (finite, non-negative), rank and fate."""

    clip_id: int
    clip_loss: float
    rank: int
    removed: bool

    def __post_init__(self):
        if not (math.isfinite(self.clip_loss) and self.clip_loss >= 0.0):
            raise InvalidInputError(
                f"clip_loss must be finite and non-negative, got {self.clip_loss}"
            )
        if self.rank < 1:
            raise InvalidInputError(f"rank must be >= 1, got {self.rank}")


def prune_report_rows(
    clip_loss_map: Mapping[int, float], removed: Sequence[int]
) -> list[PruneRecord]:
    """Report rows for every scored clip, ranked by removal order (rank 1 first)."""
    removed_set = set(int(c) for c in removed)
    rows = []
    for rank, clip in enumerate(_removal_order(clip_loss_map), start=1):
        rows.append(
            PruneRecord(int(clip), float(clip_loss_map[clip]), rank, clip in removed_set)
        )
    return rows


def write_prune_report(path, rows: Sequence[PruneRecord]) -> None:
    write_records(path, rows)


def read_prune_report(path) -> list[PruneRecord]:
    """Rows of a prune report; a malformed line raises ``InvalidInputError`` naming it.

    Besides what :class:`PruneRecord` checks, a line is malformed when its clip already
    appeared in the same prune round (each round's ranks start at 1), or when an earlier
    round removed it.
    """
    in_round: set[int] = set()
    removed: set[int] = set()

    def check(row: PruneRecord) -> PruneRecord:
        if row.rank == 1:
            in_round.clear()
        if row.clip_id in in_round:
            raise ValueError(f"clip_id {row.clip_id} appears twice in one prune round")
        if row.clip_id in removed:
            raise ValueError(f"clip_id {row.clip_id} was removed by an earlier prune round")
        in_round.add(row.clip_id)
        if row.removed:
            removed.add(row.clip_id)
        return row

    return read_records(path, PruneRecord, check)
