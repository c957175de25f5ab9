"""Large-loss instance rejection: thresholds, mini-batch discard, pruning.

Training is treated as two stages. For the first ``start_epoch`` completed
epochs every instance participates. Afterwards a selection rule converts
the batch's loss values into a rejection threshold (either a fraction of
the largest loss or a percentile) and instances above it are dropped from
the gradient update (DISCARD), or the train set itself is pruned once by
removing the highest-loss clips (PRUNE). Patch losses aggregate to clip
losses by arithmetic mean. Prune rounds rank clips in the dataset's clip
table, as arrays in one removal order, and each removes the top of its order
through one cut; dict maps remain only at the public boundary
(``clip_losses``, ``prune_dataset``, ``prune_report_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Annotated, Mapping, Sequence

import numpy as np

from .data import Dataset, GroupMeans
from .errors import Checked, ConfigurationError, InvalidInputError, field_rules, within
from .losses import LossReport, _check_given_losses
from .numerics import _percentile
from .records import read_records, write_records


class SelectionKind(str, Enum):
    MAX_FRACTION = "max_fraction"
    PERCENTILE = "percentile"


@dataclass(frozen=True)
class SelectionRule(Checked):
    """Threshold rule: ``fraction * max(losses)`` or ``percentile(losses, level)``."""

    kind: SelectionKind
    fraction: float | None = None
    level: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.kind == SelectionKind.MAX_FRACTION:
            within("fraction", self.fraction, "[0, 1]")
            stray = "level"
        else:
            within("level", self.level, "[0, 100]")
            stray = "fraction"
        if getattr(self, stray) is not None:
            raise ConfigurationError(f"{stray} does not apply to the {self.kind.value} rule")

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
class StagePlan(Checked):
    """When and how stage-two selection kicks in.

    ``start_epoch`` counts completed epochs: discarding first applies in epoch
    ``start_epoch``, and pruning runs right before it. With ``prune_rounds > 1`` pruning
    repeats every ``start_epoch`` epochs (an optional iterative mode; single-shot is the
    default). The other strategies ignore ``prune_count`` and ``prune_rounds``.
    """

    strategy: Strategy = Strategy.NONE
    start_epoch: Annotated[int, "[0, inf)"] = 0
    rule: SelectionRule | None = None
    prune_count: Annotated[int, "[0, inf)"] = 0
    prune_rounds: Annotated[int, "[1, inf)"] = 1

    def __post_init__(self):
        super().__post_init__()
        if self.strategy == Strategy.DISCARD and self.rule is None:
            raise ConfigurationError("discard strategy requires a selection rule")
        if self.strategy == Strategy.PRUNE and self.prune_rounds > 1 and self.start_epoch == 0:
            raise ConfigurationError("iterative pruning requires start_epoch >= 1")


def discard_mask(
    losses: LossReport, rule: SelectionRule, epoch: int, start_epoch: int
) -> np.ndarray:
    """Keep-mask for one batch (True = keep).

    Before ``start_epoch`` completed epochs everything is kept. Afterwards
    instances with loss above the rule's threshold (``fraction`` times the
    batch's largest loss, or its ``level`` percentile) are rejected, except
    that a batch never rejects everything: if it would, the instances
    attaining the minimum loss are kept instead.
    """
    if len(losses) == 0:
        raise InvalidInputError("cannot build a mask for an empty loss report")
    values = losses.per_example
    if epoch < start_epoch:
        return np.ones(len(losses), dtype=bool)
    if rule.kind == SelectionKind.MAX_FRACTION:
        threshold = rule.fraction * values.max()
    else:
        threshold = _percentile(values, rule.level)
    keep = values <= threshold
    if not keep.any():
        keep = values == values.min()
    return keep


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
    clips, inverse = np.unique(np.asarray(clip_ids, dtype=np.int64), return_inverse=True)
    means = GroupMeans(inverse, clips.size)(patch_losses.per_example)
    return dict(zip(clips.tolist(), means.tolist()))


def _removal_order(clips: np.ndarray, losses: np.ndarray) -> np.ndarray:
    """The positions of the unique ``clips`` in removal order: largest loss first, then the
    higher id (lexsort's ascending order reversed; negated ids would overflow at -2**63)."""
    return np.lexsort((clips, losses))[::-1]


def _prune_round(clips, losses, prune_count, scored=None) -> tuple[np.ndarray, np.ndarray]:
    """The one cut of every prune round: the positions of the round's clips in removal order,
    and a mask over ``clips`` that flags the first ``prune_count`` of them, which it removes.
    The round's clips are all ``clips``, or those that the mask ``scored`` flags. The count is
    checked by the rule of :attr:`StagePlan.prune_count`, and must leave the round a clip."""
    order = _removal_order(clips, losses)
    if scored is not None:
        order = order[scored.take(order)]
    prune_count = field_rules(StagePlan)["prune_count"]("prune_count", prune_count)
    within("prune_count", prune_count, f"[0, {order.size})")
    removed = np.zeros(clips.size, dtype=bool)
    removed[order[:prune_count]] = True
    return order, removed


def prune_dataset(
    dataset: Dataset, clip_loss_map: Mapping[int, float], prune_count: int
) -> tuple[Dataset, list[int]]:
    """Drop the ``prune_count`` highest-loss clips of ``dataset``, each with a finite, non-negative
    loss entry: the kept dataset, in row order, and the removed clip ids, highest loss first.
    ``prune_count`` is checked as :func:`_prune_round` checks it."""
    clips, inverse, _ = dataset.clip_table()
    missing = [clip for clip in clips.tolist() if clip not in clip_loss_map]
    if missing:
        raise ConfigurationError(f"clips without a loss entry: {missing[:5]}")
    losses = np.array([clip_loss_map[clip] for clip in clips.tolist()], dtype=np.float64)
    _check_given_losses(losses)
    order, removed = _prune_round(clips, losses, prune_count)
    if not removed.any():
        return dataset, []
    return dataset.subset(~removed[inverse]), clips[order[:prune_count]].tolist()


@dataclass(frozen=True)
class PruneRecord(Checked):
    """One line of a prune report: a clip's loss (finite, non-negative), rank and fate."""

    clip_id: int
    clip_loss: Annotated[float, "[0, inf)"]
    rank: Annotated[int, "[1, inf)"]
    removed: bool


def _report(clips, losses, order, removed) -> list[PruneRecord]:
    """Rows of ``clips`` and ``losses`` in ``order`` (rank 1 first), flagged by ``removed``."""
    ranked = zip(clips[order].tolist(), losses[order].tolist(), removed[order].tolist())
    return [PruneRecord(clip, loss, rank, cut) for rank, (clip, loss, cut) in enumerate(ranked, 1)]


def prune_report_rows(clip_loss_map: Mapping[int, float], prune_count: int) -> list[PruneRecord]:
    """Report rows for every scored clip, its loss finite and non-negative, in removal order,
    the first ``prune_count`` flagged removed, as :func:`prune_dataset` removes them."""
    clips = np.fromiter(clip_loss_map, dtype=np.int64, count=len(clip_loss_map))
    losses = np.fromiter(clip_loss_map.values(), dtype=np.float64, count=clips.size)
    _check_given_losses(losses)
    return _report(clips, losses, *_prune_round(clips, losses, prune_count))


def write_prune_report(path, rows: Sequence[PruneRecord]) -> None:
    write_records(path, rows)


def read_prune_report(path) -> list[PruneRecord]:
    """Rows of a prune report; a malformed line raises ``InvalidInputError`` naming it.

    Besides what :class:`PruneRecord` checks, a line is malformed when its rank is neither 1,
    which starts a prune round, nor the previous line's rank plus one, when its clip already
    appeared in the same round, when an earlier round removed it, when a later round names a
    clip that the round before it did not keep, when its ``(clip_loss, clip_id)`` does not fall
    below the previous line's in the round, as :func:`_removal_order` ranks them, or when it is
    removed below a kept line of its round, since a round removes its top-ranked clips. A round
    that leaves out a clip the round before it kept is refused at the line that starts the
    next round, or, for the last round, once the file is read.
    """
    in_round: set[int] = set()
    removed: set[int] = set()
    kept: set[int] | None = None  # the clips that the round before the current one kept
    last: PruneRecord | None = None  # the previous line's row
    rounds = 0

    def left_out() -> str | None:
        """The fault of the current round if it leaves out a clip the round before it kept."""
        if kept is not None and (missing := kept - in_round):
            return (
                f"prune round {rounds} leaves out clip_id {min(missing)}, which round"
                f" {rounds - 1} kept; each round lists every clip the round before it kept"
            )
        return None

    def check(row: PruneRecord) -> PruneRecord:
        nonlocal last, kept, rounds
        rank = last.rank if last else 0
        if row.rank not in (1, rank + 1):
            after = f"rank {rank}" if rank else "the start of the report"
            raise ValueError(f"rank {row.rank} follows {after}; each round ranks 1, 2, 3, ...")
        if row.rank == 1:
            if fault := left_out():
                raise ValueError(fault)
            kept = in_round - removed if rank else None
            in_round.clear()
            rounds += 1
        if row.clip_id in in_round:
            raise ValueError(f"clip_id {row.clip_id} appears twice in one prune round")
        if row.clip_id in removed:
            raise ValueError(f"clip_id {row.clip_id} was removed by an earlier prune round")
        if kept is not None and row.clip_id not in kept:
            raise ValueError(f"clip_id {row.clip_id} was not kept by the previous prune round")
        if row.rank > 1 and (row.clip_loss, row.clip_id) >= (last.clip_loss, last.clip_id):
            raise ValueError(
                f"clip_id {row.clip_id} with clip_loss {row.clip_loss!r} is ranked below clip_id"
                f" {last.clip_id} with clip_loss {last.clip_loss!r}; a round ranks by falling"
                " clip_loss, then falling clip_id"
            )
        if row.removed and row.rank > 1 and not last.removed:
            raise ValueError(
                f"clip_id {row.clip_id} is removed below kept clip_id {last.clip_id}; a round"
                " removes its top-ranked clips"
            )
        in_round.add(row.clip_id)
        if row.removed:
            removed.add(row.clip_id)
        last = row
        return row

    rows = read_records(path, PruneRecord, check)
    if fault := left_out():
        raise InvalidInputError(f"{path}: {fault}")
    return rows
