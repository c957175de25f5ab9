"""Virtual training examples by convex combination of input pairs.

A pair ``(x_i, y_i), (x_j, y_j)`` is mixed with weight ``lam`` into

    x = lam * x_i + (1 - lam) * x_j
    y = lam * y_i + (1 - lam) * y_j

with ``lam ~ Beta(alpha, alpha)`` drawn independently per pair (no
``max(lam, 1-lam)`` folding; both labels are mixed as drawn). Mixing is
gated by a warm-up schedule: before ``warmup_epochs`` completed epochs the
batch passes through untouched. Pairing is either a seeded random
permutation of the batch against itself or positional pairing against a
partner batch of equal shape. Mixup is a training-time augmentation only;
validation and test data are never mixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Annotated

import numpy as np

from .errors import Checked, ConfigurationError, InvalidInputError, within
from .numerics import beta_draws


class Pairing(str, Enum):
    INTRA_BATCH = "intra"
    INTER_BATCH = "inter"


@dataclass(frozen=True)
class MixupPolicy(Checked):
    alpha: Annotated[float, "(0, inf)"]
    warmup_epochs: Annotated[int, "[0, inf)"] = 0
    pairing: Pairing = Pairing.INTRA_BATCH


@dataclass(frozen=True)
class Batch:
    """A mini-batch view: features (N, F) and target distributions (N, K)."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2 or self.targets.ndim != 2:
            raise InvalidInputError("batch features and targets must be 2-D arrays")
        if self.features.shape[0] != self.targets.shape[0]:
            raise InvalidInputError("batch features and targets must align 1:1")

    def __len__(self) -> int:
        return int(self.features.shape[0])


def _convex_mix(a: np.ndarray, b: np.ndarray, lam: np.ndarray) -> np.ndarray:
    # Clamping to the per-entry envelope makes convexity exact in floating
    # point (lam*a + (1-lam)*a can otherwise land one ulp outside) and makes
    # mixing identical inputs an exact identity. The clamp is a maximum then
    # a minimum written into the mix, with the mix as first operand: the bits
    # of np.clip, signed zeros and NaNs included, without its slower loop.
    mixed = np.asarray(lam * a)  # 0-d operands give a numpy scalar; out= needs an array
    mixed += (1.0 - lam) * b
    np.maximum(mixed, np.minimum(a, b), out=mixed)
    return np.minimum(mixed, np.maximum(a, b), out=mixed)


def mix_pair(x_i, y_i, x_j, y_j, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Mix one pair of examples with fixed weight ``lam`` in [0, 1]."""
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    y_i = np.asarray(y_i, dtype=np.float64)
    y_j = np.asarray(y_j, dtype=np.float64)
    if x_i.shape != x_j.shape:
        raise InvalidInputError("mixed features must have equal dimensions")
    if y_i.shape != y_j.shape:
        raise InvalidInputError("mixed targets must have equal dimensions")
    within("mixing weight", lam, "[0, 1]")
    # [()] turns a 0-d mix into a numpy scalar, as scalar arithmetic gives
    return _convex_mix(x_i, x_j, lam)[()], _convex_mix(y_i, y_j, lam)[()]


def apply_mixup(
    batch: Batch,
    partner_batch: Batch | None,
    policy: MixupPolicy,
    epoch: int,
    gen: np.random.Generator,
) -> Batch:
    """Mix a whole batch according to the policy, or pass it through.

    Returns the input batch object unchanged while the epoch is still inside
    the warm-up period. Otherwise one ``lam`` is drawn per pair and each row
    is mixed against its partner row: a random permutation of the
    batch itself for intra-batch pairing, or the same position of
    ``partner_batch`` for inter-batch pairing. The draws come from ``gen``
    and advance it, the permutation (intra-batch only) before the weights,
    so two calls on one generator mix differently: ``train`` passes one
    generator for every mixed batch of a run. A warm-up call draws nothing.
    """
    if len(batch) == 0:
        raise InvalidInputError("cannot mix an empty batch")
    if epoch < policy.warmup_epochs:
        return batch

    if policy.pairing == Pairing.INTRA_BATCH:
        perm = gen.permutation(len(batch))
        partner_features = batch.features.take(perm, axis=0)
        partner_targets = batch.targets.take(perm, axis=0)
    else:
        if partner_batch is None:
            raise ConfigurationError("inter-batch mixup requires a partner batch")
        shapes = (partner_batch.features.shape, partner_batch.targets.shape)
        if shapes != (batch.features.shape, batch.targets.shape):
            raise InvalidInputError(
                "partner batch shapes must equal the batch's: "
                f"{shapes} != {(batch.features.shape, batch.targets.shape)}"
            )
        partner_features = partner_batch.features
        partner_targets = partner_batch.targets

    lam = beta_draws(policy.alpha, gen, size=len(batch))[:, None]
    return Batch(
        _convex_mix(batch.features, partner_features, lam),
        _convex_mix(batch.targets, partner_targets, lam),
    )
