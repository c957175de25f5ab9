"""Classification losses and their gradients with respect to logits.

Three losses over a target distribution ``y`` and softmax prediction ``p``:

* categorical cross-entropy ``cce(y, p) = -sum_k y(k) log p(k)``,
* mean absolute error ``mae(y, p) = sum_k |y(k) - p(k)|``, and
* the noise-robust power loss ``lq_loss(y, p, q) = (1 - (sum_k y(k) p(k))^q) / q``
  with ``q in (0, 1]``, which approaches the cross-entropy as ``q -> 0`` and
  equals ``1 - sum_k y(k) p(k)`` (half the one-hot MAE) at ``q = 1``.

All three accept soft targets, so smoothed and mixed label distributions
compose with any loss without special cases. Probabilities are clamped to
``PROB_FLOOR`` before logs and powers; gradients are the closed forms of the
unclamped losses (the floor only guards loss values on pathological inputs).
Loss values are always reported per example, never pre-averaged, so selection
rules can consume them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import Checked, InvalidInputError, within
from .numerics import softmax

PROB_FLOOR = 1e-12


class LossKind(str, Enum):
    CCE = "cce"
    MAE = "mae"
    LQ = "lq"


@dataclass(frozen=True)
class LossSpec(Checked):
    """Which loss to optimize; ``q`` is meaningful only for ``LossKind.LQ``."""

    kind: LossKind
    q: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.kind == LossKind.LQ:
            within("q", self.q, "(0, 1]")


@dataclass(frozen=True)
class LossReport:
    """Per-example loss values paired with the example ids they belong to."""

    per_example: np.ndarray
    example_ids: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.per_example, dtype=np.float64)
        ids = np.asarray(self.example_ids)
        object.__setattr__(self, "per_example", values)
        object.__setattr__(self, "example_ids", ids)
        if values.ndim != 1 or ids.ndim != 1 or values.shape[0] != ids.shape[0]:
            raise InvalidInputError("loss values and example ids must align 1:1")
        _check_loss_values(values)

    def __len__(self) -> int:
        return int(self.per_example.shape[0])


def _check_loss_values(values: np.ndarray) -> float:
    """The sum of a float array of losses; raise unless each is finite and non-negative (an
    empty array is). Terms >= 0 whose sum is finite are all finite (the min is NaN if any term
    is NaN), so only a sum that overflowed needs the full scan."""
    if values.min(initial=0.0) >= 0.0:
        total = float(values.sum())
        if math.isfinite(total) or np.isfinite(values).all():
            return total
    raise InvalidInputError("loss values must be finite and non-negative")


def _check_pair(y, p) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if y.shape != p.shape or y.ndim != 1:
        raise InvalidInputError(
            f"target and prediction must be vectors of equal length, "
            f"got shapes {y.shape} and {p.shape}"
        )
    return y, p


def cce(y, p) -> float:
    """Categorical cross-entropy ``-sum_k y(k) log p(k)``."""
    y, p = _check_pair(y, p)
    return float(_loss_values(LossSpec(LossKind.CCE), y[None, :], p[None, :])[0])


def mae(y, p) -> float:
    """Mean absolute error ``sum_k |y(k) - p(k)|`` (equals ``2(1 - p_t)`` for one-hot y)."""
    y, p = _check_pair(y, p)
    return float(_loss_values(LossSpec(LossKind.MAE), y[None, :], p[None, :])[0])


def lq_loss(y, p, q: float) -> float:
    """Power loss ``(1 - dot^q) / q`` with ``dot = y @ p``.

    Not a wrapper like :func:`cce`: the batch row sum can differ from
    ``y @ p`` by an ulp, and at ``q = 1`` this must equal ``1 - y @ p`` exactly.
    """
    LossSpec(LossKind.LQ, q)  # checks q
    y, p = _check_pair(y, p)
    dot = max(float(y @ p), PROB_FLOOR)
    return (1.0 - dot**q) / q


def batch_losses(spec: LossSpec, targets, predictions, ids) -> LossReport:
    """Elementwise loss over a batch; row order is preserved.

    ``targets`` and ``predictions`` are (N, K) arrays (or sequences of
    vectors); ``ids`` is the length-N example-id sequence.
    """
    targets = np.asarray(targets, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    ids = np.asarray(ids)
    if targets.size == 0 and predictions.size == 0 and ids.size == 0:
        return LossReport(np.empty(0), np.empty(0, dtype=np.int64))
    if (
        targets.ndim != 2
        or targets.shape != predictions.shape
        or ids.shape[0] != targets.shape[0]
    ):
        raise InvalidInputError("targets, predictions and ids must have equal lengths")
    return LossReport(_loss_values(spec, targets, predictions), ids)


def _loss_values(spec: LossSpec, targets: np.ndarray, predictions: np.ndarray) -> np.ndarray:
    """Per-row loss of float (N, K) targets and predictions, unchecked.

    The one formula behind :func:`batch_losses`, :func:`cce` and :func:`mae`;
    the trainer calls it on every minibatch and checks the values itself.
    """
    if spec.kind == LossKind.CCE:
        return -(targets * np.log(np.maximum(predictions, PROB_FLOOR))).sum(axis=1)
    if spec.kind == LossKind.MAE:
        return np.abs(targets - predictions).sum(axis=1)
    dots = np.maximum((targets * predictions).sum(axis=1), PROB_FLOOR)
    return (1.0 - dots**spec.q) / spec.q


def loss_gradients_from_probs(
    spec: LossSpec, targets: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    """Per-row gradient dL/dz given already-computed softmax rows.

    Closed forms, with ``u = sum_k y(k) p(k)`` and ``s = sign(p - y)``:

    * CCE:  ``p - y``
    * LQ:   ``u^(q-1) * p * (u - y)``  (one-hot: ``p_t^q * (p - e_t)``)
    * MAE:  ``p * (s - sum_k s(k) p(k))``
    """
    targets = np.asarray(targets, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if targets.shape != probs.shape or targets.ndim != 2:
        raise InvalidInputError("targets and probabilities must be equal-shape matrices")

    if spec.kind == LossKind.CCE:
        return probs - targets
    if spec.kind == LossKind.MAE:
        signs = np.sign(probs - targets)
        inner = (signs * probs).sum(axis=1, keepdims=True)
        return probs * (signs - inner)
    dots = np.maximum((targets * probs).sum(axis=1, keepdims=True), PROB_FLOOR)
    return dots ** (spec.q - 1.0) * probs * (dots - targets)


def loss_gradient_wrt_logits(spec: LossSpec, y, logits) -> np.ndarray:
    """Gradient of the selected loss with respect to the logit vector."""
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(logits, dtype=np.float64)
    if y.shape != z.shape or y.ndim != 1:
        raise InvalidInputError("target and logits must be vectors of equal length")
    p = softmax(z)
    return loss_gradients_from_probs(spec, y[None, :], p[None, :])[0]
