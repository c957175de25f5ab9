"""Label smoothing: uniform soft targets and a noise-aware two-group variant.

Uniform smoothing replaces a one-hot target for class ``t`` with

    y'(k) = (1 - eps) * [k == t] + eps / K

so the active class keeps ``(1 - eps) + eps/K`` and every other class gets
``eps/K``. The two-group policy assigns a lower effective epsilon
(``eps - delta``) to classes believed to carry little label noise and a
higher one (``eps + delta``) to noisy classes, on the theory that cleaner
labels deserve less flattening.

Smoothing is applied once, at dataset preparation, before any mixup.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Annotated, Mapping

import numpy as np

from .errors import Checked, ConfigurationError, InvalidInputError, json_text, within


class NoiseGroup(str, Enum):
    LOW_NOISE = "low"
    HIGH_NOISE = "high"


@dataclass(frozen=True)
class SmoothingPolicy(Checked):
    """Smoothing strength, optionally differentiated by per-class noise group.

    Without a group map every class is smoothed with ``epsilon``. With one,
    classes mapped to ``LOW_NOISE`` use ``epsilon - delta_epsilon`` and
    classes mapped to ``HIGH_NOISE`` use ``epsilon + delta_epsilon``.
    """

    epsilon: Annotated[float, "[0, 1)"]
    delta_epsilon: Annotated[float, "[0, inf)"] = 0.0
    group_of_class: Mapping[int, NoiseGroup] | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.epsilon - self.delta_epsilon < 0.0 or self.epsilon + self.delta_epsilon >= 1.0:
            raise InvalidInputError(
                "epsilon +/- delta_epsilon must stay within [0, 1): got"
                f" epsilon={json_text(self.epsilon)}, delta_epsilon={json_text(self.delta_epsilon)}"
            )

    def effective_epsilon(self, target_class: int) -> float:
        if self.group_of_class is None:
            return self.epsilon
        group = self.group_of_class.get(target_class)
        if group is None:
            raise ConfigurationError(
                f"class {target_class} is missing from the noise-group map"
            )
        if group == NoiseGroup.LOW_NOISE:
            return self.epsilon - self.delta_epsilon
        return self.epsilon + self.delta_epsilon


def smooth_uniform(target_class: int, num_classes: int, epsilon: float) -> np.ndarray:
    """Smoothed target distribution for ``target_class`` over ``num_classes``."""
    within("num_classes", num_classes, "[2, inf)")
    within("target class", target_class, f"[0, {num_classes})")
    # the policy checks epsilon
    return targets_matrix([target_class], num_classes, SmoothingPolicy(epsilon))[0]


def smooth_with_policy(
    target_class: int, num_classes: int, policy: SmoothingPolicy
) -> np.ndarray:
    """Apply the policy's effective epsilon for this class, then smooth."""
    return smooth_uniform(
        target_class, num_classes, policy.effective_epsilon(target_class)
    )


def targets_matrix(
    labels, num_classes: int, policy: SmoothingPolicy | None = None
) -> np.ndarray:
    """Stack per-example target rows: one-hot when ``policy`` is None.

    Rows depend only on the class, so the K rows are built once from the
    module's formula, each with its class's epsilon, and gathered.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise InvalidInputError("labels outside [0, num_classes)")
    if policy is None:
        epsilons = np.zeros(num_classes)
    else:
        epsilons = np.array([policy.effective_epsilon(c) for c in range(num_classes)])
    spread = epsilons / num_classes
    rows = np.repeat(spread[:, None], num_classes, axis=1)
    np.fill_diagonal(rows, (1.0 - epsilons) + spread)
    return rows[labels]
