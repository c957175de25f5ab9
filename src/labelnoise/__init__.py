"""Noise-robust training toolkit for clip-structured classification.

Losses that tolerate mislabeled examples, label smoothing with per-group
strength, convex input/target mixing, loss-based instance selection, a
small numpy trainer, and a synthetic-data harness for controlled
experiments. See the README for a tour.
"""

from types import ModuleType as _ModuleType

from .data import Dataset
from .errors import (
    ConfigurationError,
    ExperimentError,
    InvalidInputError,
    TrainingError,
)
from .harness import (
    OOV_CLEAN_LABEL,
    AnnotatedDataset,
    DatasetParams,
    ExperimentConfig,
    ExperimentResult,
    NoiseKind,
    NoiseSpec,
    RunResult,
    RunSummary,
    config_fingerprint,
    dataset_fingerprint,
    generate_blobs,
    inject_oov_noise,
    inject_symmetric_noise,
    noise_group_map,
    per_class_corruption_rates,
    prune_precision,
    read_annotated,
    read_as_annotated,
    read_dataset,
    read_summary,
    run_experiment,
    write_annotated,
    write_dataset,
    write_summary,
)
from .losses import (
    PROB_FLOOR,
    LossKind,
    LossReport,
    LossSpec,
    batch_losses,
    cce,
    loss_gradient_wrt_logits,
    loss_gradients_from_probs,
    lq_loss,
    mae,
)
from .mixup import Batch, MixupPolicy, Pairing, apply_mixup, mix_pair
from .numerics import (
    RngStream,
    beta_draws,
    derive_seed,
    mean_ci,
    percentile,
    softmax,
    softmax_rows,
)
from .selection import (
    PruneRecord,
    SelectionKind,
    SelectionRule,
    StagePlan,
    Strategy,
    clip_losses,
    discard_mask,
    prune_dataset,
    prune_report_rows,
    read_prune_report,
    write_prune_report,
)
from .smoothing import (
    NoiseGroup,
    SmoothingPolicy,
    smooth_uniform,
    smooth_with_policy,
    targets_matrix,
)
from .trainer import (
    Architecture,
    EpochRecord,
    ModelParams,
    TrainConfig,
    TrainResult,
    evaluate,
    forward,
    init_params,
    load_model,
    read_metrics,
    save_model,
    stratified_split,
    train,
    write_metrics,
)

__version__ = "0.1.0"

# every public name bound above, and no module
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
