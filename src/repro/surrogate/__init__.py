"""CMP neural network surrogate: extraction, UNet, objectives, training."""

from .datagen import SurrogateDataset, build_dataset, simulate_group, simulate_sample
from .extraction import (
    NUM_FEATURE_CHANNELS,
    ExtractionConstants,
    extract_parameter_matrix,
    extract_parameter_matrix_numpy,
)
from .network import (
    BatchPlanarityEvaluation,
    CmpNeuralNetwork,
    HeightNormalizer,
    PlanarityEvaluation,
)
from .persist import (
    SurrogateBundle,
    bind_surrogate,
    load_surrogate,
    load_surrogate_bundle,
    save_surrogate,
)
from .objectives import (
    DEFAULT_ETA,
    PlanarityBreakdown,
    PlanarityWeights,
    height_variance,
    line_deviation,
    outliers,
    outliers_hard,
    score_function,
)
from .train import (
    AccuracyReport,
    TrainConfig,
    TrainHistory,
    evaluate_accuracy,
    pretrain_surrogate,
    train_unet,
)

__all__ = [
    "AccuracyReport",
    "BatchPlanarityEvaluation",
    "CmpNeuralNetwork",
    "DEFAULT_ETA",
    "ExtractionConstants",
    "HeightNormalizer",
    "NUM_FEATURE_CHANNELS",
    "PlanarityBreakdown",
    "PlanarityEvaluation",
    "PlanarityWeights",
    "SurrogateBundle",
    "SurrogateDataset",
    "TrainConfig",
    "bind_surrogate",
    "TrainHistory",
    "build_dataset",
    "evaluate_accuracy",
    "extract_parameter_matrix",
    "extract_parameter_matrix_numpy",
    "height_variance",
    "line_deviation",
    "load_surrogate",
    "load_surrogate_bundle",
    "outliers",
    "outliers_hard",
    "pretrain_surrogate",
    "save_surrogate",
    "score_function",
    "simulate_group",
    "simulate_sample",
    "train_unet",
]
