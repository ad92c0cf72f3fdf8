"""Core contribution: the NeurFill model-based dummy filling framework."""

from .degradation import (
    DegradationBreakdown,
    PerformanceDegradation,
    fill_amount,
    overlay_area,
    overlay_gradient,
    overlay_gradient_paper,
)
from .eco import EcoQualityModel, eco_refill
from .msp_sqp import MspSqpOutcome, QualityEvaluation, QualityModel, msp_sqp
from .neurfill import NeurFill
from .pkb import (
    PkbResult,
    fill_for_target_density,
    pkb_starting_point,
    target_density_range,
)
from .problem import (
    BETA_RUNTIME_S,
    FillProblem,
    ScoreCoefficients,
    paper_table2,
)
from .result import FillResult
from .scoring import (
    BYTES_PER_DUMMY,
    SolutionScore,
    estimate_output_file_mb,
    evaluate_solution,
    planarity_metrics,
)

__all__ = [
    "BETA_RUNTIME_S",
    "BYTES_PER_DUMMY",
    "DegradationBreakdown",
    "EcoQualityModel",
    "FillProblem",
    "FillResult",
    "MspSqpOutcome",
    "NeurFill",
    "PerformanceDegradation",
    "PkbResult",
    "QualityEvaluation",
    "QualityModel",
    "ScoreCoefficients",
    "SolutionScore",
    "eco_refill",
    "estimate_output_file_mb",
    "evaluate_solution",
    "fill_amount",
    "fill_for_target_density",
    "msp_sqp",
    "overlay_area",
    "overlay_gradient",
    "overlay_gradient_paper",
    "paper_table2",
    "pkb_starting_point",
    "planarity_metrics",
    "target_density_range",
]
