"""NeurFill reproduction: neural-network CMP surrogates for model-based
dummy filling synthesis (Cai et al., DAC 2021).

Subpackages
-----------
``repro.layout``
    Window-grid layouts, synthetic benchmark designs, fill regions.
``repro.cmp``
    Full-chip CMP simulator (contact mechanics, DSH, Preston).
``repro.nn``
    Numpy autodiff engine, conv layers, UNet, Adam.
``repro.surrogate``
    The CMP neural network: extraction + UNet + objective layers.
``repro.optimize``
    Box-constrained SQP, box QP, NMMSO multi-modal search.
``repro.core``
    The NeurFill framework, PKB starts, MSP-SQP, scoring.
``repro.baselines``
    Lin (rule LP), Tao (rule SQP), Cai (model-based numerical-gradient).
``repro.evaluation``
    Comparison harness and table builders.
``repro.serve``
    Resident batching service: registry, job queue, workers, journal.
"""

from . import (
    baselines,
    cmp,
    core,
    evaluation,
    layout,
    nn,
    optimize,
    serve,
    surrogate,
)
from .cmp import CmpSimulator, ProcessParams
from .core import FillProblem, NeurFill, ScoreCoefficients, evaluate_solution
from .layout import Layout, make_design
from .surrogate import CmpNeuralNetwork, pretrain_surrogate

__version__ = "1.0.0"

__all__ = [
    "CmpNeuralNetwork",
    "CmpSimulator",
    "FillProblem",
    "Layout",
    "NeurFill",
    "ProcessParams",
    "ScoreCoefficients",
    "baselines",
    "cmp",
    "core",
    "evaluate_solution",
    "evaluation",
    "layout",
    "make_design",
    "nn",
    "optimize",
    "pretrain_surrogate",
    "serve",
    "surrogate",
]
