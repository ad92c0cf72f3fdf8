"""Online surrogate lifecycle: drift detection, retraining, hot swap.

The serve layer answers *fast*; this package keeps it *right*.  A
sampled fraction of served fills is shadow-checked against the real CMP
simulator (:mod:`~repro.lifecycle.monitor`); sustained residual
excursions trip a windowed drift statistic, which triggers a background
retrain on the offending layouts (:mod:`~repro.lifecycle.retrain`);
validated candidates are hot-swapped into the running server without
draining (:mod:`~repro.lifecycle.swap` plus the generation-aware
registry in :mod:`repro.serve.registry`).

Dependency direction: ``repro.serve`` imports this package, never the
reverse.
"""

from .monitor import (
    DriftWindow,
    OffenderSample,
    ResidualRecord,
    ShadowExecutor,
    residual_stats,
)
from .retrain import RetrainConfig, RetrainOrchestrator, split_offenders
from .swap import (
    STATE_FILENAME,
    LifecycleManager,
    read_state,
    write_state,
)

__all__ = [
    "DriftWindow",
    "LifecycleManager",
    "OffenderSample",
    "ResidualRecord",
    "RetrainConfig",
    "RetrainOrchestrator",
    "STATE_FILENAME",
    "ShadowExecutor",
    "read_state",
    "residual_stats",
    "split_offenders",
    "write_state",
]
