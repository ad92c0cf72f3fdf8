"""Shared constants and helpers for the NeurFill reproduction.

The paper works on layouts divided into uniform windows of
``100 um x 100 um`` (Section V).  All areas in this code base are expressed
in square micrometres (um^2) and all heights in Angstroms (A), matching the
units the paper reports (e.g. ``DeltaH`` in Angstroms in Table III).
"""

from __future__ import annotations

import os

import numpy as np

#: Side length of a filling/simulation window in micrometres (paper SS V).
WINDOW_SIZE_UM: float = 100.0

#: Area of one window in um^2.
WINDOW_AREA_UM2: float = WINDOW_SIZE_UM * WINDOW_SIZE_UM

#: Number of metal layers used by all three benchmark designs (Table II).
DEFAULT_NUM_LAYERS: int = 3

#: Default seed used by deterministic example scripts and benchmarks.
DEFAULT_SEED: int = 2021

# ----------------------------------------------------------------------
# repro.serve defaults.  Every knob has a CLI flag; the environment
# variables let deployments retune a service without editing unit files.

#: Jobs in flight at once (``REPRO_SERVE_WORKERS``): worker threads, or
#: forked children in process mode.  In thread mode they are not jobs
#: computing: jobs that cannot share a batch take turns.
DEFAULT_SERVE_WORKERS: int = 4

#: Bounded job-queue capacity before backpressure rejection
#: (``REPRO_SERVE_QUEUE``).
DEFAULT_SERVE_QUEUE_CAPACITY: int = 64

#: Largest micro-batch the coalescing batcher assembles
#: (``REPRO_SERVE_MAX_BATCH``); ``1`` disables coalescing.
DEFAULT_SERVE_MAX_BATCH: int = 16

#: Longest a parked evaluation or simulation waits for a job busy
#: elsewhere, in milliseconds (``REPRO_SERVE_FLUSH_MS``); a group whose members have
#: all parked runs at once.
DEFAULT_SERVE_FLUSH_MS: float = 4.0

#: Seconds a draining shutdown waits for in-flight jobs.
DEFAULT_SERVE_DRAIN_TIMEOUT_S: float = 30.0

#: Job execution engine (``REPRO_SERVE_WORKER_MODE``): ``thread`` runs
#: jobs on the worker threads (coalescing across jobs, one batch or job
#: computing at a time); ``process`` dispatches them to long-lived forked
#: children, GIL-free, the multi-core path.
DEFAULT_SERVE_WORKER_MODE: str = "thread"


def _env_number(name: str, default: float, kind: type,
                minimum: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = kind(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r}: expected a {kind.__name__}")
    if value < minimum:
        raise ValueError(f"{name}={raw!r}: must be >= {minimum}")
    return value


def serve_workers_default() -> int:
    return int(_env_number("REPRO_SERVE_WORKERS", DEFAULT_SERVE_WORKERS,
                           int, 1))


def serve_queue_capacity_default() -> int:
    return int(_env_number("REPRO_SERVE_QUEUE",
                           DEFAULT_SERVE_QUEUE_CAPACITY, int, 1))


def serve_max_batch_default() -> int:
    return int(_env_number("REPRO_SERVE_MAX_BATCH",
                           DEFAULT_SERVE_MAX_BATCH, int, 1))


def serve_flush_ms_default() -> float:
    return _env_number("REPRO_SERVE_FLUSH_MS", DEFAULT_SERVE_FLUSH_MS,
                       float, 0.0)


def serve_worker_mode_default() -> str:
    raw = os.environ.get("REPRO_SERVE_WORKER_MODE", "").strip().lower()
    if not raw:
        return DEFAULT_SERVE_WORKER_MODE
    if raw not in ("thread", "process"):
        raise ValueError(f"REPRO_SERVE_WORKER_MODE={raw!r}: "
                         "expected 'thread' or 'process'")
    return raw


def rng_from_seed(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged) so that every stochastic entry point in
    the library can share one seeding convention.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two float64 arrays (``-0.0 != 0.0``)."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))
