"""``repro.serve``: a resident, batching fill-synthesis service.

The one-shot CLI re-pays model loading, conv-plan warmup and score
calibration on every invocation.  This subsystem keeps surrogates
resident (model registry), admits work through a bounded priority queue
with backpressure, coalesces concurrent surrogate evaluations into
dynamic micro-batches (the PR 1 ``evaluate_batch`` primitive), and
survives crashes via an accept/done journal.  One front end,
:class:`FillServer`, runs jobs on one of two backends: its worker
threads (the default, with cross-job coalescing) or, with
``worker_mode=process``, a :class:`ProcessWorkerPool` of long-lived
forked children that scales past the GIL.  See DESIGN.md "Serving" and
"Process-based serving" for the micro-batching policy, its
numerical-fidelity contract, and the crash-containment model.
"""

from .batcher import MicroBatcher, SimulateBatcher
from .client import ServeClient, ServeError
from .executor import FILL_METHODS, JobExecutor, validate_job
from .jobqueue import BoundedJobQueue, Job, JobState
from .journal import JobJournal
from .procpool import (
    ProcessWorkerPool,
    RemoteJobError,
    WorkerDiedError,
    WorkerSpec,
)
from .protocol import (
    JOB_OPS,
    OPS,
    ProtocolError,
    Request,
    decode,
    encode,
    parse_request,
    response,
)
from .registry import (
    ModelRegistry,
    RegisteredModel,
    layout_fingerprint,
    parse_model_spec,
)
from .server import FillServer, ServeConfig, serve_pipe, serve_tcp
from .stats import LatencyTracker, ServeStats

__all__ = [
    "BoundedJobQueue",
    "FILL_METHODS",
    "FillServer",
    "JOB_OPS",
    "Job",
    "JobExecutor",
    "JobJournal",
    "JobState",
    "LatencyTracker",
    "MicroBatcher",
    "ModelRegistry",
    "OPS",
    "ProcessWorkerPool",
    "ProtocolError",
    "RegisteredModel",
    "RemoteJobError",
    "Request",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeStats",
    "SimulateBatcher",
    "WorkerDiedError",
    "WorkerSpec",
    "decode",
    "encode",
    "layout_fingerprint",
    "parse_model_spec",
    "parse_request",
    "response",
    "serve_pipe",
    "serve_tcp",
    "validate_job",
]
