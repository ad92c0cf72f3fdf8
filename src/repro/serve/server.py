"""The resident fill-synthesis service.

:class:`FillServer` owns the moving parts — registry, bounded queue,
worker pool, executor, journal, stats — and is transport-neutral:
:func:`serve_pipe` runs it over stdin/stdout, :func:`serve_tcp` over a
TCP socket, and tests drive :meth:`FillServer.handle_line` directly.

Request lifecycle::

    client line ──parse──▶ admission ──▶ bounded queue ──▶ worker pool
                     │          │                              │
                     ▼          ▼                              ▼
                protocol    journal(accept, fsync)      execute (fill /
                 errors      + "accepted" ack            simulate) via
                                                         JobExecutor, in
                                                         this process or
                                                         a forked child
                                                              │
                                     journal(done) ◀── terminal response

Two worker modes share this skeleton (``ServeConfig.worker_mode``):

* ``thread`` — jobs execute on the worker threads themselves through a
  shared :class:`~repro.serve.executor.JobExecutor`, with cross-job
  micro-batching: concurrent fills on one model and layout are members
  of one :class:`~repro.serve.batcher.MicroBatcher`, concurrent simulate
  jobs of one :class:`~repro.serve.batcher.SimulateBatcher`, and a group
  of their requests runs in a worker thread the moment every member has
  parked (or after ``flush_ms`` for a member busy elsewhere); the server
  starts no batcher thread.  ``workers`` bounds the jobs in flight, not
  the jobs computing: jobs that cannot share a batch take the
  executor's turn one at a time, in arrival order, rather than contend
  for the GIL.
* ``process`` — worker threads dispatch to a
  :class:`~repro.serve.procpool.ProcessWorkerPool` of long-lived forked
  children, each owning a private warm executor; numpy-heavy jobs then
  scale across cores instead of contending on the GIL.  A child that
  dies mid-job is respawned and the job re-runs once; a job whose
  second run dies too ends with the distinguishable terminal status
  ``worker_died`` (safe to retry — the job did not complete).

:meth:`FillServer._execute` is the seam between the two; transport,
admission, journal and stats are shared.

Served weights change only when a registered checkpoint is overwritten
in place: every bind revalidates the checkpoint's stamp, in this process
and in each forked child, and a job finishes on the weights it bound.

A dedicated expiry timer retires deadline-passed jobs promptly even
while every worker is busy — queued jobs no longer wait for a worker to
come up for air before learning they timed out.

Graceful shutdown stops admission, drains the queue and in-flight jobs
(bounded by ``drain_timeout_s``), closes the executor/pool and the
journal.  Because accepts are journalled before the ack, a crash instead
of a drain loses nothing: the next server started on the same journal
path re-runs every accepted-but-unfinished job spec.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field

from .. import config as repro_config
from ..cmp.simulator import CmpSimulator
from .executor import FILL_METHODS, JobExecutor, validate_job
from .jobqueue import BoundedJobQueue, Job, JobState
from .journal import JobJournal
from .procpool import ProcessWorkerPool, WorkerDiedError, WorkerSpec
from .protocol import (
    IMMEDIATE_OPS,
    JOB_OPS,
    ProtocolError,
    Request,
    encode,
    parse_request,
    response,
)
from .registry import ModelRegistry
from .stats import ServeStats

__all__ = [
    "FILL_METHODS",
    "FillServer",
    "ServeConfig",
    "serve_pipe",
    "serve_tcp",
]

WORKER_MODES = ("thread", "process")


@dataclass
class ServeConfig:
    """Tunable knobs of one server process (CLI flags + env defaults)."""

    workers: int = field(
        default_factory=repro_config.serve_workers_default)
    queue_capacity: int = field(
        default_factory=repro_config.serve_queue_capacity_default)
    max_batch: int = field(
        default_factory=repro_config.serve_max_batch_default)
    flush_ms: float = field(
        default_factory=repro_config.serve_flush_ms_default)
    default_timeout_s: float | None = None
    drain_timeout_s: float = repro_config.DEFAULT_SERVE_DRAIN_TIMEOUT_S
    #: Allow jobs without a registered model to train a surrogate inline
    #: (slow; off for latency-sensitive deployments).
    allow_train: bool = True
    max_bound_networks: int = 8
    #: ``thread`` executes jobs on the worker threads (coalescing across
    #: jobs); ``process`` dispatches them to forked worker children.
    worker_mode: str = field(
        default_factory=repro_config.serve_worker_mode_default)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.flush_ms < 0:
            raise ValueError(f"flush_ms must be >= 0, got {self.flush_ms}")
        if self.worker_mode not in WORKER_MODES:
            raise ValueError(
                f"worker_mode must be one of {WORKER_MODES}, "
                f"got {self.worker_mode!r}")


class FillServer:
    """Long-running fill/simulate service over a line-JSON protocol.

    Args:
        registry: warm model registry (thread mode binds from it; process
            mode children warm-load their own copies from specs).
        serve_config: knobs; ``worker_mode`` picks the execution engine.
        journal_path: at-least-once crash journal (accepts fsync'd).
        model_specs: ``(name, checkpoint_dir)`` pairs shipped to forked
            workers.  Defaults to the registry's registered directories.
    """

    def __init__(self, registry: ModelRegistry | None = None,
                 serve_config: ServeConfig | None = None,
                 journal_path: str | None = None,
                 model_specs: list[tuple] | None = None):
        self.registry = registry or ModelRegistry()
        self.config = serve_config or ServeConfig()
        self.stats = ServeStats()
        self.queue = BoundedJobQueue(self.config.queue_capacity)
        self.simulator = CmpSimulator()
        self._journal: JobJournal | None = None
        self._resume_specs: list[dict] = []
        if journal_path is not None:
            self._resume_specs, self._journal = JobJournal.recover(
                journal_path)
        self.executor = JobExecutor(
            registry=self.registry,
            simulator=self.simulator,
            stats=self.stats,
            allow_train=self.config.allow_train,
            max_bound_networks=self.config.max_bound_networks,
            max_batch=self.config.max_batch,
            flush_ms=self.config.flush_ms,
        )
        self._pool: ProcessWorkerPool | None = None
        if self.config.worker_mode == "process":
            if model_specs is None:
                model_specs = [
                    (name, info["directory"])
                    for name, info in sorted(self.registry.describe().items())
                ]
            self._pool = ProcessWorkerPool(
                self.config.workers,
                WorkerSpec(
                    models=tuple(model_specs),
                    allow_train=self.config.allow_train,
                    max_bound_networks=self.config.max_bound_networks,
                ),
                stats=self.stats,
            )
        self._drain_cond = threading.Condition()
        self._inflight = 0
        #: Ids of jobs queued or in flight; an id is reusable only once
        #: its job's terminal outcome is journalled.
        self._live_ids: set[str] = set()
        self._ids_lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._expiry_thread: threading.Thread | None = None
        self._accepting = True
        self._started = False
        self._started_at = time.monotonic()
        self._shutdown_event = threading.Event()

    # ------------------------------------------------------------------
    # Start and shutdown
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker pool and resume journalled jobs."""
        if self._started:
            return
        self._started = True
        if self._pool is not None:
            # Fork the children before starting any worker thread: a
            # single-threaded parent forks safely, and the children
            # inherit warm module state (plus test monkeypatches).
            self._pool.start()
        for i in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{i}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)
        self._expiry_thread = threading.Thread(
            target=self._expiry_loop, name="repro-serve-expiry", daemon=True)
        self._expiry_thread.start()
        for spec in self._resume_specs:
            try:
                request = parse_request(encode(spec))
            except ProtocolError:
                continue  # journalled by an incompatible version; drop
            self.stats.incr("resumed")
            self._admit(request, lambda message: None, replayed=True)
        self._resume_specs = []

    @property
    def shutdown_complete(self) -> bool:
        return self._shutdown_event.is_set()

    def wait_shutdown(self, timeout: float | None = None) -> bool:
        return self._shutdown_event.wait(timeout)

    def shutdown(self, drain: bool = True,
                 timeout: float | None = None) -> None:
        """Stop admission, drain (or cancel) pending work, release all.

        Args:
            drain: finish queued + in-flight jobs before returning; when
                ``False`` queued jobs are cancelled (in-flight ones still
                run to completion — execution is not preemptible).
            timeout: overrides ``config.drain_timeout_s``.
        """
        if self._shutdown_event.is_set():
            return
        self._accepting = False
        if not drain:
            for job in self.queue.drain_pending():
                self.stats.incr("cancelled")
                self._finish(job, "cancelled", error="server shutdown",
                             counted=False)
        deadline = time.monotonic() + (
            self.config.drain_timeout_s if timeout is None else timeout)
        with self._drain_cond:
            while (self.queue.depth() > 0 or self._inflight > 0) \
                    and time.monotonic() < deadline:
                self._drain_cond.wait(0.05)
        self.queue.close()
        for thread in self._workers:
            thread.join(timeout=5.0)
        if self._expiry_thread is not None:
            self._expiry_thread.join(timeout=5.0)
        if self._pool is not None:
            self._pool.close()
        self.executor.close()
        if self._journal is not None:
            self._journal.close()
        self._shutdown_event.set()

    # ------------------------------------------------------------------
    # Request handling (transport threads)
    # ------------------------------------------------------------------
    def handle_line(self, line: str, reply) -> None:
        """Parse and dispatch one protocol line; never raises."""
        reply = _safe_reply(reply)
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.stats.incr("protocol_errors")
            reply(response(None, "error", error=str(exc)))
            return
        if request.op in JOB_OPS:
            self._admit(request, reply)
        elif request.op in IMMEDIATE_OPS:
            self._handle_immediate(request, reply)

    def _admit(self, request: Request, reply, replayed: bool = False) -> None:
        """Accept or reject one job.

        A duplicate of a queued or in-flight id is rejected before
        anything is journalled, so its rejection cannot cancel the
        original's journalled accept.  ``replayed`` jobs come from the
        crash journal: clients already saw them accepted, so they enter
        the queue whatever its capacity.
        """
        if not self._accepting:
            self.stats.incr("rejected")
            reply(response(request.id, "rejected",
                           error="server is shutting down"))
            return
        error = self._validate_job(request)
        if error is None:
            with self._ids_lock:
                if request.id in self._live_ids:
                    error = f"duplicate job id {request.id!r}"
                else:
                    self._live_ids.add(request.id)
        if error is not None:
            self.stats.incr("rejected")
            reply(response(request.id, "rejected", error=error))
            return
        if self._journal is not None:
            self._journal.record_accept(request)
        job = Job(request=request, reply=reply)
        if job.deadline is None and self.config.default_timeout_s:
            job.deadline = job.accepted_at + self.config.default_timeout_s
        if self.queue.put(job, bounded=not replayed):
            self.stats.incr("accepted")
            depth = self.queue.depth()
            self.stats.set_gauge("queue_depth", depth)
            reply(response(request.id, "accepted",
                           result={"queue_depth": depth}))
        else:
            self.stats.incr("rejected")
            if self._journal is not None:
                self._journal.record_done(request.id, "rejected")
            self._release_id(request.id)
            if self.queue.closed:
                reason = "server is shutting down"
            else:
                reason = f"queue full (capacity {self.queue.capacity})"
            reply(response(request.id, "rejected", error=reason))

    def _release_id(self, job_id: str) -> None:
        with self._ids_lock:
            self._live_ids.discard(job_id)

    def _validate_job(self, request: Request) -> str | None:
        return validate_job(request, allow_train=self.config.allow_train)

    def _handle_immediate(self, request: Request, reply) -> None:
        if request.op == "ping":
            reply(response(request.id, "done", result={"pong": True}))
        elif request.op == "stats":
            reply(response(request.id, "done", result=self.stats_snapshot()))
        elif request.op == "models":
            reply(response(request.id, "done",
                           result={"models": self.registry.describe()}))
        elif request.op == "cancel":
            self._handle_cancel(request, reply)
        elif request.op == "shutdown":
            drain = bool(request.params.get("drain", True))
            self.shutdown(drain=drain)
            reply(response(request.id, "done", result={"drained": drain}))

    def _handle_cancel(self, request: Request, reply) -> None:
        target = request.params.get("job_id")
        if not isinstance(target, str) or not target:
            reply(response(request.id, "error",
                           error="cancel params need a 'job_id' string"))
            return
        job = self.queue.cancel(target)
        if job is not None:
            self.stats.incr("cancelled")
            self._finish(job, "cancelled", error="cancelled by request",
                         counted=False)
        reply(response(request.id, "done",
                       result={"job_id": target,
                               "cancelled": job is not None}))

    def stats_snapshot(self) -> dict:
        snapshot = self.stats.snapshot()
        snapshot.update({
            "queue_depth": self.queue.depth(),
            "queue_capacity": self.queue.capacity,
            "inflight": self._inflight,
            "workers": self.config.workers,
            "worker_mode": self.config.worker_mode,
            "accepting": self._accepting,
            "coalescing": self._pool is None and self.config.max_batch > 1,
            "max_batch": self.config.max_batch,
            "flush_ms": self.config.flush_ms,
            "models": self.registry.names(),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
        })
        if self._pool is not None:
            snapshot["proc_workers"] = self._pool.describe()
        return snapshot

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _expiry_loop(self) -> None:
        """Retire deadline-passed queued jobs promptly.

        Workers also expire due jobs when they come up for air, but with
        every worker pinned under long fills a due job used to sit in the
        queue until one finished.  This timer bounds that to its period.
        """
        while not self.queue.closed:
            self._expire_due()
            time.sleep(0.02)

    def _expire_due(self) -> None:
        for job in self.queue.expire_due():
            # The deadline may come from the request or the server-wide
            # default, so report the actual wait rather than timeout_s.
            waited = time.monotonic() - job.accepted_at
            self._finish(job, "timeout",
                         error=f"timed out after {waited:.3f}s in queue")

    def _worker_loop(self) -> None:
        while True:
            self._expire_due()
            job = self.queue.get(timeout=0.1)
            if job is None:
                if self.queue.closed:
                    return
                continue
            self.stats.record_latency(
                "queue_wait", job.started_at - job.accepted_at)
            self.stats.set_gauge("queue_depth", self.queue.depth())
            with self._drain_cond:
                self._inflight += 1
            try:
                if job.expired():
                    self._finish(job, "timeout",
                                 error="deadline passed before execution")
                    continue
                try:
                    result = self._execute(job.request)
                except WorkerDiedError as exc:
                    self._finish(job, "worker_died", error=str(exc))
                except Exception as exc:  # job failure must not kill worker
                    self._finish(job, "error", error=str(exc))
                else:
                    if job.expired():
                        self._finish(job, "timeout",
                                     error="completed after its deadline")
                    else:
                        self._finish(job, "done", result=result)
            finally:
                with self._drain_cond:
                    self._inflight -= 1
                    self._drain_cond.notify_all()

    def _finish(self, job: Job, status: str, result: dict | None = None,
                error: str | None = None, counted: bool = True) -> None:
        job.state = {
            "done": JobState.DONE, "error": JobState.FAILED,
            "cancelled": JobState.CANCELLED, "timeout": JobState.TIMEOUT,
            "worker_died": JobState.WORKER_DIED,
        }.get(status, JobState.DONE)
        now = time.monotonic()
        if job.started_at is not None:
            self.stats.record_latency("execute", now - job.started_at)
        self.stats.record_latency("total", now - job.accepted_at)
        if counted:
            self.stats.incr("completed" if status == "done" else status)
        if self._journal is not None:
            self._journal.record_done(job.id, status)
        self._release_id(job.id)
        job.reply(response(job.id, status, result=result, error=error))

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def _execute(self, request: Request) -> dict:
        """Run one admitted job (kept as a seam for tests to patch)."""
        if self._pool is not None:
            return self._pool.run(request)
        return self.executor.execute(request)


def _safe_reply(reply):
    """Wrap a transport write so a dead client cannot kill a worker."""
    def _reply(message: dict) -> None:
        try:
            reply(message)
        except (BrokenPipeError, ConnectionError, OSError, ValueError):
            pass
    return _reply


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
def serve_pipe(server, stdin=None, stdout=None) -> int:
    """Serve line-JSON over stdin/stdout until EOF or a shutdown op.

    Protocol traffic owns stdout; anything human-readable must go to
    stderr.  EOF on stdin triggers a graceful drain, so piping a finite
    job list into ``repro serve --pipe`` works as a batch runner.
    """
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    write_lock = threading.Lock()

    def reply(message: dict) -> None:
        line = encode(message) + "\n"
        with write_lock:
            stdout.write(line)
            stdout.flush()

    server.start()
    try:
        for line in stdin:
            if not line.strip():
                continue
            server.handle_line(line, reply)
            if server.shutdown_complete:
                break
    except KeyboardInterrupt:
        pass
    finally:
        if not server.shutdown_complete:
            server.shutdown(drain=True)
    return 0


def serve_tcp(server, host: str = "127.0.0.1",
              port: int = 0, ready=None) -> int:
    """Serve line-JSON over TCP; one reader thread per connection.

    Args:
        server: the :class:`FillServer` to drive.
        ready: optional callback invoked with the bound ``(host, port)``
            once the socket listens (lets tests/benches use port 0).
    """
    import socketserver

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:
            write_lock = threading.Lock()

            def reply(message: dict) -> None:
                data = (encode(message) + "\n").encode()
                with write_lock:
                    self.wfile.write(data)
                    self.wfile.flush()

            for raw in self.rfile:
                line = raw.decode("utf-8", errors="replace")
                if not line.strip():
                    continue
                server.handle_line(line, reply)
                if server.shutdown_complete:
                    return

    class TcpServer(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with TcpServer((host, port), Handler) as tcp:
        server.start()
        stopper = threading.Thread(
            target=lambda: (server.wait_shutdown(), tcp.shutdown()),
            daemon=True,
        )
        stopper.start()
        if ready is not None:
            ready(tcp.server_address)
        try:
            tcp.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:
            pass
        finally:
            if not server.shutdown_complete:
                server.shutdown(drain=True)
    return 0
