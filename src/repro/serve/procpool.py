"""Forked worker processes: the GIL-free serve worker pool.

Thread workers share one interpreter, so numpy-heavy fill jobs contend
on the GIL and throughput flattens as clients grow.  This module moves
job *execution* — layout load, coefficient calibration, surrogate
binding, MSP-SQP fill — into long-lived child processes, each owning a
private warm :class:`~repro.serve.executor.JobExecutor` (its own
:class:`~repro.serve.registry.ModelRegistry`, layout/coefficient caches,
and simulator).  The parent keeps everything else: admission, the
bounded queue, deadlines, the journal and stats.

Transport is one duplex pipe per child carrying the *protocol's own*
line encoding: the parent sends ``encode(request.to_wire())`` bytes; the
child answers with ``encode({...})`` frames —

* ``{"kind": "ready", "pid": ...}`` once booted;
* ``{"kind": "result", "job": id, "status": "done"|"error", ...}`` with
  the result payload passed through :func:`~repro.serve.protocol.json_safe`
  — exactly the NaN-safe sanitisation the client response gets, so the
  bytes a client receives are identical in thread and process mode.

A child never hears of a new checkpoint: its registry revalidates the
checkpoint stamp on every bind, so a checkpoint overwritten in place is
reloaded by each child at its next job on that model.

Crash containment: a child that dies mid-job (OOM kill, segfault,
SIGKILL) is detected by the waiting parent thread through pipe EOF or
``process.is_alive()``.  Its slot is respawned and the job re-runs once
on the fresh child; only a job whose second run dies too fails with the
distinguishable ``worker_died`` terminal status (safe to retry — the job
did not complete), so one crash-prone job cannot crash-loop the pool.
A closing pool never re-runs.  Idle children that die are respawned by
the monitor thread.

Children are started with the ``fork`` start method where available
(they inherit the parent's warm module state); ``spawn`` is the
fallback on platforms without it.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from . import protocol
from .executor import JobExecutor
from .protocol import ProtocolError, Request
from .registry import ModelRegistry
from .stats import ServeStats


class WorkerDiedError(RuntimeError):
    """The child process executing a job died before returning a result."""


class RemoteJobError(RuntimeError):
    """The job raised inside the child; carries the child's error string."""


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a child needs to build its executor (picklable).

    ``models`` entries are ``(name, checkpoint_dir)`` pairs.
    """

    models: tuple[tuple[str, str], ...] = ()
    allow_train: bool = True
    max_bound_networks: int = 8


def _mp_context():
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _worker_main(conn, spec: WorkerSpec) -> None:
    """Child entry point: execute request lines until the pipe closes."""
    # The child never traces/aggregates for the parent; start its global
    # metrics registry clean rather than inheriting the parent's samples.
    from ..obs import metrics as obs_metrics
    obs_metrics.reset()

    registry = ModelRegistry(max_bound=spec.max_bound_networks)
    for name, directory in spec.models:
        registry.register(name, directory)
    executor = JobExecutor(
        registry=registry,
        allow_train=spec.allow_train,
        max_bound_networks=spec.max_bound_networks,
        max_batch=1,  # one job at a time per child; no cross-job traffic
    )

    def send(payload: dict) -> None:
        try:
            conn.send_bytes(protocol.encode(payload).encode())
        except (BrokenPipeError, OSError, ValueError):
            pass  # parent is gone; the loop will exit on recv

    send({"kind": "ready", "pid": os.getpid()})
    try:
        while True:
            try:
                raw = conn.recv_bytes()
            except (EOFError, OSError):
                break  # parent closed the pipe: clean shutdown
            try:
                request = protocol.parse_request(raw.decode("utf-8"))
            except ProtocolError as exc:  # impossible from our parent
                send({"kind": "result", "job": None, "status": "error",
                      "error": str(exc)})
                continue
            try:
                result = executor.execute(request)
            except Exception as exc:  # job failure must not kill the child
                send({"kind": "result", "job": request.id,
                      "status": "error", "error": str(exc)})
            else:
                send({"kind": "result", "job": request.id, "status": "done",
                      "result": protocol.json_safe(result)})
    finally:
        executor.close()


class _WorkerHandle:
    """One child process slot; respawned in place when the child dies."""

    def __init__(self, index: int, spec: WorkerSpec, ctx,
                 start_timeout_s: float = 60.0):
        self.index = index
        self.spec = spec
        self.ctx = ctx
        self.start_timeout_s = start_timeout_s
        self.process = None
        self.conn = None
        self.pid: int | None = None
        self.jobs = 0
        self.in_use = False
        self.spawn()

    # ------------------------------------------------------------------
    def spawn(self) -> None:
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        process = self.ctx.Process(
            target=_worker_main, args=(child_conn, self.spec),
            name=f"repro-serve-proc-{self.index}", daemon=True,
        )
        process.start()
        child_conn.close()
        self.process, self.conn = process, parent_conn
        deadline = time.monotonic() + self.start_timeout_s
        while True:
            if parent_conn.poll(0.05):
                try:
                    message = self._recv()
                except (EOFError, OSError):
                    raise WorkerDiedError(
                        f"worker {self.index} closed its pipe during boot")
                if message.get("kind") == "ready":
                    self.pid = int(message.get("pid") or process.pid)
                    return
            elif not process.is_alive():
                raise WorkerDiedError(
                    f"worker {self.index} died during boot "
                    f"(exitcode {process.exitcode})")
            elif time.monotonic() > deadline:
                raise WorkerDiedError(
                    f"worker {self.index} did not become ready within "
                    f"{self.start_timeout_s}s")

    def _recv(self) -> dict:
        return protocol.decode(self.conn.recv_bytes().decode("utf-8"))

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    # ------------------------------------------------------------------
    def run(self, request: Request, poll_s: float = 0.1) -> dict:
        """Execute one request in the child; blocks until its result.

        Raises:
            WorkerDiedError: the child died before producing a result.
            RemoteJobError: the job raised inside the child.
        """
        line = protocol.encode(request.to_wire())
        self.jobs += 1
        try:
            self.conn.send_bytes(line.encode())
        except (BrokenPipeError, OSError):
            raise WorkerDiedError(
                f"worker pid {self.pid} died before accepting job "
                f"{request.id!r}")
        while True:
            try:
                if self.conn.poll(poll_s):
                    message = self._recv()
                else:
                    if not self.alive and not self.conn.poll(0):
                        raise WorkerDiedError(
                            f"worker pid {self.pid} died while executing "
                            f"job {request.id!r}")
                    continue
            except (EOFError, OSError):
                raise WorkerDiedError(
                    f"worker pid {self.pid} died while executing job "
                    f"{request.id!r}")
            if message.get("kind") != "result":
                continue
            if message.get("job") != request.id:
                continue  # stale frame from a previous incarnation
            if message.get("status") == "done":
                return message.get("result") or {}
            raise RemoteJobError(str(message.get("error", "worker error")))

    def close(self, timeout: float = 2.0) -> None:
        try:
            self.conn.close()  # child sees EOF and exits its loop
        except OSError:
            pass
        if self.process is not None:
            self.process.join(timeout=timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=timeout)

    def describe(self) -> dict:
        return {"index": self.index, "pid": self.pid, "alive": self.alive,
                "jobs": self.jobs}


class ProcessWorkerPool:
    """A fixed-size pool of forked workers behind an acquire/run API.

    The server's worker threads call :meth:`run`; each call pins one
    child for the duration of the job, so at most ``workers`` jobs
    execute concurrently — in separate processes, free of the GIL.
    """

    def __init__(self, workers: int, spec: WorkerSpec | None = None,
                 stats: ServeStats | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.spec = spec or WorkerSpec()
        self.stats = stats
        self._ctx = _mp_context()
        self._handles: list[_WorkerHandle] = []
        self._cond = threading.Condition()
        self._closed = False
        self._monitor: threading.Thread | None = None
        # layout_fingerprint -> worker index, learned from done payloads.
        # Each forked child owns a *private* executor, so an eco job's
        # cached parent solution lives in exactly one child; prefer it.
        self._affinity: OrderedDict[str, int] = OrderedDict()

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._handles:
            return
        self._handles = [_WorkerHandle(i, self.spec, self._ctx)
                         for i in range(self.workers)]
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-serve-proc-monitor",
            daemon=True)
        self._monitor.start()

    def close(self, timeout: float = 5.0) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for handle in self._handles:
            handle.close(timeout=timeout)

    # ------------------------------------------------------------------
    def run(self, request: Request) -> dict:
        """Execute ``request`` on a free worker (see handle.run).

        ``eco`` jobs naming a ``parent_fingerprint`` wait for the worker
        that completed that layout's fill — its private executor holds
        the cached parent solution; any other child would reject the
        warm-start.  Other jobs take the first free worker.

        If the child dies mid-job, the slot is respawned and the job
        re-runs once on the fresh child; a second death (or a death
        while the pool is closing) raises :class:`WorkerDiedError`.
        """
        prefer = None
        if request.op == "eco":
            parent = request.params.get("parent_fingerprint")
            if isinstance(parent, str) and parent:
                with self._cond:
                    prefer = self._affinity.get(parent)
        handle = self._acquire(prefer=prefer)
        try:
            try:
                result = handle.run(request)
            except WorkerDiedError:
                self._revive(handle)
                if self._closed:
                    raise
                if self.stats is not None:
                    self.stats.incr("redispatched")
                try:
                    result = handle.run(request)
                except WorkerDiedError:
                    self._revive(handle)
                    raise
        finally:
            self._release(handle)
        fingerprint = result.get("layout_fingerprint") \
            if isinstance(result, dict) else None
        if isinstance(fingerprint, str) and fingerprint:
            with self._cond:
                self._affinity[fingerprint] = handle.index
                self._affinity.move_to_end(fingerprint)
                while len(self._affinity) > 1024:
                    self._affinity.popitem(last=False)
        return result

    def _acquire(self, prefer: int | None = None) -> _WorkerHandle:
        with self._cond:
            while True:
                if self._closed:
                    raise WorkerDiedError("worker pool is closed")
                if prefer is not None and 0 <= prefer < len(self._handles):
                    handle = self._handles[prefer]
                    if handle.in_use:
                        self._cond.wait(1.0)
                        continue
                    handle.in_use = True
                    break
                for handle in self._handles:
                    if not handle.in_use:
                        handle.in_use = True
                        break
                else:
                    self._cond.wait(1.0)
                    continue
                break
        if not handle.alive:
            self._revive(handle)
        return handle

    def _release(self, handle: _WorkerHandle) -> None:
        with self._cond:
            handle.in_use = False
            self._cond.notify()

    def _revive(self, handle: _WorkerHandle) -> None:
        """Respawn a dead worker in place (best effort; caller owns it)."""
        with self._cond:
            if self._closed:
                return
        handle.close(timeout=0.5)
        try:
            handle.spawn()
        except WorkerDiedError:
            return  # next acquire retries; the slot stays claimable
        with self._cond:
            # The fresh child's executor caches are empty: any eco job
            # routed here by stale affinity would miss its parent.
            for fingerprint in [f for f, index in self._affinity.items()
                                if index == handle.index]:
                del self._affinity[fingerprint]
        if self.stats is not None:
            self.stats.incr("worker_respawns")

    def _monitor_loop(self) -> None:
        """Respawn idle workers that died between jobs."""
        while True:
            with self._cond:
                if self._closed:
                    return
                dead = [handle for handle in self._handles
                        if not handle.in_use and not handle.alive]
                for handle in dead:
                    handle.in_use = True  # claim for the respawn
            for handle in dead:
                self._revive(handle)
                self._release(handle)
            time.sleep(0.5)

    # ------------------------------------------------------------------
    def pids(self) -> list[int | None]:
        return [handle.pid for handle in self._handles]

    def describe(self) -> list[dict]:
        return [handle.describe() for handle in self._handles]
