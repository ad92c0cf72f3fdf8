"""Bounded priority job queue with backpressure, cancellation, deadlines.

The queue is the service's admission-control point:

* **backpressure** — :meth:`BoundedJobQueue.put` refuses work beyond
  ``capacity`` instead of buffering unboundedly; the server turns that
  into an immediate ``rejected`` response so clients can retry or shed;
* **priorities** — higher ``priority`` dequeues first, FIFO within a
  priority level (a monotonically increasing sequence number breaks
  ties, so equal-priority jobs never starve each other);
* **cancellation** — lazy removal: a cancelled entry stays in the heap
  but is skipped on pop, making cancel O(1);
* **deadlines** — jobs carry an absolute monotonic deadline; expired
  entries are swept with :meth:`expire_due` or skipped at pop time.
"""

from __future__ import annotations

import enum
import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from .protocol import Request


class JobState(str, enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"
    WORKER_DIED = "worker_died"


@dataclass
class Job:
    """One accepted unit of work plus its reply channel."""

    request: Request
    reply: Callable[[dict], None]
    accepted_at: float = field(default_factory=time.monotonic)
    deadline: float | None = None
    state: JobState = JobState.PENDING
    started_at: float | None = None

    def __post_init__(self) -> None:
        if self.deadline is None and self.request.timeout_s is not None:
            self.deadline = self.accepted_at + self.request.timeout_s

    @property
    def id(self) -> str:
        return self.request.id

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline


class BoundedJobQueue:
    """Thread-safe bounded priority queue of :class:`Job` entries."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._heap: list[tuple[int, int, Job]] = []
        self._by_id: dict[str, Job] = {}
        self._seq = 0
        self._live = 0
        self._closed = False
        self._cond = threading.Condition()

    # ------------------------------------------------------------------
    def put(self, job: Job, bounded: bool = True) -> bool:
        """Enqueue; ``False`` when at capacity or closed (backpressure).

        ``bounded=False`` skips the capacity check (journal replay: the
        job was accepted before a crash); later puts still see the queue
        as full until it drains below capacity.
        """
        with self._cond:
            if self._closed or (bounded and self._live >= self.capacity):
                return False
            if job.id in self._by_id:
                return False  # duplicate ids would make cancel ambiguous
            self._seq += 1
            heapq.heappush(
                self._heap, (-job.request.priority, self._seq, job)
            )
            self._by_id[job.id] = job
            self._live += 1
            self._cond.notify()
            return True

    def get(self, timeout: float | None = None) -> Job | None:
        """Pop the highest-priority pending job; ``None`` on timeout/close.

        Cancelled entries are discarded silently (their terminal response
        was already sent at cancel time).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                while self._heap:
                    _, _, job = heapq.heappop(self._heap)
                    if job.state is not JobState.PENDING:
                        continue  # lazily removed (cancelled/expired)
                    self._by_id.pop(job.id, None)
                    self._live -= 1
                    job.state = JobState.RUNNING
                    job.started_at = time.monotonic()
                    return job
                if self._closed:
                    return None
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)

    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> Job | None:
        """Cancel a pending job; returns it, or ``None`` if not pending."""
        with self._cond:
            job = self._by_id.pop(job_id, None)
            if job is None:
                return None
            job.state = JobState.CANCELLED
            self._live -= 1
            return job

    def drain_pending(self) -> list[Job]:
        """Cancel and return every pending job (non-drain shutdown)."""
        with self._cond:
            drained = [j for j in self._by_id.values()
                       if j.state is JobState.PENDING]
            for job in drained:
                job.state = JobState.CANCELLED
            self._by_id.clear()
            self._live = 0
        return drained

    def expire_due(self, now: float | None = None) -> list[Job]:
        """Remove and return every pending job past its deadline."""
        now = time.monotonic() if now is None else now
        expired = []
        with self._cond:
            for job in list(self._by_id.values()):
                if job.state is JobState.PENDING and job.expired(now):
                    job.state = JobState.TIMEOUT
                    del self._by_id[job.id]
                    self._live -= 1
                    expired.append(job)
        return expired

    # ------------------------------------------------------------------
    def depth(self) -> int:
        with self._cond:
            return self._live

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop accepting and wake every blocked :meth:`get`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
