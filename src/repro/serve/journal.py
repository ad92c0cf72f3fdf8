"""Crash-safe journal of accepted-but-unfinished job specs.

Append-only JSONL with two event kinds::

    {"event": "accept", "id": "j1", "request": {...full request...}}
    {"event": "done",   "id": "j1", "status": "done"}

``accept`` lines are fsync'd before the job is admitted, so a job the
client saw accepted survives a server crash; ``done`` lines are flushed
but not fsync'd (losing one merely re-runs an idempotent job on resume
— at-least-once semantics).  On restart, :meth:`JobJournal.recover`
replays the file, returns every accepted spec without a matching
``done``, and truncates the journal so the new process starts clean.
A half-written trailing line (the crash case) is ignored, and so are
lines of unknown events and fields a done line does not need (journals
written by older versions also hold ``swap`` events and a done line's
``generation``).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from .protocol import Request

_TERMINAL_EVENT = "done"
_ACCEPT_EVENT = "accept"


class JobJournal:
    """Append-only accept/done log for one server process."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def record_accept(self, request: Request) -> None:
        """Durably log an accepted job before it is enqueued."""
        self._append(
            {"event": _ACCEPT_EVENT, "id": request.id,
             "request": request.to_wire()},
            fsync=True,
        )

    def record_done(self, job_id: str, status: str) -> None:
        """Log a terminal outcome (done/error/cancelled/timeout/...)."""
        self._append({"event": _TERMINAL_EVENT, "id": job_id,
                      "status": status}, fsync=False)

    def _append(self, entry: dict, fsync: bool) -> None:
        line = json.dumps(entry, separators=(",", ":"))
        with self._lock:
            if self._fh.closed:
                return
            self._fh.write(line + "\n")
            self._fh.flush()
            if fsync:
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    # ------------------------------------------------------------------
    @staticmethod
    def read_pending(path: str | Path) -> list[dict]:
        """Replay a journal; return accepted-without-done request dicts.

        Tolerates a truncated final line (interrupted write during a
        crash) and unknown events (forward compatibility).
        """
        path = Path(path)
        if not path.is_file():
            return []
        pending: dict[str, dict] = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write at crash time
            if not isinstance(entry, dict):
                continue
            event, job_id = entry.get("event"), entry.get("id")
            if not isinstance(job_id, str):
                continue
            if event == _ACCEPT_EVENT and isinstance(entry.get("request"), dict):
                pending[job_id] = entry["request"]
            elif event == _TERMINAL_EVENT:
                pending.pop(job_id, None)
        return list(pending.values())

    @classmethod
    def recover(cls, path: str | Path) -> tuple[list[dict], "JobJournal"]:
        """Read pending specs, truncate, and reopen the journal.

        The caller resubmits the returned specs through the normal accept
        path, which re-records them in the fresh journal — so a second
        crash during resume still loses nothing.
        """
        path = Path(path)
        pending = cls.read_pending(path)
        if path.is_file():
            path.unlink()
        return pending, cls(path)
