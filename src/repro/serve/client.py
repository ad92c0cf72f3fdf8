"""Client helper for ``repro serve`` (pipe and TCP transports).

A :class:`ServeClient` owns one connection, demultiplexes responses by
request id on a background reader thread, and exposes blocking helpers::

    with ServeClient.pipe() as client:          # spawns `repro serve --pipe`
        client.ping()
        done = client.fill(layout_path="a.json", method="lin",
                           return_fill=True)
        print(done["result"]["quality"])
        client.shutdown()

    client = ServeClient.connect("127.0.0.1", 7421)   # running TCP server

Because responses are routed by id, many jobs can be in flight at once
from one connection: ``submit_fill`` returns after the accept ack and
``wait`` blocks for the terminal response.
"""

from __future__ import annotations

import itertools
import os
import socket
import subprocess
import sys
import threading
import time
from collections import deque

from .protocol import TERMINAL_STATUSES, decode, encode


class ServeError(RuntimeError):
    """A request ended in a failure status; carries the full response."""

    def __init__(self, response: dict):
        self.response = response
        super().__init__(
            f"{response.get('status', 'error')}: "
            f"{response.get('error', 'no error message')}"
        )


class ServeClient:
    """One protocol connection with id-demultiplexed responses."""

    _instances = itertools.count(1)

    def __init__(self, reader, writer, *, proc: subprocess.Popen | None = None,
                 sock: socket.socket | None = None):
        self._reader = reader
        self._writer = writer
        self._proc = proc
        self._sock = sock
        # Job ids are server-global (cancel targets them), so prefix with
        # pid + connection number: concurrent clients must never collide.
        self._prefix = f"c{os.getpid()}-{next(self._instances)}"
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._inbox: dict[str | None, deque[dict]] = {}
        self._closed = False
        self._thread = threading.Thread(
            target=self._read_loop, name="repro-serve-client", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    @classmethod
    def pipe(cls, argv: list[str] | None = None,
             cwd: str | None = None, env: dict | None = None) -> "ServeClient":
        """Spawn ``repro serve --pipe`` as a child and connect to it.

        Args:
            argv: extra server flags (e.g. ``["--model", "pkb=ckpt"]``).
        """
        cmd = [sys.executable, "-m", "repro", "serve", "--pipe"]
        cmd += list(argv or [])
        proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, cwd=cwd, env=env,
        )
        return cls(proc.stdout, proc.stdin, proc=proc)

    @classmethod
    def connect(cls, host: str, port: int,
                timeout: float = 10.0) -> "ServeClient":
        """Connect to a TCP server, retrying until ``timeout``."""
        deadline = time.monotonic() + timeout
        last: Exception | None = None
        while time.monotonic() < deadline:
            try:
                sock = socket.create_connection((host, port), timeout=timeout)
                sock.settimeout(None)  # blocking reads; close() unblocks them
                stream = sock.makefile("rw", encoding="utf-8", newline="\n")
                return cls(stream, stream, sock=sock)
            except OSError as exc:
                last = exc
                time.sleep(0.05)
        raise ConnectionError(
            f"could not connect to {host}:{port} within {timeout}s: {last}")

    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        try:
            for line in self._reader:
                if not line.strip():
                    continue
                try:
                    message = decode(line)
                except ValueError:
                    continue
                with self._cond:
                    self._inbox.setdefault(
                        message.get("id"), deque()).append(message)
                    self._cond.notify_all()
        except (OSError, ValueError):
            pass
        finally:
            with self._cond:
                self._closed = True
                self._cond.notify_all()

    def _send(self, message: dict) -> None:
        line = encode(message) + "\n"
        with self._lock:
            if self._closed:
                raise ConnectionError("connection to repro serve is closed")
        self._writer.write(line)
        self._writer.flush()

    # ------------------------------------------------------------------
    def request(self, op: str, params: dict | None = None,
                priority: int = 0, timeout_s: float | None = None,
                request_id: str | None = None) -> str:
        """Send one request; returns its id (no waiting)."""
        rid = request_id or f"{self._prefix}-{next(self._ids)}"
        message: dict = {"id": rid, "op": op}
        if params:
            message["params"] = params
        if priority:
            message["priority"] = priority
        if timeout_s is not None:
            message["timeout_s"] = timeout_s
        self._send(message)
        return rid

    def recv(self, request_id: str, timeout: float | None = None) -> dict:
        """Next response for ``request_id`` (ack or terminal), in order."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                box = self._inbox.get(request_id)
                if box:
                    message = box.popleft()
                    if not box:
                        del self._inbox[request_id]
                    return message
                if self._closed:
                    raise ConnectionError(
                        "connection closed while waiting for "
                        f"response to {request_id!r}")
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"no response to {request_id!r} within {timeout}s")
                self._cond.wait(remaining)

    def wait(self, request_id: str, timeout: float | None = None) -> dict:
        """Block until a terminal response; raise on failure statuses."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            message = self.recv(request_id, timeout=remaining)
            if message.get("status") in TERMINAL_STATUSES:
                if not message.get("ok"):
                    raise ServeError(message)
                return message

    def call(self, op: str, params: dict | None = None,
             priority: int = 0, timeout_s: float | None = None,
             timeout: float | None = None) -> dict:
        """Send and wait for the terminal response (skipping the ack)."""
        rid = self.request(op, params, priority=priority, timeout_s=timeout_s)
        return self.wait(rid, timeout=timeout)

    # ------------------------------------------------------------------
    def submit_fill(self, *, priority: int = 0,
                    timeout_s: float | None = None, **params) -> str:
        """Submit a fill job; returns its id once accepted.

        Raises:
            ServeError: immediate rejection (backpressure, bad method).
        """
        rid = self.request("fill", params, priority=priority,
                           timeout_s=timeout_s)
        ack = self.recv(rid)
        if ack.get("status") != "accepted":
            raise ServeError(ack)
        return rid

    def fill(self, *, priority: int = 0, timeout_s: float | None = None,
             timeout: float | None = None, **params) -> dict:
        """Submit a fill job and wait for its terminal response."""
        return self.call("fill", params, priority=priority,
                         timeout_s=timeout_s, timeout=timeout)

    def eco(self, *, priority: int = 0, timeout_s: float | None = None,
            timeout: float | None = None, **params) -> dict:
        """Incremental refill of an edited layout against a parent solve.

        Pass the ``layout_fingerprint`` from the parent fill's done
        payload as ``parent_fingerprint`` so the job lands on the worker
        holding the parent's cached solution, or supply
        ``parent_fill`` + ``parent_layout`` explicitly.
        """
        return self.call("eco", params, priority=priority,
                         timeout_s=timeout_s, timeout=timeout)

    def simulate(self, *, timeout: float | None = None, **params) -> dict:
        return self.call("simulate", params, timeout=timeout)

    def stats(self, timeout: float | None = None) -> dict:
        return self.call("stats", timeout=timeout)["result"]

    def models(self, timeout: float | None = None) -> dict:
        return self.call("models", timeout=timeout)["result"]["models"]

    def ping(self, timeout: float | None = None) -> bool:
        return bool(self.call("ping", timeout=timeout)["result"]["pong"])

    def cancel(self, job_id: str, timeout: float | None = None) -> bool:
        result = self.call("cancel", {"job_id": job_id}, timeout=timeout)
        return bool(result["result"]["cancelled"])

    def shutdown(self, drain: bool = True,
                 timeout: float | None = None) -> dict:
        return self.call("shutdown", {"drain": drain}, timeout=timeout)

    # ------------------------------------------------------------------
    def close(self, wait_proc: bool = True, timeout: float = 10.0) -> int | None:
        """Close the connection; returns the child's exit code (pipe mode)."""
        with self._lock:
            self._closed = True
        if self._sock is not None:
            # Unblock the reader thread *before* closing the shared file
            # object: file.close() waits for the buffer lock a blocked
            # read holds, but shutdown makes that read return EOF now.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        try:
            self._writer.close()
        except OSError:
            pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        code: int | None = None
        if self._proc is not None and wait_proc:
            try:
                code = self._proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                code = self._proc.wait()
        self._thread.join(timeout=5.0)
        return code

    def kill(self) -> None:
        """Hard-kill the child server (crash simulation; pipe mode only)."""
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()
        self.close(wait_proc=False)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
