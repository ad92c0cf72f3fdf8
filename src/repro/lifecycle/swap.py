"""Lifecycle manager: wires monitor -> retrain -> hot swap together.

One :class:`LifecycleManager` lives in the serving front end,
:class:`~repro.serve.server.FillServer`.  It owns the drift window,
optionally a local shadow executor (thread-mode serving; forked process
workers run their own and stream residual records up their pipes), and
optionally the retrain orchestrator.  When a retrain candidate
validates, the manager calls the host's ``apply_swap`` callback —
registry rebind plus worker notification — and then records the new
generation in an atomically-written state file so a restarted server
resumes serving the latest generation instead of the boot checkpoint.

The module deliberately knows nothing about sockets, pipes or
registries: hosts inject callables (``apply_swap``, ``model_info``,
``journal_reader``), keeping the dependency direction serve ->
lifecycle.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from ..obs import trace as obs_trace
from .monitor import DriftWindow, ResidualRecord, ShadowExecutor
from .retrain import RetrainConfig, RetrainOrchestrator

#: Name of the manager's persisted state file inside the lifecycle dir.
STATE_FILENAME = "lifecycle.json"


def write_state(path: str | Path, state: dict) -> None:
    """Atomically persist lifecycle state (temp + fsync + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "w") as fh:
            json.dump(state, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def read_state(path: str | Path) -> dict | None:
    """Read a persisted state file; ``None`` when absent or corrupt.

    Corrupt state is treated as absent (the server falls back to its
    boot checkpoints) rather than fatal — lifecycle state is an
    optimisation, not a source of truth.
    """
    path = Path(path)
    if not path.is_file():
        return None
    try:
        state = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return state if isinstance(state, dict) else None


class LifecycleManager:
    """Drift monitor + retrain orchestration + swap bookkeeping.

    Args:
        config: any object with the ``ServeConfig`` lifecycle attributes
            (``shadow_sample_rate``, ``drift_bound``, ``drift_window``,
            ``drift_trip_count``, ``auto_retrain``, ``retrain_samples``,
            ``retrain_epochs``, ``retrain_seed``).
        simulator: teacher simulator for the local shadow executor and
            retrain datagen; required when ``shadow_sample_rate > 0``
            and ``local_shadow`` is requested.
        stats: counter sink (``incr``/``set_gauge`` duck type).
        state_path: where generation state persists; ``None`` disables
            persistence.
        checkpoint_root: directory for retrained ``gen-NNN`` checkpoints
            (required when ``config.auto_retrain``).
        apply_swap: ``callable(model, directory, generation)`` performing
            the host-side hot swap (registry + workers).  Raises
            to veto.  The manager calls :meth:`note_swap` itself after a
            successful retrain promotion; hosts call it for manual swaps.
        model_info: ``callable(name) -> dict`` with at least ``arch``
            (and optionally ``directory``) for the incumbent — consulted
            when a retrain starts.
        journal_reader: ``callable(job_ids) -> dict[id, request_dict]``
            returning the journalled admission records of offending jobs;
            their layout specs augment the retrain set.
        local_shadow: run a :class:`ShadowExecutor` in this process
            (thread-mode serving).  Process-mode hosts pass ``False``
            and feed :meth:`observe_wire` from worker frames instead.
    """

    def __init__(self, config, *, simulator=None, stats=None,
                 state_path: str | Path | None = None,
                 checkpoint_root: str | Path | None = None,
                 apply_swap=None, model_info=None, journal_reader=None,
                 local_shadow: bool = True):
        self.config = config
        self.stats = stats
        self.apply_swap = apply_swap
        self.model_info = model_info
        self.journal_reader = journal_reader
        self.state_path = Path(state_path) if state_path else None
        self._lock = threading.Lock()
        self._generations: dict[str, dict] = {}

        self.window = DriftWindow(
            bound=config.drift_bound, window=config.drift_window,
            trip_count=config.drift_trip_count, on_trip=self._on_trip,
            stats=stats)
        self.shadow: ShadowExecutor | None = None
        if local_shadow and config.shadow_sample_rate > 0:
            if simulator is None:
                raise ValueError(
                    "shadow_sample_rate > 0 needs a simulator")
            self.shadow = ShadowExecutor(
                simulator=simulator,
                sample_rate=config.shadow_sample_rate,
                drift_bound=config.drift_bound,
                sink=self.window.observe, stats=stats)
        self.orchestrator: RetrainOrchestrator | None = None
        if config.auto_retrain:
            if checkpoint_root is None:
                raise ValueError("auto_retrain needs a checkpoint_root")
            self.orchestrator = RetrainOrchestrator(
                checkpoint_root=checkpoint_root,
                config=RetrainConfig(
                    samples=config.retrain_samples,
                    epochs=config.retrain_epochs,
                    seed=config.retrain_seed,
                    validation_bound=config.drift_bound,
                ),
                simulator=simulator, stats=stats,
                on_success=self._on_retrain_success)

    # ------------------------------------------------------------------
    # Residual intake.
    def observe_wire(self, message: dict) -> None:
        """Intake for residual frames from worker pipes."""
        try:
            record = ResidualRecord.from_wire(message)
        except (KeyError, TypeError, ValueError):
            if self.stats is not None:
                self.stats.incr("lifecycle.bad_residual_frames")
            return
        self.window.observe(record)

    # ------------------------------------------------------------------
    # Generation bookkeeping.
    def set_generation(self, model: str, generation: int,
                       directory: str | None = None) -> None:
        """Seed the manager's view of a model's live generation (boot)."""
        with self._lock:
            entry = self._generations.setdefault(model, {"swaps": 0})
            entry["generation"] = int(generation)
            if directory is not None:
                entry["directory"] = str(directory)

    def generation_of(self, model: str) -> int:
        with self._lock:
            entry = self._generations.get(model)
            return int(entry["generation"]) if entry else 1

    def note_swap(self, model: str, directory: str,
                  generation: int) -> None:
        """Record a completed hot swap: state file + window re-arm."""
        with self._lock:
            entry = self._generations.setdefault(model, {"swaps": 0})
            entry["generation"] = int(generation)
            entry["directory"] = str(directory)
            entry["swaps"] = int(entry.get("swaps", 0)) + 1
        self.window.note_swap(model)
        if self.stats is not None:
            self.stats.set_gauge(f"lifecycle.generation.{model}",
                                 float(generation))
        self._persist()
        obs_trace.event("lifecycle.swap", cat="lifecycle", model=model,
                        generation=generation, directory=str(directory))

    def restore(self) -> dict[str, tuple[str, int]]:
        """Load persisted generations; ``{model: (directory, generation)}``.

        The caller applies the result (registry swap / spec rewrite) —
        the manager only remembers it.  Entries whose checkpoint
        directory vanished are skipped.
        """
        if self.state_path is None:
            return {}
        state = read_state(self.state_path)
        if not state:
            return {}
        restored: dict[str, tuple[str, int]] = {}
        for model, entry in (state.get("models") or {}).items():
            try:
                directory = str(entry["directory"])
                generation = int(entry["generation"])
            except (KeyError, TypeError, ValueError):
                continue
            if not (Path(directory) / "surrogate.json").is_file():
                continue
            restored[model] = (directory, generation)
            with self._lock:
                self._generations[model] = {
                    "generation": generation,
                    "directory": directory,
                    "swaps": int(entry.get("swaps", 0)),
                }
        return restored

    def _persist(self) -> None:
        if self.state_path is None:
            return
        with self._lock:
            state = {"models": {m: dict(e)
                                for m, e in self._generations.items()}}
        try:
            write_state(self.state_path, state)
        except OSError:
            if self.stats is not None:
                self.stats.incr("lifecycle.state_write_errors")

    # ------------------------------------------------------------------
    # Drift trip -> retrain -> swap.
    def _on_trip(self, model: str, offenders) -> None:
        if self.orchestrator is None:
            return
        info = {}
        if self.model_info is not None:
            try:
                info = self.model_info(model) or {}
            except Exception:
                info = {}
        augment = self._journal_layouts([o.job_id for o in offenders])
        self.orchestrator.request(
            model, generation=self.generation_of(model),
            arch=dict(info.get("arch") or {}), offenders=offenders,
            augment_layouts=augment)

    def _journal_layouts(self, job_ids: list[str]) -> list[dict]:
        """Offending jobs' layout specs, snapshotted from the journal."""
        if self.journal_reader is None or not job_ids:
            return []
        try:
            requests = self.journal_reader(job_ids) or {}
        except Exception:
            if self.stats is not None:
                self.stats.incr("lifecycle.journal_read_errors")
            return []
        layouts = []
        for request in requests.values():
            params = request.get("params") if isinstance(request, dict) \
                else None
            layout = (params or {}).get("layout")
            if isinstance(layout, dict):
                layouts.append(layout)
        return layouts

    def _on_retrain_success(self, model: str, directory: str,
                            generation: int, verdict: dict) -> None:
        if self.apply_swap is not None:
            self.apply_swap(model, directory, generation)
        self.note_swap(model, directory, generation)

    # ------------------------------------------------------------------
    def status(self) -> dict:
        """Introspection payload for the ``lifecycle`` serve op."""
        with self._lock:
            generations = {m: dict(e) for m, e in self._generations.items()}
        result = {
            "enabled": True,
            "shadow_sample_rate": self.config.shadow_sample_rate,
            "drift_bound": self.config.drift_bound,
            "drift_window": self.config.drift_window,
            "drift_trip_count": self.config.drift_trip_count,
            "auto_retrain": bool(self.config.auto_retrain),
            "generations": generations,
            "drift": self.window.status(),
        }
        if self.shadow is not None:
            result["shadow_pending"] = self.shadow.pending()
        if self.orchestrator is not None:
            result["retrain"] = self.orchestrator.status()
        if self.state_path is not None:
            result["state_path"] = str(self.state_path)
        return result

    def close(self) -> None:
        if self.shadow is not None:
            self.shadow.close()
        if self.orchestrator is not None:
            self.orchestrator.wait(timeout_s=0.1)
