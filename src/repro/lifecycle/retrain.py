"""Background retrain orchestrator: drift trip -> candidate generation.

When the drift monitor trips, the orchestrator turns the offending
layouts into an augmentation set, runs the parallel teacher-datagen +
``pretrain_surrogate`` pipeline on a background thread, validates the
candidate checkpoint against a held-out residual set (the simulator
heights the shadow executor already paid for), and atomically persists
it under a monotonically increasing generation tag.  Transient failures
(a crashed datagen worker pool, a mid-write disk error) are retried
with exponential backoff; a candidate that deterministically fails
validation parks the orchestrator in a terminal ``retrain_failed``
state that alarms via ``lifecycle.retrain_failed`` metrics without ever
crashing the serving process.

Determinism: datagen sampling, train/test split and UNet weight init
all derive from one fixed seed, and checkpoints are written with
deterministic bytes (:func:`repro.surrogate.persist.save_surrogate`),
so two retrains from the same offenders and seed produce byte-identical
generation directories.

No ``repro.serve`` imports here — the orchestrator reports success via
a callback and never touches registries or workers itself.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..layout.io import layout_from_dict
from ..obs import trace as obs_trace
from ..surrogate.persist import bind_surrogate, load_surrogate_bundle, \
    save_surrogate
from ..surrogate.train import TrainConfig, pretrain_surrogate
from .monitor import OffenderSample, residual_stats


@dataclass
class RetrainConfig:
    """Retrain knobs, mirrored from ``ServeConfig``/``REPRO_LIFECYCLE_*``.

    ``validation_bound`` is the drift bound: a candidate passes when its
    mean held-out residual either beats the incumbent's or sits inside
    the bound.  ``max_retries`` only covers *transient* errors — a
    deterministic validation failure is terminal immediately, because
    rerunning the same seed on the same data cannot change the verdict.
    """

    samples: int = 12
    epochs: int = 4
    seed: int = 0
    batch_size: int = 4
    tile_rows: int = 16
    tile_cols: int = 16
    n_workers: int | None = None
    max_retries: int = 2
    backoff_s: float = 0.25
    validation_bound: float = 50.0


@dataclass
class _RetrainStatus:
    state: str = "idle"  # idle | running | retrain_failed
    runs: int = 0
    successes: int = 0
    attempts: int = 0
    last_error: str | None = None
    last_validation: dict | None = None
    last_generation: int | None = None


class RetrainOrchestrator:
    """Serialised background retrains with validation-gated promotion.

    Args:
        checkpoint_root: directory receiving one ``gen-NNN`` checkpoint
            subdirectory per promoted candidate.
        config: :class:`RetrainConfig`.
        simulator: teacher for datagen and (implicitly) validation;
            ``None`` lets :func:`pretrain_surrogate` build the default
            :class:`~repro.cmp.simulator.CmpSimulator`.
        stats: optional counter sink (``incr``/``set_gauge`` duck type).
        on_success: ``callable(model, directory, generation, info)``
            invoked off-thread once a candidate validates and persists —
            the lifecycle manager hot-swaps it into serving here.  An
            exception from the callback fails the run (retried like any
            transient error).
    """

    def __init__(self, checkpoint_root: str | Path, config: RetrainConfig,
                 simulator=None, stats=None, on_success=None):
        self.checkpoint_root = Path(checkpoint_root)
        self.config = config
        self.simulator = simulator
        self.stats = stats
        self.on_success = on_success
        # Re-entrant: the swap callback runs under this lock and may call
        # request() on the retrain thread itself (a residual frame read
        # during a worker's control round-trip can trip another model's
        # window); the live retrain thread then suppresses that request.
        self._lock = threading.RLock()
        self._status = _RetrainStatus()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def request(self, model: str, generation: int, arch: dict,
                offenders: list[OffenderSample],
                augment_layouts: list[dict] | None = None) -> bool:
        """Start a background retrain; False if one is running or the
        orchestrator is in its terminal ``retrain_failed`` state.

        ``arch`` is the incumbent's architecture dict (``base_channels``
        / ``depth``) — the candidate keeps the same topology so the swap
        is weight-for-weight.  ``augment_layouts`` are extra layout
        dicts (journal snapshots of the offending jobs) merged into the
        training sources.
        """
        if not offenders:
            return False
        with self._lock:
            if self._status.state == "retrain_failed":
                if self.stats is not None:
                    self.stats.incr("lifecycle.retrain_suppressed")
                return False
            if self._thread is not None and self._thread.is_alive():
                if self.stats is not None:
                    self.stats.incr("lifecycle.retrain_suppressed")
                return False
            self._status.state = "running"
            self._status.runs += 1
            self._thread = threading.Thread(
                target=self._run,
                args=(model, int(generation), dict(arch), list(offenders),
                      list(augment_layouts or [])),
                name="repro-lifecycle-retrain", daemon=True)
            self._thread.start()
        if self.stats is not None:
            self.stats.incr("lifecycle.retrain_started")
        return True

    def wait(self, timeout_s: float | None = None) -> bool:
        """Block until the current retrain (if any) finishes."""
        with self._lock:
            thread = self._thread
        if thread is None:
            return True
        thread.join(timeout_s)
        return not thread.is_alive()

    def reset(self) -> None:
        """Clear a terminal ``retrain_failed`` state (operator override)."""
        with self._lock:
            if self._status.state == "retrain_failed":
                self._status.state = "idle"

    def status(self) -> dict:
        with self._lock:
            status = self._status
            return {
                "state": status.state,
                "runs": status.runs,
                "successes": status.successes,
                "attempts": status.attempts,
                "last_error": status.last_error,
                "last_validation": status.last_validation,
                "last_generation": status.last_generation,
            }

    # ------------------------------------------------------------------
    def _run(self, model: str, generation: int, arch: dict,
             offenders: list[OffenderSample],
             augment_layouts: list[dict]) -> None:
        new_generation = generation + 1
        attempt = 0
        while True:
            attempt += 1
            with self._lock:
                self._status.attempts += 1
            try:
                with obs_trace.span("lifecycle.retrain", cat="lifecycle",
                                    model=model, generation=new_generation,
                                    attempt=attempt,
                                    offenders=len(offenders)):
                    directory = self._retrain_once(
                        model, generation, new_generation, arch,
                        offenders, augment_layouts)
                    verdict = self._validate(directory, offenders)
            except _ValidationFailed as exc:
                # Deterministic: same seed + same data would fail again.
                self._fail(model, f"validation failed: {exc}",
                           terminal=True, verdict=exc.verdict)
                return
            except Exception as exc:  # transient: retry with backoff
                if attempt <= self.config.max_retries:
                    if self.stats is not None:
                        self.stats.incr("lifecycle.retrain_retries")
                    time.sleep(self.config.backoff_s * 2 ** (attempt - 1))
                    continue
                self._fail(model, f"{type(exc).__name__}: {exc}",
                           terminal=True)
                return
            # Swap and record the success under one hold of the lock, so
            # a status() reader never sees the new generation live while
            # this retrain still reads as unfinished.
            swap_error = None
            with self._lock:
                try:
                    if self.on_success is not None:
                        self.on_success(model, str(directory),
                                        new_generation, verdict)
                except Exception as exc:  # swap refused (races a manual one)
                    swap_error = exc
                else:
                    self._status.state = "idle"
                    self._status.successes += 1
                    self._status.last_error = None
                    self._status.last_validation = verdict
                    self._status.last_generation = new_generation
            if swap_error is not None:
                self._fail(model, f"swap failed: {type(swap_error).__name__}: "
                           f"{swap_error}", terminal=True, verdict=verdict)
                return
            if self.stats is not None:
                self.stats.incr("lifecycle.retrain_success")
            obs_trace.event("lifecycle.retrain_success", cat="lifecycle",
                            model=model, generation=new_generation,
                            **{k: v for k, v in verdict.items()
                               if isinstance(v, (int, float))})
            return

    def _fail(self, model: str, message: str, terminal: bool,
              verdict: dict | None = None) -> None:
        with self._lock:
            self._status.state = "retrain_failed" if terminal else "idle"
            self._status.last_error = message
            if verdict is not None:
                self._status.last_validation = verdict
        if self.stats is not None:
            self.stats.incr("lifecycle.retrain_failed")
            self.stats.set_gauge("lifecycle.retrain_failed_terminal",
                                 1.0 if terminal else 0.0)
        obs_trace.event("lifecycle.retrain_failed", cat="lifecycle",
                        model=model, error=message, terminal=terminal)

    # ------------------------------------------------------------------
    def _retrain_once(self, model: str, parent: int, new_generation: int,
                      arch: dict, offenders: list[OffenderSample],
                      augment_layouts: list[dict]) -> Path:
        """Datagen + train + atomic persist of one candidate checkpoint."""
        train_half, _ = split_offenders(offenders)
        sources, target = self._training_sources(train_half, augment_layouts)
        config = TrainConfig(epochs=self.config.epochs,
                             batch_size=self.config.batch_size,
                             seed=self.config.seed)
        network, history, report = pretrain_surrogate(
            sources, target,
            sample_count=self.config.samples,
            tile_rows=self.config.tile_rows,
            tile_cols=self.config.tile_cols,
            base_channels=int(arch.get("base_channels", 8)),
            depth=int(arch.get("depth", 2)),
            config=config,
            simulator=self.simulator,
            seed=self.config.seed,
            n_workers=self.config.n_workers,
        )
        directory = self.checkpoint_root / f"gen-{new_generation:03d}"
        save_surrogate(
            directory, network.unet, network.normalizer,
            base_channels=int(arch.get("base_channels", 8)),
            depth=int(arch.get("depth", 2)),
            batch_norm=bool(arch.get("batch_norm", True)),
            extra_meta={
                "generation": new_generation,
                "parent_generation": parent,
                "model": model,
                "seed": self.config.seed,
                "train": {
                    "samples": self.config.samples,
                    "epochs": self.config.epochs,
                    "offenders": len(offenders),
                    "final_loss": history.final_loss,
                    "mean_relative_error": report.mean_relative_error,
                },
            })
        return directory

    def _training_sources(self, offenders: list[OffenderSample],
                          augment_layouts: list[dict]):
        """Offending layouts (deduplicated) as datagen sources."""
        sources = []
        seen: set[str] = set()
        for layout_dict in ([o.layout for o in offenders]
                            + list(augment_layouts)):
            layout = layout_from_dict(layout_dict)
            key = repr(sorted(layout_dict.items(), key=repr))
            if key in seen:
                continue
            seen.add(key)
            sources.append(layout)
        if not sources:
            raise ValueError("no offender layouts to retrain from")
        return sources, sources[0]

    def _validate(self, directory: Path,
                  offenders: list[OffenderSample]) -> dict:
        """Score the candidate on held-out offenders; raise on regression.

        Even-indexed offenders fed the training set; odd-indexed ones are
        held out here.  With a single offender it serves both roles —
        a weaker but still-real check (the candidate must at least fit
        the layout it drifted on).  The simulator heights were recorded
        by the shadow executor, so validation is pure inference.
        """
        holdout = offenders[1::2] or offenders
        bundle = load_surrogate_bundle(directory)
        candidate_rmses = []
        incumbent_rmses = []
        for sample in holdout:
            network = bind_surrogate(bundle, sample.bind_layout())
            predicted = network.predict_heights(sample.fill)
            rmse, _ = residual_stats(predicted, sample.sim_heights)
            candidate_rmses.append(rmse)
            incumbent_rmses.append(sample.rmse)
        verdict = {
            "holdout": len(holdout),
            "candidate_rmse": float(np.mean(candidate_rmses)),
            "incumbent_rmse": float(np.mean(incumbent_rmses)),
            "bound": self.config.validation_bound,
        }
        passed = (verdict["candidate_rmse"] < verdict["incumbent_rmse"]
                  or verdict["candidate_rmse"] <= self.config.validation_bound)
        if self.stats is not None:
            self.stats.set_gauge("lifecycle.candidate_rmse",
                                 verdict["candidate_rmse"])
        if not passed:
            raise _ValidationFailed(verdict)
        return verdict


class _ValidationFailed(RuntimeError):
    """Candidate lost to the incumbent on the held-out residual set."""

    def __init__(self, verdict: dict):
        super().__init__(
            f"candidate rmse {verdict['candidate_rmse']:.2f} A vs "
            f"incumbent {verdict['incumbent_rmse']:.2f} A "
            f"(bound {verdict['bound']:.2f} A)")
        self.verdict = verdict


def split_offenders(offenders: list[OffenderSample]
                    ) -> tuple[list[OffenderSample], list[OffenderSample]]:
    """(train, holdout) halves of an offender list, deterministic."""
    return list(offenders[0::2]), list(offenders[1::2] or offenders)
