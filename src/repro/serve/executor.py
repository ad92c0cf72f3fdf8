"""The job execution engine, shared by thread workers and forked workers.

:class:`JobExecutor` owns everything one ``fill``/``eco``/``simulate`` job needs
after admission: layout loading (with an mtime-validated LRU cache),
score-coefficient calibration (cached per layout content), surrogate
binding through the :class:`~repro.serve.registry.ModelRegistry`, the
micro-batchers, and the MSP-SQP fill itself.  It is deliberately free of
queueing, journaling and transport concerns so the same code runs

* inside :class:`~repro.serve.server.FillServer` worker **threads**
  (``worker_mode=thread``), where the batchers coalesce work *across*
  concurrent jobs: a registered-model fill is a member of its
  :class:`~repro.serve.batcher.MicroBatcher` for its whole
  ``NeurFill.run`` and a simulate job of the
  :class:`~repro.serve.batcher.SimulateBatcher` from layout load through
  its polish, so a parked request runs the moment every other member has
  parked too, in a caller's own thread.  Worker threads are jobs in
  flight, not jobs computing: a job computes only while it holds the
  executor's :class:`Turn`, which the members of one batcher hold
  together and every other job holds alone, in arrival order, and
* inside long-lived forked worker **processes**
  (:mod:`repro.serve.procpool`, ``worker_mode=process``), where each
  child owns a private warm executor and cross-job coalescing is
  disabled (``max_batch=1``) because a child runs one job at a time —
  parallelism across jobs comes from the processes themselves.

All three per-executor caches are true LRUs: hits refresh recency
(``move_to_end``) and eviction removes the least-recently-*used* entry,
matching :class:`ModelRegistry`'s bound-network cache.  (The PR 3
versions of the layout and coefficient caches evicted FIFO — a hot
layout could be evicted while cold ones survived.)
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import OrderedDict, deque
from pathlib import Path

import numpy as np

from ..baselines import cai_fill, lin_fill, tao_fill
from ..cmp.simulator import CmpSimulator
from ..core import (
    BETA_RUNTIME_S,
    FillProblem,
    FillResult,
    NeurFill,
    ScoreCoefficients,
    eco_refill,
    evaluate_solution,
)
from ..core.scoring import planarity_metrics
from ..layout.io import layout_from_dict, load_layout
from ..layout.layout import Layout, apply_fill
from ..obs import trace as obs_trace
from ..optimize.sqp import SqpOptimizer
from ..surrogate import TrainConfig, pretrain_surrogate
from .batcher import MicroBatcher, SimulateBatcher
from .protocol import Request
from .registry import ModelRegistry, layout_fingerprint
from .stats import ServeStats

FILL_METHODS = ("lin", "tao", "cai", "neurfill-pkb", "neurfill-mm")


def validate_job(request: Request, allow_train: bool = True) -> str | None:
    """Cheap admission-time validation (full errors surface at run).

    The server calls it before journalling, so a bad job is rejected at
    the front end instead of travelling to a worker first.
    """
    params = request.params
    if "layout" not in params and "layout_path" not in params:
        return "params must include 'layout' or 'layout_path'"
    if request.op == "fill":
        method = params.get("method", "neurfill-pkb")
        if method not in FILL_METHODS:
            return (f"unknown method {method!r}; "
                    f"expected one of {FILL_METHODS}")
        if method.startswith("neurfill") and "model" not in params \
                and not allow_train:
            return ("no 'model' given and inline training is "
                    "disabled on this server")
    if request.op == "eco":
        if "model" not in params and not allow_train:
            return ("no 'model' given and inline training is "
                    "disabled on this server")
        if not any(key in params for key in
                   ("parent_fingerprint", "parent_fill", "parent_fill_path")):
            return ("eco params need 'parent_fingerprint' (a cached parent "
                    "solution) or an explicit 'parent_fill'/'parent_fill_path'")
        if ("parent_fill" in params or "parent_fill_path" in params) \
                and "parent_layout" not in params \
                and "parent_layout_path" not in params:
            return ("an explicit parent fill needs 'parent_layout' or "
                    "'parent_layout_path' to diff against")
    return None


class Turn:
    """The right to compute, taken in arrival order and shared by key.

    Jobs holding one key (a batcher they all join) hold the turn
    together; any other job holds it alone.  A job that arrives while
    others wait queues behind them even when it shares the holders' key,
    so nobody is starved.  One job computing at a time beats several
    contending for the GIL at every small numpy call.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._queue: deque[object] = deque()
        self._key: object = None
        self._holders = 0

    @contextlib.contextmanager
    def hold(self, key: object = None):
        """Hold the turn for the ``with`` block; yields the seconds waited.

        ``key=None`` holds it alone; other keys compare by identity.
        """
        shared = key is not None
        if not shared:
            key = object()
        ticket = object()
        with obs_trace.span("serve.turn", cat="serve", shared=shared) as span:
            t0 = time.perf_counter()
            with self._cond:
                self._queue.append(ticket)
                try:
                    while self._queue[0] is not ticket or (
                            self._holders and self._key is not key):
                        self._cond.wait()
                    self._key = key
                    self._holders += 1
                finally:
                    self._queue.remove(ticket)
                    self._cond.notify_all()  # the next may share or lead
            waited = time.perf_counter() - t0
            span.set(waited_ms=round(waited * 1e3, 3))
        try:
            yield waited
        finally:
            with self._cond:
                self._holders -= 1
                self._cond.notify_all()


class JobExecutor:
    """Executes admitted jobs with warm per-executor caches.

    Args:
        registry: model registry the executor binds surrogates from.
        simulator: shared simulator (default physics) for calibration,
            scoring and ``simulate`` jobs.
        stats: optional event sink for batch-size histograms.
        allow_train: permit inline surrogate training for neurfill jobs
            without a registered model.
        max_bound_networks: bound-network/batcher cache entries; layout
            and coefficient cache sizes scale off this as in PR 3.
        max_batch / flush_ms: cross-job micro-batching knobs; pass
            ``max_batch=1`` to disable coalescing (the process-worker
            configuration — a child executor never sees concurrency).
            ``flush_ms`` bounds how long a parked request waits for a
            job that is busy elsewhere.
    """

    def __init__(self, registry: ModelRegistry | None = None, *,
                 simulator: CmpSimulator | None = None,
                 stats: ServeStats | None = None,
                 allow_train: bool = True,
                 max_bound_networks: int = 8,
                 max_batch: int = 1,
                 flush_ms: float = 0.0):
        self.registry = registry or ModelRegistry()
        self.simulator = simulator or CmpSimulator()
        self.stats = stats
        self.allow_train = allow_train
        self.max_bound_networks = max_bound_networks
        self.max_batch = max_batch
        self.flush_ms = flush_ms
        self._layout_cache: OrderedDict[str, tuple[tuple, Layout, str]] = \
            OrderedDict()
        self._coeff_cache: OrderedDict[str, ScoreCoefficients] = OrderedDict()
        self._batchers: OrderedDict[tuple, MicroBatcher] = OrderedDict()
        self._sim_batcher = SimulateBatcher(
            max_batch=max_batch, max_delay_s=flush_ms / 1e3, stats=stats)
        # Parent solutions for incremental (eco) jobs, keyed by layout
        # fingerprint: every completed fill/eco deposits its result here
        # so a later edit of that layout can warm-start from it.
        self._solutions: OrderedDict[str, tuple[Layout, FillResult]] = \
            OrderedDict()
        self._lock = threading.Lock()
        self._turn = Turn()

    # ------------------------------------------------------------------
    def execute(self, request: Request) -> dict:
        with obs_trace.span(f"serve.{request.op}", cat="serve",
                            job_id=request.id):
            if request.op == "simulate":
                return self._simulate_job(request.params)
            if request.op == "eco":
                return self._eco_job(request.params)
            return self._fill_job(request.params)

    def close(self) -> None:
        """Close every batcher: parked requests flush themselves."""
        with self._lock:
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close()
        self._sim_batcher.close()

    @contextlib.contextmanager
    def _turn_for(self, batcher=None):
        """Hold the executor's turn for a job's compute.

        With coalescing on, jobs that join one ``batcher`` share the
        turn; every other job holds it alone.  A job takes it before it
        joins its batcher, so no member waits for a job still queued.
        """
        key = batcher if self.max_batch > 1 else None
        with self._turn.hold(key) as waited:
            if self.stats is not None:
                self.stats.record_latency("turn_wait", waited)
            yield

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------
    def _load_layout(self, params: dict) -> tuple[Layout, str]:
        if "layout" in params:
            layout = layout_from_dict(params["layout"])
            return layout, layout_fingerprint(layout)
        path = params.get("layout_path")
        if not isinstance(path, str) or not path:
            raise ValueError("params must include 'layout' or 'layout_path'")
        stat = Path(path).stat()
        stamp = (stat.st_mtime_ns, stat.st_size)
        with self._lock:
            cached = self._layout_cache.get(path)
            if cached is not None and cached[0] == stamp:
                self._layout_cache.move_to_end(path)
                return cached[1], cached[2]
        layout = load_layout(path)
        fingerprint = layout_fingerprint(layout)
        with self._lock:
            self._layout_cache[path] = (stamp, layout, fingerprint)
            self._layout_cache.move_to_end(path)
            while len(self._layout_cache) > 4 * self.max_bound_networks:
                self._layout_cache.popitem(last=False)
        return layout, fingerprint

    def _coefficients(self, layout: Layout,
                      fingerprint: str) -> ScoreCoefficients:
        """Calibrated coefficients, cached per layout content.

        Calibration runs one unfilled simulation; it is deterministic, so
        the cached value is bitwise what the one-shot CLI recomputes.
        """
        with self._lock:
            cached = self._coeff_cache.get(fingerprint)
            if cached is not None:
                self._coeff_cache.move_to_end(fingerprint)
                return cached
        coefficients = ScoreCoefficients.calibrated(
            layout, self.simulator, beta_runtime=BETA_RUNTIME_S)
        with self._lock:
            self._coeff_cache[fingerprint] = coefficients
            self._coeff_cache.move_to_end(fingerprint)
            while len(self._coeff_cache) > 8 * self.max_bound_networks:
                self._coeff_cache.popitem(last=False)
        return coefficients

    def _coalesced_network(self, model_name: str, layout: Layout,
                           fingerprint: str):
        """The batcher standing in for a registered model's bound network.

        Batchers are keyed by *(model, fingerprint, checkpoint stamp)*
        so an in-place overwrite of the checkpoint never coalesces old-
        and new-weight evaluations in one batch; when a new stamp's
        batcher is installed, stale same-model entries are evicted.
        Closing an evicted batcher is safe for in-flight jobs still
        evaluating through it: a closed batcher flushes every evaluation
        at once, so those jobs finish on the weights they bound.
        """
        network, model = self.registry.bind(model_name, layout, fingerprint)
        key = (model_name, fingerprint, model.stamp)
        with self._lock:
            batcher = self._batchers.get(key)
            if batcher is not None:
                self._batchers.move_to_end(key)
                return batcher
        batcher = MicroBatcher(
            network, max_batch=self.max_batch,
            max_delay_s=self.flush_ms / 1e3, stats=self.stats,
        )
        evicted: list[MicroBatcher] = []
        with self._lock:
            if key in self._batchers:  # lost a bind race; keep the winner
                evicted.append(batcher)
                self._batchers.move_to_end(key)
                batcher = self._batchers[key]
            else:
                for stale in [k for k in self._batchers
                              if k[0] == model_name and k[2] != model.stamp]:
                    evicted.append(self._batchers.pop(stale))
                self._batchers[key] = batcher
                self._batchers.move_to_end(key)
                while len(self._batchers) > self.max_bound_networks:
                    evicted.append(self._batchers.popitem(last=False)[1])
        for old in evicted:
            old.close()
        return batcher

    def _remember_solution(self, fingerprint: str, layout: Layout,
                           result: FillResult) -> None:
        """Deposit a solved fill as a warm-start parent for eco jobs."""
        with self._lock:
            self._solutions[fingerprint] = (layout, result)
            self._solutions.move_to_end(fingerprint)
            while len(self._solutions) > 8 * self.max_bound_networks:
                self._solutions.popitem(last=False)

    def solution_for(self, fingerprint: str) -> tuple[Layout, FillResult] | None:
        """The cached parent solution for a layout fingerprint, if any."""
        with self._lock:
            cached = self._solutions.get(fingerprint)
            if cached is not None:
                self._solutions.move_to_end(fingerprint)
            return cached

    # ------------------------------------------------------------------
    # Job kinds
    # ------------------------------------------------------------------
    def _fill_job(self, params: dict) -> dict:
        layout, fingerprint = self._load_layout(params)
        method = params.get("method", "neurfill-pkb")
        problem = FillProblem(layout, self._coefficients(layout, fingerprint))
        model_name = params.get("model")
        network = None
        if method not in ("lin", "tao", "cai") and model_name is not None:
            network = self._coalesced_network(
                str(model_name), layout, fingerprint)
        with self._turn_for(network):
            if method == "lin":
                result = lin_fill(problem)
            elif method == "tao":
                result = tao_fill(problem)
            elif method == "cai":
                result = cai_fill(problem, simulator=self.simulator,
                                  max_sqp_iterations=3)
            else:
                membership = contextlib.nullcontext()
                if network is None:
                    network = self._train_inline(layout, params)
                else:
                    membership = network.member()
                neurfill = NeurFill(
                    problem, network,
                    optimizer=SqpOptimizer(max_iter=80, tol=1e-9),
                    simulator=self.simulator,
                )
                # A member for the whole run: its parked evaluations wait
                # for the other members, never for jobs that cannot join.
                with membership:
                    result = neurfill.run(
                        method,
                        seed=int(params.get("seed", 0)),
                        max_evaluations=int(params.get("max_evaluations",
                                                       500)),
                        top_k=int(params.get("top_k", 3)),
                    )
            return self._reply(params, problem, fingerprint, result, method)

    def _train_inline(self, layout: Layout, params: dict):
        """A surrogate trained for this job alone (no registered model)."""
        if not self.allow_train:
            raise ValueError(
                "no 'model' given and inline training is disabled")
        network, _, _ = pretrain_surrogate(
            [layout], layout,
            sample_count=int(params.get("train_samples", 30)),
            tile_rows=layout.grid.rows, tile_cols=layout.grid.cols,
            base_channels=8, depth=2,
            config=TrainConfig(
                epochs=int(params.get("train_epochs", 20)),
                batch_size=8),
            simulator=self.simulator,
            seed=int(params.get("seed", 0)),
        )
        return network

    def _reply(self, params: dict, problem: FillProblem, fingerprint: str,
               result: FillResult, method: str, **extra) -> dict:
        """Remember a solved fill or eco job and build its reply.

        The solution becomes the warm-start parent of later eco jobs on
        this layout content, so chained ECOs start from the freshest one.
        """
        layout = problem.layout
        self._remember_solution(fingerprint, layout, result)
        payload = {
            "method": result.method,
            "layout": layout.name,
            # The fingerprint keys the cached solution; clients pass it
            # back as parent_fingerprint on eco jobs, and the process
            # pool learns worker affinity from it.
            "layout_fingerprint": fingerprint,
            "quality": result.quality,
            "total_fill": result.total_fill,
            "runtime_s": result.runtime_s,
            "evaluations": result.evaluations,
            "starts": result.starts,
            **extra,
        }
        if params.get("score", True):
            score = evaluate_solution(problem, result.fill, method,
                                      self.simulator,
                                      runtime_s=result.runtime_s)
            payload["score"] = {
                "delta_h": score.delta_h,
                "quality": score.quality,
                "overall": score.overall,
            }
        if params.get("return_fill"):
            payload["fill"] = result.fill.tolist()
        fill_out = params.get("fill_out")
        if fill_out:
            np.savez(fill_out, fill=result.fill)
            payload["fill_out"] = str(fill_out)
        return payload

    def _resolve_parent(self, params: dict) -> tuple[Layout, FillResult | np.ndarray]:
        """The parent solution an eco job warm-starts from.

        Preference order: the executor's solution cache (keyed by
        ``parent_fingerprint``), then an explicit ``parent_fill`` /
        ``parent_fill_path`` with its parent layout.
        """
        fingerprint = params.get("parent_fingerprint")
        if isinstance(fingerprint, str) and fingerprint:
            cached = self.solution_for(fingerprint)
            if cached is not None:
                return cached
        if "parent_fill" in params or "parent_fill_path" in params:
            if "parent_layout" in params:
                parent_layout = layout_from_dict(params["parent_layout"])
            elif "parent_layout_path" in params:
                parent_layout, _ = self._load_layout(
                    {"layout_path": params["parent_layout_path"]})
            else:
                raise ValueError(
                    "an explicit parent fill needs 'parent_layout' or "
                    "'parent_layout_path' to diff against")
            if "parent_fill" in params:
                fill = np.asarray(params["parent_fill"], dtype=float)
            else:
                with np.load(params["parent_fill_path"]) as data:
                    fill = np.asarray(data["fill"], dtype=float)
            return parent_layout, fill
        raise ValueError(
            f"parent solution {fingerprint!r} is not cached on this worker; "
            "re-run the parent fill here or pass parent_fill/parent_layout "
            "explicitly")

    def _eco_job(self, params: dict) -> dict:
        layout, fingerprint = self._load_layout(params)
        parent_layout, parent = self._resolve_parent(params)
        problem = FillProblem(layout, self._coefficients(layout, fingerprint))
        model_name = params.get("model")
        network = None
        if model_name is not None:
            # Direct (uncoalesced) binding: the eco driver evaluates
            # through cropped region passes the micro-batcher cannot
            # coalesce anyway.
            network = self.registry.network_for(
                str(model_name), layout, fingerprint)
        with self._turn_for():
            if network is None:
                network = self._train_inline(layout, params)
            coupling = params.get("coupling_radius")
            result = eco_refill(
                problem, network, parent_layout, parent,
                optimizer=SqpOptimizer(max_iter=80, tol=1e-9),
                coupling_radius=None if coupling is None else int(coupling),
            )
            return self._reply(params, problem, fingerprint, result,
                               result.method, eco=result.extras.get("eco", {}))

    def _simulate_job(self, params: dict) -> dict:
        # A member from layout load through the polish: a lone job
        # polishes at once, while overlapping jobs sharing this physics
        # and grid polish as one batched pass, bitwise identical to
        # simulate_layout.  Simulate jobs share the turn with each other.
        with self._turn_for(self._sim_batcher), self._sim_batcher.member():
            layout, _ = self._load_layout(params)
            simulator = self.simulator
            polish_time = params.get("polish_time")
            if polish_time:
                from ..cmp import ProcessParams
                simulator = CmpSimulator(
                    ProcessParams(polish_time_s=float(polish_time)))
            result = self._sim_batcher.simulate(apply_fill(layout),
                                                simulator)
        delta_h, sigma, line, outliers = planarity_metrics(result.height)
        return {
            "layout": layout.name,
            "rows": layout.grid.rows,
            "cols": layout.grid.cols,
            "layers": layout.num_layers,
            "delta_h": delta_h,
            "sigma": sigma,
            "line_deviation": line,
            "outliers": outliers,
            "mean_dishing": float(result.dishing.mean()),
            "mean_erosion": float(result.erosion.mean()),
        }
