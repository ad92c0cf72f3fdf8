"""Per-layer attribution for the traced run, from wrappers in this file.

:class:`LayerTracer` patches the public entry points of each layer of
``repro`` with timing wrappers for the duration of one traced pass, then
restores them.  Every wrapper opens a span on a private
``repro.obs.trace.Tracer`` (name, layer as its category, parent span,
thread, job id and the call's counts as attributes).  The tracer is
never activated, so none of the program's own instrumentation switches
on; the records stay in memory and are written as JSONL when the run
ends.  Names bound by ``from ... import`` are patched in the module that
calls them (e.g. ``repro.core.neurfill.pkb_starting_point`` and the
``repro.cli`` names).

A layer's *self time* is the duration of its spans minus the part their
child spans cover.  Self times of all layers plus ``core.unattributed_s``
add up to the traced wall time.  In the serve workloads jobs run
concurrently, so the time base there is the summed client-observed
latency of the pass's jobs: worker-thread spans partition each job's
execution, the remainder (queue wait, transport) is unattributed, and
the batchers' flush threads are left out of the partition because their
compute is already inside the parked ``MicroBatcher.evaluate`` spans of
the jobs.

The CMP simulator's pressure/DSH/Preston stage totals come from the
program's own ``repro.obs`` stage timer, routed to the same private
tracer.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

LAYERS = ("layout", "cmp", "nn", "surrogate", "optimize", "core", "serve")
#: Threads whose spans serve parked waits recorded elsewhere.
FLUSH_THREADS = ("repro-serve-batcher", "repro-serve-sim-batcher")
SURROGATE_CALLS = ("surrogate.evaluate", "surrogate.evaluate_batch",
                   "surrogate.evaluate_region", "surrogate.predict_heights")


def _surrogate_counts(kind):
    """Rows, gradient rows and cells of one surrogate call."""
    def counts(args, kwargs, out):
        net = args[0]
        L, N, M = net.grid_shape
        rows, cells = 1, N * M
        if kind == "batch":
            rows = np.asarray(args[1]).shape[0]
            mask = kwargs.get("grad_mask")
            grads = (int(np.count_nonzero(mask)) if mask is not None
                     else rows if kwargs.get("want_grad", True) else 0)
        elif kind == "region":
            grads = int(kwargs.get("want_grad", True))
            h, w = args[2].crop_shape
            cells = h * w
        elif kind == "heights":
            grads = 0
        else:
            grads = int(kwargs.get("want_grad",
                                   args[3] if len(args) > 3 else True))
        return {"rows": rows, "grads": grads, "cells": rows * cells,
                "full_cells": rows * N * M, "layers": L,
                "unet": id(net.unet)}
    return counts


def _quality_rows(args, kwargs, out):
    return {"rows": np.asarray(args[1]).shape[0]}


def _eco_windows(args, kwargs, out):
    eco = out.extras.get("eco", {})
    return {"dirty_windows": eco.get("dirty_windows", 0),
            "free_windows": eco.get("free_windows", 0)}


def _cmp_layouts(args, kwargs, out):
    shape = out.height.shape
    return {"layouts": int(np.prod(shape[:-3])) if len(shape) > 3 else 1}


class LayerTracer:
    """Install/uninstall span wrappers around the layers' public calls."""

    def __init__(self):
        from repro.obs.trace import Tracer

        self.tracer = Tracer(max_records=5_000_000)
        self.wall_s = 0.0
        #: id(network) -> (network, capture stats before the traced pass)
        self.networks: dict[int, tuple] = {}
        #: id(unet) -> unet, for the FLOP count
        self.unets: dict[int, object] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def span(self, name: str, layer: str):
        return self.tracer.span(
            name, cat=layer, job=getattr(self._local, "job", None),
            thread_name=threading.current_thread().name)

    def spans(self) -> list[dict]:
        return self.tracer.records("span")

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def _wrap(self, owner, attr: str, name: str, layer: str,
              counts=None, before=None) -> None:
        """Patch ``owner.attr`` with a span; ``counts(args, kwargs, out)``
        returns attributes recorded on it."""
        tracer = self

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                with tracer.span(name, layer) as span:
                    out = fn(*args, **kwargs)
                    if counts is not None:
                        span.set(**counts(args, kwargs, out))
                return out
            return wrapper
        self._patch(owner, attr, factory)

    def install(self) -> None:
        from importlib import import_module

        # import_module: ``repro.core`` re-exports a function named like
        # its ``msp_sqp`` module, which shadows ``import ... as``.
        cli = import_module("repro.cli")
        core_eco = import_module("repro.core.eco")
        msp = import_module("repro.core.msp_sqp")
        neurfill = import_module("repro.core.neurfill")
        obs_trace = import_module("repro.obs.trace")
        executor = import_module("repro.serve.executor")
        surrogate_train = import_module("repro.surrogate.train")
        from repro.cmp.simulator import CmpSimulator
        from repro.core.degradation import PerformanceDegradation
        from repro.nn.optim import Adam
        from repro.optimize.nmmso import Nmmso
        from repro.optimize.sqp import SqpOptimizer
        from repro.serve.batcher import MicroBatcher
        from repro.surrogate.network import CmpNeuralNetwork

        # surrogate ---------------------------------------------------
        for attr, kind in (("evaluate", "fill"), ("evaluate_batch", "batch"),
                           ("evaluate_region", "region"),
                           ("predict_heights", "heights")):
            self._wrap(CmpNeuralNetwork, attr, f"surrogate.{attr}",
                       "surrogate", _surrogate_counts(kind),
                       before=self._remember_network)
        self._wrap(cli, "load_surrogate", "surrogate.load_checkpoint",
                   "surrogate")
        self._wrap(surrogate_train, "build_dataset",
                   "surrogate.build_dataset", "surrogate")

        # nn: eager UNet forward/backward inside train_unet, Adam ---------
        self._wrap(surrogate_train, "train_unet", "nn.train_unet", "nn")
        self._wrap(surrogate_train, "evaluate_accuracy",
                   "nn.evaluate_accuracy", "nn")
        self._wrap(Adam, "step", "nn.adam_step", "nn")

        # optimize --------------------------------------------------------
        self._wrap(SqpOptimizer, "maximize", "optimize.sqp", "optimize")
        self._patch(SqpOptimizer, "maximize_steps", self._steps_wrapper)
        self._wrap(Nmmso, "run", "optimize.nmmso", "optimize",
                   lambda a, k, out: {"evaluations": out.evaluations})

        # core ------------------------------------------------------------
        self._wrap(msp.QualityModel, "evaluate", "core.quality", "core",
                   lambda a, k, out: {"rows": 1})
        self._wrap(msp.QualityModel, "evaluate_many", "core.quality_many",
                   "core", _quality_rows)
        self._wrap(core_eco.EcoQualityModel, "evaluate", "core.eco_quality",
                   "core", lambda a, k, out: {"rows": 1})
        self._wrap(PerformanceDegradation, "evaluate", "core.degradation",
                   "core")
        self._wrap(neurfill, "pkb_starting_point", "core.pkb_search", "core")
        for module in (neurfill, cli, executor):
            self._wrap(module, "evaluate_solution", "core.scoring", "core")
        for module in (cli, executor):
            self._wrap(module, "eco_refill", "core.eco_refill", "core",
                       _eco_windows)

        # cmp -------------------------------------------------------------
        self._wrap(CmpSimulator, "simulate", "cmp.simulate", "cmp",
                   _cmp_layouts)
        self._wrap(CmpSimulator, "simulate_batch", "cmp.simulate_batch",
                   "cmp", _cmp_layouts)
        self._wrap(CmpSimulator, "simulate_layout", "cmp.simulate_layout",
                   "cmp")
        self._route_stage_timer(obs_trace)

        # layout ----------------------------------------------------------
        self._wrap(core_eco, "diff_layouts", "layout.diff", "layout")
        self._wrap(core_eco, "dilate_mask", "layout.dilate", "layout")
        for module in (cli, executor):
            self._wrap(module, "load_layout", "layout.load", "layout")

        # serve -----------------------------------------------------------
        self._wrap(MicroBatcher, "evaluate", "serve.batcher_evaluate",
                   "serve")
        self._patch(executor.JobExecutor, "execute", self._job_wrapper)
        self._wrap(executor.JobExecutor, "solution_for",
                   "serve.solution_lookup", "serve",
                   lambda a, k, out: {"hit": out is not None})

    def _remember_network(self, args) -> None:
        """Snapshot a network's capture counters before its first call in
        the traced pass, so the pass reports its own traces/replays."""
        net = args[0]
        with self._lock:
            if id(net) not in self.networks:
                self.networks[id(net)] = (net, net.capture_stats())
                self.unets[id(net.unet)] = net.unet

    def _job_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(executor_self, request):
            tracer._local.job = request.id
            try:
                with tracer.span(f"serve.{request.op}_job", "serve"):
                    return fn(executor_self, request)
            finally:
                tracer._local.job = None
        return wrapper

    def _steps_wrapper(self, fn):
        """Time the SQP math between the evaluation requests it yields;
        the last step span carries the run's iteration count."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            reply = None
            while True:
                with tracer.span("optimize.sqp_step", "optimize") as span:
                    try:
                        request = steps.send(reply)
                    except StopIteration as done:
                        span.set(iterations=done.value.iterations)
                        finished = done
                    else:
                        finished = None
                if finished is not None:
                    return finished.value
                reply = yield request
        return wrapper

    def _route_stage_timer(self, obs_trace) -> None:
        """Send the simulator's ``cmp.polish`` stage timer to our tracer."""
        tracer = self.tracer

        def factory(original):
            @functools.wraps(original)
            def stages(name, cat="app", **attrs):
                if name == "cmp.polish":
                    return obs_trace.StageTimer(tracer, name, cat, attrs)
                return original(name, cat, **attrs)
            return stages
        self._patch(obs_trace, "stages", factory)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def thread_names(self) -> dict[int, str]:
        """Thread id -> name, from our spans (the program's stage spans
        carry no thread name)."""
        return {s["thread"]: s["attrs"]["thread_name"] for s in self.spans()
                if "thread_name" in s.get("attrs", {})}

    def partition(self) -> list[dict]:
        """Spans whose self times partition the time base (see module
        docstring): all but the serve batchers' flush threads."""
        names = self.thread_names()
        return [s for s in self.spans()
                if names.get(s["thread"]) not in FLUSH_THREADS]

    def self_times(self) -> tuple[dict[str, float], dict[int, float]]:
        """Per-layer and per-span self seconds (partition only)."""
        spans = self.partition()
        child: dict[int, int] = {}
        for span in spans:
            if span["parent"] is not None:
                child[span["parent"]] = (child.get(span["parent"], 0)
                                         + span["dur_us"])
        per_span = {s["id"]: (s["dur_us"] - child.get(s["id"], 0)) / 1e6
                    for s in spans}
        per_layer = {layer: 0.0 for layer in LAYERS}
        for span in spans:
            per_layer[span["cat"]] = (per_layer.get(span["cat"], 0.0)
                                      + per_span[span["id"]])
        return per_layer, per_span

    def busy(self, layer: str) -> float:
        """Seconds inside outermost spans of ``layer`` (no double count)."""
        spans = self.spans()
        by_id = {s["id"]: s for s in spans}
        total = 0
        for span in spans:
            if span["cat"] != layer:
                continue
            parent = by_id.get(span["parent"])
            while parent is not None and parent["cat"] != layer:
                parent = by_id.get(parent["parent"])
            if parent is None:
                total += span["dur_us"]
        return total / 1e6

    def total(self, name: str) -> float:
        """Summed seconds of every span called ``name``."""
        return sum(s["dur_us"] for s in self.spans() if s["name"] == name) / 1e6

    def count(self, names, attr: str | None = None) -> float:
        """How many spans are called one of ``names``, or the sum of their
        ``attr``."""
        names = (names,) if isinstance(names, str) else names
        return float(sum(1 if attr is None else s["attrs"].get(attr, 0)
                         for s in self.spans() if s["name"] in names))

    def stage_totals(self) -> dict[str, float]:
        return {stage: self.total(f"cmp.polish.{stage}")
                for stage in ("pressure", "dsh", "preston")}

    def write_jsonl(self, path) -> None:
        self.tracer.write_jsonl(path)


def flops_per_cell(unet) -> float:
    """Forward conv FLOPs per input cell of one ``(C, H, W)`` image.

    Measured from the conv shapes the UNet actually dispatches: one probe
    forward on a small map counts ``2 * O * C * kh * kw * Ho * Wo`` per
    ``corr2d`` call.  The UNet is fully convolutional, so the count scales
    with the cell count (up to the pooling-alignment padding).
    """
    from repro.nn import dispatch
    from repro.nn.tensor import Tensor

    from repro.surrogate import NUM_FEATURE_CHANNELS

    side = 4 * unet.alignment
    total = 0.0
    original = dispatch.corr2d

    def counting(xp, w, stride=1, **kwargs):
        nonlocal total
        out = original(xp, w, stride, **kwargs)
        B, O, Ho, Wo = out.shape
        total += 2.0 * B * O * w.shape[1] * w.shape[2] * w.shape[3] * Ho * Wo
        return out

    dispatch.corr2d = counting
    try:
        unet(Tensor(np.zeros((1, NUM_FEATURE_CHANNELS, side, side))))
    finally:
        dispatch.corr2d = original
    return total / (side * side)


def capture_delta(networks: dict[int, tuple]) -> dict[str, float]:
    """Capture counters accumulated by the networks used in the pass."""
    out = {"trace": 0, "replay": 0, "miss": 0, "bypass": 0, "arena": 0}
    for net, before in networks.values():
        stats = net.capture_stats()
        for key in ("trace", "replay", "miss", "bypass"):
            out[key] += stats[key] - before.get(key, 0)
        out["arena"] += stats["arena_bytes"]
    return out


def _hist_mean(histogram: dict) -> float:
    sizes = {int(k): n for k, n in histogram.items() if k.isdigit()}
    count = sum(sizes.values())
    return sum(k * n for k, n in sizes.items()) / count if count else 0.0


def _coalesced(histogram: dict) -> float:
    sizes = {int(k): n for k, n in histogram.items() if k.isdigit()}
    rows = sum(k * n for k, n in sizes.items())
    return sum(k * n for k, n in sizes.items() if k > 1) / rows if rows else 0.0


def layer_metrics(tracer: LayerTracer, time_base_s: float,
                  calibrated_plans: int, serve: dict | None) -> dict:
    """Every per-layer metric of the traced pass but the harness's own
    ``trace.overhead_frac``, by name.

    ``time_base_s`` is what the self times partition (the traced pass's
    operation time, or summed job latency on the serve workloads).
    ``serve`` carries the server's ``stats_snapshot`` and the client
    latency p50 (seconds) on the serve workloads; ``None`` elsewhere.
    """
    per_layer, _ = tracer.self_times()
    unattributed = time_base_s - sum(per_layer.values())
    spans = tracer.spans()

    fpc = {key: flops_per_cell(unet) for key, unet in tracer.unets.items()}
    gflop = 0.0
    for s in spans:
        if s["name"] in SURROGATE_CALLS:
            a = s["attrs"]
            # forward rows plus backward rows (about as costly), each one
            # image per metal layer
            gflop += ((a["rows"] + a["grads"]) / a["rows"] * a["cells"]
                      * a["layers"] * fpc[a["unet"]] / 1e9)
    calls = tracer.count(SURROGATE_CALLS)
    rows = tracer.count(SURROGATE_CALLS, "rows")
    full_cells = tracer.count(SURROGATE_CALLS, "full_cells")
    surrogate_busy = tracer.busy("surrogate")
    capture = capture_delta(tracer.networks)
    attempts = sum(capture[k] for k in ("trace", "replay", "miss", "bypass"))
    steps = tracer.count("nn.adam_step")
    stages = tracer.stage_totals()

    out = {
        "surrogate.calls": calls,
        "surrogate.rows": rows,
        "surrogate.rows_per_call": rows / calls if calls else 0.0,
        "surrogate.busy_s": surrogate_busy,
        "surrogate.region_frac": (tracer.count(SURROGATE_CALLS, "cells")
                                  / full_cells if full_cells else 0.0),
        "surrogate.gflop": gflop,
        "surrogate.gflop_per_s": gflop / surrogate_busy
        if surrogate_busy else 0.0,
        "nn.capture_traces": capture["trace"],
        "nn.capture_replays": capture["replay"],
        "nn.capture_bypasses": capture["bypass"],
        "nn.replay_frac": capture["replay"] / attempts if attempts else 0.0,
        "nn.arena_mb": capture["arena"] / 1e6,
        "nn.calibrated_plans": calibrated_plans,
        "nn.train_steps": steps,
        "nn.train_step_ms": tracer.total("nn.train_unet") / steps * 1e3
        if steps else 0.0,
        "optimize.sqp_iterations": tracer.count("optimize.sqp_step",
                                                "iterations"),
        "optimize.nmmso_evals": tracer.count("optimize.nmmso", "evaluations"),
        "optimize.busy_s": tracer.busy("optimize"),
        "optimize.self_s": per_layer["optimize"],
        "core.quality_evals": tracer.count(
            ("core.quality", "core.quality_many", "core.eco_quality"),
            "rows"),
        "core.pkb_search_s": tracer.total("core.pkb_search"),
        "core.degradation_s": tracer.total("core.degradation"),
        "core.scoring_s": tracer.total("core.scoring"),
        "core.unattributed_s": unattributed,
        "cmp.calls": tracer.count(("cmp.simulate", "cmp.simulate_batch")),
        "cmp.layouts": tracer.count(("cmp.simulate", "cmp.simulate_batch"),
                                    "layouts"),
        "cmp.busy_s": tracer.busy("cmp"),
        "cmp.pressure_s": stages["pressure"],
        "cmp.dsh_s": stages["dsh"],
        "cmp.preston_s": stages["preston"],
        "layout.diff_s": tracer.total("layout.diff")
        + tracer.total("layout.dilate"),
        "layout.dirty_windows": tracer.count("core.eco_refill",
                                             "dirty_windows"),
        "layout.free_windows": tracer.count("core.eco_refill",
                                            "free_windows"),
        "layout.io_s": tracer.total("layout.load"),
        "serve.queue_wait_p50_ms": 0.0,
        "serve.execute_p50_ms": 0.0,
        "serve.transport_p50_ms": 0.0,
        "serve.batch_park_ms": 0.0,
        "serve.coalesced_frac": 0.0,
        "serve.batch_size_mean": 0.0,
        "serve.sim_batch_size_mean": 0.0,
        "serve.parent_cache_hit_frac": 0.0,
        "serve.rejected": 0.0,
        "serve.timed_out": 0.0,
    }
    if serve is not None:
        stats = serve["stats"]
        latency = stats.get("latency", {})
        counters = stats.get("counters", {})
        total_ms = latency.get("total", {}).get("p50_ms", 0.0)
        parks = tracer.count("serve.batcher_evaluate")
        # a flush computing ``rows`` parked rows sits inside each of
        # those rows' park spans
        names = tracer.thread_names()
        flush_compute_us = sum(
            s["dur_us"] * s["attrs"]["rows"] for s in spans
            if s["name"] in SURROGATE_CALLS
            and names.get(s["thread"]) == "repro-serve-batcher")
        lookups = tracer.count("serve.solution_lookup")
        out.update({
            "serve.queue_wait_p50_ms":
                latency.get("queue_wait", {}).get("p50_ms", 0.0),
            "serve.execute_p50_ms":
                latency.get("execute", {}).get("p50_ms", 0.0),
            "serve.transport_p50_ms": serve["client_p50_s"] * 1e3 - total_ms,
            "serve.batch_park_ms": (tracer.total("serve.batcher_evaluate")
                                    - flush_compute_us / 1e6)
            / parks * 1e3 if parks else 0.0,
            "serve.coalesced_frac": _coalesced(stats["batch_histogram"]),
            "serve.batch_size_mean": _hist_mean(stats["batch_histogram"]),
            "serve.sim_batch_size_mean":
                _hist_mean(stats["sim_batch_histogram"]),
            "serve.parent_cache_hit_frac":
                tracer.count("serve.solution_lookup", "hit") / lookups
                if lookups else 0.0,
            "serve.rejected": counters.get("rejected", 0),
            "serve.timed_out": counters.get("timeout", 0),
        })
    return {name: float(value) for name, value in out.items()}


def additivity_problems(tracer: LayerTracer) -> list[str]:
    """Self times must partition each thread's covered time: per thread,
    the outermost spans may not overlap and may not exceed the wall."""
    problems = []
    if tracer.tracer.dropped:
        problems.append(f"{tracer.tracer.dropped} span records dropped")
    _, per_span = tracer.self_times()
    by_thread: dict[int, list[dict]] = {}
    for span in tracer.partition():
        by_thread.setdefault(span["thread"], []).append(span)
    slack_us = 2 + 1e-6 * max(1.0, tracer.wall_s) * 1e6
    for thread, spans in by_thread.items():
        self_sum = sum(per_span[s["id"]] for s in spans)
        roots = sorted((s for s in spans if s["parent"] is None),
                       key=lambda s: s["t0_us"])
        root_sum = sum(s["dur_us"] for s in roots) / 1e6
        if abs(self_sum - root_sum) * 1e6 > slack_us:
            problems.append(f"thread {thread}: self times {self_sum:.6f} s "
                            f"!= outermost spans {root_sum:.6f} s")
        if root_sum * 1e6 > tracer.wall_s * 1e6 + slack_us:
            problems.append(f"thread {thread}: spans cover {root_sum:.6f} s "
                            f"of a {tracer.wall_s:.6f} s pass")
        for a, b in zip(roots, roots[1:]):
            if b["t0_us"] < a["t0_us"] + a["dur_us"] - slack_us:
                problems.append(f"thread {thread}: {a['name']} and "
                                f"{b['name']} overlap")
                break
    return problems
