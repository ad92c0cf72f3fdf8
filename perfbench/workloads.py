"""The five benchmark workloads and why each exists.

Each workload drives ``repro`` only through what a user runs: the
``repro fill``, ``repro eco`` and ``repro train-surrogate`` commands
(through ``repro.cli.main`` in this process, stdout captured) and
``repro serve`` clients.  ``setup`` builds the inputs from the seed (and
may be repeated to time set-up); ``run_pass`` runs the seeded operation
script once and returns one :class:`~perfbench.harness.Op` per
user-visible operation.

Corpora are fixed and the seed draws what varies without changing how
much work the optimiser does: the order of the ``repro fill`` calls, of
the ECO edits and of the training runs, and the serve traffic script.
Training draws use a fixed ``--seed``: held-out error moved by 0.011
(interquartile range over median) across ten training seeds, as much as
a real accuracy loss would.  The optimiser's work is chaotic in
its inputs: a PKB fill of a re-seeded 12x12 design took 40 to 419
surrogate evaluations, re-seeding the MM search moved one cli-fill pass
by 30 %, and re-drawing the ECO edit sites moved the edit script from
9.8 s to 15.2 s, so re-drawing them per run would make every timing
measure input difficulty instead of code speed.

Why each workload, and what its layers should move (end-to-end metric
on the right, per-layer counters in ``perfbench/tracing.py``):

============ ============================================ ================
workload     where the time goes                          metric it moves
============ ============================================ ================
cli-fill     ``repro fill --model``: PKB and MM on A/B/C  ``script_s``
             plus Cai on A.  ``nn`` replay, ``surrogate``  (PKB + MM + Cai)
             ``optimize`` and ``core`` do the PKB/MM work;
             ``cmp`` dominates Cai (finite differences).
             Predicts no change from ``layout``/``serve``.
eco-edits    ``repro eco`` over a seeded edit script:     ``script_s``
             ``layout`` diffing, cropped ``surrogate``     (the edit script)
             ``evaluate_region`` passes, one capture trace
             per crop shape.  No NMMSO, no ``serve``; every
             conv map < 128x128 cells, so no calibrated
             conv plan can exist.
serve-shared two closed-loop clients on one in-process    ``script_s``
             ``FillServer`` (thread workers, max_batch 16, (both clients'
             flush 4 ms) fill the same layout at once, so  fills)
             their evaluations coalesce: what the batcher
             gains.
serve-solo   the same server; each client fills its own   ``script_s``
             layouts, then runs ``eco`` by parent          (fill, ECO and
             fingerprint (executor cache) and             simulate jobs)
             ``simulate``: what a lone job pays to park in
             the batcher.
train        ``repro train-surrogate`` on A, B and C:     ``script_s``
             ``build_dataset`` (``cmp`` teacher), eager    (three training
             ``nn`` forward/backward with weight           runs)
             gradients, Adam.  The only path off captured
             replay.
============ ============================================ ================

The two serve workloads are separate because each has its own
``script_s``: a batcher change that trades coalescing gain against park
cost shows on both, with no traffic mix to weigh them.

``quality`` is the mean simulator-judged fill quality (the ``simulator
verdict`` line ``repro`` prints, or the served score) on the four fill
workloads, and the held-out surrogate accuracy (1 - relative error) on
``train``.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import cli
from repro.cmp import CmpSimulator
from repro.core import planarity_metrics
from repro.layout import (
    DESIGN_BUILDERS,
    diff_layouts,
    dilate_mask,
    edit_layout,
    save_layout,
)
from repro.surrogate import load_surrogate

from .harness import HostClock, Op, Pass, digest, fill_contract, release_memory

#: Seed of every checkpoint trained ("trained with a fixed seed").
CKPT_SEED = 0
VERDICT = re.compile(r"^simulator verdict: .*quality=(\S+)", re.M)
TRAINED = re.compile(r"\(relative error (\S+)%\)")


def repro(*argv) -> str:
    """Run one ``repro`` command in this process; returns its stdout.

    A non-zero exit status raises ``RuntimeError`` carrying the
    command's error line.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main([str(arg) for arg in argv])
    if status != 0:
        raise RuntimeError(f"repro {argv[0]} exited with {status}: "
                           f"{err.getvalue().strip()[-300:]}")
    return out.getvalue()


def verdict_quality(stdout: str) -> float:
    found = VERDICT.search(stdout)
    if found is None:
        raise RuntimeError("no simulator verdict in the output")
    return float(found.group(1))


def read_fill(path: Path) -> np.ndarray:
    with np.load(path) as data:
        return np.asarray(data["fill"], dtype=float)


def checkpoint_digest(directory: Path) -> str:
    return digest(b"".join((Path(directory) / name).read_bytes()
                           for name in ("surrogate.json", "unet.npz")))


def train_checkpoint(directory: Path, source: Path, samples: int,
                     epochs: int, base_channels: int = 8,
                     depth: int = 2) -> str:
    """``repro train-surrogate`` with a fixed seed; returns its sha256."""
    repro("train-surrogate", source, "-o", directory,
          "--train-samples", samples, "--train-epochs", epochs,
          "--base-channels", base_channels, "--depth", depth,
          "--seed", CKPT_SEED)
    return checkpoint_digest(directory)


def _check_fill(op: Op, fill, layout, quality: float) -> None:
    problem = fill_contract(fill, layout)
    if problem is not None:
        op.ok, op.error = False, problem
        return
    op.sha = digest(fill)
    op.quality = float(quality)


def _save(layout, path: Path) -> Path:
    save_layout(layout, path)
    return path


class Workload:
    name = ""
    #: input sizes by ``--size``
    sizes: dict = {}
    #: set-ups per run; ``setup_s`` is their median
    setup_reps = 5

    def __init__(self, seed: int, size: str, workdir: Path,
                 clock: HostClock | None = None):
        self.seed = seed
        self.size = size
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cfg = self.sizes[size]
        self.clock = clock
        #: sha256 of everything set-up produced that must repeat
        self.setup_digest = ""

    def _timed(self, kind: str, key: str, call) -> Op:
        """Run one operation; its result is checked after the clock stops.
        Host speed is sampled and memory released (:func:`release_memory`)
        after it."""
        t0 = time.perf_counter()
        try:
            outcome = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            op = Op(kind, key, time.perf_counter() - t0, ok=False,
                    error=f"{type(exc).__name__}: {exc}")
        else:
            op = Op(kind, key, time.perf_counter() - t0, outcome=outcome)
        if self.clock is not None:
            self.clock.sample()
        release_memory()
        return op

    @staticmethod
    def _sequential(ops: list[Op]) -> Pass:
        """A pass of back-to-back operations: the sum of their times."""
        return Pass(sum(op.seconds for op in ops), ops)

    def inputs(self) -> dict:
        """The generated inputs (for the seed tests)."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def post_checks(self, passes: list[Pass]) -> list[str]:
        """Workload-specific checks after the clock; returns problems."""
        return []

    def time_base(self, done: Pass) -> float:
        """What the traced pass's per-layer self times partition."""
        return done.wall_s

    def quality(self, done: Pass) -> float:
        values = [op.quality for op in done.ops if op.quality is not None]
        return float(np.mean(values)) if values else float("nan")

    def details(self, passes: list[Pass]) -> list[str]:
        """Per-kind medians for the human-readable log."""
        kinds: dict[str, list[float]] = {}
        for done in passes:
            per_kind: dict[str, float] = {}
            for op in done.ops:
                per_kind[op.kind] = per_kind.get(op.kind, 0.0) + op.seconds
            for kind, total in per_kind.items():
                kinds.setdefault(kind, []).append(total)
        ops: dict[str, list[float]] = {}
        for done in passes:
            for op in done.ops:
                ops.setdefault(f"{op.kind} {op.key}", []).append(op.seconds)
        return [f"{kind}_s per pass: median {np.median(v):.4f} s raw "
                f"(n={len(v)} passes)" for kind, v in sorted(kinds.items())] \
            + [f"op {name}: median {np.median(v):.4f} s (n={len(v)})"
               for name, v in sorted(ops.items())]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CliFillSize:
    grids: tuple  # ((design, rows, cols), ...)
    cai_grid: int
    ckpt_samples: int
    ckpt_epochs: int


CLI_FILL_SIZES = {
    # BENCH_GRIDS (A 20, B 20, C 24) halved: one pass fits the run budget.
    "full": CliFillSize(grids=(("A", 10, 10), ("B", 10, 10), ("C", 12, 12)),
                        cai_grid=10, ckpt_samples=16, ckpt_epochs=6),
    "tiny": CliFillSize(grids=(("A", 8, 8), ("B", 8, 8), ("C", 8, 8)),
                        cai_grid=8, ckpt_samples=6, ckpt_epochs=2),
}


class CliFill(Workload):
    """``repro fill --model CKPT`` for PKB and MM on A/B/C, Cai on A.

    The designs are the benchmark designs of ``benchmarks/_common.py``
    (default builder seeds) and MM runs with the CLI's default ``--seed
    0``; the run seed shuffles the order of the seven invocations.  The
    checkpoint is ``repro train-surrogate`` on design A.
    """

    name = "cli-fill"
    sizes = CLI_FILL_SIZES

    def plan(self) -> list[tuple[str, str]]:
        plan = [(method, design)
                for method in ("neurfill-pkb", "neurfill-mm")
                for design, _, _ in self.cfg.grids] + [("cai", "cai-A")]
        random.Random(self.seed).shuffle(plan)
        return plan

    def inputs(self) -> dict:
        return {"order": self.plan(), "layouts": {
            name: digest(np.concatenate(
                [layer.density.ravel() for layer in layout.layers]))
            for name, layout in self._layouts().items()}}

    def _layouts(self) -> dict:
        layouts = {d: DESIGN_BUILDERS[d](rows=r, cols=c)
                   for d, r, c in self.cfg.grids}
        g = self.cfg.cai_grid
        layouts["cai-A"] = DESIGN_BUILDERS["A"](rows=g, cols=g)
        return layouts

    def setup(self) -> None:
        self.layouts = self._layouts()
        self.paths = {name: _save(layout, self.workdir / f"{name}.json")
                      for name, layout in self.layouts.items()}
        self.ckpt = self.workdir / "ckpt"
        self.setup_digest = train_checkpoint(
            self.ckpt, self.paths["A"], self.cfg.ckpt_samples,
            self.cfg.ckpt_epochs)

    def run_pass(self) -> Pass:
        ops = []
        for method, design in self.plan():
            out = self.workdir / f"{design}-{method}.npz"
            argv = ["fill", self.paths[design], "--method", method,
                    "--fill-out", out]
            if method != "cai":
                argv += ["--model", self.ckpt]
            op = self._timed(method.removeprefix("neurfill-"), design,
                             lambda: repro(*argv))
            if op.ok:
                _check_fill(op, read_fill(out), self.layouts[design],
                            verdict_quality(op.outcome))
            ops.append(op)
        return self._sequential(ops)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EcoSize:
    grid: int
    ckpt_tile: int
    ckpt_samples: int
    ckpt_epochs: int


ECO_SIZES = {
    "full": EcoSize(grid=48, ckpt_tile=16, ckpt_samples=16, ckpt_epochs=6),
    "tiny": EcoSize(grid=24, ckpt_tile=8, ckpt_samples=6, ckpt_epochs=2),
}
#: ``repro eco --coupling-radius 0``: the halo is the receptive radius
#: alone, as ``benchmarks/bench_eco.py`` chose; with a depth-1 UNet that
#: is 10 windows, small against the grid.
ECO_COUPLING = 0


class EcoEdits(Workload):
    """``repro eco`` over an edit script, in seeded order, against one
    parent (design A) solved by ``repro fill --model CKPT``.

    The surrogate is ``repro train-surrogate --depth 1`` on a small tile
    of design A; the network is fully convolutional, so it binds to the
    full grid.
    """

    name = "eco-edits"
    sizes = ECO_SIZES
    # each set-up solves the 48x48 parent (about 3 s)
    setup_reps = 3

    def script(self) -> list[dict]:
        """One window, ~1 %, ~5 %, two sites, slack-opening, empty.

        Sites are fixed (edit sites change the SQP's work several-fold);
        the seed orders the edits.
        """
        g = self.cfg.grid
        one = max(2, round(g * 0.1))
        five = max(3, round(g * 0.05 ** 0.5))
        q = g // 4
        script = [
            {"name": "window", "layer": 1, "blocks": [(g // 2, g // 2, 1)]},
            {"name": "1pct", "layer": 0, "blocks": [(q, q, one)]},
            {"name": "5pct", "layer": 1, "blocks": [(g // 2, q, five)]},
            {"name": "two-sites", "layer": 2,
             "blocks": [(2, 2, 1), (g - 3, g - 3, 1)]},
            {"name": "slack-opening", "layer": 2,
             "blocks": [(q, g // 2, five)], "density_delta": -0.08,
             "slack_scale": 1.0},
            {"name": "empty", "layer": 0, "blocks": []},
        ]
        random.Random(self.seed).shuffle(script)
        return script

    def inputs(self) -> dict:
        return {"script": self.script()}

    def setup(self) -> None:
        g, t = self.cfg.grid, self.cfg.ckpt_tile
        self.parent = DESIGN_BUILDERS["A"](rows=g, cols=g)
        self.parent_path = _save(self.parent, self.workdir / "parent.json")
        tile = _save(DESIGN_BUILDERS["A"](rows=t, cols=t),
                     self.workdir / "tile.json")
        self.ckpt = self.workdir / "ckpt"
        ckpt_sha = train_checkpoint(
            self.ckpt, tile, self.cfg.ckpt_samples, self.cfg.ckpt_epochs,
            base_channels=4, depth=1)
        self.parent_fill_path = self.workdir / "parent_fill.npz"
        repro("fill", self.parent_path, "--model", self.ckpt,
              "--fill-out", self.parent_fill_path)
        self.parent_fill = read_fill(self.parent_fill_path)
        self.halo = load_surrogate(self.ckpt, self.parent).receptive_halo() \
            + ECO_COUPLING
        self.setup_digest = ckpt_sha + digest(self.parent_fill)
        self.edits = []
        for edit in self.script():
            edited = self.parent
            for r, c, side in edit["blocks"]:
                edited = edit_layout(
                    edited, edit["layer"], slice(r, r + side),
                    slice(c, c + side),
                    density_delta=edit.get("density_delta", 0.05),
                    slack_scale=edit.get("slack_scale", 0.5))
            path = _save(edited, self.workdir / f"edit-{edit['name']}.json")
            self.edits.append((edit["name"], edited, path))

    def run_pass(self) -> Pass:
        ops = []
        for name, edited, path in self.edits:
            out = self.workdir / f"eco-{name}.npz"
            op = self._timed("edit", name, lambda: repro(
                "eco", self.parent_path, path,
                "--parent-fill", self.parent_fill_path, "--model", self.ckpt,
                "--coupling-radius", ECO_COUPLING, "--fill-out", out))
            if op.ok:
                fill = read_fill(out)
                _check_fill(op, fill, edited, verdict_quality(op.outcome))
                # bitwise outside the dirty halo, recomputed independently
                frozen = ~dilate_mask(
                    diff_layouts(self.parent, edited).dirty, self.halo)
                if op.ok and not np.array_equal(fill[:, frozen],
                                                self.parent_fill[:, frozen]):
                    op.ok = False
                    op.error = "ECO fill differs from the parent outside " \
                               "the dirty halo"
            ops.append(op)
        return self._sequential(ops)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeSize:
    grid: int
    pool: int
    ckpt_samples: int
    ckpt_epochs: int


SERVE_SIZES = {
    "full": ServeSize(grid=8, pool=4, ckpt_samples=16, ckpt_epochs=6),
    "tiny": ServeSize(grid=8, pool=2, ckpt_samples=6, ckpt_epochs=2),
}
MODEL = "nf"
#: Client-side wait per job; a served job slower than this fails.
JOB_TIMEOUT_S = 120.0
#: Coalesced evaluations may differ from one-shot ones in the last bits.
SHARED_ATOL = 1e-8


class _Served(Workload):
    """Two closed-loop clients on an in-process ``FillServer`` behind
    ``serve_tcp``, in the default topology (thread workers, max_batch 16,
    flush 4 ms) with one registered checkpoint.

    The pool of small layouts is fixed; the seed draws the traffic
    script.  Every pass replays the same script.
    """

    sizes = SERVE_SIZES
    server = None

    def script(self) -> dict:
        raise NotImplementedError

    def inputs(self) -> dict:
        return {"script": self.script()}

    def _client_script(self, index: int, job, barrier) -> None:
        """One client's jobs; ``job(kind, key, call)`` times each."""
        raise NotImplementedError

    def setup(self) -> None:
        from repro.serve import FillServer, ModelRegistry, ServeConfig
        from repro.serve.server import serve_tcp

        g = self.cfg.grid
        self.plan = self.script()
        self.layouts, self.paths = {}, {}
        for i in range(self.cfg.pool):
            self.layouts[i] = DESIGN_BUILDERS["ABC"[i % 3]](
                rows=g, cols=g, seed=10 + i)
            self.paths[i] = _save(self.layouts[i],
                                  self.workdir / f"pool-{i}.json")
        self.ckpt = self.workdir / "ckpt"
        self.setup_digest = train_checkpoint(
            self.ckpt, self.paths[0], self.cfg.ckpt_samples,
            self.cfg.ckpt_epochs)
        registry = ModelRegistry()
        registry.register(MODEL, self.ckpt)
        self.server = FillServer(registry=registry, serve_config=ServeConfig(),
                                 model_specs=[(MODEL, str(self.ckpt))])
        ready = threading.Event()
        address = {}

        def on_ready(addr):
            address["port"] = addr[1]
            ready.set()

        self._thread = threading.Thread(
            target=serve_tcp, args=(self.server,),
            kwargs={"port": 0, "ready": on_ready}, name="perfbench-serve")
        self._thread.start()
        if not ready.wait(timeout=60):
            raise RuntimeError("serve_tcp never became ready")
        self.port = address["port"]

    def stats(self) -> dict:
        return self.server.stats_snapshot()

    def _fill(self, client, i: int) -> dict:
        return client.fill(
            layout_path=str(self.paths[i]), method="neurfill-pkb",
            model=MODEL, return_fill=True, timeout=JOB_TIMEOUT_S)

    def _client_loop(self, index: int, barrier, ops: list, errors: list):
        from repro.serve import ServeClient, ServeError

        client = ServeClient.connect("127.0.0.1", self.port, timeout=30.0)

        def job(kind, key, call):
            t0 = time.perf_counter()
            try:
                out = call(client)
            except (ServeError, TimeoutError, ConnectionError) as exc:
                ops.append(Op(kind, key, time.perf_counter() - t0, ok=False,
                              error=str(exc)))
                return None
            op = Op(kind, key, time.perf_counter() - t0,
                    outcome=out.get("result", {}))
            ops.append(op)
            return op

        try:
            self._client_script(index, job, barrier)
        except Exception as exc:  # a broken client must not hang the pass
            errors.append(f"client {index}: {type(exc).__name__}: {exc}")
            barrier.abort()
        finally:
            client.close(wait_proc=False)

    def _layout_for(self, op: Op):
        return self.layouts[int(op.key)]

    def run_pass(self) -> Pass:
        barrier = threading.Barrier(2)
        per_client = [[], []]
        errors: list[str] = []
        t0 = time.perf_counter()
        threads = [threading.Thread(target=self._client_loop,
                                    args=(i, barrier, per_client[i], errors))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        ops = per_client[0] + per_client[1]
        for message in errors:
            ops.append(Op("client", "loop", 0.0, ok=False, error=message))
        for op in ops:
            if not op.ok or op.kind == "client":
                continue
            if op.kind == "simulate":
                op.sha = digest(np.array([op.outcome[k] for k in (
                    "delta_h", "sigma", "line_deviation", "outliers")]))
                continue
            fill = np.asarray(op.outcome.get("fill"), dtype=float)
            _check_fill(op, fill, self._layout_for(op),
                        op.outcome["score"]["quality"])
            op.fill = fill
            # coalesced shared fills may differ from one-shot in last bits
            op.deterministic = op.kind != "shared_fill"
        return Pass(wall, ops)

    def time_base(self, done: Pass) -> float:
        """Summed client-observed job latency (jobs run concurrently)."""
        return sum(op.seconds for op in done.ops)

    def _reference_fill(self, i: int) -> Path:
        """The one-shot ``repro fill`` of pool layout ``i`` (npz path)."""
        out = self.workdir / f"ref-{i}.npz"
        repro("fill", self.paths[i], "--method", "neurfill-pkb",
              "--model", self.ckpt, "--fill-out", out)
        return out

    def details(self, passes: list[Pass]) -> list[str]:
        lines = []
        for kind in ("solo_fill", "shared_fill", "eco", "simulate"):
            values = sorted(op.seconds for done in passes for op in done.ops
                            if op.kind == kind and op.ok)
            if values:
                lines.append(f"{kind} latency p50 {np.median(values):.4f} s "
                             f"(n={len(values)})")
        jobs = sum(len(done.ops) for done in passes)
        wall = sum(done.wall_s for done in passes)
        lines.append(f"serve jobs/s {jobs / wall:.4f} "
                     f"({jobs} jobs over {wall:.2f} s)")
        return lines

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown(timeout=60.0)
            self._thread.join(timeout=60.0)
            self.server = None
        super().close()


class ServeShared(_Served):
    """Both clients fill the same layout at once (PKB), one layout per
    step, in a seeded order; their evaluations can coalesce."""

    name = "serve-shared"

    def script(self) -> dict:
        order = list(range(self.cfg.pool))
        random.Random(self.seed).shuffle(order)
        return {"order": order}

    def _client_script(self, index: int, job, barrier) -> None:
        for i in self.plan["order"]:
            barrier.wait(timeout=JOB_TIMEOUT_S)
            job("shared_fill", f"{i}", lambda client: self._fill(client, i))

    def post_checks(self, passes: list[Pass]) -> list[str]:
        """Served shared fills match one-shot ``repro fill`` within the
        batched-evaluation tolerance."""
        reference = {i: read_fill(self._reference_fill(i))
                     for i in range(self.cfg.pool)}
        for done in passes:
            for op in done.ops:
                if op.ok and not np.allclose(op.fill, reference[int(op.key)],
                                             rtol=0, atol=SHARED_ATOL):
                    op.ok = False
                    op.error = "served fill differs from one-shot repro fill"
        return []


class ServeSolo(_Served):
    """Each client fills its own layouts one at a time (PKB), then
    refills a one-window edit of each by ``parent_fingerprint`` and
    simulates the edited layout; the seed deals and orders the layouts.
    """

    name = "serve-solo"

    def script(self) -> dict:
        pool = list(range(self.cfg.pool))
        random.Random(self.seed).shuffle(pool)
        centre = self.cfg.grid // 2
        return {"solo": [pool[0::2], pool[1::2]],
                "edits": {i: (i % 3, centre, centre) for i in pool}}

    def setup(self) -> None:
        super().setup()
        self.edited, self.edit_paths = {}, {}
        for i, (layer, r, c) in self.plan["edits"].items():
            self.edited[i] = edit_layout(self.layouts[i], layer,
                                         slice(r, r + 1), slice(c, c + 1))
            self.edit_paths[i] = _save(self.edited[i],
                                       self.workdir / f"pool-{i}-eco.json")

    def _layout_for(self, op: Op):
        return (self.edited if op.kind == "eco" else self.layouts)[int(op.key)]

    def _client_script(self, index: int, job, barrier) -> None:
        for i in self.plan["solo"][index]:
            parent = job("solo_fill", f"{i}",
                         lambda client: self._fill(client, i))
            if parent is None:
                continue
            fingerprint = parent.outcome["layout_fingerprint"]
            job("eco", f"{i}", lambda client: client.eco(
                layout_path=str(self.edit_paths[i]),
                parent_fingerprint=fingerprint, model=MODEL,
                return_fill=True, timeout=JOB_TIMEOUT_S))
            job("simulate", f"{i}", lambda client: client.simulate(
                layout_path=str(self.edit_paths[i]), timeout=JOB_TIMEOUT_S))

    def post_checks(self, passes: list[Pass]) -> list[str]:
        """Served == one-shot, bit for bit: fills against ``repro fill``,
        ECOs against ``repro eco --parent-fill`` of that fill, simulate
        jobs against the simulator ``repro simulate`` runs."""
        reference = {}
        simulator = CmpSimulator()
        for i in range(self.cfg.pool):
            parent = self._reference_fill(i)
            reference[("solo_fill", i)] = read_fill(parent)
            out = self.workdir / f"ref-{i}-eco.npz"
            repro("eco", self.paths[i], self.edit_paths[i],
                  "--parent-fill", parent, "--model", self.ckpt,
                  "--fill-out", out)
            reference[("eco", i)] = read_fill(out)
            height = simulator.simulate_layout(self.edited[i]).height
            reference[("simulate", i)] = digest(np.array(
                planarity_metrics(height)))
        for done in passes:
            for op in done.ops:
                if not op.ok or op.kind == "client":
                    continue
                want = reference[(op.kind, int(op.key))]
                good = (op.sha == want if op.kind == "simulate"
                        else np.array_equal(op.fill, want))
                if not good:
                    op.ok = False
                    op.error = "served result differs from the one-shot path"
        return []


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainSize:
    grid: int
    samples: int
    epochs: int


TRAIN_SIZES = {
    "full": TrainSize(grid=12, samples=12, epochs=20),
    "tiny": TrainSize(grid=8, samples=6, epochs=2),
}


class Train(Workload):
    """``repro train-surrogate`` on designs A, B and C, in seeded order
    (CLI defaults: 8 base channels, depth 2; fixed training seed)."""

    name = "train"
    sizes = TRAIN_SIZES
    # set-up only writes three layouts (~10 ms), so its median needs
    # many samples to settle
    setup_reps = 11

    def order(self) -> list[str]:
        order = list("ABC")
        random.Random(self.seed).shuffle(order)
        return order

    def inputs(self) -> dict:
        return {"order": self.order()}

    def setup(self) -> None:
        g = self.cfg.grid
        self.paths = {d: _save(DESIGN_BUILDERS[d](rows=g, cols=g),
                               self.workdir / f"{d}.json")
                      for d in self.order()}
        self.setup_digest = digest(b"".join(
            path.read_bytes() for path in self.paths.values()))

    def run_pass(self) -> Pass:
        ops = []
        for design, path in self.paths.items():
            out = self.workdir / f"ckpt-{design}"
            op = self._timed("train", design, lambda: repro(
                "train-surrogate", path, "-o", out,
                "--train-samples", self.cfg.samples,
                "--train-epochs", self.cfg.epochs, "--seed", CKPT_SEED))
            if op.ok:
                found = TRAINED.search(op.outcome)
                rel_error = float(found.group(1)) / 100 if found else np.nan
                if np.isfinite(rel_error):
                    op.sha, op.quality = checkpoint_digest(out), 1 - rel_error
                else:
                    op.ok, op.error = False, "no finite held-out error"
            ops.append(op)
        return self._sequential(ops)


WORKLOADS = {cls.name: cls
             for cls in (CliFill, EcoEdits, ServeShared, ServeSolo, Train)}
