"""Command-line interface for the NeurFill reproduction.

Subcommands cover the full flow a downstream user needs:

* ``gen-design``      — write one of the synthetic benchmark designs to JSON;
* ``simulate``        — run the full-chip CMP simulator on a layout and print
  the post-CMP planarity metrics;
* ``fill``            — synthesise dummy fill (lin / tao / neurfill-pkb /
  neurfill-mm), optionally emit dummy shapes, and print the
  simulator-judged score;
* ``eco``             — incremental refill after a small edit: diff the
  edited layout against the solved parent, re-optimise only the dirty
  windows' receptive-field halo, keep the rest bit-identical;
* ``compare``         — the Table III harness on one layout;
* ``train-surrogate`` — pre-train a CMP surrogate and save a checkpoint;
* ``serve``           — run the resident batching service (line-JSON over
  a stdin/stdout pipe or TCP; see ``repro.serve``);
* ``trace``           — run any other subcommand with ``repro.obs``
  tracing enabled, write the span/event JSONL and print a human summary
  to stderr.  The lighter ``--profile`` global flag prints just the
  summary without writing a file.

Examples::

    python -m repro gen-design A --rows 16 --cols 16 -o a.json
    python -m repro simulate a.json
    python -m repro fill a.json --method neurfill-pkb --shapes-out fill.json
    python -m repro fill a.json --fill-out fill.npz --model ckpt/
    python -m repro eco a.json a_edited.json --parent-fill fill.npz \
        --model ckpt/ --fill-out fill_eco.npz
    python -m repro train-surrogate a.json -o ckpt/
    python -m repro fill a.json --model ckpt/        # skip re-training
    python -m repro serve --pipe --model pkb=ckpt/
    python -m repro compare a.json --skip-cai
    python -m repro trace -o fill_trace.jsonl fill a.json --method lin
    python -m repro --profile simulate a.json

Bad inputs (missing layout files, absent checkpoints, malformed JSON)
and fills that break the fill contract exit 2 with a one-line
``repro: error: ...`` message instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import cai_fill, lin_fill, tao_fill
from .cmp import CmpSimulator
from .core import (
    BETA_RUNTIME_S,
    FillProblem,
    NeurFill,
    ScoreCoefficients,
    eco_refill,
    evaluate_solution,
    planarity_metrics,
)
from .evaluation import format_table3, run_comparison
from .insertion import insert_dummies, save_shapes
from .layout import FillContractError, load_layout, make_design, save_layout
from .optimize import SqpOptimizer
from .surrogate import (
    TrainConfig,
    load_surrogate,
    pretrain_surrogate,
    save_surrogate,
)


class CliError(Exception):
    """User-facing error: printed as one line, exits with code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="NeurFill dummy filling toolkit"
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--profile", action="store_true",
                        help="enable repro.obs tracing for this command and "
                             "print a per-stage timing summary to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-design", help="generate a synthetic benchmark design")
    gen.add_argument("design", choices=["A", "B", "C"])
    gen.add_argument("--rows", type=int, default=None)
    gen.add_argument("--cols", type=int, default=None)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("-o", "--output", required=True)

    simc = sub.add_parser("simulate", help="run the CMP simulator on a layout")
    simc.add_argument("layout")
    simc.add_argument("--polish-time", type=float, default=None,
                      help="override polish time in seconds")

    fill = sub.add_parser("fill", help="synthesise dummy fill for a layout")
    fill.add_argument("layout")
    fill.add_argument("--method", default="neurfill-pkb",
                      choices=["lin", "tao", "cai", "neurfill-pkb",
                               "neurfill-mm"])
    fill.add_argument("--model", default=None, metavar="CKPT_DIR",
                      help="load a saved surrogate checkpoint instead of "
                           "training one (neurfill methods)")
    fill.add_argument("--train-samples", type=int, default=30)
    fill.add_argument("--train-epochs", type=int, default=20)
    fill.add_argument("--seed", type=int, default=0)
    fill.add_argument("--fill-out", help="write per-window fill areas (.npz)")
    fill.add_argument("--shapes-out", help="insert dummies and write shapes JSON")

    eco = sub.add_parser(
        "eco", help="incremental (ECO) refill of an edited layout")
    eco.add_argument("parent_layout",
                     help="the layout the parent solution was synthesised for")
    eco.add_argument("edited_layout", help="the layout after the ECO edit")
    eco.add_argument("--parent-fill", required=True, metavar="NPZ",
                     help="parent fill areas (.npz from 'repro fill --fill-out')")
    eco.add_argument("--model", default=None, metavar="CKPT_DIR",
                     help="load a saved surrogate checkpoint instead of "
                          "training one")
    eco.add_argument("--coupling-radius", type=int, default=None,
                     help="extra dilation beyond the receptive-field radius "
                          "(default: the radius itself)")
    eco.add_argument("--train-samples", type=int, default=30)
    eco.add_argument("--train-epochs", type=int, default=20)
    eco.add_argument("--seed", type=int, default=0)
    eco.add_argument("--fill-out", help="write per-window fill areas (.npz)")

    comp = sub.add_parser("compare", help="run the Table III comparison harness")
    comp.add_argument("layout")
    comp.add_argument("--skip-cai", action="store_true",
                      help="skip the slow numerical-gradient baseline")
    comp.add_argument("--model", default=None, metavar="CKPT_DIR",
                      help="load a saved surrogate instead of training")
    comp.add_argument("--train-samples", type=int, default=30)
    comp.add_argument("--train-epochs", type=int, default=20)

    train = sub.add_parser("train-surrogate",
                           help="pre-train a CMP surrogate and save it")
    train.add_argument("layout")
    train.add_argument("-o", "--output", required=True,
                       help="checkpoint directory to write")
    train.add_argument("--train-samples", type=int, default=30)
    train.add_argument("--train-epochs", type=int, default=20)
    train.add_argument("--base-channels", type=int, default=8)
    train.add_argument("--depth", type=int, default=2)
    train.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="run the resident batching fill service")
    mode = serve.add_mutually_exclusive_group()
    mode.add_argument("--pipe", action="store_true",
                      help="line-JSON over stdin/stdout (default)")
    mode.add_argument("--tcp", metavar="HOST:PORT",
                      help="listen on a TCP socket, e.g. 127.0.0.1:7421")
    serve.add_argument("--model", action="append", default=[],
                       metavar="NAME=CKPT_DIR",
                       help="register a surrogate checkpoint (repeatable)")
    serve.add_argument("--workers", type=int, default=None,
                       help="jobs in flight: worker threads or forked "
                            "worker processes (default "
                            "REPRO_SERVE_WORKERS)")
    serve.add_argument("--worker-mode", choices=("thread", "process"),
                       default=None,
                       help="execute jobs on worker threads (coalescing) "
                            "or in forked worker processes (GIL-free; "
                            "default REPRO_SERVE_WORKER_MODE)")
    serve.add_argument("--queue-capacity", type=int, default=None,
                       help="bounded queue size before rejection")
    serve.add_argument("--max-batch", type=int, default=None,
                       help="largest coalesced micro-batch (1 disables)")
    serve.add_argument("--flush-ms", type=float, default=None,
                       help="longest a parked evaluation or simulation "
                            "waits for a job busy elsewhere, in "
                            "milliseconds")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="crash-safe job journal; resumes unfinished "
                            "jobs recorded by a previous run")
    serve.add_argument("--default-timeout", type=float, default=None,
                       help="per-job timeout in seconds when the request "
                            "does not set one")
    serve.add_argument("--drain-timeout", type=float, default=None,
                       help="seconds a graceful shutdown waits for "
                            "in-flight jobs")
    serve.add_argument("--no-train", action="store_true",
                       help="reject neurfill jobs without a registered "
                            "model instead of training inline")

    tracecmd = sub.add_parser(
        "trace",
        help="run a subcommand with tracing on; write a JSONL trace")
    tracecmd.add_argument("-o", "--trace-out", default="repro_trace.jsonl",
                          metavar="PATH",
                          help="trace JSONL output path "
                               "(default repro_trace.jsonl)")
    tracecmd.add_argument("argv", nargs=argparse.REMAINDER, metavar="CMD...",
                          help="the subcommand to run under tracing, e.g. "
                               "'fill a.json --method lin'")
    return parser


def _load_layout_arg(path: str):
    file = Path(path)
    if not file.is_file():
        raise CliError(f"layout file not found: {path}")
    try:
        return load_layout(file)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}")
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"{path} is not a valid layout file: {exc}")


def _cmd_gen_design(args) -> int:
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.rows and args.cols:
        from .layout.designs import DESIGN_BUILDERS
        layout = DESIGN_BUILDERS[args.design](rows=args.rows, cols=args.cols,
                                              **kwargs)
    else:
        layout = make_design(args.design, **({"seed": args.seed}
                                             if args.seed is not None else {}))
    try:
        save_layout(layout, args.output)
    except OSError as exc:
        raise CliError(f"cannot write {args.output}: {exc}")
    print(f"wrote {layout.name} ({layout.grid.rows}x{layout.grid.cols} windows, "
          f"{layout.num_layers} layers) to {args.output}")
    return 0


def _cmd_simulate(args) -> int:
    layout = _load_layout_arg(args.layout)
    simulator = CmpSimulator()
    if args.polish_time:
        from .cmp import ProcessParams
        simulator = CmpSimulator(ProcessParams(polish_time_s=args.polish_time))
    result = simulator.simulate_layout(layout)
    delta_h, sigma, line, ol = planarity_metrics(result.height)
    print(f"layout: {layout.name}  {layout.grid.rows}x{layout.grid.cols} "
          f"windows x {layout.num_layers} layers")
    print(f"post-CMP dH:        {delta_h:10.1f} A")
    print(f"height variance:    {sigma:10.1f} A^2")
    print(f"line deviation:     {line:10.1f} A")
    print(f"outliers:           {ol:10.3f} A")
    print(f"mean dishing:       {result.dishing.mean():10.2f} A")
    print(f"mean erosion:       {result.erosion.mean():10.2f} A")
    return 0


def _load_or_train_network(layout, simulator, args):
    """A surrogate bound to ``layout``: checkpoint if given, else inline
    training with the same knobs the serve executor uses."""
    model_dir = getattr(args, "model", None)
    if model_dir:
        try:
            network = load_surrogate(model_dir, layout)
        except ValueError as exc:  # corrupt checkpoint; names the file
            raise CliError(str(exc))
        print(f"loaded surrogate checkpoint {model_dir}", file=sys.stderr)
        return network
    rows, cols = layout.grid.shape
    print("pre-training the CMP neural network ...", file=sys.stderr)
    network, _, report = pretrain_surrogate(
        [layout], layout, sample_count=args.train_samples,
        tile_rows=rows, tile_cols=cols, base_channels=8, depth=2,
        config=TrainConfig(epochs=args.train_epochs, batch_size=8),
        simulator=simulator, seed=args.seed if hasattr(args, "seed") else 0,
    )
    print(f"surrogate relative error: {report.mean_relative_error * 100:.2f}%",
          file=sys.stderr)
    return network


def _make_neurfill(layout, problem, simulator, args) -> NeurFill:
    network = _load_or_train_network(layout, simulator, args)
    return NeurFill(problem, network,
                    optimizer=SqpOptimizer(max_iter=80, tol=1e-9),
                    simulator=simulator)


def _cmd_fill(args) -> int:
    layout = _load_layout_arg(args.layout)
    simulator = CmpSimulator()
    problem = FillProblem(
        layout, ScoreCoefficients.calibrated(layout, simulator,
                                             beta_runtime=BETA_RUNTIME_S)
    )
    if args.method == "lin":
        result = lin_fill(problem)
    elif args.method == "tao":
        result = tao_fill(problem)
    elif args.method == "cai":
        result = cai_fill(problem, simulator=simulator, max_sqp_iterations=3)
    else:
        neurfill = _make_neurfill(layout, problem, simulator, args)
        result = neurfill.run(args.method, seed=args.seed,
                              max_evaluations=500, top_k=3)

    score = evaluate_solution(problem, result.fill, args.method, simulator,
                              runtime_s=result.runtime_s)
    print(result.summary())
    print(f"simulator verdict: dH={score.delta_h:.1f} A  "
          f"quality={score.quality:.3f}  overall={score.overall:.3f}")
    if args.fill_out:
        np.savez(args.fill_out, fill=result.fill)
        print(f"fill areas written to {args.fill_out}")
    if args.shapes_out:
        inserted = insert_dummies(layout, result.fill)
        save_shapes(inserted.shapes, args.shapes_out)
        print(f"{inserted.count} dummies written to {args.shapes_out} "
              f"(quantisation error {inserted.quantisation_error:.1f} um^2)")
    return 0


def _cmd_eco(args) -> int:
    parent_layout = _load_layout_arg(args.parent_layout)
    edited_layout = _load_layout_arg(args.edited_layout)
    fill_path = Path(args.parent_fill)
    if not fill_path.is_file():
        raise CliError(f"parent fill file not found: {args.parent_fill}")
    try:
        with np.load(fill_path) as data:
            parent_fill = np.asarray(data["fill"], dtype=float)
    except (KeyError, ValueError, OSError) as exc:
        raise CliError(
            f"{args.parent_fill} is not a fill archive "
            f"(expected an npz with a 'fill' array): {exc}")
    simulator = CmpSimulator()
    problem = FillProblem(
        edited_layout, ScoreCoefficients.calibrated(
            edited_layout, simulator, beta_runtime=BETA_RUNTIME_S)
    )
    # The surrogate must see the edited layout's extraction constants.
    network = _load_or_train_network(edited_layout, simulator, args)
    try:
        result = eco_refill(
            problem, network, parent_layout, parent_fill,
            optimizer=SqpOptimizer(max_iter=80, tol=1e-9),
            coupling_radius=args.coupling_radius,
        )
    except ValueError as exc:
        raise CliError(str(exc))
    eco = result.extras.get("eco", {})
    print(result.summary())
    if eco.get("cache_hit"):
        print("eco: no window changed — parent solution reused as-is")
    else:
        print(f"eco: dirty={eco['dirty_windows']}/{eco['total_windows']} "
              f"windows ({eco['dirty_fraction'] * 100:.1f}%)  "
              f"free={eco['free_windows']} ({eco['free_fraction'] * 100:.1f}%)  "
              f"halo={eco['halo_radius']} "
              f"(rf {eco['rf_radius']} + coupling {eco['coupling_radius']})")
    score = evaluate_solution(problem, result.fill, result.method, simulator,
                              runtime_s=result.runtime_s)
    print(f"simulator verdict: dH={score.delta_h:.1f} A  "
          f"quality={score.quality:.3f}  overall={score.overall:.3f}")
    if args.fill_out:
        np.savez(args.fill_out, fill=result.fill)
        print(f"fill areas written to {args.fill_out}")
    return 0


def _cmd_compare(args) -> int:
    layout = _load_layout_arg(args.layout)
    simulator = CmpSimulator()
    problem = FillProblem(
        layout, ScoreCoefficients.calibrated(layout, simulator,
                                             beta_runtime=BETA_RUNTIME_S)
    )
    args.seed = 0
    neurfill = _make_neurfill(layout, problem, simulator, args)
    methods = {
        "lin": lambda p: lin_fill(p),
        "tao": lambda p: tao_fill(p),
        "neurfill-pkb": lambda p: neurfill.run_pkb(),
        "neurfill-mm": lambda p: neurfill.run_multimodal(max_evaluations=500,
                                                         top_k=3),
    }
    if not args.skip_cai:
        methods["cai"] = lambda p: cai_fill(p, simulator=simulator,
                                            max_sqp_iterations=3)
    rows = run_comparison(problem, methods, simulator)
    print(format_table3([r.score for r in rows], title=f"{layout.name}"))
    return 0


def _cmd_train_surrogate(args) -> int:
    layout = _load_layout_arg(args.layout)
    simulator = CmpSimulator()
    rows, cols = layout.grid.shape
    print("pre-training the CMP neural network ...", file=sys.stderr)
    network, _, report = pretrain_surrogate(
        [layout], layout, sample_count=args.train_samples,
        tile_rows=rows, tile_cols=cols,
        base_channels=args.base_channels, depth=args.depth,
        config=TrainConfig(epochs=args.train_epochs, batch_size=8),
        simulator=simulator, seed=args.seed,
    )
    save_surrogate(args.output, network.unet, network.normalizer,
                   base_channels=args.base_channels, depth=args.depth)
    print(f"saved surrogate checkpoint to {args.output} "
          f"(relative error {report.mean_relative_error * 100:.2f}%)")
    return 0


def _cmd_serve(args) -> int:
    from .serve import FillServer, ModelRegistry, ServeConfig
    from .serve.registry import parse_model_spec
    from .serve.server import serve_pipe, serve_tcp

    model_specs = []
    registry = ModelRegistry()
    for spec in args.model:
        try:
            model_specs.append(parse_model_spec(spec))
            model = registry.register_spec(spec)
        except (FileNotFoundError, ValueError) as exc:
            raise CliError(str(exc))
        print(f"registered model {model.name!r} from {model.directory}",
              file=sys.stderr)

    overrides = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.queue_capacity is not None:
        overrides["queue_capacity"] = args.queue_capacity
    if args.max_batch is not None:
        overrides["max_batch"] = args.max_batch
    if args.flush_ms is not None:
        overrides["flush_ms"] = args.flush_ms
    if args.default_timeout is not None:
        overrides["default_timeout_s"] = args.default_timeout
    if args.drain_timeout is not None:
        overrides["drain_timeout_s"] = args.drain_timeout
    if args.no_train:
        overrides["allow_train"] = False
    if args.worker_mode is not None:
        overrides["worker_mode"] = args.worker_mode
    try:
        serve_config = ServeConfig(**overrides)
    except ValueError as exc:
        raise CliError(str(exc))

    server = FillServer(registry=registry, serve_config=serve_config,
                        journal_path=args.journal, model_specs=model_specs)
    if args.tcp:
        host, sep, port = args.tcp.rpartition(":")
        if not sep or not port.isdigit():
            raise CliError(f"bad --tcp address {args.tcp!r}: "
                           f"expected HOST:PORT")

        def announce(address):
            print(f"repro serve listening on {address[0]}:{address[1]}",
                  file=sys.stderr)

        return serve_tcp(server, host or "127.0.0.1", int(port),
                         ready=announce)
    print("repro serve ready on stdin/stdout "
          f"({serve_config.workers} {serve_config.worker_mode} workers, "
          f"queue {serve_config.queue_capacity}, max batch "
          f"{serve_config.max_batch})", file=sys.stderr)
    return serve_pipe(server)


_HANDLERS = {
    "gen-design": _cmd_gen_design,
    "simulate": _cmd_simulate,
    "fill": _cmd_fill,
    "eco": _cmd_eco,
    "compare": _cmd_compare,
    "train-surrogate": _cmd_train_surrogate,
    "serve": _cmd_serve,
}


def _cmd_trace(args) -> int:
    """``repro trace [-o PATH] <subcommand args...>``.

    Runs the wrapped subcommand with a fresh tracer active, writes the
    span/event JSONL to ``--trace-out`` and prints the human summary to
    stderr (protocol-safe: stdout stays the subcommand's).
    """
    from .obs import format_summary, metrics, trace

    rest = list(args.argv)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        raise CliError("trace needs a subcommand to run, e.g. "
                       "'repro trace fill a.json --method lin'")
    if rest[0] == "trace":
        raise CliError("trace cannot wrap itself")
    inner = _build_parser().parse_args(rest)
    tracer = trace.Tracer()
    metrics.reset()  # the summary should reflect the wrapped command only
    with trace.capture(path=args.trace_out, tracer=tracer):
        rc = _HANDLERS[inner.command](inner)
    print(format_summary(tracer, metrics.registry()), file=sys.stderr)
    print(f"trace written to {args.trace_out} "
          f"({len(tracer.records())} records)", file=sys.stderr)
    return rc


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "trace":
            return _cmd_trace(args)
        if args.profile:
            from .obs import format_summary, metrics, trace

            tracer = trace.Tracer()
            with trace.capture(tracer=tracer):
                rc = _HANDLERS[args.command](args)
            print(format_summary(tracer, metrics.registry()),
                  file=sys.stderr)
            return rc
        return _HANDLERS[args.command](args)
    except (CliError, FillContractError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
