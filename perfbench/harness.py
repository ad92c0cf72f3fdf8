"""Determinism guards, output checks and host facts.

Everything here is workload-agnostic; ``run.py`` drives the loop and
folds these checks into the ``correct`` / ``attempted`` / ``failed``
fields of the result line.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

#: The only ``REPRO_*`` setting a run accepts: conv dispatch plans must
#: come from the in-process heuristic, never from ``~/.cache``.
PLAN_CACHE_ENV = "REPRO_CONV_PLAN_CACHE"


class BenchError(Exception):
    """A run that must not report numbers (exit code 2)."""


def prepare_environment() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/`` and pin
    the program to its defaults.

    Refuses to run when any ``REPRO_*`` variable other than
    ``REPRO_CONV_PLAN_CACHE=off`` is set: both commits of a comparison
    must measure the default program.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'repro'}")
    foreign = sorted(
        name for name, value in os.environ.items()
        if name.startswith("REPRO_")
        and not (name == PLAN_CACHE_ENV and value.strip().lower() == "off"))
    if foreign:
        raise BenchError("refusing to run with non-default program "
                         f"settings: {', '.join(foreign)}")
    os.environ[PLAN_CACHE_ENV] = "off"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def leaked_plans() -> list[str]:
    """Conv dispatch plans that came from a timing race or a plan file.

    Any such plan makes a result depend on host timing noise, so a run
    holding one is void.
    """
    from repro.nn import dispatch

    return sorted(key for key, plan in dispatch.plan_table().items()
                  if plan.get("source") in ("calibrated", "persisted"))


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------
def _blas_threads() -> str:
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_facts(seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "seed": seed,
        "commit": _git_commit(),
    }


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Median time of the reference kernel (``refclock.py``) on the 2-core
#: host the benchmark was defined on; rescaled times read as seconds at
#: that speed.
REFERENCE_NOMINAL_S = 0.02


class HostClock:
    """Measures the host's speed, to rescale a run's times to a fixed one.

    The shared host's speed swings by up to 2x within minutes (identical
    cli-fill passes took 8.8 s to 16.8 s within ten runs), far beyond
    any regression bound.  A reference kernel is timed between the
    measured intervals (after every set-up, operation and pass); a run's
    times are multiplied by ``REFERENCE_NOMINAL_S`` over the mean of all
    its reference times.  One factor per run, not one per interval: a
    single reference time is itself noisy.  On a shared 2-core host,
    rescaling each interval by the reference times around it widened
    the spread of serve passes from 0.06-0.07 to 0.12-0.20 (interquartile
    range over median, ten seeds), while the run mean cut the widest
    script_s spread of two ten-seed sets from 0.20 to 0.17 and from 0.19
    to 0.13.  Raw seconds are kept and printed next to the rescaled ones.

    The kernel runs in its own interpreter (``refclock.py``), which never
    imports ``repro``: threads the program leaves running in the
    benchmark process (a server's expiry loop, batchers) cannot slow the
    reference down, so only host speed moves it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("refclock.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.sample()

    def sample(self) -> None:
        """Time the reference kernel once more (between intervals)."""
        self._proc.stdin.write("time\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError("the reference clock process ended early")
        self.samples.append(float(line))

    def factor(self) -> float:
        """What raw seconds of this run are multiplied by."""
        return REFERENCE_NOMINAL_S / statistics.fmean(self.samples)

    def close(self) -> None:
        """Stop the reference process and wait for it."""
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


# ----------------------------------------------------------------------
# statistics and checks
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def release_memory() -> None:
    """Collect garbage and hand freed heap pages back to the system.

    Every CLI operation runs in a fresh process.  Here they share one:
    captured plans hold reference cycles whose arenas would pile up
    until a collection happens to run, and glibc keeps freed heap pages
    (its mmap threshold adapts to what was freed), so without this the
    peak memory of a pass depends on the order of its operations (ECO
    edit orders gave 119 MB or 152 MB).  Called between operations,
    off the clock.
    """
    import ctypes
    import ctypes.util
    import gc

    gc.collect()
    name = ctypes.util.find_library("c")
    trim = getattr(ctypes.CDLL(name), "malloc_trim", None) if name else None
    if trim is not None:
        trim(0)


def digest(data) -> str:
    """sha256 of an array's (or a byte string's) exact bytes."""
    import numpy as np

    if not isinstance(data, bytes):
        data = np.ascontiguousarray(data, dtype=float).tobytes()
    return hashlib.sha256(data).hexdigest()


def fill_contract(fill, layout) -> str | None:
    """``None`` when ``fill`` is finite and inside ``[0, slack]``.

    ``Layout.validate_fill`` compares with ``<``/``>``, which NaN passes,
    so finiteness is checked here first.
    """
    import numpy as np

    fill = np.asarray(fill, dtype=float)
    if fill.shape != layout.shape:
        return f"fill shape {fill.shape} != layout shape {layout.shape}"
    if not np.all(np.isfinite(fill)):
        return "fill holds non-finite values"
    slack = layout.slack_stack()
    if np.any(fill < 0.0) or np.any(fill > slack):
        worst = float(np.max(np.maximum(fill - slack, -fill)))
        return f"fill leaves [0, slack] by {worst:.3g} um^2"
    return None


@dataclass
class Op:
    """One user-visible operation of a pass (a fill, an edit, a job)."""

    kind: str
    key: str
    seconds: float
    ok: bool = True
    error: str = ""
    sha: str = ""
    quality: float | None = None
    #: fingerprints that must repeat across passes (bitwise determinism)
    deterministic: bool = True
    #: what the operation returned, checked after the clock stops
    outcome: object = None
    fill: object = None


@dataclass
class Pass:
    """One pass of a workload's script."""

    wall_s: float
    ops: list[Op]


@dataclass
class Ledger:
    """Attempted/failed operations plus every check that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add_pass(self, done: Pass) -> None:
        for op in done.ops:
            self.attempted += 1
            if not op.ok:
                self.failed += 1
                self.problems.append(f"{op.kind} {op.key}: {op.error}")

    def problem(self, message: str) -> None:
        self.problems.append(message)


def repeat_check(passes: list[Pass]) -> None:
    """Every deterministic op must give the same fill bytes in each pass
    (the traced pass included); a mismatch fails the later op."""
    seen: dict[tuple, str] = {}
    for done in passes:
        for op in done.ops:
            if not (op.ok and op.deterministic and op.sha):
                continue
            first = seen.setdefault((op.kind, op.key), op.sha)
            if first != op.sha:
                op.ok = False
                op.error = (f"fill sha256 {op.sha[:12]} != {first[:12]} "
                            "of an earlier pass")
