"""CMP neural network: extraction layer + pre-trained UNet + objective layers.

This is the paper's Fig. 4 pipeline.  Forward propagation maps a fill
vector ``x`` to the planarity score ``S_plan``; backward propagation
returns ``dS_plan/dx`` through the chain rule of Eq. 11 — the paper's
8134x-speedup replacement for finite differences through the simulator.

There is one numeric path: every evaluation is a stack of K fill
vectors, and a single fill is the K = 1 stack.  :meth:`evaluate`,
:meth:`evaluate_batch` and :meth:`evaluate_region` only differ in the
graph they build; all three hand it to one runner that replays a
captured plan or, when it cannot, runs the same graph eagerly.  So
``evaluate(fill)`` equals row 0 of ``evaluate_batch(fill[None])`` bit
for bit by construction, and both share one captured plan.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import astuple, dataclass

import numpy as np

from ..layout.layout import Layout
from ..nn import functional as F
from ..nn.capture import CaptureMiss, CapturedGraph, arena_bytes, keep_plans
from ..nn.dispatch import ScratchPool
from ..nn.modules import Module
from ..nn.tensor import Tensor
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .extraction import ExtractionConstants, extract_parameter_matrix
from .objectives import (
    DEFAULT_ETA,
    PlanarityBreakdown,
    PlanarityWeights,
    breakdowns_from_terms,
    planarity_terms,
)

#: Plan-cache slot for signatures whose trace failed: fall back to eager
#: permanently instead of re-tracing (and re-failing) every call.
_BROKEN = object()

#: Captured plans retained per network (LRU).  Each plan's forward
#: arrays, scratch and gradient slots are views of the network's shared
#: pool, sized by its largest plan.  MSP-SQP's shrinking lockstep
#: batches are the main consumer of several live keys.
MAX_CAPTURE_PLANS: int = 8

#: Named outputs of every evaluation graph: the ``(K,)`` planarity terms
#: (:func:`~repro.surrogate.objectives.planarity_terms`) and the
#: ``(K, L, N, M)`` heights.
_OUTPUTS = ("sigma", "line", "outlier", "score_sigma", "score_line",
            "score_outlier", "s_plan", "heights")


def _read(outputs: dict[str, Tensor], x: Tensor, want_grad: bool) -> dict:
    """Copies of the :data:`_OUTPUTS` arrays plus ``"grad"`` (the input
    gradient; ``None`` unless ``want_grad``)."""
    result = {name: outputs[name].data.copy() for name in _OUTPUTS}
    result["grad"] = None
    if want_grad:
        result["grad"] = (x.grad.copy() if x.grad is not None
                          else np.zeros_like(x.data))
    return result


def _finite(fill: np.ndarray) -> np.ndarray:
    """``fill`` itself; ``ValueError`` naming the first NaN/inf entry."""
    bad = ~np.isfinite(fill)
    if bad.any():
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"fill must be finite: entry {index} is {fill[index]} "
            f"({int(bad.sum())} non-finite entries)")
    return fill


@dataclass(frozen=True)
class HeightNormalizer:
    """Affine map between physical heights (Angstrom) and network outputs."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if self.std <= 0:
            raise ValueError(f"std must be positive, got {self.std}")

    def normalize(self, heights: np.ndarray) -> np.ndarray:
        return (heights - self.mean) / self.std

    def denormalize_array(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean

    def denormalize(self, values: Tensor) -> Tensor:
        return values * self.std + self.mean

    def to_dict(self) -> dict:
        return {"mean": self.mean, "std": self.std}

    @classmethod
    def from_dict(cls, data: dict) -> "HeightNormalizer":
        return cls(mean=float(data["mean"]), std=float(data["std"]))

    @classmethod
    def fit(cls, heights: np.ndarray) -> "HeightNormalizer":
        std = float(heights.std())
        return cls(mean=float(heights.mean()), std=std if std > 0 else 1.0)


@dataclass
class PlanarityEvaluation:
    """Result of one forward (+ optional backward) pass."""

    s_plan: float
    breakdown: PlanarityBreakdown
    heights: np.ndarray  # (L, N, M) predicted physical heights
    gradient: np.ndarray | None  # dS_plan/dx, same shape as the fill


@dataclass
class BatchPlanarityEvaluation:
    """Result of one stacked forward (+ optional backward) pass over K
    independent fill vectors."""

    s_plan: np.ndarray  # (K,) planarity scores
    breakdowns: list[PlanarityBreakdown]  # one per fill vector
    heights: np.ndarray  # (K, L, N, M) predicted physical heights
    gradient: np.ndarray | None  # (K, L, N, M); zero rows where masked out


@dataclass(frozen=True)
class EvalRegion:
    """Rectangles driving :meth:`CmpNeuralNetwork.evaluate_region`.

    ``(r0, r1, c0, c1)`` is the half-open *core*: heights are recomputed
    there each call.  ``(sr0, sr1, sc0, sc1)`` is the halo-padded *crop*
    actually pushed through the network; both have origins on multiples
    of the UNet's pooling alignment so the cropped forward reproduces the
    monolithic pooling phase.  Built by
    :meth:`CmpNeuralNetwork.plan_region`.
    """

    r0: int
    r1: int
    c0: int
    c1: int
    sr0: int
    sr1: int
    sc0: int
    sc1: int

    def __post_init__(self) -> None:
        if not (0 <= self.sr0 <= self.r0 < self.r1 <= self.sr1
                and 0 <= self.sc0 <= self.c0 < self.c1 <= self.sc1):
            raise ValueError(
                f"region needs a non-empty core inside its crop, got {self}")

    @property
    def crop_shape(self) -> tuple[int, int]:
        return (self.sr1 - self.sr0, self.sc1 - self.sc0)


class CmpNeuralNetwork:
    """End-to-end differentiable stand-in for the full-chip CMP simulator.

    Args:
        layout: the target layout (fixes the extraction constants).
        unet: a pre-trained height-prediction network mapping the
            ``(L, C, N, M)`` parameter matrix to normalised heights
            ``(L, 1, N, M)``.
        normalizer: the affine height normalisation the UNet was trained
            with.
        eta: sigmoid gain of the smoothed outlier objective (Eq. 10c).
        capture: replay captured graphs (trace once, run many; bitwise
            identical to eager).  ``False`` runs every call eagerly — the
            reference tests and benches compare against.

    The UNet is switched to ``eval`` mode: optimisation-time forward
    passes must use frozen batch statistics.  Every entry point validates
    its fill at the boundary (layout shape, finite entries) and raises
    ``ValueError`` otherwise.
    """

    def __init__(self, layout: Layout, unet: Module,
                 normalizer: HeightNormalizer, eta: float = DEFAULT_ETA,
                 capture: bool = True):
        self.layout = layout
        self.unet = unet.eval()
        self.normalizer = normalizer
        self.eta = eta
        self.consts = ExtractionConstants.from_layout(layout)
        self.capture = bool(capture)
        self._plans: OrderedDict[tuple, object] = OrderedDict()
        self._plans_lock = threading.Lock()
        # One pool for all plans' buffers: they replay under the plan lock.
        self._pool = ScratchPool()
        self._capture_counts = {"trace": 0, "replay": 0, "reuse": 0,
                                "miss": 0, "bypass": 0}

    # ------------------------------------------------------------------
    # the one evaluation runner: captured replay or eager
    # ------------------------------------------------------------------
    def capture_stats(self) -> dict:
        """Capture counters plus the live plan table (for benches/tests).

        ``"reuse"`` counts backward-only replays (a gradient call at the
        inputs of the plan's last forward); each is also a ``"replay"``.
        ``"plans"`` maps each plan key to the bytes that plan holds;
        ``"arena_bytes"`` counts every buffer once, though the plans
        share the network's scratch pool.
        """
        with self._plans_lock:
            live = {repr(key): plan for key, plan in self._plans.items()
                    if plan is not _BROKEN}
            return {
                **self._capture_counts,
                "plans": {key: plan.arena_bytes for key, plan in live.items()},
                "arena_bytes": arena_bytes(live.values()),
            }

    def _run(self, kind: str, signature: tuple, weights: PlanarityWeights,
             build, inputs: dict, seed: np.ndarray | None) -> dict:
        """Evaluate one graph; the numeric path behind every entry point.

        ``build`` maps the input tensors (``"x"`` is the stacked fill) to
        the named :data:`_OUTPUTS`; ``seed`` is the ``(K,)`` backward
        seed, ``None`` for a forward-only call.  Returns plain arrays:
        every output plus ``"grad"``, the seed-weighted ``dS_plan/dx``
        (``None`` without a seed).
        """
        captured = self._captured(kind, signature, weights, build, inputs,
                                  seed)
        if captured is not None:
            return captured
        tensors = {name: Tensor(value,
                                requires_grad=(name == "x" and seed is not None))
                   for name, value in inputs.items()}
        outputs = build(tensors)
        if seed is not None:
            outputs["s_plan"].backward(seed)
        return _read(outputs, tensors["x"], seed is not None)

    def _captured(self, kind: str, signature: tuple, weights: PlanarityWeights,
                  build, inputs: dict, seed: np.ndarray | None) -> dict | None:
        """Replay (or trace) the plan for one call signature.

        Copies the results out while the plan lock is still held, so a
        concurrent replay cannot overwrite the arena mid-read; a call
        that finds the lock held waits its turn.  Returns ``None`` when
        the caller must run eagerly: capture disabled, network in
        training mode, plan marked broken, or a structural miss.
        """
        if not self.capture or getattr(self.unet, "training", False):
            return None
        key = (kind, signature, getattr(self.unet, "_state_version", None),
               weights, self.eta)
        with self._plans_lock:
            plan = self._plans.get(key)
            if plan is _BROKEN:
                self._capture_counts["bypass"] += 1
                return None
            tracer = obs_trace.active()
            if plan is None:
                # The trace below IS this call's eager execution; its
                # backward always runs (even for forward-only callers)
                # so one plan serves both gradient modes.
                try:
                    if tracer is not None:
                        with obs_trace.span("capture.trace", cat="nn", kind=kind):
                            plan = CapturedGraph.trace(
                                build, inputs, grad_inputs=("x",),
                                root="s_plan", seed=seed, pool=self._pool,
                            )
                    else:
                        plan = CapturedGraph.trace(
                            build, inputs, grad_inputs=("x",),
                            root="s_plan", seed=seed, pool=self._pool,
                        )
                except Exception:
                    self._plans[key] = _BROKEN
                    return None
                self._plans[key] = plan
                if len(self._plans) > MAX_CAPTURE_PLANS:
                    while len(self._plans) > MAX_CAPTURE_PLANS:
                        self._plans.popitem(last=False)
                    keep_plans(self._pool, (p for p in self._plans.values()
                                            if p is not _BROKEN))
                self._capture_counts["trace"] += 1
                if tracer is not None:
                    obs_metrics.registry().set_gauge(
                        "capture.arena_bytes",
                        arena_bytes(p for p in self._plans.values()
                                    if p is not _BROKEN),
                    )
                return _read(plan.outputs, plan.inputs["x"], seed is not None)
            try:
                if tracer is not None:
                    with obs_trace.span("capture.replay", cat="nn",
                                        kind=kind) as span:
                        reused = plan.replay(inputs, seed=seed,
                                             want_grad=seed is not None)
                        span.set(reuse=reused)
                else:
                    reused = plan.replay(inputs, seed=seed,
                                         want_grad=seed is not None)
            except CaptureMiss:
                self._capture_counts["miss"] += 1
                if tracer is not None:
                    obs_trace.event("capture.miss", cat="nn", kind=kind)
                    obs_metrics.registry().incr("capture.miss")
                return None
            self._plans.move_to_end(key)
            self._capture_counts["replay"] += 1
            self._capture_counts["reuse"] += reused
            if tracer is not None:
                obs_metrics.registry().incr("capture.replay")
                if reused:
                    obs_metrics.registry().incr("capture.reuse")
            return _read(plan.outputs, plan.inputs["x"], seed is not None)

    # ------------------------------------------------------------------
    @property
    def grid_shape(self) -> tuple[int, int, int]:
        """``(L, N, M)`` shape every fill must have.

        The extraction constants are the single source of truth: they are
        what the forward pass actually consumes, so a layout swapped in
        after construction cannot silently change the expected shape.
        """
        return self.consts.density.shape

    def _checked_fill(self, fill: np.ndarray | None) -> np.ndarray:
        """Default + validate a single ``(L, N, M)`` fill: the layout
        shape of the bound extraction constants, every entry finite.
        Every entry point goes through here (``evaluate_batch`` through
        its row check), so a bad fill fails loudly before any pass."""
        if fill is None:
            return np.zeros(self.grid_shape)
        fill = np.asarray(fill, dtype=float)
        if fill.shape != self.grid_shape:
            raise ValueError(
                f"fill must have layout shape {self.grid_shape}, "
                f"got {fill.shape}"
            )
        return _finite(fill)

    def receptive_halo(self) -> int:
        """The bound model's receptive-field radius, rounded up to its
        pooling alignment — the halo that makes region evaluation exact.

        Raises:
            ValueError: the model does not expose
                ``receptive_field_radius``; silently assuming a zero halo
                would void every exactness guarantee, so callers must
                build an explicit :class:`EvalRegion` instead (and own
                its accuracy).
        """
        radius_fn = getattr(self.unet, "receptive_field_radius", None)
        if not callable(radius_fn):
            raise ValueError(
                f"{type(self.unet).__name__} does not expose "
                "receptive_field_radius(); cannot derive an exact halo. "
                "Build the EvalRegion explicitly — an undersized halo "
                "silently voids the region-evaluation exactness guarantee."
            )
        align = int(getattr(self.unet, "alignment", 1))
        return -(-int(radius_fn()) // align) * align

    def predict_heights(self, fill: np.ndarray | None = None) -> np.ndarray:
        """Forward-only height profile prediction (physical units)."""
        return self._forward(Tensor(self._checked_fill(fill)), self.consts).data

    # ------------------------------------------------------------------
    def plan_region(self, active: np.ndarray) -> EvalRegion | None:
        """Plan the crop rectangles for :meth:`evaluate_region`.

        Args:
            active: ``(N, M)`` bool mask of windows whose fill is allowed
                to change relative to the base fill.

        Returns:
            An :class:`EvalRegion` whose core contains every window within
            the receptive halo of ``active`` (heights outside the core
            provably cannot change), with both rectangles snapped outward
            to the UNet's pooling alignment; ``None`` when ``active`` is
            empty.
        """
        active = np.asarray(active, dtype=bool)
        L, N, M = self.grid_shape
        if active.shape != (N, M):
            raise ValueError(
                f"active mask must have grid shape {(N, M)}, got {active.shape}")
        rows = np.flatnonzero(active.any(axis=1))
        if rows.size == 0:
            return None
        cols = np.flatnonzero(active.any(axis=0))
        halo = self.receptive_halo()
        align = int(getattr(self.unet, "alignment", 1))
        r0 = max(0, ((int(rows[0]) - halo) // align) * align)
        r1 = min(N, -(-(int(rows[-1]) + 1 + halo) // align) * align)
        c0 = max(0, ((int(cols[0]) - halo) // align) * align)
        c1 = min(M, -(-(int(cols[-1]) + 1 + halo) // align) * align)
        return EvalRegion(
            r0=r0, r1=r1, c0=c0, c1=c1,
            sr0=max(0, r0 - halo), sr1=min(N, r1 + halo),
            sc0=max(0, c0 - halo), sc1=min(M, c1 + halo),
        )

    def evaluate_region(
        self,
        fill: np.ndarray,
        region: EvalRegion,
        base_heights: np.ndarray,
        weights: PlanarityWeights,
        want_grad: bool = True,
    ) -> PlanarityEvaluation:
        """Full-chip planarity score via ONE cropped network pass.

        The incremental (ECO) driver freezes most of the fill vector and
        optimises a small free region.  Heights outside ``region``'s core
        then provably equal ``base_heights`` (the frozen windows within
        one receptive field of them never change), so only the crop needs
        a forward pass: the recomputed core is embedded into the constant
        complement and the *global* planarity objective — which couples
        every window through layer means/variances — is evaluated on the
        composed full-chip height map.  Backward through the composition
        yields the exact ``dS_plan/dx`` for the cropped fill entries; the
        returned gradient is zero elsewhere (those entries are constants
        of this evaluation).

        Exactness contract: ``fill`` must agree with the fill that
        produced ``base_heights`` (via the monolithic
        :meth:`predict_heights`) on every window outside the core shrunk
        by the receptive halo — :meth:`plan_region` builds a region
        satisfying this for any fill that changes only inside its
        ``active`` mask.  Under that contract the result matches
        :meth:`evaluate` to floating-point round-off: crop origins sit on
        the pooling alignment and the halo covers the receptive field, so
        every core window sees the same pooling phase, neighbourhood and
        border padding as in the monolithic forward.

        Args:
            fill: full-chip fill areas ``(L, N, M)``.
            region: rectangles from :meth:`plan_region`.
            base_heights: monolithic heights ``(L, N, M)`` of the base
                fill; used verbatim outside the core.
            weights: the design's score coefficients.
            want_grad: run backpropagation; the gradient is exact for
                entries inside the crop and zero outside.
        """
        fill = self._checked_fill(fill)
        base_heights = np.asarray(base_heights, dtype=float)
        if base_heights.shape != fill.shape:
            raise ValueError(
                f"base_heights must have layout shape {fill.shape}, "
                f"got {base_heights.shape}")
        L, N, M = fill.shape
        rows, cols = slice(region.sr0, region.sr1), slice(region.sc0, region.sc1)
        consts = self.consts.crop(rows, cols)
        h, w = region.crop_shape
        # Keep the core, zero the halo ring: the ring is only context for
        # the convolution and its heights come from base_heights instead.
        core = np.zeros((1, h, w))
        core[:, region.r0 - region.sr0:region.r1 - region.sr0,
             region.c0 - region.sc0:region.c1 - region.sc0] = 1.0
        frozen = base_heights.copy()
        frozen[:, region.r0:region.r1, region.c0:region.c1] = 0.0
        pad = (region.sr0, N - region.sr1, region.sc0, M - region.sc1)

        def build(tensors: dict[str, Tensor]) -> dict[str, Tensor]:
            patch = self._forward(tensors["x"], consts)  # (1, L, h, w)
            heights = F.pad2d(patch * Tensor(core), pad) + tensors["frozen"]
            return self._terms(heights, weights)

        out = self._run(
            "region", (fill.shape, astuple(region)), weights, build,
            {"x": fill[None, :, rows, cols], "frozen": frozen[None]},
            np.ones(1) if want_grad else None,
        )
        gradient = None
        if want_grad:
            gradient = np.zeros_like(fill)
            gradient[:, rows, cols] = out["grad"][0]
        return self._single(out, gradient)

    def evaluate(self, fill: np.ndarray, weights: PlanarityWeights,
                 want_grad: bool = True) -> PlanarityEvaluation:
        """Planarity score (forward) and its gradient (backward).

        The K = 1 stack of :meth:`evaluate_batch`: the same graph, the
        same captured plan, so the result equals row 0 of
        ``evaluate_batch(fill[None], ...)`` bit for bit.

        Args:
            fill: fill areas, shape ``(L, N, M)``.
            weights: the design's score coefficients (Table II subset).
            want_grad: run backpropagation and return ``dS_plan/dx``.
        """
        # Shares the stacked runner with evaluate_batch instead of calling
        # it: both names are public entry points, and one evaluation must
        # enter only one.
        out = self._run_stack(self._checked_fill(fill)[None], weights,
                              np.ones(1) if want_grad else None)
        return self._single(
            out, None if out["grad"] is None else out["grad"][0])

    def evaluate_batch(
        self,
        fills: np.ndarray,
        weights: PlanarityWeights,
        want_grad: bool = True,
        grad_mask: np.ndarray | None = None,
    ) -> BatchPlanarityEvaluation:
        """K independent fill vectors through ONE stacked network pass.

        The MSP-SQP framework evaluates many starting points per
        iteration; pushing them one at a time wastes the network's batch
        axis.  Here the ``(K, L, N, M)`` stack is collapsed into a single
        ``(K * L, C, N, M)`` forward pass, and one backward call (seeded
        with the per-start mask) returns every requested gradient.  The
        starts never interact (BatchNorm runs in eval mode, and no op
        mixes rows of the stack), so row ``k`` equals :meth:`evaluate`
        on ``fills[k]`` bitwise, whatever K and the mask are; at K = 1
        it *is* that call (``tests/surrogate/test_batch_invariance.py``).

        Args:
            fills: stacked fill vectors, shape ``(K, L, N, M)``.
            weights: the design's score coefficients (Table II subset).
            grad_mask: optional boolean ``(K,)`` selecting which starts
                need gradients (e.g. only the non-converged ones of a
                lockstep SQP round); masked-out rows come back zero.
                Overrides ``want_grad``.
        """
        fills = np.asarray(fills, dtype=float)
        if fills.ndim != 4 or fills.shape[1:] != self.grid_shape:
            raise ValueError(
                f"fills must be (K, L, N, M) with (L, N, M) = "
                f"{self.grid_shape}, got {fills.shape}")
        _finite(fills)
        K = fills.shape[0]
        if grad_mask is None:
            grad_mask = np.full(K, bool(want_grad))
        else:
            grad_mask = np.asarray(grad_mask, dtype=bool)
            if grad_mask.shape != (K,):
                raise ValueError(f"grad_mask must have shape ({K},), got {grad_mask.shape}")
        # Seeding backward with the 0/1 mask computes all selected
        # per-start gradients in one reverse sweep.
        out = self._run_stack(
            fills, weights,
            grad_mask.astype(float) if grad_mask.any() else None)
        return BatchPlanarityEvaluation(
            s_plan=out["s_plan"], breakdowns=breakdowns_from_terms(out),
            heights=out["heights"], gradient=out["grad"],
        )

    # ------------------------------------------------------------------
    def _forward(self, fills: Tensor, consts: ExtractionConstants) -> Tensor:
        """Heights for ``(L, n, m)`` or stacked ``(K, L, n, m)`` fills
        over the windows ``consts`` describes."""
        matrix = extract_parameter_matrix(fills, consts)
        out = self.unet(matrix)  # (L or K*L, 1, n, m) normalised
        n, m = out.shape[2:]
        return self.normalizer.denormalize(out.reshape(*fills.shape[:-2], n, m))

    def _terms(self, heights: Tensor,
               weights: PlanarityWeights) -> dict[str, Tensor]:
        """The named :data:`_OUTPUTS` of ``(K, L, N, M)`` heights."""
        return {**planarity_terms(heights, weights, eta=self.eta),
                "heights": heights}

    def _run_stack(self, fills: np.ndarray, weights: PlanarityWeights,
                   seed: np.ndarray | None) -> dict:
        """:meth:`_run` on a validated full-chip ``(K, L, N, M)`` stack."""
        def build(tensors: dict[str, Tensor]) -> dict[str, Tensor]:
            return self._terms(self._forward(tensors["x"], self.consts),
                               weights)

        return self._run("batch", (fills.shape,), weights, build,
                         {"x": fills}, seed)

    @staticmethod
    def _single(out: dict, gradient: np.ndarray | None) -> PlanarityEvaluation:
        """Row 0 of a K = 1 run as a :class:`PlanarityEvaluation`."""
        return PlanarityEvaluation(
            s_plan=float(out["s_plan"][0]),
            breakdown=breakdowns_from_terms(out)[0],
            heights=out["heights"][0], gradient=gradient,
        )
