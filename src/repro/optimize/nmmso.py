"""Niching Migratory Multi-Swarm Optimiser (Fieldsend, CEC 2014 [22]).

The paper uses NMMSO to *locate all peak regions* of the quality score
(Eq. 19, Fig. 6); each located optimum then seeds an SQP refinement in
the MSP-SQP framework.

This implementation keeps the algorithm's defining mechanics:

* a population of independent particle swarms, each tracking one peak;
* **merging** of swarms that sit on the same peak, detected by seed
  proximity or by the midpoint test (if the midpoint between two swarm
  bests is fitter than the worse best, the region between them has no
  valley, so they share a peak);
* PSO dynamics with inertia and cognitive/social pulls inside each swarm;
* **migration**: fresh randomly-seeded swarms are injected continuously so
  undiscovered basins keep receiving probes.

The search runs in the normalised unit box; degenerate dimensions
(``lower == upper``) are pinned and excluded from distances.

The objective is batched, ``(P, *shape) -> (P,)``.  A PSO step fixes
every particle's position before it scores any, so its probes go out
as one stack, and the personal/swarm bests are then updated in
particle order; growth, migration and merge-midpoint probes are
one-row stacks.  With a row-independent objective every choice, and so
the result, is that of scoring the particles one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import rng_from_seed

#: Batched objective: a ``(P, *shape)`` stack of points -> their ``(P,)``
#: values (higher is better).
Objective = Callable[[np.ndarray], np.ndarray]


@dataclass
class LocalOptimum:
    """One peak estimate returned by the search."""

    x: np.ndarray
    value: float


@dataclass
class _Swarm:
    positions: np.ndarray  # (k, n) in unit coordinates
    velocities: np.ndarray
    pbest_pos: np.ndarray
    pbest_val: np.ndarray
    gbest_pos: np.ndarray = field(default=None)  # type: ignore[assignment]
    gbest_val: float = -np.inf

    def refresh_gbest(self) -> None:
        k = int(np.argmax(self.pbest_val))
        self.gbest_pos = self.pbest_pos[k].copy()
        self.gbest_val = float(self.pbest_val[k])

    @property
    def size(self) -> int:
        return self.positions.shape[0]


@dataclass
class NmmsoResult:
    optima: list[LocalOptimum]
    evaluations: int
    iterations: int

    @property
    def best(self) -> LocalOptimum:
        return max(self.optima, key=lambda o: o.value)


class Nmmso:
    """Multi-modal maximisation over a box.

    Args:
        fun: batched objective to maximise (:data:`Objective`, physical
            coordinates).
        lower / upper: box bounds (arrays of equal shape).
        max_evaluations: total objective evaluation budget.
        swarm_size: particle cap per swarm.
        merge_distance: normalised seed distance below which two swarms
            merge outright.
        inertia / cognitive / social: PSO coefficients.
        seed: RNG seed.
    """

    def __init__(
        self,
        fun: Objective,
        lower: np.ndarray,
        upper: np.ndarray,
        max_evaluations: int = 2000,
        swarm_size: int = 8,
        merge_distance: float = 0.1,
        inertia: float = 0.6,
        cognitive: float = 1.6,
        social: float = 1.6,
        seed: int | np.random.Generator | None = 0,
    ):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape:
            raise ValueError("bound shapes differ")
        if np.any(lower > upper):
            raise ValueError("infeasible box")
        if max_evaluations <= 0:
            raise ValueError("max_evaluations must be positive")
        self._fun = fun
        self._shape = lower.shape
        self._lo = lower.ravel()
        self._span = (upper - lower).ravel()
        self._active = self._span > 0
        if not np.any(self._active):
            raise ValueError("all dimensions are degenerate (lower == upper)")
        self.max_evaluations = max_evaluations
        self.swarm_size = swarm_size
        self.merge_distance = merge_distance
        self.inertia = inertia
        self.cognitive = cognitive
        self.social = social
        self._rng = rng_from_seed(seed)
        self.evaluations = 0

    # ------------------------------------------------------------------
    def _evaluate_rows(self, u: np.ndarray) -> np.ndarray:
        """Objective values of the ``(P, n)`` unit-box points ``u``."""
        self.evaluations += u.shape[0]
        x = self._lo + np.clip(u, 0.0, 1.0) * self._span
        return np.asarray(self._fun(x.reshape(-1, *self._shape)), dtype=float)

    def _evaluate(self, u: np.ndarray) -> float:
        return float(self._evaluate_rows(u[None])[0])

    def _distance(self, a: np.ndarray, b: np.ndarray) -> float:
        d = (a - b)[self._active]
        return float(np.sqrt(np.mean(d * d)))

    def _new_swarm(self, position: np.ndarray | None = None) -> _Swarm:
        n = self._lo.size
        u = self._rng.random(n) if position is None else position
        u[~self._active] = 0.0
        value = self._evaluate(u)
        swarm = _Swarm(
            positions=u[None, :].copy(),
            velocities=np.zeros((1, n)),
            pbest_pos=u[None, :].copy(),
            pbest_val=np.array([value]),
        )
        swarm.refresh_gbest()
        return swarm

    # ------------------------------------------------------------------
    def run(self, max_iterations: int = 10_000) -> NmmsoResult:
        """Search until the evaluation budget (or iteration cap) is spent."""
        swarms = [self._new_swarm()]
        iteration = 0
        while self.evaluations < self.max_evaluations and iteration < max_iterations:
            iteration += 1
            swarms = self._merge_swarms(swarms)
            for swarm in swarms:
                if self.evaluations >= self.max_evaluations:
                    break
                self._grow_or_step(swarm)
            # Migration: continuously probe unexplored space.
            if self.evaluations < self.max_evaluations:
                swarms.append(self._new_swarm())
        swarms = self._merge_swarms(swarms)
        optima = [
            LocalOptimum(
                x=(self._lo + s.gbest_pos * self._span).reshape(self._shape),
                value=s.gbest_val,
            )
            for s in swarms
        ]
        optima.sort(key=lambda o: o.value, reverse=True)
        return NmmsoResult(optima=optima, evaluations=self.evaluations,
                           iterations=iteration)

    # ------------------------------------------------------------------
    def _merge_swarms(self, swarms: list[_Swarm]) -> list[_Swarm]:
        """Collapse swarms that demonstrably share a peak."""
        merged: list[_Swarm] = []
        for swarm in sorted(swarms, key=lambda s: s.gbest_val, reverse=True):
            host = None
            for existing in merged:
                dist = self._distance(swarm.gbest_pos, existing.gbest_pos)
                if dist < self.merge_distance:
                    host = existing
                    break
                if dist < 4 * self.merge_distance and (
                    self.evaluations < self.max_evaluations
                ):
                    mid = 0.5 * (swarm.gbest_pos + existing.gbest_pos)
                    mid_val = self._evaluate(mid)
                    if mid_val >= min(swarm.gbest_val, existing.gbest_val):
                        host = existing  # no valley between them
                        break
            if host is None:
                merged.append(swarm)
            else:
                host_k = host.size
                keep = min(self.swarm_size - host_k, swarm.size)
                if keep > 0:
                    order = np.argsort(swarm.pbest_val)[::-1][:keep]
                    host.positions = np.vstack([host.positions, swarm.positions[order]])
                    host.velocities = np.vstack([host.velocities, swarm.velocities[order]])
                    host.pbest_pos = np.vstack([host.pbest_pos, swarm.pbest_pos[order]])
                    host.pbest_val = np.concatenate([host.pbest_val, swarm.pbest_val[order]])
                if swarm.gbest_val > host.gbest_val:
                    host.gbest_pos = swarm.gbest_pos.copy()
                    host.gbest_val = swarm.gbest_val
        return merged

    def _grow_or_step(self, swarm: _Swarm) -> None:
        """Add a particle while under-populated, else one PSO step."""
        n = self._lo.size
        if swarm.size < self.swarm_size:
            spread = 0.5 * self.merge_distance
            u = swarm.gbest_pos + self._rng.normal(0.0, spread, size=n)
            u = np.clip(u, 0.0, 1.0)
            u[~self._active] = 0.0
            value = self._evaluate(u)
            swarm.positions = np.vstack([swarm.positions, u])
            swarm.velocities = np.vstack([swarm.velocities, np.zeros(n)])
            swarm.pbest_pos = np.vstack([swarm.pbest_pos, u])
            swarm.pbest_val = np.concatenate([swarm.pbest_val, [value]])
            if value > swarm.gbest_val:
                swarm.gbest_pos = u.copy()
                swarm.gbest_val = value
            return

        r1 = self._rng.random(swarm.positions.shape)
        r2 = self._rng.random(swarm.positions.shape)
        swarm.velocities = (
            self.inertia * swarm.velocities
            + self.cognitive * r1 * (swarm.pbest_pos - swarm.positions)
            + self.social * r2 * (swarm.gbest_pos[None, :] - swarm.positions)
        )
        swarm.positions = np.clip(swarm.positions + swarm.velocities, 0.0, 1.0)
        swarm.positions[:, ~self._active] = 0.0
        m = min(swarm.size, self.max_evaluations - self.evaluations)
        values = self._evaluate_rows(swarm.positions[:m])
        for k in range(m):
            value = float(values[k])
            if value > swarm.pbest_val[k]:
                swarm.pbest_val[k] = value
                swarm.pbest_pos[k] = swarm.positions[k].copy()
                if value > swarm.gbest_val:
                    swarm.gbest_val = value
                    swarm.gbest_pos = swarm.positions[k].copy()
