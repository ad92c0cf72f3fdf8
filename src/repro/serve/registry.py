"""Model registry: named surrogate checkpoints, warm-loaded and re-bound.

Checkpoints are registered by name at startup (``repro serve --model
pkb=path/to/ckpt``) and warm-loaded immediately — the UNet weights and
normalizer come off disk once, so the first request pays no load
latency and a bad checkpoint fails the server at boot, not a client at
runtime.  Binding a loaded bundle to an incoming layout only computes
extraction constants; bound networks are cached per (model, layout
fingerprint) with a small LRU so memory stays bounded under many
distinct layouts.

Served weights change in one way: overwrite the checkpoint in place.
Every bind revalidates the checkpoint's content stamp (mtime + size per
file, like the executor's layout cache), so the next bind after an
overwrite reloads the weights rather than serve them stale, while jobs
that already bound a network finish on the weights they bound.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from ..layout.io import layout_to_dict
from ..layout.layout import Layout
from ..surrogate.network import CmpNeuralNetwork
from ..surrogate.persist import (
    SurrogateBundle,
    bind_surrogate,
    checkpoint_stamp,
    load_surrogate_bundle,
)


def layout_fingerprint(layout: Layout) -> str:
    """Content hash of a layout (stable across processes and paths)."""
    payload = json.dumps(layout_to_dict(layout), sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()


def parse_model_spec(spec: str) -> tuple[str, str]:
    """Split a ``NAME=CHECKPOINT_DIR`` CLI spec into its two parts.

    Shared by the registry and the process pool, which ships specs (not
    live registries) to child processes that warm-load their own copies.
    """
    name, sep, directory = spec.partition("=")
    if not sep or not name or not directory:
        raise ValueError(
            f"bad model spec {spec!r}: expected NAME=CHECKPOINT_DIR"
        )
    return name, directory


@dataclass
class RegisteredModel:
    """One named checkpoint, already warm.

    ``stamp`` is the on-disk content stamp at load time, used to detect
    in-place overwrites.
    """

    name: str
    directory: Path
    bundle: SurrogateBundle
    stamp: tuple = field(default=())


class ModelRegistry:
    """Named surrogate checkpoints plus a bound-network LRU cache.

    Args:
        max_bound: bound-network cache entries kept per process.  Each
            entry holds one layout's extraction constants (a few arrays
            the size of the chip grid); the UNet weights are shared
            across all bindings of a model.
    """

    def __init__(self, max_bound: int = 8):
        if max_bound < 1:
            raise ValueError(f"max_bound must be >= 1, got {max_bound}")
        self.max_bound = max_bound
        self._models: dict[str, RegisteredModel] = {}
        self._bound: OrderedDict[tuple, CmpNeuralNetwork]
        self._bound = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def register(self, name: str, directory: str | Path) -> RegisteredModel:
        """Warm-load a checkpoint under ``name`` (replaces an old one).

        The bundle is loaded before the rebind, so the registry never
        serves a half-loaded model.
        """
        if not name:
            raise ValueError("model name must be non-empty")
        model = RegisteredModel(
            name=name, directory=Path(directory),
            bundle=load_surrogate_bundle(directory),
            stamp=checkpoint_stamp(directory))
        with self._lock:
            self._models[name] = model
            for key in [k for k in self._bound if k[0] == name]:
                del self._bound[key]  # stale bindings of a replaced model
        return model

    def register_spec(self, spec: str) -> RegisteredModel:
        """Register from a ``name=directory`` CLI spec."""
        return self.register(*parse_model_spec(spec))

    def model(self, name: str) -> RegisteredModel:
        with self._lock:
            if name not in self._models:
                raise KeyError(
                    f"unknown model {name!r}; registered: "
                    f"{sorted(self._models) or '(none)'}")
            return self._models[name]

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._models)

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def describe(self) -> dict:
        """Registry contents for the ``models`` introspection op."""
        with self._lock:
            return {
                name: {
                    "directory": str(model.directory),
                    "arch": model.bundle.arch,
                    "numpy": model.bundle.metadata.get("numpy"),
                }
                for name, model in self._models.items()
            }

    # ------------------------------------------------------------------
    def bind(self, name: str, layout: Layout,
             fingerprint: str | None = None
             ) -> tuple[CmpNeuralNetwork, RegisteredModel]:
        """A bound network plus the exact model snapshot that served it.

        The checkpoint's on-disk stamp is revalidated here: if the files
        changed under the registered path (overwritten in place), the
        checkpoint is reloaded before binding, so an overwritten
        checkpoint is never served stale.  The returned snapshot's
        ``stamp`` names the weights the network was bound to, without a
        racy second lookup across a concurrent reload.

        Raises:
            KeyError: unknown model name (message lists what exists).
        """
        model = self.model(name)
        try:
            stamp = checkpoint_stamp(model.directory)
        except OSError:
            stamp = model.stamp  # mid-rewrite; serve the warm copy
        if stamp != model.stamp:
            model = self.register(name, model.directory)
        fingerprint = fingerprint or layout_fingerprint(layout)
        key = (name, fingerprint, model.stamp)
        with self._lock:
            cached = self._bound.get(key)
            if cached is not None:
                self._bound.move_to_end(key)
                return cached, model
        network = bind_surrogate(model.bundle, layout)
        with self._lock:
            self._bound[key] = network
            self._bound.move_to_end(key)
            while len(self._bound) > self.max_bound:
                self._bound.popitem(last=False)
        return network, model

    def network_for(self, name: str, layout: Layout,
                    fingerprint: str | None = None) -> CmpNeuralNetwork:
        """A bound network for (model, layout), from cache when warm."""
        return self.bind(name, layout, fingerprint)[0]
