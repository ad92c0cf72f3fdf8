"""Persistence for pre-trained CMP surrogates (UNet + normalizer + arch).

A checkpoint directory holds two files:

* ``surrogate.json`` — architecture, height normalisation and provenance
  metadata (numpy version at save time);
* ``unet.npz`` — the UNet state dict.

Loading is split in two stages so long-lived processes (``repro serve``)
can warm-load the weights once and re-bind them to many layouts:
:func:`load_surrogate_bundle` reads the files, :func:`bind_surrogate`
attaches a bundle to a layout.  :func:`load_surrogate` composes both.

Writes are **atomic and deterministic**: each file is written to a
temporary name in the same directory, fsync'd, and ``os.replace``'d into
place, so a concurrent reader (a running server) can never observe a
torn file; and the ``.npz`` archive is emitted with fixed zip
timestamps, so the same weights always produce the same bytes.
Atomicity is per file: overwriting a checkpoint in place is how a served
model's weights change, and readers detect it via
:func:`checkpoint_stamp`.

Loading a corrupt checkpoint (bad JSON, missing keys, a truncated or
empty ``unet.npz``, weights of another architecture) raises
:class:`ValueError` naming the file; only a missing file raises
:class:`FileNotFoundError`.
"""

from __future__ import annotations

import io
import json
import os
import warnings
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..layout.layout import Layout
from ..nn.modules import Module
from ..nn.serial import load_module
from ..nn.unet import UNet
from .extraction import NUM_FEATURE_CHANNELS
from .network import CmpNeuralNetwork, HeightNormalizer


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers see old-or-new, never torn.

    The temp file lives in the destination directory (``os.replace`` is
    only atomic within one filesystem) and is fsync'd before the rename,
    so even a crash mid-write leaves either the previous file or the
    complete new one.
    """
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _module_npz_bytes(module: Module) -> bytes:
    """A module state dict as deterministic ``.npz`` bytes.

    ``np.savez`` stamps each zip member with the current wall-clock time,
    which breaks byte-identical checkpoints; this writer pins the member
    timestamps (and stores uncompressed, as ``np.savez`` does) so the
    bytes are a pure function of the weights.  ``np.load`` reads it back
    exactly like ``np.savez`` output.
    """
    state = module.state_dict()
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for key, value in state.items():
            payload = io.BytesIO()
            np.lib.format.write_array(payload, np.asarray(value),
                                      allow_pickle=False)
            info = zipfile.ZipInfo(key + ".npy",
                                   date_time=(1980, 1, 1, 0, 0, 0))
            archive.writestr(info, payload.getvalue())
    return buffer.getvalue()


def checkpoint_stamp(directory: str | Path) -> tuple:
    """Content stamp of a checkpoint directory: (mtime_ns, size) per file.

    The serve registry keys binding caches on this (like the PR 6 layout
    LRU), so a checkpoint overwritten in place is never served stale.
    """
    directory = Path(directory)
    stamp = []
    for name in ("surrogate.json", "unet.npz"):
        stat = (directory / name).stat()
        stamp.append((name, stat.st_mtime_ns, stat.st_size))
    return tuple(stamp)


def save_surrogate(directory: str | Path, unet: UNet,
                   normalizer: HeightNormalizer,
                   base_channels: int, depth: int,
                   batch_norm: bool = True) -> Path:
    """Write UNet weights + metadata into ``directory``.

    Returns the directory path.  Layout binding is *not* stored — a saved
    surrogate can be re-bound to any layout of the same process.  Both
    files are written atomically (temp + fsync + rename) with
    deterministic bytes.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "normalizer": normalizer.to_dict(),
        "arch": {
            "in_channels": NUM_FEATURE_CHANNELS,
            "base_channels": base_channels,
            "depth": depth,
            "batch_norm": batch_norm,
        },
        "numpy": np.__version__,
    }
    # Weights land first, metadata last: surrogate.json is the marker a
    # loader checks, so it must never describe weights that are not
    # fully on disk yet.
    _atomic_write_bytes(directory / "unet.npz", _module_npz_bytes(unet))
    _atomic_write_bytes(directory / "surrogate.json",
                        json.dumps(meta, indent=2).encode())
    return directory


@dataclass
class SurrogateBundle:
    """A loaded-but-unbound surrogate checkpoint.

    Binding to a layout (:func:`bind_surrogate`) only computes extraction
    constants, so one bundle can serve many layouts cheaply — the model
    registry in :mod:`repro.serve` relies on this split.
    """

    unet: UNet
    normalizer: HeightNormalizer
    arch: dict
    metadata: dict = field(default_factory=dict)


def load_surrogate_bundle(directory: str | Path) -> SurrogateBundle:
    """Read a checkpoint directory into a :class:`SurrogateBundle`.

    Raises:
        FileNotFoundError: when the directory, ``surrogate.json`` or
            ``unet.npz`` is missing — the message names the attempted
            path, so callers see *what* was missing, not a bare
            ``KeyError``/``OSError`` from deep inside numpy.
        ValueError: when the files exist but are corrupt (undecodable
            JSON, a truncated or empty archive) or inconsistent with the
            recorded architecture; the message names the file.
    """
    directory = Path(directory)
    meta_path = directory / "surrogate.json"
    weights_path = directory / "unet.npz"
    if not directory.is_dir():
        raise FileNotFoundError(
            f"surrogate checkpoint directory not found: {directory}"
        )
    missing = [p.name for p in (meta_path, weights_path) if not p.is_file()]
    if missing:
        raise FileNotFoundError(
            f"partial surrogate checkpoint at {directory}: "
            f"missing {', '.join(missing)}"
        )
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt surrogate metadata {meta_path}: {exc}")
    try:
        arch = meta["arch"]
        normalizer = HeightNormalizer.from_dict(meta["normalizer"])
        unet = UNet(
            in_channels=int(arch["in_channels"]), out_channels=1,
            base_channels=int(arch["base_channels"]), depth=int(arch["depth"]),
            batch_norm=bool(arch.get("batch_norm", True)), rng=0,
        )
    except KeyError as exc:
        raise ValueError(
            f"surrogate metadata {meta_path} is missing key {exc}"
        )
    saved_numpy = meta.get("numpy")
    if saved_numpy and saved_numpy != np.__version__:
        warnings.warn(
            f"surrogate checkpoint {directory} was saved with numpy "
            f"{saved_numpy} but is being loaded with numpy {np.__version__};"
            f" results may differ at floating-point round-off level",
            RuntimeWarning,
            stacklevel=2,
        )
    try:
        load_module(unet, weights_path)
    except FileNotFoundError:
        raise
    except (KeyError, ValueError) as exc:
        raise ValueError(
            f"surrogate weights {weights_path} do not match the recorded "
            f"architecture {arch}: {exc}"
        )
    except (EOFError, OSError, zipfile.BadZipFile) as exc:
        raise ValueError(
            f"corrupt surrogate weights {weights_path}: "
            f"{type(exc).__name__}: {exc}"
        )
    return SurrogateBundle(unet=unet, normalizer=normalizer,
                           arch=dict(arch), metadata=meta)


def bind_surrogate(bundle: SurrogateBundle, layout: Layout) -> CmpNeuralNetwork:
    """Attach a loaded bundle to ``layout`` (fully convolutional rebind)."""
    return CmpNeuralNetwork(layout, bundle.unet, bundle.normalizer)


def load_surrogate(directory: str | Path,
                   layout: Layout) -> CmpNeuralNetwork:
    """Rebuild a saved surrogate and bind it to ``layout``."""
    return bind_surrogate(load_surrogate_bundle(directory), layout)
