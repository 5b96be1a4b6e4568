"""On-disk dataset cache — the default load path of the harness.

Generating the larger analogues (RGG scale 17, thermal2 at small
divisors) costs seconds; repeated harness/bench invocations — and the
worker processes of the parallel grid runner — must never pay it
twice.  :func:`load_cached` wraps dataset generation with a ``.npz``
snapshot cache keyed by ``(name, scale_div, seed, generator version)``,
stored under ``.repro-cache/`` in the working directory (or
``REPRO_CACHE_DIR``).

Properties the parallel runner relies on:

* **Versioned keys.**  :data:`GENERATOR_VERSION` is part of every cache
  file name; bumping it (whenever a generator's output changes)
  invalidates all stale entries at once instead of serving wrong
  graphs.
* **Concurrent-writer safety.**  Entries are written to a private
  temporary file and published with an atomic ``os.replace``, so any
  number of workers may race to fill the same key: every reader sees
  either nothing or a complete snapshot, and the last complete write
  wins (all writers produce identical bytes-for-key content anyway).
* **Corruption tolerance.**  An unreadable entry is deleted and
  regenerated rather than failing the run.

Set ``REPRO_DISK_CACHE=0`` to disable the disk layer entirely (every
load regenerates); :func:`repro.harness.datasets.load` still memoizes
in-process.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Optional

from .. import metrics
from .._rng import DEFAULT_SEED
from ..graph.csr import CSRGraph
from ..graph.io import load_npz, save_npz
from ..graph.generators.suitesparse import DEFAULT_SCALE_DIV
from . import datasets as ds

__all__ = [
    "GENERATOR_VERSION",
    "cache_enabled",
    "cache_dir",
    "cache_path",
    "load_cached",
    "warm",
    "clear_cache",
    "sweep_stale_tmp",
]

_ENV = "REPRO_CACHE_DIR"
_ENABLE_ENV = "REPRO_DISK_CACHE"

#: Version of the synthetic-dataset generators baked into cache keys.
#: Bump whenever any generator's output changes for the same
#: (name, scale_div, seed) so stale snapshots cannot be served.
GENERATOR_VERSION = 1


def cache_enabled() -> bool:
    """Whether the disk layer is active (``REPRO_DISK_CACHE`` gate)."""
    return os.environ.get(_ENABLE_ENV, "1").strip().lower() not in (
        "0",
        "false",
        "no",
        "off",
    )


#: Private temp files older than this are presumed orphaned by a
#: killed writer and swept (writers publish within seconds).
STALE_TMP_AGE_S = 3600.0

#: Sweep once per process per cache root, not on every path lookup.
_swept_roots: set = set()


def cache_dir() -> Path:
    """The cache root (created on demand; swept of orphaned temp files
    once per process)."""
    root = Path(os.environ.get(_ENV, ".repro-cache"))
    root.mkdir(parents=True, exist_ok=True)
    key = str(root)
    if key not in _swept_roots:
        _swept_roots.add(key)
        sweep_stale_tmp(root=root)
    return root


def sweep_stale_tmp(
    *, root: Optional[Path] = None, max_age_s: float = STALE_TMP_AGE_S
) -> int:
    """Delete ``*.tmp.npz`` files abandoned by writers killed
    mid-publish; returns how many were removed.

    Only files older than ``max_age_s`` go — a live concurrent writer's
    in-progress temp file is seconds old and survives the sweep.
    """
    if root is None:
        root = Path(os.environ.get(_ENV, ".repro-cache"))
    removed = 0
    now = time.time()
    for tmp in root.glob("*.tmp.npz"):
        try:
            if now - tmp.stat().st_mtime >= max_age_s:
                tmp.unlink()
                removed += 1
        except OSError:
            pass  # vanished under us (another sweeper, or the writer)
    return removed


def cache_path(
    name: str, scale_div: int, seed: int, version: int = GENERATOR_VERSION
) -> Path:
    safe = name.replace("/", "_")
    return cache_dir() / f"{safe}__div{scale_div}__seed{seed}__g{version}.npz"


def _atomic_save(graph: CSRGraph, path: Path) -> None:
    """Publish a snapshot atomically (safe under concurrent writers).

    The temp name is unique per writer — process *and* thread — so two
    serve threads filling one cold entry never unlink each other's
    in-progress file.
    """
    tmp = path.with_name(
        f"{path.stem}.{os.getpid()}.{threading.get_ident()}.tmp.npz"
    )
    try:
        save_npz(graph, tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_cached(
    name: str,
    *,
    scale_div: int = DEFAULT_SCALE_DIV,
    seed: int = DEFAULT_SEED,
) -> CSRGraph:
    """Load a dataset through the on-disk cache.

    Corrupt cache entries are regenerated rather than failing the run.
    With the cache disabled (``REPRO_DISK_CACHE=0``) this is a plain
    regeneration.

    Hits, misses, and corrupt-entry regenerations are counted into the
    active metrics registry (``repro_cache_hits_total`` /
    ``repro_cache_misses_total`` / ``repro_cache_corrupt_total``,
    labelled by dataset).
    """
    if not cache_enabled():
        return ds.generate(name, scale_div=scale_div, seed=seed)
    path = cache_path(name, scale_div, seed)
    if path.exists():
        try:
            # A zero-byte file is a writer killed before its first
            # write — treat like any other corruption, without even
            # attempting the parse.
            if path.stat().st_size == 0:
                raise OSError("zero-byte cache entry")
            graph = load_npz(path)
            metrics.inc("repro_cache_hits_total", dataset=name)
            return graph
        except Exception:
            path.unlink(missing_ok=True)  # corrupt: fall through
            metrics.inc("repro_cache_corrupt_total", dataset=name)
    metrics.inc("repro_cache_misses_total", dataset=name)
    graph = ds.generate(name, scale_div=scale_div, seed=seed)
    _atomic_save(graph, path)
    return graph


def warm(name: str, *, scale_div: int = DEFAULT_SCALE_DIV, seed: int = DEFAULT_SEED) -> None:
    """Ensure a cache entry exists without keeping the graph in memory.

    The parallel runner fans one ``warm`` task per distinct dataset
    across the worker pool before dispatching grid cells, so the cells
    themselves always hit a filled cache.
    """
    if not cache_enabled():
        return
    path = cache_path(name, scale_div, seed)
    if path.exists():
        return
    _atomic_save(ds.generate(name, scale_div=scale_div, seed=seed), path)


def clear_cache() -> int:
    """Delete all cache entries; returns how many were removed."""
    removed = 0
    for p in cache_dir().glob("*.npz"):
        p.unlink()
        removed += 1
    return removed
