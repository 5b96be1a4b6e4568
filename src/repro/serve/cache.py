"""Result cache and graph fingerprinting for the coloring service.

The first rung of the degradation ladder: when the service has already
colored the *same* graph with the same implementation and seed, it
answers from memory instead of spending a worker.  Because the
reproduction is deterministic — same (graph, impl, backend, seed) ⇒
bit-identical colors, ``sim_ms``, iterations — a cache hit is
indistinguishable from a fresh run, so cached responses keep status
``ok`` (``source="cache"``) and the bit-exactness contract.

The cache key starts from :func:`graph_fingerprint`, a content hash of
the CSR arrays in the style of :meth:`repro.trace.Trace.fingerprint`:
a 16-hex-digit SHA-256 prefix over the vertex/edge counts and the raw
``offsets``/``indices`` bytes.  It depends on nothing but the graph's
structure — not its name, not the backend, not whether tracing or
metrics are on, not which worker computes it — which is exactly the
stability property the hypothesis suite locks down
(``tests/test_serve_cache.py``).

Hashing a graph means loading it first, so a dataset request could not
be looked up before a worker had done both.  :class:`GraphIndex`
remembers, per dataset request's graph key ``(dataset, scale_div,
seed)``, the fingerprint of the graph that key loads — datasets are
seed-deterministic, so the key names one graph for the life of the
process — and lets the server probe the cache at admission.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import metrics

__all__ = [
    "graph_fingerprint",
    "CachedResult",
    "ResultCache",
    "GRAPH_INDEX_CAPACITY",
    "GraphIndex",
]

#: The bound of the server's :class:`GraphIndex`.  An entry is a
#: three-field key and a 16-character fingerprint (a few hundred
#: bytes), so a full index stays well under a megabyte; a key evicted
#: from it only costs the next request for that graph one load and
#: hash on a worker.
GRAPH_INDEX_CAPACITY = 1024


def graph_fingerprint(graph) -> str:
    """A 16-hex-digit content hash of a CSR graph's structure.

    Two graphs with identical ``offsets``/``indices`` arrays (and hence
    identical vertex/edge counts) share a fingerprint regardless of
    name, construction path, or ambient observability state; any
    structural mutation — one edge added, removed, or rewired —
    changes it.
    """
    h = hashlib.sha256()
    h.update(f"{graph.num_vertices}\x1f{graph.num_edges}\x1e".encode())
    h.update(np.ascontiguousarray(graph.offsets).tobytes())
    h.update(np.ascontiguousarray(graph.indices).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class CachedResult:
    """The bit-exact scalars (plus the color array) of one ``ok`` run."""

    impl: str
    backend: str
    colors: np.ndarray
    num_colors: int
    coloring_sha256: str
    sim_ms: float
    iterations: int


class ResultCache:
    """A bounded LRU cache of completed colorings.

    Keyed by ``(graph_fingerprint, impl, backend, seed)`` — everything
    the deterministic contract says the result depends on.  Only
    non-degraded primary results are stored, so a hit can always be
    served as ``ok``.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, str, str, int], CachedResult]" = (
            OrderedDict()
        )

    @staticmethod
    def key(
        fingerprint: str, impl: str, backend: str, seed: int
    ) -> Tuple[str, str, str, int]:
        return (fingerprint, impl, backend, int(seed))

    def peek(
        self, fingerprint: str, impl: str, backend: str, seed: int
    ) -> Optional[CachedResult]:
        """Look an entry up (refreshing its recency) without counting."""
        key = self.key(fingerprint, impl, backend, seed)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def get(
        self,
        fingerprint: str,
        impl: str,
        backend: str,
        seed: int,
        *,
        count_miss: bool = True,
    ) -> Optional[CachedResult]:
        """Look an entry up and count the hit or miss.

        ``count_miss=False`` leaves a miss uncounted, for a probe whose
        request is probed again later (the admission probe), so that a
        request counts one hit or one miss, never both."""
        entry = self.peek(fingerprint, impl, backend, seed)
        if entry is not None:
            metrics.inc("repro_serve_cache_hits_total")
        elif count_miss:
            metrics.inc("repro_serve_cache_misses_total")
        return entry

    def put(
        self,
        fingerprint: str,
        seed: int,
        entry: CachedResult,
    ) -> None:
        key = self.key(fingerprint, entry.impl, entry.backend, seed)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        metrics.set_gauge("repro_serve_cache_size", float(len(self._entries)))

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class GraphIndex:
    """A bounded LRU map from a dataset request's graph key
    ``(dataset, scale_div, seed)`` to its :func:`graph_fingerprint`.

    It holds at most ``capacity`` keys (default
    :data:`GRAPH_INDEX_CAPACITY`), evicting the least recently used.
    Like :class:`ResultCache` it is used from the event-loop thread
    only, so it takes no lock.
    """

    def __init__(self, capacity: int = GRAPH_INDEX_CAPACITY):
        if capacity < 1:
            raise ValueError("graph index capacity must be >= 1")
        self.capacity = capacity
        self._fingerprints: "OrderedDict[Tuple[str, int, int], str]" = (
            OrderedDict()
        )

    def get(self, key: Tuple[str, int, int]) -> Optional[str]:
        fingerprint = self._fingerprints.get(key)
        if fingerprint is not None:
            self._fingerprints.move_to_end(key)
        return fingerprint

    def put(self, key: Tuple[str, int, int], fingerprint: str) -> None:
        self._fingerprints[key] = fingerprint
        self._fingerprints.move_to_end(key)
        if len(self._fingerprints) > self.capacity:
            self._fingerprints.popitem(last=False)

    def __len__(self) -> int:
        return len(self._fingerprints)
