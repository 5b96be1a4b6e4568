"""Classic random-graph families.

Used for property-based testing (Erdős–Rényi gives arbitrary sparse
topology), for stand-ins with prescribed uniform degree (random regular,
e.g. the cage13 analogue), and for small-world structure
(Watts–Strogatz, used in ablations).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..._rng import RngLike, ensure_rng
from ...errors import GeneratorError
from ..build import from_edges
from ..csr import CSRGraph

__all__ = ["erdos_renyi", "random_regular", "watts_strogatz"]


def erdos_renyi(
    n: int,
    *,
    p: Optional[float] = None,
    m: Optional[int] = None,
    rng: RngLike = None,
    name: str = "",
) -> CSRGraph:
    """G(n, p) or G(n, m) Erdős–Rényi graph.

    Exactly one of ``p`` (edge probability) or ``m`` (edge count) must be
    given.  G(n, m) samples edge slots without replacement; G(n, p) draws
    a binomial edge count then delegates (correct for sparse p, which is
    the regime every test uses).
    """
    if (p is None) == (m is None):
        raise GeneratorError("specify exactly one of p or m")
    if n < 0:
        raise GeneratorError("n must be non-negative")
    gen = ensure_rng(rng)
    max_m = n * (n - 1) // 2
    if p is not None:
        if not 0.0 <= p <= 1.0:
            raise GeneratorError("p must be in [0, 1]")
        m = int(gen.binomial(max_m, p)) if max_m else 0
    assert m is not None
    if m < 0 or m > max_m:
        raise GeneratorError(f"m must be in [0, {max_m}]")
    if m == 0 or n < 2:
        from ..build import empty_graph

        return empty_graph(n, name=name or f"gnm_{n}_{m}")
    # Sample m distinct slots from the upper triangle, then decode.
    slots = gen.choice(max_m, size=m, replace=False)
    u, v = _decode_triangular(slots, n)
    return from_edges(
        np.column_stack([u, v]), num_vertices=n, name=name or f"gnm_{n}_{m}"
    )


def _decode_triangular(slots: np.ndarray, n: int):
    """Map slot ids in [0, C(n,2)) to (u, v) pairs with u < v.

    Slot ordering is row-major over the strict upper triangle: row u has
    ``n - 1 - u`` slots.  The row of a slot s satisfies
    ``T(u) <= s < T(u+1)`` where ``T(u) = u*n - u*(u+1)/2``; solved in
    closed form via the quadratic formula then clamped.
    """
    s = slots.astype(np.float64)
    # Invert T(u): u = floor((2n-1 - sqrt((2n-1)^2 - 8s)) / 2).
    disc = (2 * n - 1) ** 2 - 8 * s
    u = np.floor((2 * n - 1 - np.sqrt(disc)) / 2).astype(np.int64)
    # Guard against float rounding at row boundaries.
    t = u * n - (u * (u + 1)) // 2
    too_big = t > slots
    u[too_big] -= 1
    t = u * n - (u * (u + 1)) // 2
    v = (slots - t) + u + 1
    return u, v.astype(np.int64)


def random_regular(
    n: int,
    d: int,
    *,
    rng: RngLike = None,
    max_retries: int = 200,
    name: str = "",
) -> CSRGraph:
    """A (near-)d-regular random graph via the configuration model.

    ``n * d`` stubs are shuffled and paired; self-loops and multi-edges
    are discarded and the whole pairing retried until a simple d-regular
    matching is found (fast for d ≪ n) or ``max_retries`` pairings have
    been tried, after which the best simple subgraph found is returned
    (still near-regular; generators for Table I analogues only need the
    degree statistics, not exact regularity).
    """
    if n < 0 or d < 0:
        raise GeneratorError("n and d must be non-negative")
    if d >= n:
        raise GeneratorError("d must be < n")
    if (n * d) % 2:
        raise GeneratorError("n * d must be even")
    gen = ensure_rng(rng)
    if n == 0 or d == 0:
        from ..build import empty_graph

        return empty_graph(n, name=name or f"reg_{n}_{d}")
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    best = None
    for _ in range(max_retries):
        gen.shuffle(stubs)
        u, v = stubs[0::2], stubs[1::2]
        ok = u != v
        # Sorted edge keys of the non-loop pairs; a key that differs
        # from both sorted neighbors is an edge paired exactly once.
        key = np.sort(np.minimum(u, v)[ok] * n + np.maximum(u, v)[ok])
        fresh = key[1:] != key[:-1]
        single = np.ones(len(key), dtype=bool)
        single[1:] = fresh
        single[:-1] &= fresh
        simple = int(np.count_nonzero(single))
        if simple == len(u):  # perfect simple pairing
            return from_edges(
                np.column_stack([u, v]), num_vertices=n, name=name or f"reg_{n}_{d}"
            )
        if best is None or simple > best[0]:
            best = (simple, key[single])
    assert best is not None
    return from_edges(
        np.column_stack(np.divmod(best[1], n)),
        num_vertices=n,
        name=name or f"reg_{n}_{d}",
    )


def watts_strogatz(
    n: int,
    k: int,
    beta: float,
    *,
    rng: RngLike = None,
    name: str = "",
) -> CSRGraph:
    """Watts–Strogatz small-world graph: ring lattice + rewiring.

    Each vertex starts joined to its ``k`` nearest ring neighbors
    (``k`` even); each lattice edge is rewired to a random endpoint with
    probability ``beta``.
    """
    if n < 0:
        raise GeneratorError("n must be non-negative")
    if k < 0 or k % 2:
        raise GeneratorError("k must be even and non-negative")
    if k >= n and n > 0:
        raise GeneratorError("k must be < n")
    if not 0.0 <= beta <= 1.0:
        raise GeneratorError("beta must be in [0, 1]")
    gen = ensure_rng(rng)
    if n == 0 or k == 0:
        from ..build import empty_graph

        return empty_graph(n, name=name or f"ws_{n}_{k}")
    base = np.arange(n, dtype=np.int64)
    src = np.concatenate([base for _ in range(k // 2)])
    dst = np.concatenate([(base + j) % n for j in range(1, k // 2 + 1)])
    rewire = gen.random(len(src)) < beta
    dst = dst.copy()
    dst[rewire] = gen.integers(0, n, size=int(rewire.sum()))
    keep = src != dst
    return from_edges(
        np.column_stack([src[keep], dst[keep]]),
        num_vertices=n,
        name=name or f"ws_{n}_{k}",
    )
