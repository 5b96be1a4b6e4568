"""Strict-total-order vertex keys: ``weight * (n + 1) + id``.

Luby-style colorings compare random (or degree) weights between
neighbors; two adjacent vertices drawing one weight would stall the
local-maximum test, so every implementation appends the vertex id:
``weight * (n + 1) + id`` orders by weight first and never ties.  This
module is the one place that encoding is built (and decoded, by
:func:`key_ids`), so every algorithm drawing keys from one generator
state gets bit-identical keys.

The encoding is int64, so it carries a bound: with weights up to
``max_weight`` it needs ``max_weight * (n + 1) + n <= 2**63 - 1``.  For
the random draws (weights in ``[1, 2**31)``) that is exactly
``n + 1 <= 2**32``.  Building keys past the bound raises
:class:`~repro.errors.ColoringError` instead of silently wrapping.
"""

from __future__ import annotations

import numpy as np

from ..errors import ColoringError

__all__ = ["MAX_RANDOM_WEIGHT", "key_ids", "strict_keys", "tie_break"]

#: Largest weight :func:`strict_keys` draws (weights are ``[1, 2**31)``).
MAX_RANDOM_WEIGHT = 2**31 - 1

_INT64_MAX = 2**63 - 1


def _check_bound(n: int, max_weight: int) -> None:
    if max_weight * (n + 1) + n > _INT64_MAX:
        raise ColoringError(
            f"strict keys overflow int64 for n={n}: weights up to "
            f"{max_weight} need max_weight * (n + 1) + n <= 2**63 - 1 "
            f"(random keys need n + 1 <= 2**32)"
        )


def tie_break(weights: np.ndarray, max_weight: int) -> np.ndarray:
    """``weights * (n + 1) + id`` for int64 ``weights`` no larger than
    ``max_weight``."""
    n = len(weights)
    _check_bound(n, max_weight)
    return weights * np.int64(n + 1) + np.arange(n, dtype=np.int64)


def key_ids(keys: np.ndarray, n: int) -> np.ndarray:
    """The vertex ids that strict keys of an ``n``-vertex graph encode:
    ``keys % (n + 1)``, the inverse of :func:`tie_break`'s id term."""
    return keys % np.int64(n + 1)


def strict_keys(n: int, gen: np.random.Generator) -> np.ndarray:
    """Fresh random strict keys: one ``[1, 2**31)`` draw per vertex from
    ``gen``, id tie-broken.  The bound is checked before drawing."""
    _check_bound(n, MAX_RANDOM_WEIGHT)
    return tie_break(
        gen.integers(1, 2**31, size=n, dtype=np.int64), MAX_RANDOM_WEIGHT
    )
