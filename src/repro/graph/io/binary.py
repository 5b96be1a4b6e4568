"""Binary (``.npz``) snapshot format for CSR graphs.

Saving the validated CSR arrays directly skips re-parsing and
re-validation, which matters when the harness re-runs a large sweep.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from ...errors import GraphFormatError
from ..csr import CSRGraph

__all__ = ["save_npz", "load_npz"]

_FORMAT_VERSION = 1


def save_npz(graph: CSRGraph, path: Union[str, Path]) -> None:
    """Serialize ``graph`` to an uncompressed ``.npz`` snapshot.

    The members are stored, not deflated: zlib cost more than the
    generation it caches, and zip's per-member CRC-32 still makes
    :func:`load_npz` reject a damaged entry.  Snapshots written
    compressed (the earlier format) load unchanged.
    """
    np.savez(
        path,
        version=np.int64(_FORMAT_VERSION),
        offsets=graph.offsets,
        indices=graph.indices,
        undirected=np.bool_(graph.undirected),
        name=np.str_(graph.name),
    )


def load_npz(path: Union[str, Path]) -> CSRGraph:
    """Load a snapshot written by :func:`save_npz` (validates on load)."""
    try:
        with np.load(path, allow_pickle=False) as z:
            version = int(z["version"])
            if version != _FORMAT_VERSION:
                raise GraphFormatError(
                    f"unsupported snapshot version {version}"
                )
            return CSRGraph(
                z["offsets"],
                z["indices"],
                undirected=bool(z["undirected"]),
                name=str(z["name"]),
                validate=True,
            )
    except KeyError as exc:
        raise GraphFormatError(f"snapshot missing field {exc}") from None
