"""Registry mapping implementation ids to coloring callables.

The harness, benches, and examples refer to implementations by the
string ids of DESIGN.md's inventory table (``"gunrock.is"``,
``"graphblas.mis"``, …).  Every registered callable shares the
signature ``f(graph, *, rng=None, device=None, **kwargs) ->
ColoringResult``; CPU algorithms accept (and ignore) ``device`` so the
harness can treat the grid uniformly.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Dict, List, Optional

from .. import backend as _backend
from .. import metrics
from .._rng import RngLike
from ..errors import ColoringError, GraphError
from ..gpusim.device import DeviceSpec
from ..graph.csr import CSRGraph
from .dist import distributed_jpl_coloring, distributed_speculative_coloring
from .gb_coloring import (
    graphblas_is_coloring,
    graphblas_jpl_coloring,
    graphblas_mis_coloring,
)
from .gm import gebremedhin_manne_coloring
from .gr_ar import gunrock_ar_coloring
from .gr_hash import gunrock_hash_coloring
from .gr_is import gunrock_is_coloring
from .greedy import dsatur_coloring, greedy_coloring
from .naumov import naumov_cc_coloring, naumov_jpl_coloring
from .result import ColoringResult
from .rlf import rlf_coloring
from .speculative import speculative_gpu_coloring

__all__ = ["ALGORITHMS", "get_algorithm", "algorithm_names", "run_algorithm"]


def _cpu(fn, *, seeded: bool = True, **fixed):
    """Adapter: drop the ``device`` kwarg CPU algorithms don't take,
    and ``rng`` too for the deterministic ones (``seeded=False``)."""

    def wrapper(graph: CSRGraph, *, rng: RngLike = None, device=None, **kw):
        if seeded:
            kw["rng"] = rng
        return fn(graph, **fixed, **kw)

    wrapper.__doc__ = fn.__doc__
    return wrapper


ALGORITHMS: Dict[str, Callable[..., ColoringResult]] = {
    # -- the paper's evaluation grid (Fig. 1) --------------------------------
    "gunrock.is": gunrock_is_coloring,
    "gunrock.hash": gunrock_hash_coloring,
    "gunrock.ar": gunrock_ar_coloring,
    "graphblas.is": graphblas_is_coloring,
    "graphblas.mis": graphblas_mis_coloring,
    "graphblas.jpl": graphblas_jpl_coloring,
    "naumov.jpl": naumov_jpl_coloring,
    "naumov.cc": naumov_cc_coloring,
    # Random ordering, deliberately: our synthetic analogues are emitted
    # in lexicographic generator order, an artificially greedy-friendly
    # ordering real SuiteSparse matrices don't have.  A random
    # permutation is the faithful analogue of natural-order greedy on
    # the real matrices (and lands within 3% of the paper's
    # greedy-vs-MIS color ratio; see EXPERIMENTS.md).
    "cpu.greedy": _cpu(greedy_coloring, ordering="random"),
    "cpu.greedy_natural": _cpu(greedy_coloring, ordering="natural"),
    # -- Table II variants ----------------------------------------------------
    "gunrock.is_single": functools.partial(gunrock_is_coloring, min_max=False),
    "gunrock.is_atomics": functools.partial(
        gunrock_is_coloring, min_max=False, use_atomics=True
    ),
    # -- CPU references & extensions ------------------------------------------
    "cpu.greedy_lf": _cpu(greedy_coloring, ordering="largest_first"),
    "cpu.greedy_sl": _cpu(greedy_coloring, ordering="smallest_last"),
    "cpu.dsatur": _cpu(dsatur_coloring, seeded=False),
    "cpu.gm": _cpu(gebremedhin_manne_coloring),
    "cpu.rlf": _cpu(rlf_coloring, seeded=False),
    "gpu.speculative": speculative_gpu_coloring,
    # -- distributed (multi-device) variants ----------------------------------
    # Device counts are selected per call (``num_devices=...``) or via
    # the parameterized id form ``dist.jpl@d4`` (see get_algorithm).
    "dist.jpl": distributed_jpl_coloring,
    "dist.speculative": distributed_speculative_coloring,
}

#: ``dist.jpl@d4`` — a registered distributed id with a device count
#: baked in, so string-only surfaces (run_grid, bench suites, the
#: scale harness) can sweep device counts without new plumbing.
_DIST_ID_RE = re.compile(r"^(?P<base>[\w.]+)@d(?P<devices>[1-9]\d*)$")

#: The eight GPU implementations + CPU baseline shown in Figure 1.
FIGURE1_ALGORITHMS: List[str] = [
    "cpu.greedy",
    "graphblas.is",
    "graphblas.jpl",
    "graphblas.mis",
    "gunrock.ar",
    "gunrock.hash",
    "gunrock.is",
    "naumov.cc",
    "naumov.jpl",
]


def algorithm_names() -> List[str]:
    """All registered implementation ids."""
    return list(ALGORITHMS)


def get_algorithm(name: str) -> Callable[..., ColoringResult]:
    """Look up an implementation; raises :class:`ColoringError`.

    Accepts the parameterized form ``<dist-id>@d<N>`` (e.g.
    ``"dist.jpl@d4"``), which resolves to the distributed
    implementation with ``num_devices=N`` bound.
    """
    try:
        return ALGORITHMS[name]
    except KeyError:
        pass
    m = _DIST_ID_RE.match(name)
    if m and m.group("base") in ALGORITHMS and m.group("base").startswith("dist."):
        fn = ALGORITHMS[m.group("base")]
        return functools.partial(fn, num_devices=int(m.group("devices")))
    raise ColoringError(
        f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)} "
        "(distributed ids also accept a '@d<N>' device-count suffix)"
    ) from None


def run_algorithm(
    name: str,
    graph: CSRGraph,
    *,
    rng: RngLike = None,
    device: Optional[DeviceSpec] = None,
    backend=None,
    **kwargs,
) -> ColoringResult:
    """Run a registered implementation by id.

    ``backend`` selects the kernel-execution backend for the run (a
    name, a :class:`~repro.backend.Backend`, or ``None`` for the
    ambient selection — ``REPRO_BACKEND`` or the reference backend);
    the implementation executes with that backend installed as
    :func:`repro.backend.current`.  When tracing is enabled the
    result's trace is labeled here with the algorithm id, graph name,
    and effective backend, so exports are self-describing without each
    implementation stamping its own.  When the metrics registry is
    active the finished result is mirrored into it
    (:func:`repro.metrics.observe_result`) — strictly after the run, so
    metrics can never perturb it.

    Every implementation reads a vertex's neighbors from its own CSR
    row, which lists all of them only when the arc set is symmetric, so
    a directed graph raises :class:`~repro.errors.GraphError` instead of
    coming back with an invalid coloring.
    """
    fn = get_algorithm(name)
    if not graph.undirected:
        raise GraphError(
            f"{name} needs an undirected graph: the colorings scan each "
            "vertex's own CSR row, which misses in-neighbors of a directed "
            f"graph ({graph!r})"
        )
    be = _backend.resolve(backend) if backend is not None else _backend.current()
    with _backend.use(be):
        result = fn(graph, rng=rng, device=device, **kwargs)
    if result.trace is not None:
        result.trace.algorithm = result.algorithm or name
        result.trace.dataset = result.graph_name or graph.name
        result.trace.backend = be.name
    if metrics.active() is not None:
        metrics.observe_result(result, backend=be.name)
    return result
