"""GraphBLAS colorings: Algorithms 2 (IS), 3 (MIS) and 4 (JPL).

These are line-for-line transliterations of the paper's linear-algebra
pseudocode onto :mod:`repro.graphblas`:

* **Independent Set** (Alg. 2): one static random draw; every iteration
  a ``vxm`` on the (max, ×) semiring finds each candidate's strongest
  neighbor, a ``GT`` eWiseAdd selects the local maxima as the frontier,
  which is colored with the iteration index and pruned from the
  candidate list.
* **Maximal Independent Set** (Alg. 3): Luby's full algorithm as the
  inner loop — keep adding local maxima to the set and removing their
  neighbors (a second, boolean-semiring ``vxm``) until the set is
  maximal, then color it.  "For maximal independent set, the inner loop
  needs to run potentially for many iterations, which causes the
  runtime to increase" (§V-C) — but color quality is the best of all
  implementations (Fig. 1b).
* **Jones-Plassmann** (Alg. 4): like IS, but instead of a fresh color
  per iteration, the frontier receives the *minimum color available to
  all of its vertices*: neighbor colors are scattered into a possible-
  colors array with the ``GxB_scatter`` extension and the first absent
  index is extracted by a masked min-reduction.  Includes the
  host-to-device copy the paper's profiling singles out (§V-C).

Implementation note: where the paper passes ``GrB_NULL`` masks to
``vxm`` in Alg. 2, we pass the candidate vector as a structural mask —
semantically identical (absent candidates contribute nothing under
(max, ×) with non-negative weights) and it is what lets the runtime
skip colored rows, which the GraphBLAST runtime achieves internally by
sparsifying pruned vectors.  ``masked=False`` disables this to
reproduce the unmasked cost for the ``ablate.masking`` bench.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._clock import wall_timer
from .._rng import RngLike, ensure_rng
from ..errors import ColoringError
from ..gpusim.cost_model import CostModel
from ..gpusim.device import DeviceSpec
from ..graph.csr import CSRGraph
from ..graphblas import (
    BOOL,
    BOOLEAN,
    COMPLEMENT,
    Descriptor,
    INT64,
    MAX_TIMES,
    MIN_MONOID,
    Matrix,
    PLUS_MONOID,
    STRUCTURE,
    Vector,
    apply,
    assign,
    binaryop,
    ewise_add,
    gxb_scatter,
    identity_op,
    reduce_scalar,
    vxm,
)
from ..graphblas.ops import vxm_pulls
from ..trace import span_phase, tag_iteration
from .keys import strict_keys, tie_break
from .result import ColoringResult

__all__ = [
    "graphblas_is_coloring",
    "graphblas_mis_coloring",
    "graphblas_jpl_coloring",
]

_STRUCT = Descriptor(mask_structure=True)
_COMP_STRUCT_REPLACE = Descriptor(
    mask_complement=True, mask_structure=True, replace=True
)


def _init_weights(n: int, gen, *, degrees: Optional[np.ndarray] = None) -> Vector:
    """A dense candidate vector of strict keys (Alg. 2 lines 3–5).

    With ``degrees`` given, keys are degree-major (§VI's largest-degree-
    first hypothesis: "random weight initialization will make it more
    likely a node with few neighbors is colored rather than a node with
    many neighbors"); otherwise uniform random.  Vertex ids break ties
    either way.
    """
    if degrees is None:
        return Vector.from_dense(strict_keys(n, gen))
    base = np.asarray(degrees, dtype=np.int64) + 1
    return Vector.from_dense(tie_break(base, int(base.max(initial=1))))


def _row_lanes(A: Matrix) -> np.ndarray:
    """The row (thread) owning each stored entry of ``A``."""
    return np.repeat(np.arange(A.nrows, dtype=np.int64), A.row_degrees())


def _find_frontier(
    weight: Vector,
    A: Matrix,
    cost: Optional[CostModel],
    *,
    masked: bool,
) -> Vector:
    """Alg. 2 lines 8–9: local maxima of the candidate set.

    ``frontier[v]`` is true when v's weight beats the max weight among
    its candidate neighbors (vacuously true when it has none).
    """
    n = weight.size
    trace = cost.trace if cost is not None else None
    with span_phase(trace, "find_frontier"):
        max_v = Vector.new(INT64, n)
        if masked:
            vxm(max_v, weight, None, MAX_TIMES, weight, A, _STRUCT, cost=cost, name="vxm_max")
        else:
            # Unmasked execution treats the candidate vector as dense (the
            # runtime cannot skip colored rows), so the kernel touches every
            # stored arc — the work §III-A1 says masking avoids.  Results
            # are identical; only the charged cost differs.
            vxm(max_v, None, None, MAX_TIMES, weight, A, _STRUCT, cost=None, name="vxm_max")
            if cost is not None:
                with span_phase(trace, "vxm_max"):
                    cost.charge_gb_overhead(name="vxm_max.dispatch")
                    cost.charge_vxm(A.nvals, n, name="vxm_max")
                san = cost.sanitizer
                if san is not None:
                    # The op ran uncharged (cost=None) so it did not record
                    # itself; certify the direction it ran here.
                    widx = np.flatnonzero(weight.present)
                    push_edges = int(A.row_degrees()[widx].sum())
                    if vxm_pulls(A, MAX_TIMES, push_edges):
                        rows = _row_lanes(A)
                        with san.kernel("vxm_max") as k:
                            # Row pull: each row's thread gathers its own
                            # neighbors into its own output slot.
                            k.read("u@vxm_max", A.indices, lane=rows)
                            k.write("out@vxm_max", rows, lane=rows)
                    else:
                        with san.kernel("vxm_max") as k:
                            # Push scatter: a cross-lane max reduction.
                            k.read("u@vxm_max", widx, lane=widx)
                            k.write(
                                "out@vxm_max",
                                np.flatnonzero(max_v.present),
                                reduction=True,
                            )
        frontier = Vector.new(BOOL, n)
        ewise_add(
            frontier, None, None, binaryop.GT, weight, max_v, cost=cost, name="frontier_gt"
        )
        if not masked:
            # Without the output mask, max_v has entries at colored vertices
            # too; restrict the frontier to actual candidates.
            frontier.present &= weight.present
        frontier.prune_zeros()
        return frontier


def graphblas_is_coloring(
    graph: CSRGraph,
    *,
    masked: bool = True,
    weights: str = "random",
    rng: RngLike = None,
    device: Optional[DeviceSpec] = None,
) -> ColoringResult:
    """Independent-set coloring in linear algebra (Algorithm 2).

    ``weights="degree"`` replaces the Monte-Carlo draw with
    largest-degree-first priorities — the §VI future-work variant the
    ``ablate.ordering`` bench evaluates on power-law graphs.
    """
    if weights not in ("random", "degree"):
        raise ColoringError(f"unknown weights scheme {weights!r}")
    timer = wall_timer()
    n = graph.num_vertices
    gen = ensure_rng(rng)
    cost = CostModel(device)
    A = Matrix.from_graph(graph, INT64)

    C = Vector.new(INT64, n)
    assign(C, None, None, 0, cost=cost, name="init_colors")  # line 3
    weight = _init_weights(
        n, gen, degrees=graph.degrees if weights == "degree" else None
    )  # lines 4–5 (GrB_apply set_random)
    cost.charge_gb_overhead(name="apply.dispatch")
    cost.charge_map(n, name="set_random")

    iterations = 0
    for color in range(1, n + 2):  # line 6
        tag_iteration(cost.trace, color - 1)
        with span_phase(cost.trace, "superstep"):
            frontier = _find_frontier(weight, A, cost, masked=masked)  # 8–9
            succ = int(reduce_scalar(PLUS_MONOID, frontier, cost=cost, name="succ"))  # 11
            if succ == 0:  # lines 13–15
                break
            iterations += 1
            assign(C, frontier, None, color, cost=cost, name="assign_color")  # 17
            assign(weight, frontier, None, 0, cost=cost, name="drop_colored")  # 19
            cost.charge_sync(name="iter_sync")
    else:
        raise ColoringError("graphblas.is failed to converge")

    return ColoringResult(
        colors=C.to_dense().astype(np.int64),
        algorithm="graphblas.is" + ("" if masked else "[unmasked]"),
        graph_name=graph.name,
        iterations=iterations,
        sim_ms=cost.total_ms,
        wall_s=timer.elapsed_s(),
        counters=cost.counters,
        trace=cost.trace,
    )


def _mis_inner(
    weight: Vector,
    A: Matrix,
    cost: Optional[CostModel],
    *,
    uncolored_arcs: int,
) -> Vector:
    """Algorithm 3: grow the independent set until maximal.

    Consumes ``weight`` (the candidate list); returns the boolean MIS
    membership vector.  The neighbor-removal vxm (lines 19–20) is
    charged over all uncolored rows rather than its masked minimum:
    GraphBLAST's boolean-semiring path does not work-skip there, which
    is exactly what the paper's profiling observes — "a second call to
    GrB_vxm ends up taking nearly 50% of the runtime" (§V-C).
    """
    n = weight.size
    trace = cost.trace if cost is not None else None
    with span_phase(trace, "mis_inner"):
        mis = Vector.new(BOOL, n)
        assign(mis, None, None, 0, cost=cost, name="init_mis")  # line 3
        for _ in range(n + 1):
            frontier = _find_frontier(weight, A, cost, masked=True)  # lines 6–8
            succ = int(reduce_scalar(PLUS_MONOID, frontier, cost=cost, name="mis_succ"))
            if succ == 0:  # lines 14–17
                return mis
            assign(mis, frontier, None, 1, cost=cost, name="mis_add")  # line 10
            assign(weight, frontier, None, 0, cost=cost, name="mis_drop")  # line 12
            # Lines 18–20: remove the new members' neighbors from candidacy.
            nbrs = Vector.new(BOOL, n)
            vxm(nbrs, weight, None, BOOLEAN, frontier, A, _STRUCT, cost=None, name="vxm_nbr")
            if cost is not None:
                with span_phase(trace, "vxm_nbr"):
                    cost.charge_gb_overhead(name="vxm_nbr.dispatch")
                    cost.charge_vxm(uncolored_arcs, frontier.nvals, name="vxm_nbr")
                san = cost.sanitizer
                if san is not None:
                    # Charged manually (no work-skipping, §V-C), so record
                    # the direction the boolean-semiring op ran manually too.
                    fidx = np.flatnonzero(frontier.present)
                    push_edges = int(A.row_degrees()[fidx].sum())
                    if vxm_pulls(A, BOOLEAN, push_edges):
                        rows = _row_lanes(A)
                        with san.kernel("vxm_nbr") as k:
                            # Row pull: each row's thread gathers its own
                            # neighbors into its own output slot.
                            k.read("u@vxm_nbr", A.indices, lane=rows)
                            k.write("out@vxm_nbr", rows, lane=rows)
                    else:
                        with san.kernel("vxm_nbr") as k:
                            # Push scatter: a cross-lane logical-or reduction.
                            k.read("u@vxm_nbr", fidx, lane=fidx)
                            k.write(
                                "out@vxm_nbr",
                                np.flatnonzero(nbrs.present),
                                reduction=True,
                            )
            assign(weight, nbrs, None, 0, cost=cost, name="drop_nbrs")
            cost.charge_sync(name="mis_inner_sync")
    raise ColoringError("MIS inner loop failed to converge")


def graphblas_mis_coloring(
    graph: CSRGraph,
    *,
    rng: RngLike = None,
    device: Optional[DeviceSpec] = None,
) -> ColoringResult:
    """Maximal-independent-set (full Luby) coloring (Algorithm 3).

    Each outer iteration draws fresh random weights over the uncolored
    vertices, extracts one *maximal* independent set, and colors it.
    """
    timer = wall_timer()
    n = graph.num_vertices
    gen = ensure_rng(rng)
    cost = CostModel(device)
    A = Matrix.from_graph(graph, INT64)

    C = Vector.new(INT64, n)
    assign(C, None, None, 0, cost=cost, name="init_colors")
    uncolored = np.ones(n, dtype=bool)

    iterations = 0
    for color in range(1, n + 2):
        if not uncolored.any():
            break
        iterations += 1
        tag_iteration(cost.trace, color - 1)
        with span_phase(cost.trace, "superstep"):
            # Fresh Monte-Carlo draw restricted to the uncolored vertices.
            weight = _init_weights(n, gen)
            weight.present &= uncolored
            cost.charge_gb_overhead(name="apply.dispatch")
            cost.charge_map(int(uncolored.sum()), name="set_random")
            uncolored_arcs = int(A.row_degrees()[uncolored].sum())
            mis = _mis_inner(weight, A, cost, uncolored_arcs=uncolored_arcs)
            assign(C, mis, None, color, cost=cost, name="assign_color")
            uncolored &= ~mis.mask_array()
            cost.charge_sync(name="iter_sync")
    else:
        raise ColoringError("graphblas.mis failed to converge")

    return ColoringResult(
        colors=C.to_dense().astype(np.int64),
        algorithm="graphblas.mis",
        graph_name=graph.name,
        iterations=iterations,
        sim_ms=cost.total_ms,
        wall_s=timer.elapsed_s(),
        counters=cost.counters,
        trace=cost.trace,
    )


def _jpl_min_color(
    frontier: Vector,
    C: Vector,
    A: Matrix,
    colors_arr: Vector,
    ascending: Vector,
    cost: Optional[CostModel],
) -> int:
    """Algorithm 4: minimum color available to the whole frontier.

    The per-color scan — clear the possible-colors workspace, scatter
    the neighbors' colors into it, mask the complement against the
    ascending array, min-reduce — is computed directly over the small
    set of colors actually in use instead of materializing the three
    O(n)-sized intermediate vectors the GraphBLAS formulation walks
    through.  The simulated kernels are unchanged: every cost charge
    below mirrors, operation for operation and element count for
    element count, what :func:`_jpl_min_color_ops` (the literal
    transliteration, kept as the test reference) would charge, so
    ``sim_ms`` is bit-identical alongside the returned color.
    """
    n = frontier.size
    trace = cost.trace if cost is not None else None
    with span_phase(trace, "jpl_min_color"):
        # Line 3: which colored vertices are adjacent to the frontier.
        nbrs = Vector.new(BOOL, n)
        vxm(nbrs, C, None, BOOLEAN, frontier, A, _STRUCT, cost=cost, name="jpl_vxm_nbr")
        # Line 5 (eWiseMult SECOND): the colors of those neighbors.
        both = nbrs.present & C.present
        used_positions = C.values[both].astype(np.int64, copy=False)
        # Lines 7–14 on the used-color range only.  Every scattered position
        # is <= maxv, so index maxv + 1 is always absent and the argmin-style
        # scan below always terminates inside the small window.
        maxv = int(used_positions.max(initial=0))
        present_mask = np.zeros(maxv + 2, dtype=bool)
        present_mask[used_positions] = True
        present_mask[0] = True  # color 0 is reserved for "uncolored"
        min_color = int(np.flatnonzero(~present_mask)[0])
        if cost is not None:
            with span_phase(trace, "jpl_nbr_colors"):
                cost.charge_gb_overhead(name="jpl_nbr_colors.dispatch")
                cost.charge_map(int(both.sum()), name="jpl_nbr_colors")
            # The workspace clear (a full-width GrB_assign) and the
            # host-to-device fill of the used prefix (§V-C).
            with span_phase(trace, "jpl_clear"):
                cost.charge_gb_overhead(name="jpl_clear.dispatch")
                cost.charge_map(colors_arr.size, name="jpl_clear")
                used = int(C.values.max(initial=0)) + 2
                cost.charge_host_transfer(4 * used, name="jpl_h2d_fill")
            with span_phase(trace, "jpl_scatter"):
                cost.charge_gb_overhead(name="jpl_scatter.dispatch")
                cost.charge_map(len(used_positions), name="jpl_scatter")
            san = cost.sanitizer
            if san is not None:
                # Mirror of the GxB_scatter the literal formulation issues
                # (several neighbors may share a color slot; idempotent
                # atomic store — same declaration gxb_scatter itself makes).
                with san.kernel("jpl_scatter") as k:
                    k.write("colors_arr@jpl_scatter", used_positions, atomic=True)
            # Masked identity over the ascending array, then the min-reduce
            # over the entries surviving the complement mask.
            with span_phase(trace, "jpl_mask_unused"):
                cost.charge_gb_overhead(name="jpl_mask_unused.dispatch")
                cost.charge_map(ascending.nvals, name="jpl_mask_unused")
            with span_phase(trace, "jpl_min"):
                cost.charge_gb_overhead(name="jpl_min.dispatch")
                cost.charge_reduce(
                    colors_arr.size - int(present_mask.sum()), name="jpl_min"
                )
        return min_color


def _jpl_min_color_ops(
    frontier: Vector,
    C: Vector,
    A: Matrix,
    colors_arr: Vector,
    ascending: Vector,
    cost: Optional[CostModel],
) -> int:
    """The literal GraphBLAS-operation chain for the Alg. 4 color scan.

    Reference implementation for :func:`_jpl_min_color`; the test suite
    checks both return the same color *and* charge the same cost.
    """
    n = frontier.size
    # Line 3: which colored vertices are adjacent to the frontier.
    nbrs = Vector.new(BOOL, n)
    vxm(nbrs, C, None, BOOLEAN, frontier, A, _STRUCT, cost=cost, name="jpl_vxm_nbr")
    # Line 5: their colors (intersection keeps C's values).
    ncol = Vector.new(INT64, n)
    from ..graphblas import ewise_mult

    ewise_mult(
        ncol, None, None, binaryop.SECOND, nbrs, C, cost=cost, name="jpl_nbr_colors"
    )
    # Line 7: clear the possible-colors array.  The paper implemented
    # this clear as a cudaMemcpyHostToDevice, which its profiling calls
    # out (§V-C); charge that transfer.
    assign(colors_arr, None, None, 0, cost=cost, name="jpl_clear")
    if cost is not None:
        # The copied region only spans the colors in existence so far
        # (the real array was sized max_colors, not n).
        used = int(C.values.max(initial=0)) + 2
        cost.charge_host_transfer(4 * used, name="jpl_h2d_fill")
    # Line 9: scatter used colors.
    gxb_scatter(colors_arr, ncol, value=1, cost=cost, name="jpl_scatter")
    # Line 12 equivalent: color 0 is reserved for "uncolored".
    colors_arr.set_element(0, 1)
    # Lines 10–14: smallest index absent from colors_arr.
    min_arr = Vector.new(INT64, colors_arr.size)
    apply(
        min_arr,
        colors_arr,
        None,
        identity_op(),
        ascending,
        _COMP_STRUCT_REPLACE,
        cost=cost,
        name="jpl_mask_unused",
    )
    return int(reduce_scalar(MIN_MONOID, min_arr, cost=cost, name="jpl_min"))


def graphblas_jpl_coloring(
    graph: CSRGraph,
    *,
    rng: RngLike = None,
    device: Optional[DeviceSpec] = None,
) -> ColoringResult:
    """Jones-Plassmann coloring in linear algebra (Algorithm 4).

    The frontier selection is Alg. 2's; the color assigned each
    iteration is the minimum color unused by any neighbor of the
    frontier, so earlier colors get reused and the final count beats
    plain IS (Fig. 1b) at roughly double the per-iteration cost
    (Fig. 1a / §V-C).
    """
    timer = wall_timer()
    n = graph.num_vertices
    gen = ensure_rng(rng)
    cost = CostModel(device)
    A = Matrix.from_graph(graph, INT64)

    C = Vector.new(INT64, n)
    assign(C, None, None, 0, cost=cost, name="init_colors")
    weight = _init_weights(n, gen)
    cost.charge_gb_overhead(name="apply.dispatch")
    cost.charge_map(n, name="set_random")

    # Possible-colors workspace: any min-available color is at most the
    # number of colors already in use plus one, itself bounded by the
    # iteration count; n + 2 is always sufficient.
    colors_arr = Vector.new(INT64, n + 2)
    ascending = Vector.from_dense(np.arange(n + 2, dtype=np.int64))

    iterations = 0
    for it in range(1, n + 2):
        tag_iteration(cost.trace, it - 1)
        with span_phase(cost.trace, "superstep"):
            frontier = _find_frontier(weight, A, cost, masked=True)
            succ = int(reduce_scalar(PLUS_MONOID, frontier, cost=cost, name="succ"))
            if succ == 0:
                break
            iterations += 1
            min_color = _jpl_min_color(frontier, C, A, colors_arr, ascending, cost)
            assign(C, frontier, None, min_color, cost=cost, name="assign_color")
            assign(weight, frontier, None, 0, cost=cost, name="drop_colored")
            cost.charge_sync(name="iter_sync")
    else:
        raise ColoringError("graphblas.jpl failed to converge")

    return ColoringResult(
        colors=C.to_dense().astype(np.int64),
        algorithm="graphblas.jpl",
        graph_name=graph.name,
        iterations=iterations,
        sim_ms=cost.total_ms,
        wall_s=timer.elapsed_s(),
        counters=cost.counters,
        trace=cost.trace,
    )
