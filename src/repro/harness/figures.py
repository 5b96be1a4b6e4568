"""Emitters for the paper's figures (as data series + ASCII rendering).

Every figure of the evaluation section has a regenerator that produces
the same series the paper plots:

* :func:`fig1_series` — Fig. 1a (speedup vs Naumov/JPL per dataset per
  implementation) and Fig. 1b (number of colors, same grid).
* :func:`fig2_series` — Fig. 2a/2b time-quality scatter (runtime vs
  colors) for the Gunrock pair (IS, Hash) and GraphBLAST pair (IS, MIS).
* :func:`fig3_series` — Fig. 3a–d RGG scaling: runtime and colors as a
  function of vertex and edge counts for the best Gunrock and
  GraphBLAST implementations (both IS, per §V-E).

All three degrade gracefully on partial grids: a failed cell renders
as ``"failed"`` (and is excluded from speedups and geomeans) instead
of aborting the figure — the fault-tolerant runner guarantees the
other cells still arrive.  Each regenerator declares only the
parameters it uses itself; every other keyword (``seed``,
``repetitions``, ``jobs``, ``timeout``, ``retries``, ``resume``, …)
passes straight through to :func:`~repro.harness.runner.run_grid`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.registry import FIGURE1_ALGORITHMS
from ..errors import HarnessError
from ..graph.generators.suitesparse import DEFAULT_SCALE_DIV
from . import datasets as ds
from .report import geomean
from .runner import CellResult, run_grid, speedup_vs

__all__ = [
    "fig1_series",
    "fig2_series",
    "fig3_series",
    "FIG2_GUNROCK_PAIR",
    "FIG2_GRAPHBLAST_PAIR",
]

FIG2_GUNROCK_PAIR = ["gunrock.is", "gunrock.hash"]
FIG2_GRAPHBLAST_PAIR = ["graphblas.is", "graphblas.mis"]

#: Rendered in place of a number when the underlying cell failed.
FAILED_MARKER = "failed"


def fig1_series(
    *,
    algorithms: Optional[Sequence[str]] = None,
    datasets: Optional[Sequence[str]] = None,
    scale_div: int = DEFAULT_SCALE_DIV,
    **grid,
) -> Dict:
    """Figure 1: run the full real-world grid.

    Returns ``{"cells", "speedup_rows", "color_rows", "geomean"}`` where
    the row lists are directly printable: one row per dataset with one
    column per implementation (speedup vs naumov.jpl for 1a, color
    count for 1b), and ``geomean`` maps implementation → geometric-mean
    speedup (the paper's 1.3× headline for gunrock.is) over the
    datasets where both the implementation and the baseline succeeded.
    Failed cells render as ``"failed"``; an implementation with no
    surviving cells maps to ``None`` in ``geomean``.
    """
    algos = list(algorithms or FIGURE1_ALGORITHMS)
    names = list(datasets or ds.REAL_WORLD_DATASETS)
    cells = run_grid(names, algos, scale_div=scale_div, **grid)
    try:
        per_algo = speedup_vs(cells, "naumov.jpl")
    except HarnessError:
        per_algo = {}  # baseline failed everywhere: no speedups at all
    speedup_rows: List[Dict] = []
    color_rows: List[Dict] = []
    by_ds_algo = {(c.dataset, c.algorithm): c for c in cells}
    for name in names:
        srow: Dict = {"Dataset": name}
        crow: Dict = {"Dataset": name}
        for a in algos:
            cell = by_ds_algo[(name, a)]
            value = per_algo.get(a, {}).get(name)
            srow[a] = round(value, 3) if value is not None else FAILED_MARKER
            crow[a] = round(cell.colors, 1) if cell.ok else FAILED_MARKER
        speedup_rows.append(srow)
        color_rows.append(crow)
    gmeans = {
        a: geomean(per_algo[a].values()) if per_algo.get(a) else None
        for a in algos
    }
    return {
        "cells": cells,
        "speedup_rows": speedup_rows,
        "color_rows": color_rows,
        "geomean": gmeans,
    }


def fig2_series(
    *,
    datasets: Optional[Sequence[str]] = None,
    scale_div: int = DEFAULT_SCALE_DIV,
    **grid,
) -> Dict:
    """Figure 2: time-quality scatter points.

    Returns ``{"gunrock": rows, "graphblast": rows, "cells": cells}``,
    each row being one (dataset, implementation) point with runtime and
    colors — the scatter the paper uses to show "a more expensive
    implementation … achieve[s] better color counts".  A failed cell's
    point carries ``"failed"`` in place of its numbers.
    """
    names = list(datasets or ds.REAL_WORLD_DATASETS)
    out: Dict = {"cells": []}
    for key, pair in (
        ("gunrock", FIG2_GUNROCK_PAIR),
        ("graphblast", FIG2_GRAPHBLAST_PAIR),
    ):
        cells = run_grid(names, pair, scale_div=scale_div, **grid)
        out["cells"].extend(cells)
        out[key] = [
            {
                "Dataset": c.dataset,
                "Implementation": c.algorithm,
                "Runtime (ms)": round(c.sim_ms, 4) if c.ok else FAILED_MARKER,
                "Colors": round(c.colors, 1) if c.ok else FAILED_MARKER,
            }
            for c in cells
        ]
    return out


def fig3_series(
    *,
    scales: Optional[Sequence[int]] = None,
    repetitions: int = 2,
    cells_out: Optional[List[CellResult]] = None,
    **grid,
) -> List[Dict]:
    """Figure 3: RGG scaling sweep.

    One row per (scale, implementation) carrying vertex count, edge
    count, runtime, and colors — enough to plot all four panels
    (runtime/colors vs vertices/edges).  Implementations are the best
    per framework: the two IS variants (§V-E).  Pass ``cells_out`` to
    additionally receive the raw :class:`CellResult` objects (the CLI
    uses it to detect partial failure).
    """
    scale_list = list(scales or ds.DEFAULT_RGG_SCALES)
    names = [f"rgg_n_2_{s}_s0" for s in scale_list]
    cells = run_grid(
        names,
        ("gunrock.is", "graphblas.is"),
        scale_div=1,
        repetitions=repetitions,
        **grid,
    )
    if cells_out is not None:
        cells_out.extend(cells)
    by_name = dict(zip(names, scale_list))
    return [
        {
            "Scale": by_name[cell.dataset],
            "Implementation": cell.algorithm,
            "Vertices": cell.num_vertices,
            "Edges": cell.num_edges,
            "Runtime (ms)": (
                round(cell.sim_ms, 4) if cell.ok else FAILED_MARKER
            ),
            "Colors": round(cell.colors, 1) if cell.ok else FAILED_MARKER,
        }
        for cell in cells
    ]
