"""Emitters for the paper's two tables.

* :func:`table1_rows` — the dataset-description table, printing the
  paper-reported full-scale statistics side by side with the measured
  statistics of our regenerated (scaled) analogues.
* :func:`table2_rows` — the Gunrock optimization ladder on the
  G3_circuit analogue: AR baseline → hash → IS with atomics → IS
  without atomics → min-max IS, each with elapsed simulated ms and the
  step-over-step speedup exactly as Table II formats it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .._rng import DEFAULT_SEED
from ..graph.generators.suitesparse import DEFAULT_SCALE_DIV
from ..graph.stats import graph_stats
from . import datasets as ds
from .runner import CellResult, run_grid

__all__ = ["table1_rows", "table2_rows", "TABLE2_LADDER", "PAPER_TABLE2_MS"]


def table1_rows(
    *,
    scale_div: int = DEFAULT_SCALE_DIV,
    seed: int = DEFAULT_SEED,
    include_rgg_scales: Optional[List[int]] = None,
    diameter_samples: int = 32,
) -> List[Dict]:
    """Regenerate Table I: one row per dataset.

    Columns pair the paper's reported numbers (``paper *``) with the
    measured statistics of the scaled synthetic analogue actually used
    in our experiments.  RGG rows (type ``gu``) have no paper analogue
    mismatch — they are true RGGs, only smaller.
    """
    rows: List[Dict] = []
    for name in ds.REAL_WORLD_DATASETS:
        paper = ds.paper_stats(name)
        graph = ds.load(name, scale_div=scale_div, seed=seed)
        stats = graph_stats(
            graph, diameter_samples=diameter_samples, rng=seed
        )
        assert paper is not None
        rows.append(
            {
                "Dataset": name,
                "paper V": paper.vertices,
                "paper E": paper.edges,
                "paper deg": paper.avg_degree,
                "paper diam": f"{paper.diameter}{'*' if paper.diameter_is_estimate else ''}",
                "Type": paper.type_tag,
                "V": stats.num_vertices,
                "E": stats.num_edges,
                "Avg. Degree": round(stats.avg_degree, 2),
                "Diameter": f"{stats.diameter_estimate}{'*' if stats.diameter_is_estimate else ''}",
            }
        )
    for scale in include_rgg_scales or []:
        graph = ds.load_rgg(scale, seed=seed)
        stats = graph_stats(graph, diameter_samples=diameter_samples, rng=seed)
        rows.append(
            {
                "Dataset": graph.name,
                "paper V": 1 << scale,
                "paper E": "",
                "paper deg": "",
                "paper diam": "",
                "Type": "gu",
                "V": stats.num_vertices,
                "E": stats.num_edges,
                "Avg. Degree": round(stats.avg_degree, 2),
                "Diameter": f"{stats.diameter_estimate}{'*' if stats.diameter_is_estimate else ''}",
            }
        )
    return rows


#: The Table II ladder: (row label, registry id) in the paper's order.
TABLE2_LADDER = [
    ("Baseline (Advance-Reduce)", "gunrock.ar"),
    ("Hash Color", "gunrock.hash"),
    ("Independent Set with Atomics", "gunrock.is_atomics"),
    ("Independent Set without Atomics", "gunrock.is_single"),
    ("Min-Max Independent Set", "gunrock.is"),
]

#: The paper's measured milliseconds for each Table II row (K40c,
#: full-scale G3_circuit) — reported alongside ours for comparison.
PAPER_TABLE2_MS = {
    "Baseline (Advance-Reduce)": 656.0,
    "Hash Color": 17.21,
    "Independent Set with Atomics": 13.67,
    "Independent Set without Atomics": 11.15,
    "Min-Max Independent Set": 6.68,
}


def table2_rows(
    *,
    scale_div: int = DEFAULT_SCALE_DIV,
    cells_out: Optional[List[CellResult]] = None,
    **grid,
) -> List[Dict]:
    """Regenerate Table II on the G3_circuit analogue.

    The ``Speedup`` column follows the paper's convention: each row's
    speedup over the *previous* row (the AR baseline shows "—").  A
    failed rung renders ``"failed"`` for its measurement and "—" for
    the step speedups on either side of it; the other rungs still
    print.  Pass ``cells_out`` to receive the raw cells (the CLI uses
    it to detect partial failure).  Every other keyword (``seed``,
    ``repetitions``, ``jobs``, ``timeout``, …) passes straight through
    to :func:`~repro.harness.runner.run_grid`.
    """
    cells = run_grid(
        ["G3_circuit"],
        [algo for _, algo in TABLE2_LADDER],
        scale_div=scale_div,
        **grid,
    )
    if cells_out is not None:
        cells_out.extend(cells)
    rows: List[Dict] = []
    prev_ms: Optional[float] = None
    prev_label: Optional[str] = None
    for (label, _algo), cell in zip(TABLE2_LADDER, cells):
        speed = (
            f"{prev_ms / cell.sim_ms:.2f}x"
            if cell.ok and prev_ms is not None
            else "—"
        )
        paper_ms = PAPER_TABLE2_MS[label]
        paper_speed = (
            "—"
            if prev_label is None
            else f"{PAPER_TABLE2_MS[prev_label] / paper_ms:.2f}x"
        )
        rows.append(
            {
                "Optimization": label,
                "Performance (ms)": (
                    round(cell.sim_ms, 3) if cell.ok else "failed"
                ),
                "Speedup": speed,
                "paper ms": paper_ms,
                "paper speedup": paper_speed,
                "Colors": cell.colors if cell.ok else "failed",
            }
        )
        prev_ms = cell.sim_ms if cell.ok else None
        prev_label = label
    return rows
