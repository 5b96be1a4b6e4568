"""The result type every coloring algorithm returns.

Colors are positive integers (1-based); 0 means *uncolored* — the
paper's ``invalidColor`` sentinel (Alg. 5 line 5).  A completed run
returns a fully colored array; partially colored arrays only appear
mid-algorithm or in failure-injection tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..gpusim.counters import SimCounters
from ..trace import Trace

__all__ = ["ColoringResult"]


@dataclass
class ColoringResult:
    """Output of one coloring run.

    Attributes
    ----------
    colors:
        ``int64[n]`` with colors ≥ 1 (0 = uncolored).
    algorithm:
        Registry id of the implementation (e.g. ``"gunrock.is"``).
    graph_name:
        Dataset label the run used.
    iterations:
        Outer bulk-synchronous iterations executed.
    sim_ms:
        Simulated milliseconds charged to the cost model (the paper's
        "elapsed time"); 0 for algorithms run without a cost model.
    wall_s:
        Host wall-clock seconds of the simulation itself (not
        comparable to the paper; tracked for regressions).
    counters:
        Full kernel-level accounting, when a cost model was attached.
    trace:
        Structured :class:`~repro.trace.Trace` of the run when tracing
        was enabled (``REPRO_TRACE=1`` / ``run_grid(trace=True)``);
        ``None`` otherwise, and always ``None`` for ``cpu.greedy``
        (closed-form timing, no cost model).
    """

    colors: np.ndarray
    algorithm: str = ""
    graph_name: str = ""
    iterations: int = 0
    sim_ms: float = 0.0
    wall_s: float = 0.0
    counters: Optional[SimCounters] = None
    trace: Optional[Trace] = None

    @property
    def num_vertices(self) -> int:
        return len(self.colors)

    @property
    def num_colors(self) -> int:
        """Number of distinct colors used (the paper's quality metric)."""
        colors = self.colors
        top = int(colors.max(initial=0))
        if top <= 0:
            return 0
        dense = colors.dtype.kind == "i" and top <= 2 * colors.size
        if dense and colors.min() >= 0:
            # Dense ids (the usual 1..k): count the ids present.
            return int(np.count_nonzero(np.bincount(colors)[1:]))
        colored = np.sort(colors[colors > 0])
        return int(1 + np.count_nonzero(colored[1:] != colored[:-1]))

    @property
    def max_color(self) -> int:
        """Largest color id assigned (≥ num_colors; equal when dense)."""
        return int(self.colors.max(initial=0))

    @property
    def num_uncolored(self) -> int:
        return int((self.colors == 0).sum())

    @property
    def is_complete(self) -> bool:
        """True when every vertex received a color."""
        return self.num_uncolored == 0

    def normalized(self) -> np.ndarray:
        """Colors remapped onto ``1..num_colors`` preserving order
        (uncolored stays 0).  Useful for downstream apps that index
        arrays by color."""
        out = np.zeros_like(self.colors)
        colored = self.colors > 0
        if colored.any():
            uniq, inv = np.unique(self.colors[colored], return_inverse=True)
            out[colored] = inv + 1
        return out

    def color_class_sizes(self) -> np.ndarray:
        """``sizes[c-1]`` = number of vertices with normalized color c."""
        norm = self.normalized()
        k = self.num_colors
        return np.bincount(norm[norm > 0] - 1, minlength=k)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.algorithm or 'coloring'} on {self.graph_name or 'graph'}: "
            f"{self.num_colors} colors, {self.iterations} iterations, "
            f"{self.sim_ms:.3f} sim-ms"
        )
