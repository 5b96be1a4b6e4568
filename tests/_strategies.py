"""Shared hypothesis strategies and graph helpers for the test suite.

Kept outside conftest.py so test modules can import them without
relying on pytest's conftest import mechanics (which would collide with
the benchmarks directory's conftest when both suites run together).
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.graph.build import from_edges
from repro.graph.csr import CSRGraph


def random_graph(n: int, p: float, seed: int) -> CSRGraph:
    """Deterministic Erdős–Rényi helper for non-hypothesis tests."""
    gen = np.random.default_rng(seed)
    mask = np.triu(gen.random((n, n)) < p, k=1)
    src, dst = np.nonzero(mask)
    return from_edges(np.column_stack([src, dst]), num_vertices=n)


@st.composite
def edge_lists(draw, max_vertices: int = 24, max_edges: int = 80):
    """Hypothesis strategy: (num_vertices, edge array) of a simple graph."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    edges = np.asarray(
        [(u, v) for u, v in pairs if u != v], dtype=np.int64
    ).reshape(-1, 2)
    return n, edges


@st.composite
def graphs(draw, max_vertices: int = 24, max_edges: int = 80):
    """Hypothesis strategy producing a CSRGraph directly."""
    n, edges = draw(edge_lists(max_vertices=max_vertices, max_edges=max_edges))
    return from_edges(edges, num_vertices=n)


@st.composite
def arbitrary_csr(draw, max_vertices=16, max_degree=6):
    """Any CSR ``(offsets, indices)``: asymmetric, unsorted rows,
    duplicate arcs, self loops."""
    n = draw(st.integers(0, max_vertices))
    degs = draw(st.lists(st.integers(0, max_degree), min_size=n, max_size=n))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degs, out=offsets[1:])
    m = int(offsets[-1])
    indices = np.asarray(
        draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=m, max_size=m)),
        dtype=np.int64,
    )
    return offsets, indices


@st.composite
def symmetric_csr(draw, max_vertices=16, max_degree=6):
    """An :func:`arbitrary_csr` made arc-symmetric: every arc gains its
    reverse and self loops are dropped.  Rows stay unsorted and may
    repeat a neighbor."""
    offsets, indices = draw(arbitrary_csr(max_vertices, max_degree))
    n = len(offsets) - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    src, dst = np.concatenate([src, indices]), np.concatenate([indices, src])
    keep = src != dst
    src, dst = src[keep], dst[keep]
    order = np.argsort(src, kind="stable")
    sym = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=sym[1:])
    return sym, dst[order]


#: The simulated (cost-model-backed) Figure 1 implementations — every
#: registry id that records kernel counters and, when tracing is on, a
#: :class:`repro.trace.Trace`.  ``cpu.greedy`` is excluded: closed-form
#: timing, no cost model, no trace.
TRACED_ALGORITHMS = (
    "graphblas.is",
    "graphblas.jpl",
    "graphblas.mis",
    "gunrock.ar",
    "gunrock.hash",
    "gunrock.is",
    "naumov.cc",
    "naumov.jpl",
)


@st.composite
def traced_runs(draw, max_vertices: int = 20, max_edges: int = 60):
    """(graph, algorithm id, seed) triple for trace property tests."""
    graph = draw(graphs(max_vertices=max_vertices, max_edges=max_edges))
    algo = draw(st.sampled_from(TRACED_ALGORITHMS))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return graph, algo, seed
