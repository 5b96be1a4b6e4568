"""The round bound of the speculative colorings (``gpu.speculative``
and ``dist.speculative``).

Active vertices enter a round uncolored and first-fit around every
colored neighbor, so a clash joins two active vertices, and the
highest-priority active vertex never loses one.  Every round therefore
finalizes at least one vertex and a run takes at most n rounds.  K_n
reaches the bound: each round only the top-priority vertex survives.
A backend that breaks the argument (a ``conflict_losers`` that never
lets a vertex go) must end in :class:`ColoringError` after n rounds,
not loop forever.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import use
from repro.backend.reference import ReferenceBackend
from repro.core.registry import run_algorithm
from repro.errors import ColoringError
from repro.graph.build import complete_graph, empty_graph

from _strategies import graphs

SPECULATIVE = ("gpu.speculative", "dist.speculative@d1", "dist.speculative@d4")


class _NeverFinal(ReferenceBackend):
    """Every active vertex loses every round, so none is finalized."""

    def __init__(self):
        self.rounds = 0

    def conflict_losers(self, colors, indices, ids, starts, counts, prio):
        self.rounds += 1
        return np.ones(len(ids), dtype=bool)


@pytest.mark.parametrize("impl", SPECULATIVE)
@pytest.mark.parametrize("n", [4, 9, 40])
def test_complete_graph_takes_exactly_n_rounds(impl, n):
    g = complete_graph(n)
    result = run_algorithm(impl, g, rng=3)
    assert result.iterations == n
    assert sorted(result.colors.tolist()) == list(range(1, n + 1))


@pytest.mark.parametrize("impl", ("gpu.speculative", "dist.speculative"))
@settings(max_examples=40, deadline=None)
@given(
    g=graphs(max_vertices=20, max_edges=80),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    data=st.data(),
)
def test_rounds_at_most_n(impl, g, seed, data):
    kwargs = {}
    if impl.startswith("dist."):
        kwargs["num_devices"] = data.draw(
            st.integers(min_value=1, max_value=g.num_vertices), label="devices"
        )
    result = run_algorithm(impl, g, rng=seed, **kwargs)
    assert result.is_complete
    assert 1 <= result.iterations <= g.num_vertices


@pytest.mark.parametrize("impl", SPECULATIVE)
def test_guard_raises_after_n_rounds(impl):
    g = complete_graph(6)
    stub = _NeverFinal()
    with use(stub), pytest.raises(ColoringError, match="failed to converge"):
        run_algorithm(impl, g, rng=0)
    assert stub.rounds == g.num_vertices


def test_empty_graph_takes_no_rounds():
    result = run_algorithm("gpu.speculative", empty_graph(0), rng=0)
    assert result.iterations == 0
    assert np.array_equal(result.colors, np.zeros(0, dtype=np.int64))
