"""The degradation ladder: which cheaper implementation stands in.

Chen et al. ("Efficient and High-quality Sparse Graph Coloring on the
GPU", PAPERS.md) frame coloring variants as a quality/latency
trade-off; the service exploits that under pressure.  When the
requested implementation cannot answer — its circuit breaker is open,
it failed deterministically, or retries were exhausted — the ladder
walks to progressively cheaper implementations instead of dropping the
request, and the response is flagged ``degraded`` with the fallback's
id in ``impl_used``.

The ladder below steps each simulated-GPU implementation toward
``cpu.greedy``, the closed-form sequential baseline that cannot
meaningfully fail: the GraphBLAS family first retreats to its cheapest
member, the multi-phase Gunrock variants to single-iteration
``gunrock.hash``, and everything bottoms out at ``cpu.greedy``.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["FALLBACKS", "ladder"]

#: impl -> the next-cheaper implementation (one step of the ladder).
#: Implementations absent from the map (``cpu.greedy``) have no
#: fallback: exhausting the ladder sheds the request.
FALLBACKS: Dict[str, str] = {
    "graphblas.is": "graphblas.jpl",
    "graphblas.mis": "graphblas.jpl",
    "graphblas.jpl": "cpu.greedy",
    "gunrock.is": "gunrock.hash",
    "gunrock.is_atomics": "gunrock.hash",
    "gunrock.is_single": "gunrock.hash",
    "gunrock.ar": "gunrock.hash",
    "gunrock.hash": "cpu.greedy",
    "naumov.jpl": "cpu.greedy",
    "naumov.cc": "cpu.greedy",
    "gpu.speculative": "cpu.greedy",
    # Distributed variants degrade to their single-device counterpart
    # first (drops the interconnect, keeps the algorithm), then follow
    # its ladder down to greedy.
    "dist.jpl": "naumov.jpl",
    "dist.speculative": "gpu.speculative",
    # CPU ordering variants: the quality orderings cost extra passes;
    # first-fit natural order is the one that cannot meaningfully fail.
    "cpu.dsatur": "cpu.greedy",
    "cpu.gm": "cpu.greedy",
    "cpu.rlf": "cpu.greedy",
    "cpu.greedy_lf": "cpu.greedy",
    "cpu.greedy_sl": "cpu.greedy",
    "cpu.greedy_natural": "cpu.greedy",
}


def ladder(impl: str) -> List[str]:
    """The fallback chain for ``impl``, cheapest last, ``impl`` itself
    excluded; a parameterized distributed id (``dist.jpl@d4``) takes
    the chain of its base id.  Cycle-safe: a miswired FALLBACKS map
    can't loop."""
    current = impl.split("@", 1)[0]
    chain: List[str] = []
    seen = {current}
    while True:
        nxt = FALLBACKS.get(current)
        if nxt is None or nxt in seen:
            return chain
        chain.append(nxt)
        seen.add(nxt)
        current = nxt
