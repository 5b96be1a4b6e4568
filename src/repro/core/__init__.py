"""The paper's contribution: parallel graph-coloring implementations.

Eight GPU implementations (three Gunrock, three GraphBLAS, two Naumov
comparators), the sequential CPU baselines, the CPU Jones–Plassmann
coloring behind the random-vs-LDF ablation, and the Gebremedhin–Manne
extension — all returning :class:`ColoringResult` and validated by
:func:`is_valid_coloring`.  Luby's algorithm is ``graphblas.mis``
(Alg. 3); the registered ids live in :mod:`.registry`.
"""

from .balance import rebalance_coloring
from .dist import (
    distributed_jpl_coloring,
    distributed_speculative_coloring,
)
from .distance2 import distance2_coloring, partial_distance2_coloring
from .exact import chromatic_number, exact_coloring
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
from .jones_plassmann import jones_plassmann_coloring
from .metrics import ColoringMetrics, coloring_metrics
from .naumov import naumov_cc_coloring, naumov_jpl_coloring
from .orderings import ORDERINGS, get_ordering
from .registry import (
    ALGORITHMS,
    FIGURE1_ALGORITHMS,
    algorithm_names,
    get_algorithm,
    run_algorithm,
)
from .result import ColoringResult
from .rlf import rlf_coloring
from .speculative import speculative_gpu_coloring
from .validate import (
    assert_valid_coloring,
    count_conflicts,
    find_conflicts,
    is_valid_coloring,
)

__all__ = [
    "ColoringResult",
    "exact_coloring",
    "chromatic_number",
    "rebalance_coloring",
    "distance2_coloring",
    "partial_distance2_coloring",
    "is_valid_coloring",
    "assert_valid_coloring",
    "count_conflicts",
    "find_conflicts",
    "greedy_coloring",
    "dsatur_coloring",
    "jones_plassmann_coloring",
    "gunrock_is_coloring",
    "gunrock_hash_coloring",
    "gunrock_ar_coloring",
    "graphblas_is_coloring",
    "graphblas_mis_coloring",
    "graphblas_jpl_coloring",
    "naumov_jpl_coloring",
    "naumov_cc_coloring",
    "gebremedhin_manne_coloring",
    "rlf_coloring",
    "ColoringMetrics",
    "coloring_metrics",
    "speculative_gpu_coloring",
    "distributed_jpl_coloring",
    "distributed_speculative_coloring",
    "ORDERINGS",
    "get_ordering",
    "ALGORITHMS",
    "FIGURE1_ALGORITHMS",
    "algorithm_names",
    "get_algorithm",
    "run_algorithm",
]
