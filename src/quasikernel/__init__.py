"""Exact quasi-kernel machinery for small digraphs.

Bitmask digraph core, brute-force solvers, constructive partition pipelines,
blowup reductions between the bound variants, and a sweep harness.

The package namespace holds the solvers, the partition theorems, the sweep
entry points, the digraph type with its parser and mask helpers, and the
exceptions they raise; everything else is imported from its own module.
"""

from .digraph import Digraph, Partition, enumerate_digraphs, iter_bits, mask_of, parse, vertices_of
from .exceptions import (
    BudgetExceededError,
    OracleContractError,
    ParseError,
    PostconditionViolationError,
)
from .harness import ConjectureSpec, merge_reports, sweep
from .reductions import qk_via_ii_oracle
from .solvers import (
    chromatic_number,
    dichromatic_number,
    find_kernel,
    heavy_independent_set,
    kernel_perfect_number,
    large_score,
    max_large_quasi_kernel,
    max_sharp_quasi_kernel,
    min_quasi_kernel,
    sharp_score,
)
from .theorems import (
    large_qk_from_partition,
    quasi_kernel_covering,
    small_qk_from_partition,
    small_qk_with_sources,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ConjectureSpec",
    "Digraph",
    "OracleContractError",
    "ParseError",
    "Partition",
    "PostconditionViolationError",
    "chromatic_number",
    "dichromatic_number",
    "enumerate_digraphs",
    "find_kernel",
    "heavy_independent_set",
    "iter_bits",
    "kernel_perfect_number",
    "large_qk_from_partition",
    "large_score",
    "mask_of",
    "max_large_quasi_kernel",
    "max_sharp_quasi_kernel",
    "merge_reports",
    "min_quasi_kernel",
    "parse",
    "qk_via_ii_oracle",
    "quasi_kernel_covering",
    "sharp_score",
    "small_qk_from_partition",
    "small_qk_with_sources",
    "sweep",
    "vertices_of",
]
