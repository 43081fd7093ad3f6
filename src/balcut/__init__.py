"""balcut: exact solvers for balanced graph partitioning.

The package bundles four exact solvers (separator DP over tree
decompositions, a vertex-bisection driver that fills one separator table
on the whole graph, a bisection DP over cliquewidth expressions, and a
vertex-cover partitioner for balanced partitioning), brute-force
reference oracles, and a family of reduction-based instance generators.
"""

from .graph import (
    Bipartition,
    DPartition,
    Graph,
    Separation,
    connected_components,
    count_components_after_removal,
    cut_size,
    is_balanced_separator,
    validate_bisection,
)
from .cwcut import solve_bisection_cwd
from .oracle import (
    OracleResult,
    OracleSizeError,
    brute_balanced_partition,
    brute_bisection,
    brute_maxcut,
    brute_vertex_bisection,
)
from .qexpr import clique_qexpr, eval_qexpr
from .reductions import (
    ChoiceGadget,
    ReductionOutput,
    binpacking_to_forest,
    bisect_to_vbisect,
    clique_to_vbisect,
    make_choice_gadget,
    maxcut_cross_compose,
    mcclique_to_bpart,
    weighted_to_unweighted,
)
from .td import TreeDecomposition, exact_treewidth_small, min_fill_decomposition
from .torso import atorso, build_trimmer, minimal_st_separators, torso
from .vbp import solve_vertex_bisection
from .vcpart import solve_balanced_partition_vc

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Bipartition",
    "Separation",
    "DPartition",
    "connected_components",
    "count_components_after_removal",
    "cut_size",
    "is_balanced_separator",
    "validate_bisection",
    "solve_vertex_bisection",
    "solve_bisection_cwd",
    "solve_balanced_partition_vc",
    "TreeDecomposition",
    "exact_treewidth_small",
    "min_fill_decomposition",
    "atorso",
    "torso",
    "build_trimmer",
    "minimal_st_separators",
    "eval_qexpr",
    "clique_qexpr",
    "OracleResult",
    "OracleSizeError",
    "brute_bisection",
    "brute_vertex_bisection",
    "brute_balanced_partition",
    "brute_maxcut",
    "ReductionOutput",
    "ChoiceGadget",
    "clique_to_vbisect",
    "bisect_to_vbisect",
    "maxcut_cross_compose",
    "weighted_to_unweighted",
    "binpacking_to_forest",
    "make_choice_gadget",
    "mcclique_to_bpart",
    "__version__",
]
