"""Exact solver and verification toolkit for domination colorings.

A domination coloring is a proper vertex coloring in which every vertex
dominates at least one color class and every color class is dominated by
at least one vertex; chi_dd is the least number of classes.  The package
computes chi_dd exactly on small graphs, applies the graph operations
whose effect on chi_dd is bounded (removal, contraction, subdivision,
cycle extending), runs the constructive recolorings behind those bounds,
and verifies the bounds exhaustively over small-graph corpora.
"""

from .coloring import (
    Coloring,
    DominationDiagnostic,
    classes_dominated_by,
    dominators_of_class,
    is_domination_coloring,
    is_proper,
)
from .graph import (
    CycleSpec,
    Graph,
    Graph6Error,
    bridges,
    canonical_form,
    cut_vertices,
    enumerate_connected_graphs,
    enumerate_cycles,
    from_edges,
    is_connected,
    iter_bits,
    make_named,
    parse_graph6,
    to_graph6,
)
from .harness import (
    CorpusReport,
    HarnessConfig,
    SkippedCheck,
    TheoremCheck,
    check_theorem,
    corpus_up_to,
    run_corpus,
    theorem_instances,
)
from .ops import (
    SubdivisionMap,
    contract_edge,
    contract_vertices,
    contraction_index_map,
    cycle_extend,
    removal_index_map,
    remove_edge,
    remove_vertex,
    subdivide,
)
from .solver import (
    DEFAULT_BUDGET,
    ORACLE_MAX_ORDER,
    BudgetExceeded,
    SolveResult,
    chi_dd_exact,
    chi_dd_oracle,
    find_domination_coloring,
    path_chi_dd,
)
from .witnesses import (
    EXTEND_KINDS,
    REDUCE_KINDS,
    GapReport,
    WitnessOutcome,
    extend_witness,
    reduce_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Coloring",
    "CorpusReport",
    "CycleSpec",
    "DEFAULT_BUDGET",
    "DominationDiagnostic",
    "EXTEND_KINDS",
    "GapReport",
    "Graph",
    "Graph6Error",
    "HarnessConfig",
    "ORACLE_MAX_ORDER",
    "REDUCE_KINDS",
    "SkippedCheck",
    "SolveResult",
    "SubdivisionMap",
    "TheoremCheck",
    "WitnessOutcome",
    "bridges",
    "canonical_form",
    "check_theorem",
    "chi_dd_exact",
    "chi_dd_oracle",
    "classes_dominated_by",
    "contract_edge",
    "contract_vertices",
    "contraction_index_map",
    "corpus_up_to",
    "cut_vertices",
    "cycle_extend",
    "dominators_of_class",
    "enumerate_connected_graphs",
    "enumerate_cycles",
    "extend_witness",
    "find_domination_coloring",
    "from_edges",
    "is_connected",
    "is_domination_coloring",
    "is_proper",
    "iter_bits",
    "make_named",
    "parse_graph6",
    "path_chi_dd",
    "reduce_witness",
    "removal_index_map",
    "remove_edge",
    "remove_vertex",
    "run_corpus",
    "subdivide",
    "theorem_instances",
    "to_graph6",
]
