"""Orientation control matching: solvers, reductions, and verification.

Given an undirected graph, orient every edge so that a maximum number of
nodes can be matched by a control matching, a set of arcs in which no
two share a head and no two share a tail. The uniform problem is solved
exactly in polynomial time through maximum simple 2-matchings; the
weighted asymmetric variant is solved exactly at small scale by brute
force over orientations or through a conflict-graph independent-set
reduction, and heuristically by a greedy pass. The package also ships
the constructions connecting the problem to 3-cycle covers and to
independent sets in cubic graphs, each behind a verification suite that
replays it against exhaustive oracles.
"""

from .aocm import solve_aocm_brute, solve_aocm_exact, solve_aocm_greedy
from .errors import ContractError, InputError, OcmatchError, ResourceLimitError
from .fileio import load_instance, parse_instance, save_instance, write_instance
from .generators import (
    random_connected_graph,
    random_digraph,
    random_graph,
    random_orientation,
    random_weighted_instance,
)
from .graphs import (
    AocmInstance,
    Digraph,
    Orientation,
    UndirectedGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_cubic,
    orientation_from_arcs,
    path_graph,
    star_graph,
    uniform_instance,
)
from .matching import (
    AocmSolution,
    ControlMatching,
    driver_count,
    max_control_matching,
    max_weight_control_matching,
)
from .mwis import max_weight_independent_set
from .ocm import (
    TwoMatching,
    max_simple_two_matching,
    solve_ocm,
    two_matching_components,
    two_matching_to_orientation,
)
from .reductions import (
    ALPHA,
    BETA,
    ConflictGraph,
    CycleCover,
    GadgetInstance,
    LReductionReport,
    Lemma3Check,
    VertexCasePartition,
    aocm_to_wis,
    build_gadget_f,
    check_lemma3,
    check_lreduction,
    classify_vertex_cases,
    dcc3_to_aocm,
    decode_from_matching,
    decode_g,
    extract_cycle_cover,
    is_valid_cycle_cover,
    lreduction_report,
    wis_to_aocm_solution,
)
from .verify import (
    SuiteResult,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3,
    verify_lreduction,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BETA",
    "AocmInstance",
    "AocmSolution",
    "ConflictGraph",
    "ContractError",
    "ControlMatching",
    "CycleCover",
    "Digraph",
    "GadgetInstance",
    "InputError",
    "LReductionReport",
    "Lemma3Check",
    "OcmatchError",
    "Orientation",
    "ResourceLimitError",
    "SuiteResult",
    "TwoMatching",
    "UndirectedGraph",
    "VertexCasePartition",
    "aocm_to_wis",
    "build_gadget_f",
    "check_lemma3",
    "check_lreduction",
    "classify_vertex_cases",
    "complete_bipartite",
    "complete_graph",
    "cycle_graph",
    "dcc3_to_aocm",
    "decode_from_matching",
    "decode_g",
    "driver_count",
    "extract_cycle_cover",
    "is_cubic",
    "is_valid_cycle_cover",
    "load_instance",
    "lreduction_report",
    "max_control_matching",
    "max_simple_two_matching",
    "max_weight_control_matching",
    "max_weight_independent_set",
    "orientation_from_arcs",
    "parse_instance",
    "path_graph",
    "random_connected_graph",
    "random_digraph",
    "random_graph",
    "random_orientation",
    "random_weighted_instance",
    "save_instance",
    "solve_aocm_brute",
    "solve_aocm_exact",
    "solve_aocm_greedy",
    "solve_ocm",
    "star_graph",
    "two_matching_components",
    "two_matching_to_orientation",
    "uniform_instance",
    "verify_lemma1",
    "verify_lemma2",
    "verify_lemma3",
    "verify_lreduction",
    "wis_to_aocm_solution",
    "write_instance",
]
