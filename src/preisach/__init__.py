"""Preisach graph of a permutation: builders, bijection, and oracles."""

from .bijection import (
    BlockDecomposition,
    Path,
    Staircase,
    UniquenessViolation,
    alternation_degrees,
    block_decomposition,
    increasing_subsequence,
    nesting_degree,
    nesting_degree_oracle,
    nesting_degrees,
    nesting_of_graph,
    phi,
    phi_all,
    phi_inverse,
    phi_inverse_constructive,
    shortest_path,
    shortest_path_tree,
)
from .core import (
    Permutation,
    SpinConfig,
    SpinIndex,
    alpha,
    apply_D,
    apply_U,
    i_minus,
    i_plus,
    invert,
    make_permutation,
    omega,
)
from .graph import (
    DEFAULT_MAX_VERTICES,
    Cycle,
    EdgeKind,
    LabeledEdge,
    PreisachGraph,
    VertexBudgetExceeded,
    build_bfs,
    build_forward,
    check_absorption,
    check_lrpm,
    cycle_of,
    d_orbit,
    decompose,
    edge_label,
    loop_vertices,
    merge_identity_bottom,
    merge_identity_top,
    u_orbit,
    verify_lrpm,
)
from .oracles import (
    ItemBudgetExceeded,
    count_increasing,
    enumerate_increasing,
    lis_bruteforce,
    lis_patience,
)

__version__ = "0.1.0"
