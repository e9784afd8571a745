"""Preisach graph of a permutation: builders, bijection, and references.
The tests' oracle routes are in `preisach.oracle_routes`, not imported here."""

from .bijection import (
    Staircase,
    UniquenessViolation,
    nesting_degree,
    nesting_degrees,
    nesting_of_graph,
    phi,
    phi_all,
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
    PreisachGraph,
    VertexBudgetExceeded,
    build_bfs,
    build_forward,
    merge_identity_bottom,
    merge_identity_top,
    verify_lrpm,
)
from .oracles import count_increasing, lis_patience

__version__ = "0.1.0"
