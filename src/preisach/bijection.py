"""Shortest paths, switch-back blocks, and the vertex/subsequence bijection.

Every vertex has a unique shortest path from alpha.  Reading that path as
maximal runs of same-kind edges gives an alternating block structure whose
first block always goes up.  The states where the kind changes, plus the
destination, are the switch-back states; collecting the labels of the edges
entering them and reversing the list yields an increasing subsequence of the
driving permutation.  This map is a bijection between vertices and the
increasing subsequences (the empty one included), and the subsequence length
equals the nesting degree of the vertex: the minimal number of alternating
blocks needed to reach it.

`phi_all` labels every vertex in one breadth-first pass over the graph's
successor maps read as vertex masks (`_phi_labels`; an edge's label is the
one bit its endpoints' masks differ in).  `shortest_path` and
`block_decomposition` are the path-by-path oracle route the tests compare
it against, and `shortest_path_tree` builds their `LabeledEdge` steps, one
per tree edge.  `nesting_degree_oracle` is a tree-free oracle: a 0/1
alternation-cost search over raw map applications on masks
(`_alternation_masks`).  `cli.cmd_verify` runs the labelling and the search
on the builders' mask maps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Permutation, SpinConfig, SpinIndex, alpha, i_minus, i_plus
from .graph import (
    DEFAULT_MAX_VERTICES,
    EdgeKind,
    LabeledEdge,
    PreisachGraph,
    VertexBudgetExceeded,
    _mask_maps,
    _mask_steppers,
    edge_label,
)

__all__ = [
    "UniquenessViolation",
    "IncreasingSubsequence",
    "increasing_subsequence",
    "Path",
    "BlockDecomposition",
    "shortest_path_tree",
    "shortest_path",
    "block_decomposition",
    "phi",
    "phi_all",
    "phi_inverse",
    "phi_inverse_constructive",
    "nesting_degree",
    "nesting_degrees",
    "nesting_of_graph",
    "alternation_degrees",
    "nesting_degree_oracle",
]


class UniquenessViolation(RuntimeError):
    """Two distinct shortest paths reached the same vertex.

    Never expected: shortest paths from alpha are unique.  Raising instead of
    picking a winner turns that fact into a runtime-checked invariant.
    """


@dataclass(frozen=True)
class IncreasingSubsequence:
    """Values of the permutation taken at increasing positions, increasing in
    value; possibly empty."""

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)


def increasing_subsequence(values, rho: Permutation) -> IncreasingSubsequence:
    """Validate `values` as an increasing subsequence of rho.

    Both the values and their positions in rho must be strictly increasing;
    the empty sequence is valid.
    """
    vals = tuple(values)
    last_v = 0
    last_p = 0
    for v in vals:
        if not 1 <= v <= rho.n:
            raise ValueError(
                f"not an increasing subsequence of {rho.values}: value {v} out of range"
            )
        p = rho.position_of(v)
        if v <= last_v or p <= last_p:
            raise ValueError(f"not an increasing subsequence of {rho.values}: {vals}")
        last_v, last_p = v, p
    return IncreasingSubsequence(vals)


@dataclass(frozen=True)
class Path:
    """A walk from alpha along graph edges; consecutive edges chain."""

    start: SpinConfig
    edges: tuple[LabeledEdge, ...]
    end: SpinConfig

    def __post_init__(self) -> None:
        prev = self.start
        for e in self.edges:
            if e.src != prev:
                raise ValueError("edges do not chain")
            prev = e.dst
        if prev != self.end:
            raise ValueError("path does not end at its end vertex")

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class BlockDecomposition:
    """Maximal same-kind runs of a path, with the switch-back states and the
    labels of the edges entering them, in path order."""

    blocks: tuple[tuple[EdgeKind, int], ...]
    switchbacks: tuple[SpinConfig, ...]
    labels: tuple[SpinIndex, ...]


def shortest_path_tree(g: PreisachGraph) -> dict[SpinConfig, LabeledEdge]:
    """Breadth-first parent edges of every vertex reachable from alpha.

    Raises UniquenessViolation if some vertex is reached by two distinct
    parents at the same depth.
    """
    parent: dict[SpinConfig, LabeledEdge] = {}
    depth = {g.alpha: 0}
    queue = deque([g.alpha])
    while queue:
        v = queue.popleft()
        d = depth[v]
        for kind, succ in ((EdgeKind.U, g.u_next), (EdgeKind.D, g.d_next)):
            t = succ.get(v)
            if t is None:
                continue
            if t not in depth:
                depth[t] = d + 1
                parent[t] = LabeledEdge(v, t, kind, edge_label(v, t))
                queue.append(t)
            elif depth[t] == d + 1:
                raise UniquenessViolation(
                    f"uniqueness violated: two shortest paths reach {t.spins}"
                )
    return parent


def _edges_to(
    tree: dict[SpinConfig, LabeledEdge], start: SpinConfig, sigma: SpinConfig
) -> tuple[LabeledEdge, ...]:
    edges = []
    cur = sigma
    while cur != start:
        e = tree[cur]
        edges.append(e)
        cur = e.src
    edges.reverse()
    return tuple(edges)


def shortest_path(g: PreisachGraph, sigma: SpinConfig) -> Path:
    """The unique shortest path from alpha to sigma."""
    if sigma not in g.vertices:
        raise ValueError(f"not a vertex: {sigma.spins}")
    tree = shortest_path_tree(g)
    return Path(g.alpha, _edges_to(tree, g.alpha, sigma), sigma)


def block_decomposition(p: Path) -> BlockDecomposition:
    """Split a path into maximal same-kind blocks.

    The empty path has no blocks; otherwise the first block must go up, which
    is automatic for paths from alpha since alpha has no outgoing D-edge.
    """
    if not p.edges:
        return BlockDecomposition((), (), ())
    if p.edges[0].kind is not EdgeKind.U:
        raise ValueError("first block not U")
    blocks: list[tuple[EdgeKind, int]] = []
    switchbacks: list[SpinConfig] = []
    labels: list[SpinIndex] = []
    run_kind = p.edges[0].kind
    run_len = 0
    prev = p.edges[0]
    for e in p.edges:
        if e.kind is run_kind:
            run_len += 1
        else:
            blocks.append((run_kind, run_len))
            switchbacks.append(prev.dst)
            labels.append(prev.label)
            run_kind = e.kind
            run_len = 1
        prev = e
    blocks.append((run_kind, run_len))
    switchbacks.append(prev.dst)
    labels.append(prev.label)
    return BlockDecomposition(tuple(blocks), tuple(switchbacks), tuple(labels))


def phi(g: PreisachGraph, sigma: SpinConfig) -> IncreasingSubsequence:
    """The increasing subsequence of a vertex: switch-back labels of its
    shortest path, reversed."""
    if sigma not in g.vertices:
        raise ValueError(f"not a vertex: {sigma.spins}")
    return phi_all(g)[sigma]


def phi_all(g: PreisachGraph) -> dict[SpinConfig, IncreasingSubsequence]:
    """phi for every vertex, labelled on g's successor maps read as masks
    (see _phi_labels)."""
    labels = _phi_labels(g.alpha.mask, *_mask_maps(g))
    return {SpinConfig._unchecked(g.n, m): IncreasingSubsequence(s) for m, s in labels.items()}


def _phi_labels(start: int, u_next: dict[int, int], d_next: dict[int, int]) -> dict:
    """phi of every vertex mask reachable from start in mask successor
    maps, in one breadth-first pass that explores U before D from each
    vertex: a vertex's tree parent is the vertex that first reaches it.  An
    edge of the parent's tree-edge kind replaces the parent's newest
    switch-back label; an edge of the other kind prepends one.  The label
    of an edge v -> t is the one bit v ^ t.

    Raises UniquenessViolation if some vertex is reached by two distinct
    parents at the same depth.
    """
    labels = {start: ()}
    depth = {start: 0}
    # a queue entry carries a vertex, its children's depth, its tree-edge
    # kind and its labels, so a dequeued vertex needs no lookup
    queue = deque([(start, 1, None, ())])
    while queue:
        v, d, tree_kind, s = queue.popleft()
        for k, succ in ((EdgeKind.U, u_next), (EdgeKind.D, d_next)):
            t = succ.get(v)
            if t is None:
                continue
            seen = depth.get(t)
            if seen is None:
                depth[t] = d
                st = labels[t] = ((v ^ t).bit_length(),) + (s[1:] if tree_kind is k else s)
                queue.append((t, d + 1, k, st))
            elif seen == d:
                raise UniquenessViolation(f"uniqueness violated: two shortest paths reach {t}")
    return labels


def phi_inverse(g: PreisachGraph, s: IncreasingSubsequence) -> SpinConfig:
    """The vertex mapping to `s`, by inverting the table of phi over all
    vertices.  The authoritative inverse; the constructive variant below is
    checked against it in the tests."""
    increasing_subsequence(s.values, g.perm)
    table = {sub.values: v for v, sub in phi_all(g).items()}
    try:
        return table[tuple(s.values)]
    except KeyError:
        raise RuntimeError(
            f"bijection violated: {s.values} has no preimage"
        ) from None


def phi_inverse_constructive(rho: Permutation, s: IncreasingSubsequence) -> SpinConfig:
    """Rebuild the vertex of `s` by walking from alpha, no table needed.

    Read the subsequence from its largest value down: take up steps until the
    largest value's spin flips, then alternate direction, each time stepping
    until the edge labeled with the next value is taken.
    """
    increasing_subsequence(s.values, rho)
    cur = alpha(rho.n)
    going_up = True
    for target in reversed(s.values):
        while True:
            i = i_plus(cur) if going_up else i_minus(cur, rho)
            if i is None:
                raise RuntimeError(f"no step flips spin {target}")
            cur = cur.flipped(i)
            if i == target:
                break
        going_up = not going_up
    return cur


def nesting_degree(g: PreisachGraph, sigma: SpinConfig) -> int:
    """Number of blocks of the unique shortest path to sigma; 0 for alpha."""
    return len(phi(g, sigma))


def nesting_degrees(g: PreisachGraph) -> dict[SpinConfig, int]:
    """Nesting degree of every vertex: the length of its phi."""
    return {v: len(s) for v, s in phi_all(g).items()}


def nesting_of_graph(g: PreisachGraph) -> int:
    """Maximal nesting degree over all vertices."""
    return max(nesting_degrees(g).values())


def alternation_degrees(
    rho: Permutation, max_vertices: int = DEFAULT_MAX_VERTICES
) -> dict[SpinConfig, int]:
    """Minimal alternating-block count for every reachable configuration
    (see _alternation_masks)."""
    degrees = _alternation_masks(rho, max_vertices)
    return {SpinConfig._unchecked(rho.n, m): d for m, d in degrees.items()}


def _alternation_masks(
    rho: Permutation, max_vertices: int = DEFAULT_MAX_VERTICES
) -> dict[int, int]:
    """Minimal alternating-block count for every configuration reachable
    from alpha, keyed by vertex mask, found by a deque-based 0/1 search over
    raw map applications.

    Extending the current run costs nothing, switching direction costs one
    block.  alpha is entered as if by a D-step: it has no D-successor, so
    its first U-step opens the first block at cost one.  Independent of the
    graph builders and of the shortest-path machinery.
    """
    u_step, d_step = _mask_steppers(rho)
    # search state: mask << 1 | kind of the step into it, 0 up and 1 down
    dist = {1: 0}
    seen = {0}
    dq: deque[tuple[int, int, int]] = deque([(0, 0, 1)])
    while dq:
        d, m, last = dq.popleft()
        if d > dist[m << 1 | last]:
            continue
        for kind, step in ((0, u_step), (1, d_step)):
            t = step(m)
            if t is None:
                continue
            if t not in seen:
                if len(seen) + 1 > max_vertices:
                    raise VertexBudgetExceeded(
                        f"vertex budget exceeded: more than {max_vertices} configurations"
                    )
                seen.add(t)
            nd = d + (kind != last)
            key = t << 1 | kind
            if nd < dist.get(key, nd + 1):
                dist[key] = nd
                if nd == d:
                    dq.appendleft((nd, t, kind))
                else:
                    dq.append((nd, t, kind))
    best: dict[int, int] = {}
    for key, d in dist.items():
        m = key >> 1
        if d < best.get(m, d + 1):
            best[m] = d
    return best


def nesting_degree_oracle(
    rho: Permutation, sigma: SpinConfig, max_vertices: int = DEFAULT_MAX_VERTICES
) -> int:
    """Nesting degree of sigma by exhaustive minimal-alternation search."""
    best = alternation_degrees(rho, max_vertices)
    if sigma not in best:
        raise ValueError(f"unreachable: {sigma.spins}")
    return best[sigma]
