"""Oracle routes: the literal side of every production/oracle pair.

Each fact is computed by a production route in `graph` or `bijection` and
again here, by its definition on spin configurations; the tests compare
the two.  No production module imports this one, nor does `preisach`.
Production route first:

- `verify_lrpm`, one walk over the major sub-cycles on masks: `check_lrpm`,
  the recursive definition over `cycle_of`, `check_absorption` and the
  orbits `u_orbit` and `d_orbit`;
- `_loop_closure`, the loop `build_forward` copies: `loop_vertices`, the
  states the major sub-cycle walk meets (the union of sub-cycle
  boundaries), and `decompose`, the two loops and two edges labeled n
  that `build_forward` joins last;
- an edge label as the one bit two masks differ in: `edge_label`, with
  `LabeledEdge` and `EdgeKind` as the steps of oracle paths;
- `phi_all`, one breadth-first pass: `shortest_path` and
  `block_decomposition`, path by path off `shortest_path_tree`;
- `Staircase.encode` as a validator: `increasing_subsequence`; as the
  inverse of phi: `phi_inverse` (the table of `phi_all`) and
  `phi_inverse_constructive` (the walk from alpha);
- `nesting_degree`, the length of phi, and the degrees of the major
  sub-cycle walk that `cmd_verify` compares with it: `nesting_degree_oracle`
  over `alternation_degrees` (`_alternation_masks` on masks), a
  fewest-blocks search with no shortest paths, and `fixpoint_degrees`,
  the walk's degrees in an order-free form.

Builder agreement is a theorem between the two production builders, so
both stay in `graph`.  `oracles` holds the references on `core` alone.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from itertools import groupby

from .bijection import _rejection, phi_all
from .core import Permutation, SpinConfig, SpinIndex, alpha, i_minus, i_plus
from .graph import (
    DEFAULT_MAX_VERTICES,
    PreisachGraph,
    S,
    Step,
    UniquenessViolation,
    VertexBudgetExceeded,
    _apply_n,
    _mask_steppers,
    _subcycle_walk,
)

__all__ = [
    "EdgeKind",
    "LabeledEdge",
    "edge_label",
    "Cycle",
    "u_orbit",
    "d_orbit",
    "cycle_of",
    "check_absorption",
    "check_lrpm",
    "loop_vertices",
    "decompose",
    "increasing_subsequence",
    "Path",
    "BlockDecomposition",
    "shortest_path_tree",
    "shortest_path",
    "block_decomposition",
    "phi_inverse",
    "phi_inverse_constructive",
    "alternation_degrees",
    "nesting_degree_oracle",
    "fixpoint_degrees",
]


class EdgeKind(enum.Enum):
    U = "U"
    D = "D"


@dataclass(frozen=True)
class LabeledEdge:
    """A single transition; `label` is the 1-based index of the flipped spin.
    A step of an oracle path; the graph itself stores successor maps."""

    src: SpinConfig
    dst: SpinConfig
    kind: EdgeKind
    label: SpinIndex


def edge_label(src: SpinConfig, dst: SpinConfig) -> SpinIndex:
    """The one spin src and dst differ in: the label of an edge src -> dst.
    Raises ValueError unless they differ in exactly one spin.

    >>> edge_label(SpinConfig((1, 1, -1)), SpinConfig((1, 1, 1)))
    3
    """
    flip = src.mask ^ dst.mask
    if src.n != dst.n or not flip or flip & (flip - 1):
        raise ValueError(f"not an edge: {src.spins} -> {dst.spins}")
    return flip.bit_length()


@dataclass(frozen=True)
class Cycle:
    """An ordered pair (mu, nu) with nu on the U-orbit of mu and mu on the
    D-orbit of nu, together with the two inclusive boundary orbits."""

    mu: SpinConfig
    nu: SpinConfig
    u_boundary: tuple[SpinConfig, ...]
    d_boundary: tuple[SpinConfig, ...]


def _map_steppers(rho: Permutation) -> tuple[Step[SpinConfig], Step[SpinConfig]]:
    """U and D on spin configurations: i_plus / i_minus, then flipped."""

    def u_step(s: SpinConfig) -> SpinConfig | None:
        i = i_plus(s)
        return None if i is None else s.flipped(i)

    def d_step(s: SpinConfig) -> SpinConfig | None:
        i = i_minus(s, rho)
        return None if i is None else s.flipped(i)

    return u_step, d_step


def _chain(step: Step[S], start: S, target: S | None = None) -> list[S] | None:
    """The orbit of start up to and including target, or None if it hits its
    fixed point without reaching target; with no target, the whole orbit up
    to and including the fixed point."""
    out = [start]
    while out[-1] != target:
        nxt = step(out[-1])
        if nxt is None:
            return out if target is None else None
        out.append(nxt)
    return out


def u_orbit(rho: Permutation, sigma: SpinConfig) -> list[SpinConfig]:
    """sigma, U sigma, U^2 sigma, ... up to and including omega."""
    u_step, _ = _map_steppers(rho)
    return _chain(u_step, sigma)


def d_orbit(rho: Permutation, sigma: SpinConfig) -> list[SpinConfig]:
    """sigma, D sigma, D^2 sigma, ... up to and including alpha."""
    _, d_step = _map_steppers(rho)
    return _chain(d_step, sigma)


def cycle_of(rho: Permutation, mu: SpinConfig, nu: SpinConfig) -> Cycle:
    """The cycle with endpoints (mu, nu), found by explicit orbit traversal.

    Raises ValueError("not a cycle") unless nu lies on the U-orbit of mu and
    mu lies on the D-orbit of nu.
    """
    u_step, d_step = _map_steppers(rho)
    ub = _chain(u_step, mu, nu)
    if ub is None:
        raise ValueError("not a cycle: upper endpoint not on the U-orbit of the lower")
    db = _chain(d_step, nu, mu)
    if db is None:
        raise ValueError("not a cycle: lower endpoint not on the D-orbit of the upper")
    return Cycle(mu, nu, tuple(ub), tuple(db))


def check_absorption(rho: Permutation, c: Cycle) -> bool:
    """True iff every U-boundary state returns to mu under D and every
    D-boundary state returns to nu under U."""
    u_step, d_step = _map_steppers(rho)
    return all(_chain(d_step, u, c.mu) is not None for u in c.u_boundary) and all(
        _chain(u_step, v, c.nu) is not None for v in c.d_boundary
    )


def check_lrpm(rho: Permutation, c: Cycle) -> bool:
    """Loop return-point memory: the cycle is absorbing and, recursively, so
    is every major sub-cycle (mu, u) and (v, nu) along its boundaries.

    Verified endpoint pairs are memoized; a pair counts as verified while its
    own check is in progress, which settles the self-referential sub-cycles
    (mu, nu) produces along its own boundaries.
    """
    u_step, d_step = _map_steppers(rho)
    memo: dict[tuple[SpinConfig, SpinConfig], bool] = {}

    def has_lrpm(mu: SpinConfig, nu: SpinConfig) -> bool:
        key = (mu, nu)
        if key in memo:
            return memo[key]
        memo[key] = True
        ub = _chain(u_step, mu, nu)
        db = _chain(d_step, nu, mu) if ub is not None else None
        ok = memo[key] = (
            db is not None
            and all(_chain(d_step, u, mu) is not None for u in ub)
            and all(_chain(u_step, v, nu) is not None for v in db)
            and all(has_lrpm(mu, u) for u in ub)
            and all(has_lrpm(v, nu) for v in db)
        )
        return ok

    return has_lrpm(c.mu, c.nu)


def loop_vertices(rho: Permutation, c: Cycle) -> set[SpinConfig]:
    """All vertices of the loop (mu, nu): the iterative union of boundary
    states of major sub-cycles.  Requires the cycle to be absorbing."""
    if not check_absorption(rho, c):
        raise ValueError("not absorbing")
    degrees = _subcycle_walk(*_map_steppers(rho), c.mu, c.nu)
    if degrees is None:
        raise RuntimeError("cycle structure violated inside a loop")
    return set(degrees)


def decompose(
    g: PreisachGraph,
) -> tuple[set[SpinConfig], set[SpinConfig], tuple[LabeledEdge, LabeledEdge]]:
    """Split the graph into its lower loop (spin n down), its upper loop
    (spin n up) and the two joining edges, both labeled n.

    The lower loop is the loop between alpha and U^{n-1} alpha; the upper
    loop is the loop between D^{k-1} omega and omega, k being the position
    of the value n.  The two sets partition the vertex set.
    """
    rho = g.perm
    n = rho.n
    top = _apply_n(g.u_next.get, 0, n - 1)
    bottom = _apply_n(g.d_next.get, (1 << n) - 1, rho.position_of(n) - 1)
    top, up, bottom, down = map(g.config, (top, g.u_next[top], bottom, g.d_next[bottom]))
    return (
        loop_vertices(rho, cycle_of(rho, g.alpha, top)),
        loop_vertices(rho, cycle_of(rho, bottom, g.omega)),
        (
            LabeledEdge(top, up, EdgeKind.U, edge_label(top, up)),
            LabeledEdge(bottom, down, EdgeKind.D, edge_label(bottom, down)),
        ),
    )


def increasing_subsequence(values, rho: Permutation) -> tuple[int, ...]:
    """`values` as a tuple, checked by the literal definition (_rejection).
    The oracle of `Staircase.encode`, which validates in production and
    takes only its error message from the same scan."""
    vals = tuple(values)
    if (reason := _rejection(vals, rho)) is not None:
        raise ValueError(reason)
    return vals


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
    depth = {0: 0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        d = depth[v]
        for kind, succ in ((EdgeKind.U, g.u_next), (EdgeKind.D, g.d_next)):
            t = succ.get(v)
            if t is None:
                continue
            if t not in depth:
                depth[t] = d + 1
                src, dst = g.config(v), g.config(t)
                parent[dst] = LabeledEdge(src, dst, kind, edge_label(src, dst))
                queue.append(t)
            elif depth[t] == d + 1:
                raise UniquenessViolation(
                    f"uniqueness violated: two shortest paths reach {g.config(t).spins}"
                )
    return parent


def _edges_to(
    tree: dict[SpinConfig, LabeledEdge], start: SpinConfig, sigma: SpinConfig
) -> tuple[LabeledEdge, ...]:
    edges = []
    while sigma != start:
        edges.append(tree[sigma])
        sigma = edges[-1].src
    return tuple(reversed(edges))


def shortest_path(g: PreisachGraph, sigma: SpinConfig) -> Path:
    """The unique shortest path from alpha to sigma."""
    if sigma not in g:
        raise ValueError(f"not a vertex: {sigma.spins}")
    tree = shortest_path_tree(g)
    return Path(g.alpha, _edges_to(tree, g.alpha, sigma), sigma)


def block_decomposition(p: Path) -> BlockDecomposition:
    """Split a path into maximal same-kind blocks.

    The empty path has no blocks; otherwise the first block must go up, which
    is automatic for paths from alpha since alpha has no outgoing D-edge.
    """
    if p.edges and p.edges[0].kind is not EdgeKind.U:
        raise ValueError("first block not U")
    runs = [list(run) for _, run in groupby(p.edges, key=lambda e: e.kind)]
    return BlockDecomposition(
        tuple((run[0].kind, len(run)) for run in runs),
        tuple(run[-1].dst for run in runs),
        tuple(run[-1].label for run in runs),
    )


def phi_inverse(g: PreisachGraph, values) -> SpinConfig:
    """The vertex mapping to the increasing subsequence `values`, by
    inverting the table of phi over all vertices.  The authoritative
    inverse; the constructive variant below is checked against it in the
    tests."""
    s = increasing_subsequence(values, g.perm)
    table = {sub: v for v, sub in phi_all(g).items()}
    try:
        return table[s]
    except KeyError:
        raise RuntimeError(f"bijection violated: {s} has no preimage") from None


def phi_inverse_constructive(rho: Permutation, values) -> SpinConfig:
    """Rebuild the vertex of the increasing subsequence `values` by walking
    from alpha, no table needed.

    Read the subsequence from its largest value down: take up steps until the
    largest value's spin flips, then alternate direction, each time stepping
    until the edge labeled with the next value is taken.
    """
    s = increasing_subsequence(values, rho)
    cur = alpha(rho.n)
    going_up = True
    for target in reversed(s):
        while True:
            i = i_plus(cur) if going_up else i_minus(cur, rho)
            if i is None:
                raise RuntimeError(f"no step flips spin {target}")
            cur = cur.flipped(i)
            if i == target:
                break
        going_up = not going_up
    return cur


def _alternation_masks(
    rho: Permutation, max_vertices: int = DEFAULT_MAX_VERTICES
) -> dict[int, int]:
    """Minimal alternating-block count for every configuration reachable
    from alpha, keyed by vertex mask, found level by level over raw map
    applications.

    Level 0 is alpha, entered as if by a D-step: it has no D-successor, so
    its first U-step opens the first block.  Level d+1 holds the states one
    more block away: from each state of level d, step once in the other
    kind, then keep stepping in that kind until reaching a state already
    entered.  Every state of a level is entered by the same kind, U on odd
    levels and D on even ones, and its degree is the level that enters it.
    A state is entered once, by either kind: if the first entry is at level
    e, a later one is at a level of the other kind, so at least e + 1, and
    each of its two steps is already taken from level e at no more cost.
    Independent of the graph builders and of the shortest-path machinery.

    >>> sorted(_alternation_masks(Permutation((2, 3, 1))).items())
    [(0, 0), (1, 1), (3, 1), (5, 2), (7, 1)]
    """
    u_step, d_step = _mask_steppers(rho)
    best = {0: 0}
    level = [0]
    d = 0
    while level:
        d += 1
        step = u_step if d & 1 else d_step
        nxt = []
        for m in level:
            while (m := step(m)) is not None and m not in best:
                if len(best) + 1 > max_vertices:
                    raise VertexBudgetExceeded(
                        f"vertex budget exceeded: more than {max_vertices} configurations"
                    )
                best[m] = d
                nxt.append(m)
        level = nxt
    return best


def alternation_degrees(
    rho: Permutation, max_vertices: int = DEFAULT_MAX_VERTICES
) -> dict[SpinConfig, int]:
    """Minimal alternating-block count for every reachable configuration
    (see _alternation_masks)."""
    degrees = _alternation_masks(rho, max_vertices)
    return {SpinConfig._unchecked(rho.n, m): d for m, d in degrees.items()}


def nesting_degree_oracle(
    rho: Permutation, sigma: SpinConfig, max_vertices: int = DEFAULT_MAX_VERTICES
) -> int:
    """Nesting degree of sigma by exhaustive minimal-alternation search."""
    best = alternation_degrees(rho, max_vertices)
    if sigma not in best:
        raise ValueError(f"unreachable: {sigma.spins}")
    return best[sigma]


def fixpoint_degrees(u_step: Step[S], d_step: Step[S], mu: S, nu: S) -> dict[S, int] | None:
    """The degrees of the major sub-cycle walk from (mu, nu), in a form
    free of its order: over every reached pair (m, v), each state of its
    U-boundary other than m is at most one more than m, and each state of
    its D-boundary other than v at most one more than v.  Relaxing these
    bounds from deg(mu) = 0, in any order, until none lowers a degree
    reaches one fixpoint: the fewest bound steps from mu to each state.
    None if some reached pair is not a cycle.

    The pairs are found as cycle_of finds them, each boundary walked whole
    by _chain, and the bounds are relaxed in sweeps, so neither the walk's
    records nor its queue enter.  The boundaries met from one end are
    prefixes of one orbit, so each end keeps only its longest.  An orbit
    that cycles is not caught, as in check_lrpm.  The oracle of
    _subcycle_walk's degrees.

    >>> from preisach.graph import _closure
    >>> u_next, d_next, _, _ = _closure(*_mask_steppers(Permutation((2, 3, 1))))
    >>> sorted(fixpoint_degrees(u_next.get, d_next.get, 0, 0b111).items())
    [(0, 0), (1, 1), (3, 1), (5, 2), (7, 1)]
    """
    longest: tuple[dict, dict] = ({}, {})
    seen = {(mu, nu)}
    todo = [(mu, nu)]
    while todo:
        m, v = todo.pop()
        ub = _chain(u_step, m, v)
        db = None if ub is None else _chain(d_step, v, m)
        if db is None:
            return None
        for ends, a, boundary in ((longest[0], m, ub), (longest[1], v, db)):
            if len(boundary) > len(ends.get(a, ())):
                ends[a] = boundary
        for pair in [(m, u) for u in ub] + [(w, v) for w in db]:
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    deg = {mu: 0}
    changed = True
    while changed:
        changed = False
        for ends in longest:
            for a, boundary in ends.items():
                if a in deg:
                    d = deg[a] + 1
                    for s in boundary[1:]:
                        if deg.get(s, d + 1) > d:
                            deg[s] = d
                            changed = True
    return deg
