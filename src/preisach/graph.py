"""Construction and structural analysis of the Preisach graph of a permutation.

The graph has one vertex per spin configuration reachable from alpha under
the up/down maps, a U-edge from every vertex except omega, and a D-edge from
every vertex except alpha.  It is stored as two successor maps, `u_next`
and `d_next`, from a vertex to the vertex its edge leads to; an edge's label
is the one spin its two endpoints differ in (`edge_label`).  The
fixed-point transitions at alpha and omega are never stored.

Two independent builders are provided.  `build_bfs` closes {alpha} under the
two maps.  `build_forward` grows one graph of n-spin configurations value by
value: the graph for the entries <= m+1 is the graph for the entries <= m,
whose vertices all have spin m+1 down, plus a copy, with spin m+1 up, of the
sub-loop hanging below the top vertex, joined by one U-edge and one D-edge
labeled m+1.  The two results are equal as labeled graphs; the test suite
checks this exhaustively for small sizes.

Both builders run on vertex masks, bit i-1 set meaning spin i is up: U is
m | (m + 1), D clears the first set bit in scan order, and an edge's label
is the one bit of src ^ dst.  `_bfs_maps` and `_forward_maps` return the U-
and D-successor maps as dicts of masks, which `cli.cmd_verify` checks
directly; `build_bfs` and `build_forward` wrap each mask in a `SpinConfig`,
which holds it as is, through one view, `_graph_of_maps`.  `_mask_maps`
reads a built graph's maps back as dicts of masks.

Cycles, absorption, loop return-point memory and loops follow the orbit
definitions directly.  `build_forward`, `loop_vertices` and `verify_lrpm`
share one walk over the major sub-cycles of a pair.  The pairs it reaches
with one lower end lie along that end's U-orbit, and those with one upper
end along its D-orbit, so it records each orbit once and visits each state
on it once.  `build_forward` and `verify_lrpm` run the walk on masks,
`loop_vertices` on spin configurations with the maps themselves.  Every
step function here maps a state to its successor, or to None at a fixed
point.  `check_lrpm` stays the literal recursive definition the tests
cross-validate `verify_lrpm` against.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, TypeVar

from .core import Permutation, SpinConfig, SpinIndex, i_minus, i_plus

__all__ = [
    "DEFAULT_MAX_VERTICES",
    "VertexBudgetExceeded",
    "EdgeKind",
    "LabeledEdge",
    "PreisachGraph",
    "edge_label",
    "Cycle",
    "build_bfs",
    "build_forward",
    "u_orbit",
    "d_orbit",
    "cycle_of",
    "check_absorption",
    "check_lrpm",
    "loop_vertices",
    "verify_lrpm",
    "decompose",
    "merge_identity_top",
    "merge_identity_bottom",
]

# The vertex count equals the number of increasing subsequences of the
# permutation, which reaches 2^n for the identity; budget instead of hanging.
DEFAULT_MAX_VERTICES = 1 << 20


class VertexBudgetExceeded(RuntimeError):
    """A construction would create more vertices than the allowed budget."""


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


@dataclass(frozen=True, eq=True)
class PreisachGraph:
    """The reachable configurations with their unique U- and D-successors.

    Immutable after construction; equality compares the vertex sets and the
    successor maps.  Unhashable on purpose: the successor maps are dicts, so
    a hash over the fields cannot be formed.
    """

    __hash__ = None  # type: ignore[assignment]

    perm: Permutation
    vertices: frozenset[SpinConfig]
    u_next: dict[SpinConfig, SpinConfig]
    d_next: dict[SpinConfig, SpinConfig]
    alpha: SpinConfig
    omega: SpinConfig

    @property
    def n(self) -> int:
        return self.perm.n

    @property
    def edge_count(self) -> int:
        return len(self.u_next) + len(self.d_next)

    def canonical_vertices(self) -> list[SpinConfig]:
        """Vertices sorted by (+1 count, spin sequence); the serialization order."""
        return sorted(self.vertices, key=lambda v: (v.count_plus(), v._bits()))


def edge_label(src: SpinConfig, dst: SpinConfig) -> SpinIndex:
    """The one spin src and dst differ in: the label of an edge src -> dst.
    Raises ValueError unless they differ in exactly one spin.

    >>> g = build_bfs(Permutation((2, 3, 1)))
    >>> top = SpinConfig((1, 1, -1))
    >>> edge_label(top, g.u_next[top]), edge_label(top, g.d_next[top])
    (3, 2)
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


S = TypeVar("S")
# A stepper returns the successor of a state, or None at a fixed point.
Step = Callable[[S], "S | None"]


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


def _charge(vertices: set, max_vertices: int) -> None:
    if len(vertices) + 1 > max_vertices:
        raise VertexBudgetExceeded(
            f"vertex budget exceeded: graph needs more than {max_vertices} vertices"
        )


def _mask_steppers(rho: Permutation) -> tuple[Step[int], Step[int]]:
    """U and D on vertex masks, bit i-1 set meaning spin i is up.  Each
    returns None at its fixed point: omega for U, alpha for D."""
    full = (1 << rho.n) - 1
    scan = [1 << (v - 1) for v in rho.values]

    def u_step(m: int) -> int | None:
        # m + 1 carries through the up spins below the lowest down one
        return None if m == full else m | (m + 1)

    def d_step(m: int) -> int | None:
        for b in scan:
            if m & b:
                return m ^ b
        return None

    return u_step, d_step


def _bfs_maps(
    rho: Permutation, max_vertices: int = DEFAULT_MAX_VERTICES
) -> tuple[dict[int, int], dict[int, int]]:
    """build_bfs on vertex masks: the U- and D-successor maps of the closure
    of alpha (mask 0), U explored before D from each dequeued vertex."""
    if max_vertices < 1:
        raise VertexBudgetExceeded("vertex budget exceeded: budget is empty")
    u_step, d_step = _mask_steppers(rho)
    u_next: dict[int, int] = {}
    d_next: dict[int, int] = {}
    vertices = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for step, succ in ((u_step, u_next), (d_step, d_next)):
            t = step(v)
            if t is None:
                continue
            succ[v] = t
            if t not in vertices:
                _charge(vertices, max_vertices)
                vertices.add(t)
                queue.append(t)
    return u_next, d_next


def _forward_maps(
    rho: Permutation, max_vertices: int = DEFAULT_MAX_VERTICES
) -> tuple[dict[int, int], dict[int, int]]:
    """build_forward on vertex masks: the U- and D-successor maps."""
    if max_vertices < 2:
        raise VertexBudgetExceeded(
            f"vertex budget exceeded: graph needs more than {max_vertices} vertices"
        )
    # every vertex but the current top has a U-edge, so |V| = len(u_next) + 1
    u_next = {0: 1}
    d_next = {1: 0}
    top = 1

    for m in range(2, rho.n + 1):
        k = sum(1 for v in rho.values[: rho.position_of(m)] if v <= m)
        bottom = top
        for _ in range(k - 1):
            bottom = d_next[bottom]
        loop = _loop_union(u_next.get, d_next.get, bottom, top)
        if len(u_next) + 1 + len(loop) > max_vertices:
            raise VertexBudgetExceeded(
                f"vertex budget exceeded: graph needs more than {max_vertices} vertices"
            )

        bit = 1 << (m - 1)
        for v in loop:
            if v != top:
                dst = u_next[v]
                if dst not in loop:
                    raise RuntimeError("loop not closed under U")
                u_next[v | bit] = dst | bit
            if v != bottom:
                dst = d_next[v]
                if dst not in loop:
                    raise RuntimeError("loop not closed under D")
                d_next[v | bit] = dst | bit

        u_next[top] = top | bit
        d_next[bottom | bit] = bottom
        top |= bit
    return u_next, d_next


def _configs(masks, n: int) -> dict[int, SpinConfig]:
    """The configuration of each vertex mask, on n spins."""
    return {m: SpinConfig._unchecked(n, m) for m in masks}


def _mask_maps(g: PreisachGraph) -> tuple[dict[int, int], dict[int, int]]:
    """g's U- and D-successor maps as dicts of vertex masks."""
    return tuple({s.mask: t.mask for s, t in m.items()} for m in (g.u_next, g.d_next))


def _graph_of_maps(
    rho: Permutation, u_next: dict[int, int], d_next: dict[int, int]
) -> PreisachGraph:
    """The PreisachGraph of mask successor maps, one SpinConfig per vertex."""
    full = (1 << rho.n) - 1
    # every vertex but omega has a U-edge
    config = _configs((*u_next, full), rho.n)
    return PreisachGraph(
        rho,
        frozenset(config.values()),
        {config[s]: config[t] for s, t in u_next.items()},
        {config[s]: config[t] for s, t in d_next.items()},
        config[0],
        config[full],
    )


def build_bfs(rho: Permutation, max_vertices: int = DEFAULT_MAX_VERTICES) -> PreisachGraph:
    """Close {alpha} under the two maps, recording every non-fixed-point
    transition as an edge.  From each dequeued vertex the U-successor
    is explored before the D-successor."""
    return _graph_of_maps(rho, *_bfs_maps(rho, max_vertices))


def build_forward(rho: Permutation, max_vertices: int = DEFAULT_MAX_VERTICES) -> PreisachGraph:
    """Grow the graph value by value instead of closing under the maps.

    Every vertex carries all n spins from the start, a spin not yet added
    being -1, so the graph of the entries <= m-1 already is the part of the
    graph of the entries <= m with spin m down.  Step m (2 <= m <= n) grows
    it in place: the loop between D^{k-1}(top) and the top vertex, k being
    the position of m among the entries <= m, is duplicated with spin m
    flipped to +1, keeping edge labels; one U-edge and one D-edge labeled m
    join the two parts.  No vertex outside the duplicated loop is touched.

    The graph grows on vertex masks, so the copy of v is v | 1 << (m-1);
    each mask is wrapped in a SpinConfig once, at return.
    Returns a graph equal to build_bfs(rho).
    """
    return _graph_of_maps(rho, *_forward_maps(rho, max_vertices))


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
        if ub is None or db is None:
            memo[key] = False
            return False
        absorbed = all(_chain(d_step, u, mu) is not None for u in ub) and all(
            _chain(u_step, v, nu) is not None for v in db
        )
        if not absorbed:
            memo[key] = False
            return False
        ok = all(has_lrpm(mu, u) for u in ub) and all(has_lrpm(v, nu) for v in db)
        memo[key] = ok
        return ok

    return has_lrpm(c.mu, c.nu)


class _Orbit:
    """An orbit recorded as far as the walk has stepped it: its states in
    order and how many of them have been pushed."""

    __slots__ = ("states", "pushed")

    def __init__(self, start) -> None:
        self.states = [start]
        self.pushed = 0

    def position(self, succ: Step, target) -> int | None:
        """The index of target on the orbit, stepping succ only past the
        recorded part; None if the orbit ends or cycles before target."""
        states = self.states
        if target in states:
            return states.index(target)
        cur = states[-1]
        while (cur := succ(cur)) is not None and cur not in states:
            states.append(cur)
            if cur == target:
                return len(states) - 1
        return None


def _subcycle_walk(u_succ: Step, d_succ: Step, mu, nu) -> set | None:
    """Walk the major sub-cycles of (mu, nu): from a reached pair (m, v) on
    to (m, u) for each state u of its U-boundary and (w, v) for each state w
    of its D-boundary.  Returns the union of the boundary states, or None as
    soon as a reached pair is not a cycle.

    u_succ and d_succ map a state to its successor, or to None at a fixed
    point; states are any hashable values.  The U-boundary of (m, v) is the
    prefix of m's U-orbit ending at v, so the pairs reached with lower end m
    are (m, U^i m) for i up to some bound, and likewise those with upper end
    v are (D^j v, v).  Each orbit is therefore recorded once, and a popped
    pair adds states and pushes children only beyond the furthest index
    already pushed on its two orbits.  Every orbit state is stepped, added
    and pushed once, so the walk makes O(reached pairs) steps and pushes,
    not O(pairs x boundary length).  A pop finds its two targets by
    scanning their orbits' records, which for the maps hold at most n+1
    states, as each step changes the +1 count by one; an index dict per
    orbit would double the walk's memory.  A state met twice on one orbit
    means the orbit cycles and never reaches its target, so that pair is
    not a cycle either.
    """
    u_orbits: dict = {}
    d_orbits: dict = {}
    verts: set = set()
    stack = [(mu, nu)]
    while stack:
        m, v = stack.pop()
        up = u_orbits.get(m)
        if up is None:
            up = u_orbits[m] = _Orbit(m)
        down = d_orbits.get(v)
        if down is None:
            down = d_orbits[v] = _Orbit(v)
        i = up.position(u_succ, v)
        j = None if i is None else down.position(d_succ, m)
        if j is None:
            return None
        if i >= up.pushed:
            new = up.states[up.pushed : i + 1]
            up.pushed = i + 1
            verts.update(new)
            stack += [(m, u) for u in new]
        if j >= down.pushed:
            new = down.states[down.pushed : j + 1]
            down.pushed = j + 1
            verts.update(new)
            stack += [(w, v) for w in new]
    return verts


def _loop_union(u_succ: Step, d_succ: Step, mu, nu) -> set:
    """The union of the boundary states of the major sub-cycles of (mu, nu)."""
    verts = _subcycle_walk(u_succ, d_succ, mu, nu)
    if verts is None:
        raise RuntimeError("cycle structure violated inside a loop")
    return verts


def loop_vertices(rho: Permutation, c: Cycle) -> set[SpinConfig]:
    """All vertices of the loop (mu, nu): the iterative union of boundary
    states of major sub-cycles.  Requires the cycle to be absorbing."""
    if not check_absorption(rho, c):
        raise ValueError("not absorbing")
    return _loop_union(*_map_steppers(rho), c.mu, c.nu)


def verify_lrpm(
    g: PreisachGraph, mu: SpinConfig | None = None, nu: SpinConfig | None = None
) -> bool:
    """Loop return-point memory of (mu, nu), default (alpha, omega), in the
    built graph: true iff every pair the major sub-cycle walk reaches from
    (mu, nu) is a cycle.

    No separate absorption test is needed.  For a reached pair (m, v), each
    U-boundary state u lies on the U-orbit of m by construction, so "u
    returns to m under D" is exactly the cycle condition of the child
    (m, u); likewise "w returns to v under U", for a D-boundary state w, is
    the cycle condition of the child (w, v).  The walk reaches every child,
    so "every reached pair is a cycle" is "every reached pair is an
    absorbing cycle", the recursive definition check_lrpm evaluates.

    The walk runs on g's maps read as masks (_mask_maps), not on the
    configurations, whose __eq__ would run in every orbit scan; it visits
    each state of each orbit it records once (see _subcycle_walk).  An
    orbit that cycles never reaches its target, and an edge into a state
    outside g.vertices, which has no edges of its own, ends its orbit, so a
    pair that needs either is not a cycle and the result is False.
    """
    mu = g.alpha if mu is None else mu
    nu = g.omega if nu is None else nu
    if mu not in g.vertices or nu not in g.vertices:
        raise ValueError("not a vertex")
    u_next, d_next = _mask_maps(g)
    return _subcycle_walk(u_next.get, d_next.get, mu.mask, nu.mask) is not None


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
    top = g.alpha
    for _ in range(n - 1):
        top = g.u_next[top]
    lower = loop_vertices(rho, cycle_of(rho, g.alpha, top))
    k = rho.position_of(n)
    bottom = g.omega
    for _ in range(k - 1):
        bottom = g.d_next[bottom]
    upper = loop_vertices(rho, cycle_of(rho, bottom, g.omega))
    up, down = g.u_next[top], g.d_next[bottom]
    return (
        lower,
        upper,
        (
            LabeledEdge(top, up, EdgeKind.U, edge_label(top, up)),
            LabeledEdge(bottom, down, EdgeKind.D, edge_label(bottom, down)),
        ),
    )


def _apply_n(step: Step[int], m: int, times: int) -> int:
    """step applied `times` times, a fixed point mapping to itself."""
    for _ in range(times):
        t = step(m)
        if t is None:
            break
        m = t
    return m


def merge_identity_top(rho: Permutation) -> bool:
    """D^{k-1} U^{n-1} alpha equals D^k U^n alpha, where rho_k = n."""
    n = rho.n
    k = rho.position_of(n)
    u_step, d_step = _mask_steppers(rho)
    lhs = _apply_n(d_step, _apply_n(u_step, 0, n - 1), k - 1)
    rhs = _apply_n(d_step, _apply_n(u_step, 0, n), k)
    return lhs == rhs


def merge_identity_bottom(rho: Permutation) -> bool:
    """U^{q-1} D^{n-1} omega equals U^q D^n omega, where q = rho_n."""
    n = rho.n
    q = rho.values[-1]
    full = (1 << n) - 1
    u_step, d_step = _mask_steppers(rho)
    lhs = _apply_n(u_step, _apply_n(d_step, full, n - 1), q - 1)
    rhs = _apply_n(u_step, _apply_n(d_step, full, n), q)
    return lhs == rhs
