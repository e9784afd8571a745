"""Construction and structural analysis of the Preisach graph of a permutation.

The graph has one vertex per spin configuration reachable from alpha under
the up/down maps, a U-edge from every vertex except omega, and a D-edge from
every vertex except alpha.  Edges carry the index of the spin they flip.
The fixed-point transitions at alpha and omega are never stored.

Two independent builders are provided.  `build_bfs` closes {alpha} under the
two maps.  `build_forward` grows one graph of n-spin configurations value by
value: the graph for the entries <= m+1 is the graph for the entries <= m,
whose vertices all have spin m+1 down, plus a copy, with spin m+1 up, of the
sub-loop hanging below the top vertex, joined by one U-edge and one D-edge
labeled m+1.  The two results are equal as labeled graphs; the test suite
checks this exhaustively for small sizes.

Cycles, absorption, loop return-point memory and loops follow the orbit
definitions directly; `verify_lrpm` is an equivalent accelerated check for
an already-built graph, cross-validated against the direct one in the tests.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import (
    Permutation,
    SpinConfig,
    SpinIndex,
    alpha,
    apply_D,
    apply_U,
    i_minus,
    i_plus,
    omega,
)

__all__ = [
    "DEFAULT_MAX_VERTICES",
    "VertexBudgetExceeded",
    "EdgeKind",
    "LabeledEdge",
    "PreisachGraph",
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
    "canonical_key",
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
    """A single transition; `label` is the 1-based index of the flipped spin."""

    src: SpinConfig
    dst: SpinConfig
    kind: EdgeKind
    label: SpinIndex


@dataclass(frozen=True, eq=True)
class PreisachGraph:
    """The reachable configurations with their unique U- and D-successors.

    Immutable after construction; equality is structural over vertices,
    edges, kinds and labels.  Unhashable on purpose: the edge maps are dicts,
    so a hash over the fields cannot be formed.
    """

    __hash__ = None  # type: ignore[assignment]

    perm: Permutation
    vertices: frozenset[SpinConfig]
    u_next: dict[SpinConfig, LabeledEdge]
    d_next: dict[SpinConfig, LabeledEdge]
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
        return sorted(self.vertices, key=canonical_key)

    def canonical_edges(self) -> list[LabeledEdge]:
        """Per canonical vertex, its U-edge then its D-edge."""
        out = []
        for v in self.canonical_vertices():
            if v in self.u_next:
                out.append(self.u_next[v])
            if v in self.d_next:
                out.append(self.d_next[v])
        return out


@dataclass(frozen=True)
class Cycle:
    """An ordered pair (mu, nu) with nu on the U-orbit of mu and mu on the
    D-orbit of nu, together with the two inclusive boundary orbits."""

    mu: SpinConfig
    nu: SpinConfig
    u_boundary: tuple[SpinConfig, ...]
    d_boundary: tuple[SpinConfig, ...]


def canonical_key(sigma: SpinConfig) -> tuple[int, tuple[int, ...]]:
    return (sigma.count_plus(), sigma.spins)


# A stepper returns (successor, flipped spin) or None at a fixed point.
Stepper = Callable[[SpinConfig], "tuple[SpinConfig, SpinIndex] | None"]


def _map_steppers(rho: Permutation) -> tuple[Stepper, Stepper]:
    def u_step(s: SpinConfig):
        i = i_plus(s)
        return None if i is None else (s.flipped(i), i)

    def d_step(s: SpinConfig):
        i = i_minus(s, rho)
        return None if i is None else (s.flipped(i), i)

    return u_step, d_step


def _dict_steppers(
    u_next: dict[SpinConfig, LabeledEdge], d_next: dict[SpinConfig, LabeledEdge]
) -> tuple[Stepper, Stepper]:
    def u_step(s: SpinConfig):
        e = u_next.get(s)
        return None if e is None else (e.dst, e.label)

    def d_step(s: SpinConfig):
        e = d_next.get(s)
        return None if e is None else (e.dst, e.label)

    return u_step, d_step


def _chain(step: Stepper, start: SpinConfig, target: SpinConfig) -> list[SpinConfig] | None:
    """The orbit segment from start up to and including target, or None if the
    orbit hits its fixed point without reaching target."""
    out = [start]
    cur = start
    while cur != target:
        nxt = step(cur)
        if nxt is None:
            return None
        cur = nxt[0]
        out.append(cur)
    return out


def _reaches(step: Stepper, start: SpinConfig, target: SpinConfig) -> bool:
    cur = start
    while cur != target:
        nxt = step(cur)
        if nxt is None:
            return False
        cur = nxt[0]
    return True


def _charge(vertices: set, max_vertices: int) -> None:
    if len(vertices) + 1 > max_vertices:
        raise VertexBudgetExceeded(
            f"vertex budget exceeded: graph needs more than {max_vertices} vertices"
        )


def build_bfs(rho: Permutation, max_vertices: int = DEFAULT_MAX_VERTICES) -> PreisachGraph:
    """Close {alpha} under the two maps, recording every non-fixed-point
    transition as a labeled edge.  From each dequeued vertex the U-successor
    is explored before the D-successor."""
    start = alpha(rho.n)
    if max_vertices < 1:
        raise VertexBudgetExceeded("vertex budget exceeded: budget is empty")
    vertices = {start}
    u_next: dict[SpinConfig, LabeledEdge] = {}
    d_next: dict[SpinConfig, LabeledEdge] = {}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        i = i_plus(v)
        if i is not None:
            t = v.flipped(i)
            u_next[v] = LabeledEdge(v, t, EdgeKind.U, i)
            if t not in vertices:
                _charge(vertices, max_vertices)
                vertices.add(t)
                queue.append(t)
        i = i_minus(v, rho)
        if i is not None:
            t = v.flipped(i)
            d_next[v] = LabeledEdge(v, t, EdgeKind.D, i)
            if t not in vertices:
                _charge(vertices, max_vertices)
                vertices.add(t)
                queue.append(t)
    return PreisachGraph(rho, frozenset(vertices), u_next, d_next, start, omega(rho.n))


def build_forward(rho: Permutation, max_vertices: int = DEFAULT_MAX_VERTICES) -> PreisachGraph:
    """Grow the graph value by value instead of closing under the maps.

    Every vertex carries all n spins from the start, a spin not yet added
    being -1, so the graph of the entries <= m-1 already is the part of the
    graph of the entries <= m with spin m down.  Step m (2 <= m <= n) grows
    it in place: the loop between D^{k-1}(top) and the top vertex, k being
    the position of m among the entries <= m, is duplicated with spin m
    flipped to +1, keeping edge labels; one U-edge and one D-edge labeled m
    join the two parts.  No vertex outside the duplicated loop is touched.

    Returns a graph equal to build_bfs(rho).
    """
    if max_vertices < 2:
        raise VertexBudgetExceeded(
            f"vertex budget exceeded: graph needs more than {max_vertices} vertices"
        )
    start = alpha(rho.n)
    top = start.flipped(1)
    vertices = {start, top}
    u_next = {start: LabeledEdge(start, top, EdgeKind.U, 1)}
    d_next = {top: LabeledEdge(top, start, EdgeKind.D, 1)}
    u_step, d_step = _dict_steppers(u_next, d_next)

    for m in range(2, rho.n + 1):
        k = sum(1 for v in rho.values[: rho.position_of(m)] if v <= m)
        bottom = top
        for _ in range(k - 1):
            bottom = d_next[bottom].dst
        loop = _loop_union(u_step, d_step, bottom, top)
        if len(vertices) + len(loop) > max_vertices:
            raise VertexBudgetExceeded(
                f"vertex budget exceeded: graph needs more than {max_vertices} vertices"
            )

        copy = {v: v.flipped(m) for v in loop}
        vertices.update(copy.values())
        for v, src in copy.items():
            if v != top:
                e = u_next[v]
                if e.dst not in copy:
                    raise RuntimeError("loop not closed under U")
                u_next[src] = LabeledEdge(src, copy[e.dst], EdgeKind.U, e.label)
            if v != bottom:
                e = d_next[v]
                if e.dst not in copy:
                    raise RuntimeError("loop not closed under D")
                d_next[src] = LabeledEdge(src, copy[e.dst], EdgeKind.D, e.label)

        u_next[top] = LabeledEdge(top, copy[top], EdgeKind.U, m)
        d_next[copy[bottom]] = LabeledEdge(copy[bottom], bottom, EdgeKind.D, m)
        top = copy[top]

    return PreisachGraph(rho, frozenset(vertices), u_next, d_next, start, top)


def u_orbit(rho: Permutation, sigma: SpinConfig) -> list[SpinConfig]:
    """sigma, U sigma, U^2 sigma, ... up to and including omega."""
    u_step, _ = _map_steppers(rho)
    return _orbit(u_step, sigma)


def d_orbit(rho: Permutation, sigma: SpinConfig) -> list[SpinConfig]:
    """sigma, D sigma, D^2 sigma, ... up to and including alpha."""
    _, d_step = _map_steppers(rho)
    return _orbit(d_step, sigma)


def _orbit(step: Stepper, sigma: SpinConfig) -> list[SpinConfig]:
    out = [sigma]
    cur = sigma
    while (nxt := step(cur)) is not None:
        cur = nxt[0]
        out.append(cur)
    return out


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
    return all(_reaches(d_step, u, c.mu) for u in c.u_boundary) and all(
        _reaches(u_step, v, c.nu) for v in c.d_boundary
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
        absorbed = all(_reaches(d_step, u, mu) for u in ub) and all(
            _reaches(u_step, v, nu) for v in db
        )
        if not absorbed:
            memo[key] = False
            return False
        ok = all(has_lrpm(mu, u) for u in ub) and all(has_lrpm(v, nu) for v in db)
        memo[key] = ok
        return ok

    return has_lrpm(c.mu, c.nu)


def _loop_union(
    u_step: Stepper, d_step: Stepper, mu: SpinConfig, nu: SpinConfig
) -> set[SpinConfig]:
    """Iterative union of the boundary states of major sub-cycles of (mu, nu)."""
    seen: set[tuple[SpinConfig, SpinConfig]] = set()
    verts: set[SpinConfig] = set()
    stack = [(mu, nu)]
    while stack:
        pair = stack.pop()
        if pair in seen:
            continue
        seen.add(pair)
        m, v = pair
        ub = _chain(u_step, m, v)
        db = _chain(d_step, v, m)
        if ub is None or db is None:
            raise RuntimeError("cycle structure violated inside a loop")
        verts.update(ub)
        verts.update(db)
        for u in ub:
            if (m, u) not in seen:
                stack.append((m, u))
        for w in db:
            if (w, v) not in seen:
                stack.append((w, v))
    return verts


def loop_vertices(rho: Permutation, c: Cycle) -> set[SpinConfig]:
    """All vertices of the loop (mu, nu): the iterative union of boundary
    states of major sub-cycles.  Requires the cycle to be absorbing."""
    if not check_absorption(rho, c):
        raise ValueError("not absorbing")
    u_step, d_step = _map_steppers(rho)
    return _loop_union(u_step, d_step, c.mu, c.nu)


class _OrbitForest:
    """Preorder intervals over a successor map, rooted at its fixed point.

    `on_orbit(t, s)` answers "does the successor orbit of s pass through t"
    in O(1): t lies on the orbit of s iff s is in the subtree of t.
    """

    def __init__(
        self,
        next_map: dict[SpinConfig, LabeledEdge],
        root: SpinConfig,
        vertices: Iterable[SpinConfig],
    ) -> None:
        children: dict[SpinConfig, list[SpinConfig]] = {v: [] for v in vertices}
        for src, e in next_map.items():
            children[e.dst].append(src)
        tin: dict[SpinConfig, int] = {}
        tout: dict[SpinConfig, int] = {}
        t = 0
        stack: list[tuple[SpinConfig, bool]] = [(root, False)]
        while stack:
            v, done = stack.pop()
            if done:
                tout[v] = t
                continue
            tin[v] = t
            t += 1
            stack.append((v, True))
            for c in children[v]:
                stack.append((c, False))
        self._tin = tin
        self._tout = tout

    def on_orbit(self, target: SpinConfig, start: SpinConfig) -> bool:
        return self._tin[target] <= self._tin[start] < self._tout[target]


def verify_lrpm(
    g: PreisachGraph, mu: SpinConfig | None = None, nu: SpinConfig | None = None
) -> bool:
    """check_lrpm of (mu, nu), default (alpha, omega), evaluated against the
    built graph: orbit membership becomes an O(1) ancestor test in the two
    successor forests.  Same definition and result as check_lrpm; the tests
    cross-validate the two on small graphs."""
    mu = g.alpha if mu is None else mu
    nu = g.omega if nu is None else nu
    dfor = _OrbitForest(g.d_next, g.alpha, g.vertices)
    ufor = _OrbitForest(g.u_next, g.omega, g.vertices)
    u_step, d_step = _dict_steppers(g.u_next, g.d_next)
    memo: dict[tuple[SpinConfig, SpinConfig], bool] = {}

    def has_lrpm(m: SpinConfig, v: SpinConfig) -> bool:
        key = (m, v)
        if key in memo:
            return memo[key]
        memo[key] = True
        if not (ufor.on_orbit(v, m) and dfor.on_orbit(m, v)):
            memo[key] = False
            return False
        ub = _chain(u_step, m, v)
        db = _chain(d_step, v, m)
        assert ub is not None and db is not None
        absorbed = all(dfor.on_orbit(m, u) for u in ub) and all(
            ufor.on_orbit(v, w) for w in db
        )
        if not absorbed:
            memo[key] = False
            return False
        ok = all(has_lrpm(m, u) for u in ub) and all(has_lrpm(w, v) for w in db)
        memo[key] = ok
        return ok

    if mu not in g.vertices or nu not in g.vertices:
        raise ValueError("not a vertex")
    return has_lrpm(mu, nu)


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
        top = g.u_next[top].dst
    lower = loop_vertices(rho, cycle_of(rho, g.alpha, top))
    k = rho.position_of(n)
    bottom = g.omega
    for _ in range(k - 1):
        bottom = g.d_next[bottom].dst
    upper = loop_vertices(rho, cycle_of(rho, bottom, g.omega))
    return lower, upper, (g.u_next[top], g.d_next[bottom])


def _apply_n(f, sigma: SpinConfig, rho: Permutation, times: int) -> SpinConfig:
    for _ in range(times):
        sigma = f(sigma, rho)
    return sigma


def merge_identity_top(rho: Permutation) -> bool:
    """D^{k-1} U^{n-1} alpha equals D^k U^n alpha, where rho_k = n."""
    n = rho.n
    k = rho.position_of(n)
    lhs = _apply_n(apply_D, _apply_n(apply_U, alpha(n), rho, n - 1), rho, k - 1)
    rhs = _apply_n(apply_D, _apply_n(apply_U, alpha(n), rho, n), rho, k)
    return lhs == rhs


def merge_identity_bottom(rho: Permutation) -> bool:
    """U^{q-1} D^{n-1} omega equals U^q D^n omega, where q = rho_n."""
    n = rho.n
    q = rho.values[-1]
    lhs = _apply_n(apply_U, _apply_n(apply_D, omega(n), rho, n - 1), rho, q - 1)
    rhs = _apply_n(apply_U, _apply_n(apply_D, omega(n), rho, n), rho, q)
    return lhs == rhs
