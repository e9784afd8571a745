"""Construction and structural analysis of the Preisach graph of a permutation.

The graph has one vertex per spin configuration reachable from alpha under
the up/down maps, a U-edge from every vertex except omega, and a D-edge from
every vertex except alpha.  A `PreisachGraph` holds it on vertex masks, bit
i-1 set meaning spin i is up, as two successor maps, `u_next` and `d_next`;
the keys of `u_next` and omega are the vertices.  An edge's label is the
one bit its two masks differ in; the fixed-point transitions at alpha and
omega are never stored.  `SpinConfig` is the view at the API boundary:
`alpha`, `omega`, `vertices` and `sigma in g`.  The exports list the
vertices in one canonical order, by +1 count and then by spin sequence,
which `_canonical_names` gives with each vertex's sign string.

The vertex budget is decided once, before anything is built, by
`_charge_graph`; the passes take none.

Two independent builders are provided.  `build_bfs` closes {alpha} under the
two maps.  `build_forward` grows one graph of n-spin configurations value by
value: the graph for the entries <= m+1 is the graph for the entries <= m,
whose vertices all have spin m+1 down, plus a copy, with spin m+1 up, of the
sub-loop hanging below the top vertex, joined by one U-edge and one D-edge
labeled m+1.  The two results are equal; the test suite checks this
exhaustively for small sizes.  On masks U is m | (m + 1) and D clears the
first set bit in scan order.  `build_bfs` keeps the maps of `_closure`, the
one breadth-first pass, which also labels phi of every vertex off the
shortest-path tree and raises `UniquenessViolation` where two shortest
paths meet; `build_forward` keeps those of `_forward_maps`.  The labels
are cons cells, not tuples: phi(t) is first[t] followed by phi(rest[t]),
rest[t] being reached before t, so the pass builds no label and a label
costs two table entries whatever its length.

`verify_lrpm` checks loop return-point memory by one walk over the major
sub-cycles of a pair (_subcycle_walk) on masks.  The walk records each
orbit once, only as far as the targets sought on it, and queues every
state it records, so a target already on a record needs no work; a
sub-cycle it queues from one orbit's record lies on that orbit by
construction, so it is checked on its other, open side only, and the
trivial pairs (s, s) are never queued; the checks of one record
extension share one queue entry.  The queue is first in, first out, and
the walk returns the depth at which it first meets each state in that
hierarchy of sub-cycles: from (alpha, omega), the nesting degree of
every vertex, which cmd_verify compares with the phi lengths.
`build_forward` does not walk: by return-point memory the loop it copies
is a plain closure (_loop_closure).  `_forward_agrees` runs its rule
against maps already built and checks each entry it would write, so
builder agreement needs no second graph.  Every step function here maps
a state to its successor, or to None at a fixed point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from .core import Permutation, SpinConfig
from .oracles import count_increasing, lis_patience

__all__ = [
    "DEFAULT_MAX_VERTICES",
    "VertexBudgetExceeded",
    "UniquenessViolation",
    "PreisachGraph",
    "build_bfs",
    "build_forward",
    "verify_lrpm",
    "merge_identity_top",
    "merge_identity_bottom",
]

# A mask's bits, spin 1 first, as a sign string: '+' up, '-' down.
_SIGNS = str.maketrans("10", "+-")

# The vertex count equals the number of increasing subsequences of the
# permutation, which reaches 2^n for the identity; budget instead of hanging.
DEFAULT_MAX_VERTICES = 1 << 20


class VertexBudgetExceeded(RuntimeError):
    """A construction would create more vertices than the allowed budget."""


class UniquenessViolation(RuntimeError):
    """Two distinct shortest paths reached the same vertex.

    Never expected: shortest paths from alpha are unique.  Raising instead of
    picking a winner turns that fact into a runtime-checked invariant.
    """


@dataclass(frozen=True)
class PreisachGraph:
    """The reachable configurations with their unique U- and D-successors,
    on vertex masks.  Immutable after construction; equality compares the
    permutation and the successor maps.  Unhashable on purpose: the maps are
    dicts, so a hash over the fields cannot be formed.
    """

    __hash__ = None  # type: ignore[assignment]

    perm: Permutation
    u_next: dict[int, int]
    d_next: dict[int, int]

    @property
    def n(self) -> int:
        return self.perm.n

    @property
    def edge_count(self) -> int:
        return len(self.u_next) + len(self.d_next)

    def config(self, mask: int) -> SpinConfig:
        """The configuration of a vertex mask."""
        return SpinConfig._unchecked(self.n, mask)

    @property
    def alpha(self) -> SpinConfig:
        return self.config(0)

    @property
    def omega(self) -> SpinConfig:
        return self.config((1 << self.n) - 1)

    def _masks(self) -> tuple[int, ...]:
        # every vertex but omega is a U-source
        return (*self.u_next, (1 << self.n) - 1)

    @property
    def vertices(self) -> frozenset[SpinConfig]:
        """The vertex configurations, made anew on each access."""
        return frozenset(map(self.config, self._masks()))

    def __contains__(self, sigma: SpinConfig) -> bool:
        return sigma.n == self.n and (
            sigma.mask in self.u_next or sigma.mask == (1 << self.n) - 1
        )

    def _canonical_names(self) -> tuple[list[int], dict[int, str]]:
        """The vertex masks in canonical order, and the name of each: its
        sign string, reading spin 1 first, '+' up and '-' down, formatted
        once.  The order is by +1 count, then by spin sequence with down
        before up: the masks go into buckets by bit count, and each bucket
        is sorted by name in reverse, since '-' sorts above '+'."""
        n = self.n
        # bin() of the mask with bit n set: "0b1" and then its n bits
        top = 1 << n
        name = {m: bin(m | top)[:2:-1].translate(_SIGNS) for m in self._masks()}
        buckets: list[list[int]] = [[] for _ in range(n + 1)]
        for m in name:
            buckets[m.bit_count()].append(m)
        order = []
        for bucket in buckets:
            bucket.sort(key=name.__getitem__, reverse=True)
            order += bucket
        return order, name

    def canonical_masks(self) -> list[int]:
        """Vertex masks sorted by +1 count, then by spin sequence read from
        spin 1 with down before up; the serialization order."""
        return self._canonical_names()[0]

    def canonical_vertices(self) -> list[SpinConfig]:
        """The configurations of canonical_masks(), in that order."""
        return list(map(self.config, self.canonical_masks()))


S = TypeVar("S")
# A stepper returns the successor of a state, or None at a fixed point.
Step = Callable[[S], "S | None"]


def _charge(count: int, max_vertices: int) -> None:
    """Raise VertexBudgetExceeded if a graph of count >= 1 vertices is over
    budget, naming a budget below 1 empty."""
    if count > max_vertices:
        if max_vertices < 1:
            raise VertexBudgetExceeded("vertex budget exceeded: budget is empty")
        raise VertexBudgetExceeded(
            f"vertex budget exceeded: graph needs more than {max_vertices} vertices"
        )


def _graph_size(rho: Permutation, lis: int, max_vertices: int) -> int:
    """count_increasing(rho), the vertex count of G(rho), or 2**lis when
    that lower bound (subsets of an increasing subsequence are increasing)
    is already over max_vertices; lis is the LIS length of rho."""
    bound = 1 << lis
    return bound if bound > max_vertices else count_increasing(rho)


def _charge_graph(rho: Permutation, max_vertices: int) -> None:
    """The budget gate: raise VertexBudgetExceeded if G(rho) has more than
    max_vertices vertices, decided without building, by the 2**LIS lower
    bound first, so that an identity of any length is refused at once."""
    _charge(_graph_size(rho, lis_patience(rho), max_vertices), max_vertices)


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


def _closure(
    u_step: Step[int], d_step: Step[int]
) -> tuple[dict[int, int], dict[int, int], dict[int, int], dict[int, int]]:
    """Close {alpha} under two steps on vertex masks, breadth-first, U
    explored before D from each dequeued vertex: the U- and D-successor maps
    and phi of every vertex as cons cells, in one pass.

    A vertex's tree parent v is the vertex that first reaches it, so the
    tree path is its shortest path.  phi(t) is first[t], the label of its
    tree edge (the one bit v ^ t), followed by phi(rest[t]): rest[t] is v
    when the edge's kind differs from v's tree-edge kind, so the edge
    prepends a switch-back label, and rest[v] when it is the same, so it
    replaces v's newest one.  alpha has no entry, its phi being ().  Both
    tables list the vertices in the order they are first reached, each
    rest[t] before t; _labels rebuilds the tuples, _label_lengths their
    lengths.  Raises UniquenessViolation if some vertex is reached by two
    distinct parents at the same depth.  The budget is the caller's.
    """
    u_next: dict[int, int] = {}
    d_next: dict[int, int] = {}
    first: dict[int, int] = {}
    rest: dict[int, int] = {}
    depth = {0: 0}
    # a queue entry carries a vertex, its children's depth, its tree-edge
    # kind (the map its tree edge is in) and its rest
    queue = deque([(0, 1, None, None)])
    while queue:
        v, d, tree_kind, v_rest = queue.popleft()
        for step, succ in ((u_step, u_next), (d_step, d_next)):
            t = step(v)
            if t is None:
                continue
            succ[v] = t
            seen = depth.get(t)
            if seen is None:
                depth[t] = d
                first[t] = (v ^ t).bit_length()
                r = rest[t] = v_rest if tree_kind is succ else v
                queue.append((t, d + 1, succ, r))
            elif seen == d:
                raise UniquenessViolation(f"uniqueness violated: two shortest paths reach {t}")
    return u_next, d_next, first, rest


def _labels(first: dict[int, int], rest: dict[int, int]) -> dict[int, tuple[int, ...]]:
    """phi of every vertex as a tuple, rebuilt from the cons cells of
    _closure from alpha, in their order: alpha first, labelled ()."""
    labels = {0: ()}
    for t, r in rest.items():
        labels[t] = (first[t],) + labels[r]
    return labels


def _label_lengths(rest: dict[int, int]) -> dict[int, int]:
    """len(phi(t)) for alpha and every vertex t of a rest table from
    alpha, in its order: one more than the length of rest[t], alpha's
    being 0.  A rest[t] not listed before t, which _closure never makes,
    counts as -1, so t gets 0 and fails Staircase.encodes_cells; nothing
    raises."""
    lengths = {0: 0}
    get = lengths.get
    for t, r in rest.items():
        lengths[t] = get(r, -1) + 1
    return lengths


def _loop_closure(u_next: dict, d_next: dict, bottom: int, top: int) -> set[int]:
    """The loop (bottom, top) of a graph grown so far, in O(|loop|): by return-point
    memory, what the maps reach from top but for U from top and D from bottom."""
    loop, stack = {top}, [top]
    while stack:
        v = stack.pop()
        if v != top and (t := u_next[v]) not in loop:
            loop.add(t)
            stack.append(t)
        if v != bottom and (t := d_next[v]) not in loop:
            loop.add(t)
            stack.append(t)
    return loop


def _forward_steps(
    rho: Permutation, u_next: dict[int, int], d_next: dict[int, int]
) -> Iterator[tuple[int, int, int, set[int]]]:
    """The steps m = 2..n of build_forward, read off maps that hold at
    least the graph grown so far: for each, (bit, bottom, top, loop), bit
    being 1 << (m-1) and loop the closure (bottom, top) it copies.  The
    maps are read lazily, so a caller may grow them between steps."""
    top = 1
    for m in range(2, rho.n + 1):
        k = sum(1 for v in rho.values[: rho.position_of(m)] if v <= m)
        bottom = top
        for _ in range(k - 1):
            bottom = d_next[bottom]
        bit = 1 << (m - 1)
        yield bit, bottom, top, _loop_closure(u_next, d_next, bottom, top)
        top |= bit


def _forward_maps(rho: Permutation) -> tuple[dict[int, int], dict[int, int]]:
    """build_forward on vertex masks: the U- and D-successor maps."""
    u_next = {0: 1}
    d_next = {1: 0}
    for bit, bottom, top, loop in _forward_steps(rho, u_next, d_next):
        for v in loop:
            if v != top:
                u_next[v | bit] = u_next[v] | bit
            if v != bottom:
                d_next[v | bit] = d_next[v] | bit
        u_next[top] = top | bit
        d_next[bottom | bit] = bottom
    return u_next, d_next


def _forward_agrees(rho: Permutation, u_next: dict[int, int], d_next: dict[int, int]) -> bool:
    """Whether (u_next, d_next) == _forward_maps(rho), without building it:
    _forward_maps's rule run against the given maps, each entry it would
    write checked to be there already.

    Sound by induction.  The seeds {0: 1} and {1: 0} are checked first.  A
    step reads only entries of the vertices grown so far, and each of those
    has passed its check, but for the top's U-edge, which the given maps
    hold and the partial forward graph lacks; _loop_closure never follows
    it.  So every step reads what _forward_maps reads, and checks what it
    writes: v | bit to the successor of v with bit set, for each loop
    vertex v but the top (U) and the bottom (D), then the joining U-edge
    of the top and D-edge of bottom | bit, 2 |loop| entries in all.  The
    keys written are distinct, so the maps are the forward ones exactly
    when every written entry is there and the maps hold no more.  A read
    the maps lack, from a forged entry, answers False; nothing raises.
    """
    if u_next.get(0) != 1 or d_next.get(1) != 0:
        return False
    u_get, d_get = u_next.get, d_next.get
    written = 2
    try:
        for bit, bottom, top, loop in _forward_steps(rho, u_next, d_next):
            for v in loop:
                if v != top and u_get(v | bit) != u_next[v] | bit:
                    return False
                if v != bottom and d_get(v | bit) != d_next[v] | bit:
                    return False
            if u_get(top) != top | bit or d_get(bottom | bit) != bottom:
                return False
            written += 2 * len(loop)
    except KeyError:
        return False
    return written == len(u_next) + len(d_next)


def build_bfs(rho: Permutation, max_vertices: int = DEFAULT_MAX_VERTICES) -> PreisachGraph:
    """Close {alpha} under the two maps, recording every non-fixed-point
    transition as an edge.  From each dequeued vertex the U-successor
    is explored before the D-successor.  The pass also labels phi (see
    _closure); the labels are dropped.  The budget is decided first."""
    _charge_graph(rho, max_vertices)
    u_next, d_next, _, _ = _closure(*_mask_steppers(rho))
    return PreisachGraph(rho, u_next, d_next)


def build_forward(rho: Permutation, max_vertices: int = DEFAULT_MAX_VERTICES) -> PreisachGraph:
    """Grow the graph value by value instead of closing under the maps.

    Every vertex carries all n spins from the start, a spin not yet added
    being down, so the graph of the entries <= m-1 already is the part of
    the graph of the entries <= m with spin m down.  Step m (2 <= m <= n)
    grows it in place: the loop between D^{k-1}(top) and the top vertex, k
    being the position of m among the entries <= m, is copied with spin m
    up, v to v | 1 << (m-1), keeping edge labels; one U-edge and one D-edge
    labeled m join the two parts.  No vertex outside the copied loop, a
    plain closure of top (_loop_closure), is touched.  Returns a graph equal
    to build_bfs(rho), and decides the budget as it does, first.
    """
    _charge_graph(rho, max_vertices)
    return PreisachGraph(rho, *_forward_maps(rho))


def _subcycle_walk(u_succ: Step, d_succ: Step, mu, nu) -> dict | None:
    """Walk the major sub-cycles of (mu, nu): from a reached pair (m, v) on
    to (m, u) for each state u of its U-boundary and (w, v) for each state w
    of its D-boundary.  Returns the nesting degree of every state the walk
    meets, or None as soon as a reached pair is not a cycle.

    u_succ and d_succ map a state to its successor, or to None at a fixed
    point; states are any hashable values.  The U-boundary of (m, v) is the
    prefix of m's U-orbit ending at v, so the pairs reached with lower end m
    are (m, U^i m) for i up to some bound, and likewise those with upper end
    v are (D^j v, v).  Each orbit is therefore recorded once, as a list
    that grows only as far as the targets sought on it.  A check whose
    target is already on the record has nothing to do; one that steps
    stops at its target and adds and queues every new state before it, so
    every state of a record has been queued.  Every orbit state is stepped,
    added and queued once: O(reached pairs) steps, not O(pairs x boundary).

    A pair is a cycle when v is on the U-orbit of m and m on the D-orbit of
    v.  A child (m, U^i m) queued from m's U-record is on that orbit by
    construction, so it checks only its open side, m on the D-orbit of
    U^i m, and a child queued from a D-record only its U side; the root
    checks both.  A queue entry (side, sources, b) holds the checks one
    record extension queues, b sought on the side-orbit of each state of
    sources, so a check that queues nothing costs no entry; the roots are
    (U, (mu,), nu) and (D, (nu,), mu).  Index 0 of a record, the pair
    (s, s), is a cycle whose only child is itself, so it is never queued,
    and a root (s, s) finds its target on the new record and returns at
    once.  A check scans its record, which for the maps holds at most n+1
    states, as each step changes the +1 count by one; an index dict per
    orbit would double the walk's memory.  A state met twice on one orbit
    means the orbit cycles and never reaches its target, so that pair is
    not a cycle either.

    The degrees are the hierarchy's depth: mu has 0, and a state gets
    deg[a] + 1 when it is first added to the record of a source a, the
    queue being first in, first out.  Each record extension is one block
    of same-kind steps from a, so a degree counts the runs of some path
    from mu and is never below the fewest alternating blocks, the nesting
    degree.  That first discovery in this order gives the fewest, so that
    on the maps from alpha the degrees equal len(phi), is checked, not
    proved: on every permutation with n <= 7 and on n = 22 inputs, on the
    breadth-first maps and on the raw steppers, against _label_lengths,
    oracle_routes._alternation_masks and oracle_routes.fixpoint_degrees.
    A degree off from len(phi) makes cmd_verify fail; none can make it
    pass falsely.  Every state the walk meets is a key, mu and nu
    included: for (alpha, omega), every vertex.

    >>> u_next, d_next, _, _ = _closure(*_mask_steppers(Permutation((2, 3, 1))))
    >>> sorted(_subcycle_walk(u_next.get, d_next.get, 0, 0b111).items())
    [(0, 0), (1, 1), (3, 1), (5, 2), (7, 1)]
    >>> print(_subcycle_walk(u_next.get, {**d_next, 0b011: 0}.get, 0, 0b111))
    None
    >>> _subcycle_walk(u_next.get, d_next.get, 0b011, 0b011)  # (s, s): no step
    {3: 0}
    """
    sides = ((u_succ, {}), (d_succ, {}))
    deg = {mu: 0}
    # the U root runs first and reaches nu, giving it a degree before the
    # D root reads it
    queue = deque([(0, (mu,), nu), (1, (nu,), mu)])
    while queue:
        side, sources, b = queue.popleft()
        succ, records = sides[side]
        for a in sources:
            states = records.get(a)
            if states is None:
                states = records[a] = [a]
            if b in states:
                continue
            p = len(states)
            cur = states[-1]
            d = deg[a] + 1
            while (cur := succ(cur)) is not None and cur not in states:
                states.append(cur)
                if cur not in deg:
                    deg[cur] = d
                if cur == b:
                    break
            else:
                return None
            # the last state is b: the pair being checked, met already and
            # not queued, so an extension by b alone queues no entry
            if len(states) - p > 1:
                queue.append((1 - side, states[p:-1], a))
    return deg


def verify_lrpm(
    g: PreisachGraph, mu: SpinConfig | None = None, nu: SpinConfig | None = None
) -> bool:
    """Loop return-point memory of (mu, nu), default (alpha, omega), in the
    built graph: true iff every pair the major sub-cycle walk reaches from
    (mu, nu) is a cycle.

    No separate absorption test is needed.  For a reached pair (m, v), each
    U-boundary state u lies on the U-orbit of m by construction, so "u
    returns to m under D" is exactly the cycle condition of the child
    (m, u), and the only side the walk checks for it; likewise "w returns
    to v under U", for a D-boundary state w, is the cycle condition of the
    child (w, v).  The walk reaches every child but the trivial (m, m) and
    (v, v), which are cycles, so "every reached pair is a cycle" is "every
    reached pair is an absorbing cycle", the recursive definition
    oracle_routes.check_lrpm evaluates.

    An orbit that cycles never reaches its target, and an edge into a mask
    that is no vertex, which has no edges of its own, ends its orbit, so a
    pair that needs either is not a cycle and the result is False.
    """
    if (mu is not None and mu not in g) or (nu is not None and nu not in g):
        raise ValueError("not a vertex")
    bottom = 0 if mu is None else mu.mask
    top = (1 << g.n) - 1 if nu is None else nu.mask
    return _subcycle_walk(g.u_next.get, g.d_next.get, bottom, top) is not None


def _apply_n(step: Step[int], m: int, times: int) -> int:
    """step applied `times` times, a fixed point mapping to itself."""
    for _ in range(times):
        t = step(m)
        if t is None:
            break
        m = t
    return m


def _merge_top(rho: Permutation, u_step: Step[int], d_step: Step[int]) -> bool:
    """merge_identity_top on the mask steppers of rho."""
    n = rho.n
    k = rho.position_of(n)
    below = _apply_n(u_step, 0, n - 1)
    return _apply_n(d_step, below, k - 1) == _apply_n(d_step, _apply_n(u_step, below, 1), k)


def _merge_bottom(rho: Permutation, u_step: Step[int], d_step: Step[int]) -> bool:
    """merge_identity_bottom on the mask steppers of rho."""
    n = rho.n
    q = rho.values[-1]
    above = _apply_n(d_step, (1 << n) - 1, n - 1)
    return _apply_n(u_step, above, q - 1) == _apply_n(u_step, _apply_n(d_step, above, 1), q)


def merge_identity_top(rho: Permutation) -> bool:
    """D^{k-1} U^{n-1} alpha equals D^k U^n alpha, where rho_k = n.  The
    U-chain is walked once: U^n alpha is one more step from U^{n-1} alpha."""
    return _merge_top(rho, *_mask_steppers(rho))


def merge_identity_bottom(rho: Permutation) -> bool:
    """U^{q-1} D^{n-1} omega equals U^q D^n omega, where q = rho_n.  The
    D-chain is walked once: D^n omega is one more step from D^{n-1} omega."""
    return _merge_bottom(rho, *_mask_steppers(rho))
