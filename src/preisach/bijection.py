"""The vertex/subsequence bijection phi and the nesting degree.

Every vertex has a unique shortest path from alpha.  Reading that path as
maximal runs of same-kind edges gives an alternating block structure whose
first block always goes up.  The states where the kind changes, plus the
destination, are the switch-back states; collecting the labels of the edges
entering them and reversing the list yields an increasing subsequence of the
driving permutation, a plain tuple of values.  This map is a bijection
between vertices and the increasing subsequences (the empty one included),
and the subsequence length equals the nesting degree of the vertex: the
minimal number of alternating blocks needed to reach it.

`phi_all` labels every vertex in one breadth-first pass over the graph's
successor maps: `graph._closure`, the pass that also builds the
breadth-first graph and raises `UniquenessViolation` (defined in `graph`,
re-exported here).  `cli.cmd_verify` takes the breadth-first maps and phi
from one call of that pass, and compares the phi lengths with the nesting
degrees read off the hierarchy of cycles and sub-cycles: the depth at
which the major sub-cycle walk from (alpha, omega) first meets each vertex
(`graph._subcycle_walk`).  A forged graph whose walk fails has no such
degrees, so its bijection check fails too.  Functions of a graph take and
return configurations (`SpinConfig`) and work on its masks inside.

`Staircase` is phi and its inverse in closed form: a vertex is a nested
staircase of U- and D-wipes, one per subsequence value, so encoding a
subsequence and decoding a vertex mask take no graph.  The pass labels
phi as cons cells, phi(t) being first[t] followed by phi(rest[t]), and
`cmd_verify` checks that the labels encode back to their vertices on the
cells themselves (`Staircase.encodes_cells`), one wipe per vertex; only
`phi_all` rebuilds the tuples.  `phi` and `nesting_degree` of one vertex,
and the CLI's `phi`, `phi-inverse` and `nesting --vertex`, answer through
the codec; `encode` is the one production check that a tuple is an
increasing subsequence.  The oracle routes of this module are in
`oracle_routes`.
"""

from __future__ import annotations

from .core import Permutation, SpinConfig
from .graph import (
    PreisachGraph,
    UniquenessViolation,
    _closure,
    _label_lengths,
    _labels,
)

__all__ = [
    "UniquenessViolation",
    "Staircase",
    "phi",
    "phi_all",
    "nesting_degree",
    "nesting_degrees",
    "nesting_of_graph",
]


def _rejection(vals: tuple, rho: Permutation) -> str | None:
    """Why `vals` is no increasing subsequence of rho, by the literal
    definition scanned forward: both the values and their positions in rho
    strictly increase.  None if it is one; the empty sequence is."""
    last_v = last_p = 0
    for v in vals:
        if not 1 <= v <= rho.n:
            return f"not an increasing subsequence of {rho.values}: value {v} out of range"
        p = rho.position_of(v)
        if v <= last_v or p <= last_p:
            return f"not an increasing subsequence of {rho.values}: {vals}"
        last_v, last_p = v, p
    return None


class Staircase:
    """phi and its inverse for one permutation, read off the vertex mask.

    A U-block of a shortest path that ends by flipping spin s sets every
    spin <= s up, and a D-block that ends by flipping s sets down every spin
    at a position <= pos(s) in rho; no other spin changes.  So the vertex of
    s_1 < ... < s_k is alpha with these wipes applied for s_k, s_{k-1}, ...,
    s_1, a U-wipe first: a nested staircase, as in the memory of the
    Preisach model.  `encode` applies the wipes; `decode` reads them back
    from the outside in: the up spin of largest value, then, among the
    spins of smaller value and position, the down spin of largest
    position, and so on, alternating, until no spin qualifies.

    decode(encode(s)) == s for every increasing subsequence s, and decode
    maps any mask to one, so encode(decode(m)) == m exactly when m is a
    vertex.  The tests check both against the breadth-first phi and the
    constructive walk (oracle_routes.phi_inverse_constructive).

    >>> code = Staircase(Permutation((2, 3, 1)))
    >>> bin(code.encode((2, 3)))  # U-wipe at 3: +++; D-wipe at 2, position 1: +-+
    '0b101'
    >>> code.decode(0b101)
    (2, 3)
    >>> [m for m in range(8) if code.encode(code.decode(m)) == m]
    [0, 1, 3, 5, 7]
    >>> code.decode(0b010), bin(code.encode((2,)))  # -+- is no vertex
    ((2,), '0b11')
    """

    __slots__ = ("_rho", "_values", "_pos", "_prefix")

    def __init__(self, rho: Permutation) -> None:
        self._rho = rho
        self._values = rho.values
        # pos[v] is the 1-based position of value v; prefix[p] the bits of rho_1..rho_p
        self._pos = {v: p for p, v in enumerate(rho.values, 1)}
        self._prefix = [0]
        for v in rho.values:
            self._prefix.append(self._prefix[-1] | 1 << (v - 1))

    def encode(self, values) -> int:
        """The vertex mask of the increasing subsequence `values`, in O(k).
        Raises ValueError if `values` is not one, with the message of
        `oracle_routes.increasing_subsequence`."""
        pos, prefix = self._pos, self._prefix
        mask = 0
        up = True
        v_bound = p_bound = len(self._values) + 1
        for s in reversed(values):
            p = pos.get(s)
            if p is None or s >= v_bound or p >= p_bound:
                raise ValueError(_rejection(tuple(values), self._rho))
            if up:
                mask |= (1 << s) - 1
            else:
                mask &= ~prefix[p]
            up = not up
            v_bound, p_bound = s, p
        return mask

    def encodes_cells(
        self, first: dict[int, int], rest: dict[int, int], lengths: dict[int, int]
    ) -> bool:
        """Whether every label of _closure's cons cells from alpha is an
        increasing subsequence that encodes to its vertex, in O(1) per
        vertex; lengths is _label_lengths(rest).

        encode folds over the values from the last, so phi(t) = (s, *phi(r))
        encodes to t, given that phi(r) encodes to r, exactly when s is
        below h, the first value of phi(r) (n+1 if r is alpha), at a lower
        position, and its wipe takes r to t: a U-wipe, t = r | (2^s - 1),
        when len(phi(t)) is odd, and a D-wipe, t = r & ~prefix[pos(s)],
        when it is even.  The vertices are checked in table order, so r has
        passed before t does.  A first[t] that is no value of rho, a
        rest[t] that is no vertex or is not listed before t (its length
        then differs from lengths[t] - 1), a missing entry or a table of
        the wrong size fails; nothing raises.

        >>> from preisach.graph import _mask_steppers
        >>> rho = Permutation((2, 3, 1))
        >>> _, _, first, rest = _closure(*_mask_steppers(rho))
        >>> code = Staircase(rho)
        >>> code.encodes_cells(first, rest, _label_lengths(rest))
        True
        >>> forged = {**first, 0b101: 1}  # (1, 3) for (2, 3)
        >>> code.encodes_cells(forged, rest, _label_lengths(rest))
        False
        """
        top = len(self._values) + 1
        pos, prefix = {**self._pos, top: top}, self._prefix
        if not len(first) == len(rest) == len(lengths) - 1:
            return False
        try:
            for t, r in rest.items():
                s = first[t]
                k = lengths[t]
                if k != lengths[r] + 1:
                    return False
                h = first[r] if r else top
                p = pos[s]
                if not s < h or p >= pos[h]:
                    return False
                if t != (r | ((1 << s) - 1) if k & 1 else r & ~prefix[p]):
                    return False
        except (KeyError, TypeError):
            return False
        return True

    def decode(self, mask: int) -> tuple[int, ...]:
        """The increasing subsequence whose staircase `mask` shows; phi of
        the mask if it is a vertex.  An up spin is found by bit arithmetic,
        a down spin by scanning positions downwards; the scans cover
        disjoint ranges of positions, so the whole decode is O(n)."""
        values, pos, prefix = self._values, self._pos, self._prefix
        found: list[int] = []
        v_bound = p_bound = len(values) + 1
        up = True
        while True:
            if up:
                s = (mask & ((1 << (v_bound - 1)) - 1) & prefix[p_bound - 1]).bit_length()
            else:
                s = 0
                for p in range(p_bound - 1, 0, -1):
                    v = values[p - 1]
                    if v < v_bound and not mask >> (v - 1) & 1:
                        s = v
                        break
            if not s:
                break
            found.append(s)
            v_bound, p_bound = s, pos[s]
            up = not up
        found.reverse()
        return tuple(found)


def phi(g: PreisachGraph, sigma: SpinConfig) -> tuple[int, ...]:
    """The increasing subsequence of a vertex: switch-back labels of its
    shortest path, reversed.  Read off its staircase (Staircase.decode) in
    O(n) once sigma is checked to be a vertex; the graph is not relabelled."""
    if sigma not in g:
        raise ValueError(f"not a vertex: {sigma.spins}")
    return Staircase(g.perm).decode(sigma.mask)


def phi_all(g: PreisachGraph) -> dict[SpinConfig, tuple[int, ...]]:
    """phi for every vertex, labelled by the breadth-first pass (_closure)
    on g's successor maps and rebuilt as tuples (_labels); g is built, so
    there is no budget to decide."""
    _, _, first, rest = _closure(g.u_next.get, g.d_next.get)
    return {g.config(m): s for m, s in _labels(first, rest).items()}


def nesting_degree(g: PreisachGraph, sigma: SpinConfig) -> int:
    """Number of blocks of the unique shortest path to sigma; 0 for alpha."""
    return len(phi(g, sigma))


def nesting_degrees(g: PreisachGraph) -> dict[SpinConfig, int]:
    """Nesting degree of every vertex: the length of its phi, from the
    cons cells of the breadth-first pass (_label_lengths)."""
    rest = _closure(g.u_next.get, g.d_next.get)[3]
    return {g.config(m): k for m, k in _label_lengths(rest).items()}


def nesting_of_graph(g: PreisachGraph) -> int:
    """Maximal nesting degree over all vertices."""
    return max(nesting_degrees(g).values())

