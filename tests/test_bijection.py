from __future__ import annotations

from collections import deque
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preisach import (
    PreisachGraph,
    SpinConfig,
    Staircase,
    UniquenessViolation,
    VertexBudgetExceeded,
    alpha,
    apply_D,
    apply_U,
    build_bfs,
    count_increasing,
    lis_patience,
    make_permutation,
    nesting_degree,
    nesting_degrees,
    nesting_of_graph,
    omega,
    phi,
    phi_all,
)
from preisach.cli import random_permutation
from preisach.graph import (
    _closure,
    _label_lengths,
    _labels,
    _mask_steppers,
)
from preisach.oracle_routes import (
    EdgeKind,
    Path,
    _alternation_masks,
    _edges_to,
    alternation_degrees,
    block_decomposition,
    increasing_subsequence,
    nesting_degree_oracle,
    phi_inverse,
    phi_inverse_constructive,
    shortest_path,
    shortest_path_tree,
)
from preisach.oracles import enumerate_increasing
from strategies import permutations_st

RHO231 = make_permutation([2, 3, 1])
RHO24351 = make_permutation([2, 4, 3, 5, 1])


def cfg(*spins: int) -> SpinConfig:
    return SpinConfig(spins)


def test_shortest_path_to_alpha_is_empty():
    g = build_bfs(RHO231)
    p = shortest_path(g, alpha(3))
    assert len(p) == 0 and p.end == alpha(3)


def test_shortest_path_to_omega_is_all_up():
    g = build_bfs(RHO231)
    p = shortest_path(g, omega(3))
    assert [e.kind for e in p.edges] == [EdgeKind.U] * 3


def test_shortest_path_fig_instance():
    g = build_bfs(RHO231)
    p = shortest_path(g, cfg(1, -1, 1))
    assert [e.kind.value for e in p.edges] == ["U", "U", "U", "D"]


def test_shortest_path_rejects_non_vertex():
    g = build_bfs(RHO231)
    with pytest.raises(ValueError, match="not a vertex"):
        shortest_path(g, cfg(-1, 1, -1))


def test_uniqueness_tripwire_fires_on_a_forged_graph():
    # a diamond with two equal-length routes, 00 -> 01 -> 11 and
    # 00 -> 10 -> 11; unreachable through the builders
    g = PreisachGraph(
        perm=make_permutation([1, 2]),
        u_next={0b00: 0b01, 0b01: 0b11, 0b10: 0b11},
        d_next={0b00: 0b10},
    )
    for labelling in (shortest_path_tree, phi_all):
        with pytest.raises(UniquenessViolation, match="uniqueness violated"):
            labelling(g)


def test_breadth_first_pass_fires_on_forged_steps():
    # the same diamond as step functions on masks: 00 -> 01 -> 11 and 00 -> 10 -> 11
    u_next, d_next = {0b00: 0b01, 0b01: 0b11, 0b10: 0b11}, {0b00: 0b10}
    with pytest.raises(UniquenessViolation, match="uniqueness violated"):
        _closure(u_next.get, d_next.get)


def test_block_decomposition_empty():
    g = build_bfs(RHO231)
    bd = block_decomposition(shortest_path(g, alpha(3)))
    assert bd.blocks == () and bd.labels == () and bd.switchbacks == ()


def test_block_decomposition_fig_instance():
    g = build_bfs(RHO231)
    bd = block_decomposition(shortest_path(g, cfg(1, -1, 1)))
    assert [(k.value, n) for k, n in bd.blocks] == [("U", 3), ("D", 1)]
    assert bd.switchbacks == (omega(3), cfg(1, -1, 1))
    assert bd.labels == (3, 2)


def test_block_decomposition_three_blocks():
    g = build_bfs(RHO24351)
    bd = block_decomposition(shortest_path(g, cfg(1, 1, 1, -1, 1)))
    assert [(k.value, n) for k, n in bd.blocks] == [("U", 5), ("D", 2), ("U", 1)]
    assert bd.labels == (5, 4, 2)


def test_phi_examples():
    g = build_bfs(RHO231)
    assert phi(g, alpha(3)) == ()
    assert phi(g, cfg(1, -1, 1)) == (2, 3)
    assert phi(g, omega(3)) == (3,)
    g5 = build_bfs(RHO24351)
    assert phi(g5, cfg(1, 1, 1, -1, 1)) == (2, 4, 5)
    assert phi(g5, omega(5)) == (5,)


def test_phi_matches_phi_all_exhaustive_small():
    for n in range(1, 7):
        for values in permutations(range(1, n + 1)):
            g = build_bfs(make_permutation(values))
            for v, s in phi_all(g).items():
                assert phi(g, v) == s, (values, v)
                assert nesting_degree(g, v) == len(s)


def test_phi_does_not_relabel_the_graph(monkeypatch):
    # the largest graph of random_permutation(22, 0, i), i < 300: one label
    # must not cost a breadth-first pass over its 5,477 vertices
    rho = max((random_permutation(22, 0, i) for i in range(300)), key=count_increasing)
    g = build_bfs(rho)
    assert len(g.vertices) == 5477
    expected = phi_all(g)

    def no_pass(*args):
        raise AssertionError("phi ran a breadth-first pass")

    monkeypatch.setattr("preisach.bijection._closure", no_pass)
    for v in sorted(g.vertices, key=lambda v: v.mask)[::97] + [g.alpha, g.omega]:
        assert phi(g, v) == expected[v]
        assert nesting_degree(g, v) == len(expected[v])
    with pytest.raises(AssertionError, match="breadth-first"):
        phi_all(g)


def test_phi_vertex_from_alternating_walk():
    sigma = alpha(5)
    for _ in range(5):
        sigma = apply_U(sigma, RHO24351)
    for _ in range(2):
        sigma = apply_D(sigma, RHO24351)
    sigma = apply_U(sigma, RHO24351)
    assert sigma == cfg(1, 1, 1, -1, 1)


def test_phi_inverse_examples():
    g = build_bfs(RHO231)
    assert phi_inverse(g, increasing_subsequence((), RHO231)) == alpha(3)
    assert phi_inverse(g, increasing_subsequence((2, 3), RHO231)) == cfg(1, -1, 1)
    g5 = build_bfs(RHO24351)
    assert phi_inverse(g5, increasing_subsequence((2, 4, 5), RHO24351)) == cfg(
        1, 1, 1, -1, 1
    )


def test_phi_inverse_constructive_examples():
    assert phi_inverse_constructive(RHO231, increasing_subsequence((), RHO231)) == alpha(3)
    assert phi_inverse_constructive(
        RHO24351, increasing_subsequence((2, 4, 5), RHO24351)
    ) == cfg(1, 1, 1, -1, 1)


def test_increasing_subsequence_rejects_invalid():
    with pytest.raises(ValueError, match="not an increasing subsequence"):
        increasing_subsequence((3, 2), RHO231)
    with pytest.raises(ValueError, match="not an increasing subsequence"):
        # values increase but positions do not: 1 sits after 3 in (2,3,1)
        increasing_subsequence((1, 3), RHO231)
    with pytest.raises(ValueError, match="out of range"):
        increasing_subsequence((4,), RHO231)


def test_nesting_degree_examples():
    g = build_bfs(RHO231)
    assert nesting_degree(g, alpha(3)) == 0
    assert nesting_degree(g, omega(3)) == 1
    assert nesting_degree(g, cfg(1, -1, 1)) == 2


def test_nesting_degree_oracle_examples():
    assert nesting_degree_oracle(RHO231, alpha(3)) == 0
    assert nesting_degree_oracle(RHO231, omega(3)) == 1
    assert nesting_degree_oracle(RHO231, cfg(1, -1, 1)) == 2


def test_nesting_degree_oracle_rejects_unreachable():
    with pytest.raises(ValueError, match="unreachable"):
        nesting_degree_oracle(RHO231, cfg(-1, 1, -1))


def test_nesting_of_graph_examples():
    assert nesting_of_graph(build_bfs(RHO231)) == 2
    assert nesting_of_graph(build_bfs(make_permutation([1, 2, 3, 4]))) == 4
    assert nesting_of_graph(build_bfs(make_permutation([4, 3, 2, 1]))) == 1


def _tree_paths(g):
    """The shortest path to every vertex, read from one shortest-path tree."""
    tree = shortest_path_tree(g)
    return {v: Path(g.alpha, _edges_to(tree, g.alpha, v), v) for v in g.vertices}


def _assert_bijection(rho):
    g = build_bfs(rho)
    images = phi_all(g)
    degrees = nesting_degrees(g)
    value_sets = set(images.values())
    assert len(value_sets) == len(g.vertices)  # injective
    assert value_sets == enumerate_increasing(rho)
    assert len(g.vertices) == count_increasing(rho)
    oracle = alternation_degrees(rho)
    paths = _tree_paths(g)
    # phi_inverse relabels the whole graph per call: invert the table once,
    # and call it directly on alpha, omega and a most nested vertex
    inverse = {s: v for v, s in images.items()}
    for v in {g.alpha, g.omega, max(g.vertices, key=lambda v: (degrees[v], v))}:
        assert phi_inverse(g, images[v]) == v
    for v in g.vertices:
        path_labels = block_decomposition(paths[v]).labels
        assert images[v] == tuple(reversed(path_labels))
        assert len(images[v]) == degrees[v] == oracle[v]
        assert inverse[images[v]] == v
        assert phi_inverse_constructive(rho, images[v]) == v
    assert max(degrees.values()) == lis_patience(rho)
    return g, paths


def test_bijection_exhaustive_small():
    for n in range(1, 6):
        for values in permutations(range(1, n + 1)):
            g, paths = _assert_bijection(make_permutation(values))
            for v, path in paths.items():
                assert shortest_path(g, v) == path


def _assert_mask_labels_match_view(rho):
    labels = _labels(*_closure(*_mask_steppers(rho))[2:])
    degrees = _alternation_masks(rho)
    def config(m):
        return SpinConfig._unchecked(rho.n, m)

    assert {config(m): s for m, s in labels.items()} == phi_all(build_bfs(rho))
    assert {config(m): d for m, d in degrees.items()} == alternation_degrees(rho)


def test_mask_labels_match_view_exhaustive_small():
    for n in range(1, 7):
        for values in permutations(range(1, n + 1)):
            _assert_mask_labels_match_view(make_permutation(values))


@pytest.mark.parametrize("index", range(6))
def test_mask_labels_match_view_wide(index):
    _assert_mask_labels_match_view(random_permutation(22, 0, index))


def _alternation_deque(rho):
    """Minimal alternating-block count per reachable mask by a 0/1
    breadth-first search over (mask, kind of the step into it): a step of
    the same kind costs nothing, a switch costs one block.  alpha is entered
    as if by a D-step.  The oracle of the level-by-level _alternation_masks."""
    steps = _mask_steppers(rho)
    dist = {(0, 1): 0}
    dq = deque([(0, 0, 1)])
    while dq:
        d, m, last = dq.popleft()
        if d > dist[m, last]:
            continue
        for kind, step in enumerate(steps):
            t = step(m)
            if t is None:
                continue
            nd = d + (kind != last)
            if nd < dist.get((t, kind), nd + 1):
                dist[t, kind] = nd
                (dq.appendleft if nd == d else dq.append)((nd, t, kind))
    best = {}
    for (m, _), d in dist.items():
        best[m] = min(d, best.get(m, d))
    return best


def test_alternation_search_matches_deque_oracle_exhaustive_small():
    for n in range(1, 8):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            assert _alternation_masks(rho) == _alternation_deque(rho), values


@pytest.mark.parametrize("index", range(6))
def test_alternation_search_matches_deque_oracle_wide(index):
    rho = random_permutation(22, 0, index)
    assert _alternation_masks(rho) == _alternation_deque(rho)


@pytest.mark.parametrize(
    "values, count",
    [((2, 3, 1), 5), (tuple(range(1, 7)), 64), (tuple(range(6, 0, -1)), 7)],
)
def test_alternation_budget_boundary(values, count):
    rho = make_permutation(values)
    for search in (_alternation_masks, alternation_degrees):
        with pytest.raises(
            VertexBudgetExceeded,
            match=rf"^vertex budget exceeded: more than {count - 1} configurations$",
        ):
            search(rho, count - 1)
        assert len(search(rho, count)) == count


@settings(max_examples=25, deadline=None)
@given(permutations_st(max_n=12))
def test_bijection_random(rho):
    _assert_bijection(rho)


@settings(max_examples=50, deadline=None)
@given(permutations_st(max_n=7))
def test_switchback_labels_strictly_decrease(rho):
    g = build_bfs(rho)
    for sigma in g.vertices:
        labels = block_decomposition(shortest_path(g, sigma)).labels
        assert all(a > b for a, b in zip(labels, labels[1:]))


def test_staircase_matches_breadth_first_phi_exhaustive_small():
    # decode is phi on every vertex, encode inverts it, and encode(decode(c))
    # == c holds for exactly the vertices among all 2^n configurations
    for n in range(1, 8):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            code = Staircase(rho)
            labels = _labels(*_closure(*_mask_steppers(rho))[2:])
            for c in range(1 << n):
                s = code.decode(c)
                if c in labels:
                    assert s == labels[c] and code.encode(s) == c
                else:
                    assert code.encode(s) != c


def _cells(rho):
    """The cons cells (first, rest) of the breadth-first pass over rho."""
    return _closure(*_mask_steppers(rho))[2:]


def test_encodes_cells_matches_per_label_encode_exhaustive_small():
    # the O(1)-per-vertex check gives the verdict of encoding every tuple of
    # phi_all, and the phi lengths are those tuples' lengths, in its order
    for n in range(1, 8):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            first, rest = _cells(rho)
            lengths = _label_lengths(rest)
            labels = {v.mask: s for v, s in phi_all(build_bfs(rho)).items()}
            encode = Staircase(rho).encode
            verdict = all(encode(s) == m for m, s in labels.items())
            assert Staircase(rho).encodes_cells(first, rest, lengths) == verdict, values
            assert verdict and list(lengths.items()) == [(m, len(s)) for m, s in labels.items()]


def _forged_cells(first, rest, n):
    """Every pair of tables that differs from (first, rest) in one entry:
    a first[t] set to any other value in 0..n+1, or a rest[t] set to any
    other vertex or to a non-vertex mask, 2^n included."""
    for t in rest:
        for s in range(n + 2):
            if s != first[t]:
                yield {**first, t: s}, rest
        for r in range((1 << n) + 1):
            if r != rest[t]:
                yield first, {**rest, t: r}


def test_encodes_cells_rejects_every_single_forged_entry():
    forgeries = 0
    for n in range(1, 6):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            code = Staircase(rho)
            for first, rest in _forged_cells(*_cells(rho), n):
                assert not code.encodes_cells(first, rest, _label_lengths(rest)), values
                forgeries += 1
    assert forgeries > 50_000


def test_encodes_cells_rejects_a_rest_listed_after_its_vertex():
    # the true cells, with one vertex moved ahead of its rest: the fold
    # still holds for a label of even length, but the order does not
    moved = 0
    for n in range(1, 6):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            first, rest = _cells(rho)
            code = Staircase(rho)
            for t, r in rest.items():
                if r:
                    ahead = {t: r, **rest}
                    assert not code.encodes_cells(first, ahead, _label_lengths(ahead)), values
                    moved += 1
    assert moved == 926


def test_encodes_cells_rejects_tables_of_the_wrong_size():
    first, rest = _cells(RHO24351)
    code = Staircase(RHO24351)
    assert code.encodes_cells(first, rest, _label_lengths(rest))
    t = next(iter(rest))
    short = {m: r for m, r in rest.items() if m != t}
    assert not code.encodes_cells(first, short, _label_lengths(short))
    assert not code.encodes_cells({**first, 0: 5}, rest, _label_lengths(rest))
    # alpha given a cell of its own
    with_alpha = {**rest, 0: 0}
    assert not code.encodes_cells({**first, 0: 1}, with_alpha, _label_lengths(with_alpha))
    assert not code.encodes_cells({**first, t: None}, rest, _label_lengths(rest))


@st.composite
def _subsequences(draw, max_n: int):
    """A permutation and one of its increasing subsequences: the values at
    drawn positions that rise above every value taken before them."""
    rho = draw(permutations_st(max_n=max_n))
    picks = draw(st.lists(st.booleans(), min_size=rho.n, max_size=rho.n))
    values: list[int] = []
    for v, pick in zip(rho.values, picks):
        if pick and (not values or v > values[-1]):
            values.append(v)
    return rho, tuple(values)


@settings(max_examples=200, deadline=None)
@given(_subsequences(max_n=24), st.data())
def test_staircase_round_trip_wide(case, data):
    # no graph: the constructive walk from alpha stands for phi inverse
    rho, s = case
    code = Staircase(rho)
    mask = code.encode(s)
    assert code.decode(mask) == s
    assert mask == phi_inverse_constructive(rho, increasing_subsequence(s, rho)).mask
    # any configuration decodes to an increasing subsequence, whose vertex
    # decodes back to it
    c = data.draw(st.integers(0, (1 << rho.n) - 1))
    t = code.decode(c)
    increasing_subsequence(t, rho)
    assert code.decode(code.encode(t)) == t


def test_staircase_encode_rejects_non_subsequences():
    code = Staircase(RHO231)
    for bad in [(3, 2), (3, 1), (1, 3), (2, 2), (4,), (0,), (-1,), (2, 4), (3, 2, 4)]:
        with pytest.raises(ValueError, match="not an increasing subsequence") as exc:
            code.encode(bad)
        # the message is the literal validator's, word for word
        with pytest.raises(ValueError) as oracle:
            increasing_subsequence(bad, RHO231)
        assert str(exc.value) == str(oracle.value), bad
    with pytest.raises(ValueError, match="value 4 out of range"):
        code.encode((4,))
