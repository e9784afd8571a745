from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings

from preisach import (
    Cycle,
    EdgeKind,
    SpinConfig,
    VertexBudgetExceeded,
    alpha,
    build_bfs,
    build_forward,
    check_absorption,
    check_lrpm,
    count_increasing,
    cycle_of,
    d_orbit,
    decompose,
    invert,
    loop_vertices,
    make_permutation,
    merge_identity_bottom,
    merge_identity_top,
    nesting_degrees,
    omega,
    u_orbit,
    verify_lrpm,
)
from strategies import permutations_st

RHO231 = make_permutation([2, 3, 1])


def cfg(*spins: int) -> SpinConfig:
    return SpinConfig(spins)


def test_build_bfs_fig_instance():
    g = build_bfs(RHO231)
    assert g.vertices == {
        alpha(3),
        cfg(1, -1, -1),
        cfg(1, 1, -1),
        omega(3),
        cfg(1, -1, 1),
    }
    assert g.edge_count == 8
    u_edges = {(e.src.spins, e.dst.spins, e.label) for e in g.u_next.values()}
    assert u_edges == {
        ((-1, -1, -1), (1, -1, -1), 1),
        ((1, -1, -1), (1, 1, -1), 2),
        ((1, 1, -1), (1, 1, 1), 3),
        ((1, -1, 1), (1, 1, 1), 2),
    }
    d_edges = {(e.src.spins, e.dst.spins, e.label) for e in g.d_next.values()}
    assert d_edges == {
        ((1, -1, -1), (-1, -1, -1), 1),
        ((1, 1, -1), (1, -1, -1), 2),
        ((1, 1, 1), (1, -1, 1), 2),
        ((1, -1, 1), (1, -1, -1), 3),
    }


def test_build_bfs_single_spin():
    g = build_bfs(make_permutation([1]))
    assert g.vertices == {alpha(1), omega(1)}
    assert g.edge_count == 2


def test_build_bfs_reversal_stays_on_u_orbit():
    rho = make_permutation([3, 2, 1])
    g = build_bfs(rho)
    assert len(g.vertices) == 4
    assert set(u_orbit(rho, alpha(3))) == g.vertices


def test_build_bfs_identity_doubles():
    g = build_bfs(make_permutation([1, 2, 3]))
    assert len(g.vertices) == 8


def test_build_bfs_budget():
    with pytest.raises(VertexBudgetExceeded, match="budget exceeded"):
        build_bfs(make_permutation(range(1, 9)), max_vertices=100)


def test_build_forward_budget():
    with pytest.raises(VertexBudgetExceeded, match="budget exceeded"):
        build_forward(make_permutation(range(1, 9)), max_vertices=100)


@pytest.mark.parametrize("build", [build_bfs, build_forward])
@pytest.mark.parametrize(
    "values", [(1,), (2, 3, 1), (2, 4, 3, 5, 1), (1, 2, 3, 4, 5), (4, 3, 2, 1)]
)
def test_budget_is_exact(build, values):
    rho = make_permutation(values)
    count = count_increasing(rho)
    assert len(build(rho, max_vertices=count).vertices) == count
    with pytest.raises(VertexBudgetExceeded, match="budget exceeded"):
        build(rho, max_vertices=count - 1)


def test_graph_is_unhashable():
    with pytest.raises(TypeError, match="PreisachGraph"):
        hash(build_bfs(RHO231))


def test_build_forward_fig3_instance():
    rho = make_permutation([2, 4, 3, 1])
    assert build_forward(rho) == build_bfs(rho)


def test_build_forward_single_spin():
    g = build_forward(make_permutation([1]))
    assert len(g.vertices) == 2


def test_build_forward_matches_bfs_small():
    assert build_forward(RHO231) == build_bfs(RHO231)
    for n in range(1, 6):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            assert build_forward(rho) == build_bfs(rho), values


@settings(max_examples=30)
@given(permutations_st(max_n=12))
def test_build_forward_matches_bfs_random(rho):
    assert build_forward(rho) == build_bfs(rho)


@given(permutations_st())
def test_edge_count_and_labels(rho):
    g = build_bfs(rho)
    assert g.edge_count == 2 * len(g.vertices) - 2
    for e in list(g.u_next.values()) + list(g.d_next.values()):
        assert e.dst == e.src.flipped(e.label)
        expected = -1 if e.kind is EdgeKind.U else 1
        assert e.src.spins[e.label - 1] == expected
        assert e.dst in g.vertices


def test_u_orbit_examples():
    assert u_orbit(RHO231, alpha(3)) == [
        alpha(3),
        cfg(1, -1, -1),
        cfg(1, 1, -1),
        omega(3),
    ]
    assert u_orbit(RHO231, omega(3)) == [omega(3)]
    assert u_orbit(RHO231, cfg(1, -1, 1)) == [cfg(1, -1, 1), omega(3)]


def test_d_orbit_examples():
    assert d_orbit(RHO231, alpha(3)) == [alpha(3)]
    assert d_orbit(RHO231, omega(3)) == [
        omega(3),
        cfg(1, -1, 1),
        cfg(1, -1, -1),
        alpha(3),
    ]
    assert d_orbit(RHO231, cfg(1, 1, -1)) == [cfg(1, 1, -1), cfg(1, -1, -1), alpha(3)]


def test_cycle_of_full_cycle():
    c = cycle_of(RHO231, alpha(3), omega(3))
    assert len(c.u_boundary) == 4
    assert len(c.d_boundary) == 4
    assert c.u_boundary[0] == alpha(3) and c.u_boundary[-1] == omega(3)


def test_cycle_of_degenerate():
    c = cycle_of(RHO231, alpha(3), alpha(3))
    assert c.u_boundary == (alpha(3),)
    assert c.d_boundary == (alpha(3),)


def test_cycle_of_rejects_reversed_endpoints():
    with pytest.raises(ValueError, match="not a cycle"):
        cycle_of(RHO231, omega(3), alpha(3))


def test_check_absorption_examples():
    assert check_absorption(RHO231, cycle_of(RHO231, alpha(3), omega(3)))
    assert check_absorption(RHO231, cycle_of(RHO231, alpha(3), alpha(3)))
    assert check_absorption(RHO231, cycle_of(RHO231, cfg(1, -1, -1), cfg(1, 1, -1)))


def test_every_cycle_is_absorbing_with_equal_boundaries():
    # every ordered vertex pair that forms a cycle is absorbing, and its two
    # boundaries have the same length
    for n in range(1, 5):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            g = build_bfs(rho)
            for mu in g.vertices:
                for nu in g.vertices:
                    try:
                        c = cycle_of(rho, mu, nu)
                    except ValueError:
                        continue
                    assert len(c.u_boundary) == len(c.d_boundary)
                    assert check_absorption(rho, c), (values, mu, nu)


def test_check_lrpm_examples():
    assert check_lrpm(RHO231, cycle_of(RHO231, alpha(3), omega(3)))
    assert check_lrpm(RHO231, cycle_of(RHO231, alpha(3), alpha(3)))
    assert check_lrpm(RHO231, cycle_of(RHO231, alpha(3), cfg(1, 1, -1)))


def test_verify_lrpm_agrees_with_check_lrpm():
    for n in range(1, 5):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            g = build_bfs(rho)
            for mu in g.vertices:
                for nu in g.vertices:
                    try:
                        c = cycle_of(rho, mu, nu)
                    except ValueError:
                        continue
                    assert check_lrpm(rho, c) == verify_lrpm(g, mu, nu)


def test_loop_vertices_examples():
    g = build_bfs(RHO231)
    assert loop_vertices(RHO231, cycle_of(RHO231, alpha(3), omega(3))) == g.vertices
    assert loop_vertices(RHO231, cycle_of(RHO231, alpha(3), alpha(3))) == {alpha(3)}
    assert loop_vertices(RHO231, cycle_of(RHO231, alpha(3), cfg(1, 1, -1))) == {
        alpha(3),
        cfg(1, -1, -1),
        cfg(1, 1, -1),
    }


def test_loop_vertices_rejects_non_absorbing():
    # no real cycle fails absorption, so hand-craft one with a stray boundary
    # state whose down orbit misses the bottom endpoint
    fake = Cycle(
        mu=cfg(1, -1, -1),
        nu=omega(3),
        u_boundary=(cfg(1, -1, -1), alpha(3), omega(3)),
        d_boundary=(omega(3), cfg(1, -1, 1), cfg(1, -1, -1)),
    )
    with pytest.raises(ValueError, match="not absorbing"):
        loop_vertices(RHO231, fake)


def test_decompose_fig_instance():
    g = build_bfs(RHO231)
    lower, upper, (up_edge, down_edge) = decompose(g)
    assert len(lower) == 3 and len(upper) == 2
    assert lower | upper == g.vertices and not lower & upper
    assert up_edge.label == 3 and down_edge.label == 3
    assert all(v.spins[-1] == -1 for v in lower)
    assert all(v.spins[-1] == 1 for v in upper)


def test_decompose_single_spin():
    g = build_bfs(make_permutation([1]))
    lower, upper, _ = decompose(g)
    assert lower == {alpha(1)} and upper == {omega(1)}


def test_decompose_two_spins():
    g = build_bfs(make_permutation([1, 2]))
    lower, upper, _ = decompose(g)
    assert len(lower) == 2 and len(upper) == 2


@given(permutations_st(min_n=2))
def test_decompose_projects_to_subgraphs(rho):
    # dropping the last spin from the lower loop gives the graph of the
    # permutation without its largest value; the upper loop is the loop
    # below D^{k-1} omega shifted by flipping the last spin
    g = build_bfs(rho)
    lower, upper, _ = decompose(g)
    assert lower | upper == g.vertices and not lower & upper
    reduced = make_permutation([v for v in rho.values if v < rho.n])
    projected = {SpinConfig(v.spins[:-1]) for v in lower}
    assert projected == build_bfs(reduced).vertices
    mirrored = {SpinConfig(v.spins[:-1] + (-1,)) for v in upper}
    assert mirrored <= lower
    assert len(mirrored) == len(upper)


@given(permutations_st())
def test_merge_identities(rho):
    assert merge_identity_top(rho)
    assert merge_identity_bottom(rho)


@given(permutations_st(max_n=7))
def test_inverse_permutation_invariants(rho):
    g = build_bfs(rho)
    gi = build_bfs(invert(rho))
    assert len(g.vertices) == len(gi.vertices)
    assert sorted(nesting_degrees(g).values()) == sorted(nesting_degrees(gi).values())


def test_canonical_vertex_order():
    g = build_bfs(RHO231)
    assert [v.spins for v in g.canonical_vertices()] == [
        (-1, -1, -1),
        (1, -1, -1),
        (1, -1, 1),
        (1, 1, -1),
        (1, 1, 1),
    ]
