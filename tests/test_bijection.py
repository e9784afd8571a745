from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings

from preisach import (
    EdgeKind,
    Path,
    PreisachGraph,
    SpinConfig,
    UniquenessViolation,
    alpha,
    alternation_degrees,
    apply_D,
    apply_U,
    block_decomposition,
    build_bfs,
    count_increasing,
    enumerate_increasing,
    increasing_subsequence,
    lis_patience,
    make_permutation,
    nesting_degree,
    nesting_degree_oracle,
    nesting_degrees,
    nesting_of_graph,
    omega,
    phi,
    phi_all,
    phi_inverse,
    phi_inverse_constructive,
    shortest_path,
    shortest_path_tree,
)
from preisach.bijection import _alternation_masks, _edges_to
from preisach.cli import random_permutation
from preisach.graph import DEFAULT_MAX_VERTICES, _closure, _configs, _mask_steppers
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
    # a diamond with two equal-length routes; unreachable through the builders
    a, b, c, d = cfg(-1, -1), cfg(1, -1), cfg(-1, 1), cfg(1, 1)
    g = PreisachGraph(
        perm=make_permutation([1, 2]),
        vertices=frozenset({a, b, c, d}),
        u_next={a: b, b: d, c: d},
        d_next={a: c},
        alpha=a,
        omega=d,
    )
    for labelling in (shortest_path_tree, phi_all):
        with pytest.raises(UniquenessViolation, match="uniqueness violated"):
            labelling(g)


def test_breadth_first_pass_fires_on_forged_steps():
    # the same diamond as step functions on masks: 00 -> 01 -> 11 and 00 -> 10 -> 11
    u_next, d_next = {0b00: 0b01, 0b01: 0b11, 0b10: 0b11}, {0b00: 0b10}
    with pytest.raises(UniquenessViolation, match="uniqueness violated"):
        _closure(0b00, u_next.get, d_next.get, 4)


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
    assert phi(g, alpha(3)).values == ()
    assert phi(g, cfg(1, -1, 1)).values == (2, 3)
    assert phi(g, omega(3)).values == (3,)
    g5 = build_bfs(RHO24351)
    assert phi(g5, cfg(1, 1, 1, -1, 1)).values == (2, 4, 5)
    assert phi(g5, omega(5)).values == (5,)


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
    value_sets = {s.values for s in images.values()}
    assert len(value_sets) == len(g.vertices)  # injective
    assert value_sets == enumerate_increasing(rho).value_tuples()
    assert len(g.vertices) == count_increasing(rho)
    oracle = alternation_degrees(rho)
    paths = _tree_paths(g)
    for v in g.vertices:
        path_labels = block_decomposition(paths[v]).labels
        assert images[v].values == tuple(reversed(path_labels))
        assert len(images[v]) == degrees[v] == oracle[v]
        assert phi_inverse(g, images[v]) == v
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
    labels = _closure(0, *_mask_steppers(rho), DEFAULT_MAX_VERTICES)[2]
    degrees = _alternation_masks(rho)
    config = _configs(labels.keys() | degrees.keys(), rho.n)
    assert {config[m]: s for m, s in labels.items()} == {
        v: s.values for v, s in phi_all(build_bfs(rho)).items()
    }
    assert {config[m]: d for m, d in degrees.items()} == alternation_degrees(rho)


def test_mask_labels_match_view_exhaustive_small():
    for n in range(1, 7):
        for values in permutations(range(1, n + 1)):
            _assert_mask_labels_match_view(make_permutation(values))


@pytest.mark.parametrize("index", range(6))
def test_mask_labels_match_view_wide(index):
    _assert_mask_labels_match_view(random_permutation(22, 0, index))


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
