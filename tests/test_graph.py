from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings

from preisach import (
    SpinConfig,
    Staircase,
    VertexBudgetExceeded,
    alpha,
    build_bfs,
    build_forward,
    count_increasing,
    i_minus,
    i_plus,
    invert,
    lis_patience,
    make_permutation,
    merge_identity_bottom,
    merge_identity_top,
    nesting_degrees,
    omega,
    verify_lrpm,
)
from preisach.cli import export_dot, export_json, random_permutation
from preisach.graph import (
    _apply_n,
    _closure,
    _forward_agrees,
    _forward_maps,
    _label_lengths,
    _labels,
    _loop_closure,
    _mask_steppers,
    _subcycle_walk,
)
from preisach.oracle_routes import (
    Cycle,
    EdgeKind,
    _alternation_masks,
    _map_steppers,
    check_absorption,
    check_lrpm,
    cycle_of,
    d_orbit,
    decompose,
    edge_label,
    fixpoint_degrees,
    loop_vertices,
    u_orbit,
)
from preisach.oracles import enumerate_increasing
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

    def edges(succ):
        pairs = [(g.config(v), g.config(t)) for v, t in succ.items()]
        return {(v.spins, t.spins, edge_label(v, t)) for v, t in pairs}

    assert edges(g.u_next) == {
        ((-1, -1, -1), (1, -1, -1), 1),
        ((1, -1, -1), (1, 1, -1), 2),
        ((1, 1, -1), (1, 1, 1), 3),
        ((1, -1, 1), (1, 1, 1), 2),
    }
    assert edges(g.d_next) == {
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


@pytest.mark.parametrize("build", [build_bfs, build_forward])
@pytest.mark.parametrize("budget", [0, -1])
def test_builders_name_an_empty_budget_alike(build, budget):
    # one gate, graph._charge_graph, for both builders and the CLI's budget checks
    with pytest.raises(VertexBudgetExceeded) as exc:
        build(RHO231, max_vertices=budget)
    assert str(exc.value) == "vertex budget exceeded: budget is empty"


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


@pytest.mark.parametrize("index", range(6))
def test_build_forward_matches_bfs_wide(index):
    # 22-spin masks, well past the hypothesis test's n <= 12
    rho = random_permutation(22, 0, index)
    g = build_bfs(rho)
    assert build_forward(rho) == g
    assert verify_lrpm(g)


def _closure_maps(rho):
    """The U- and D-successor maps of the breadth-first pass over rho."""
    return _closure(*_mask_steppers(rho))[:2]


def test_forward_agrees_is_the_forward_comparison_exhaustive_small():
    for n in range(1, 8):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            u_next, d_next = _closure_maps(rho)
            agrees = _forward_agrees(rho, u_next, d_next)
            assert agrees == (_forward_maps(rho) == (u_next, d_next)), values
            assert agrees, values


def test_forward_agrees_rejects_every_redirected_edge():
    # every U- or D-edge sent to each other vertex, for n <= 5
    rejected = 0
    for n in range(1, 6):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            maps = _closure_maps(rho)
            vertices = [*maps[0], (1 << n) - 1]
            for kind in (0, 1):
                for src, old in maps[kind].items():
                    for dst in vertices:
                        if dst != old:
                            forged = list(maps)
                            forged[kind] = {**maps[kind], src: dst}
                            assert not _forward_agrees(rho, *forged), (values, kind, src, dst)
                            rejected += 1
    assert rejected > 40_000


def test_forward_agrees_rejects_a_dropped_or_an_extra_entry():
    for n in range(1, 6):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            maps = _closure_maps(rho)
            full = (1 << n) - 1
            for kind in (0, 1):
                for src in maps[kind]:
                    dropped = list(maps)
                    dropped[kind] = {k: v for k, v in maps[kind].items() if k != src}
                    assert not _forward_agrees(rho, *dropped), (values, kind, src)
                # a U-edge out of omega, a D-edge out of alpha, and an edge
                # of either kind out of every mask that is no vertex
                sources = [full if kind == 0 else 0]
                sources += [m for m in range(1 << n) if m not in maps[0] and m != full]
                for src in sources:
                    extra = list(maps)
                    extra[kind] = {**maps[kind], src: src ^ 1}
                    assert not _forward_agrees(rho, *extra), (values, kind, src)


def test_mask_steppers_match_maps():
    # on every configuration, reachable or not: the mask steppers are
    # i_plus / i_minus followed by flipped
    def mask(sigma):
        return sum(1 << j for j, s in enumerate(sigma.spins) if s == 1)

    for n in range(1, 6):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            u_step, d_step = _mask_steppers(rho)
            for m in range(1 << n):
                sigma = SpinConfig._unchecked(n, m)
                assert sigma.spins == tuple(1 if m >> j & 1 else -1 for j in range(n))
                assert mask(sigma) == m
                i = i_plus(sigma)
                assert u_step(m) == (None if i is None else mask(sigma.flipped(i)))
                i = i_minus(sigma, rho)
                assert d_step(m) == (None if i is None else mask(sigma.flipped(i)))


@given(permutations_st())
def test_edge_count_and_labels(rho):
    g = build_bfs(rho)
    assert g.edge_count == 2 * len(g.vertices) - 2
    for kind, succ in ((EdgeKind.U, g.u_next), (EdgeKind.D, g.d_next)):
        for src, dst in succ.items():
            src, dst = g.config(src), g.config(dst)
            label = edge_label(src, dst)
            assert dst == src.flipped(label)
            expected = -1 if kind is EdgeKind.U else 1
            assert src.spins[label - 1] == expected
            assert dst in g


@pytest.mark.parametrize(
    "src, dst", [(alpha(3), alpha(3)), (alpha(3), omega(3)), (alpha(2), SpinConfig((1, -1, 1)))]
)
def test_edge_label_rejects_non_edge(src, dst):
    with pytest.raises(ValueError, match="not an edge"):
        edge_label(src, dst)


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
    for n in range(1, 6):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            g = build_bfs(rho)
            for mu in g.vertices:
                for nu in g.vertices:
                    try:
                        c = cycle_of(rho, mu, nu)
                    except ValueError:
                        assert verify_lrpm(g, mu, nu) is False
                        continue
                    assert check_lrpm(rho, c) == verify_lrpm(g, mu, nu)


def test_verify_lrpm_rejects_forged_graph():
    # the D-edge of ++- redirected from +-- to ---: (alpha, omega) is still
    # a cycle, but its reached sub-cycle (+--, ++-) is not: D from ++- now
    # skips +--
    g = build_bfs(RHO231)
    assert g.d_next[0b011] == 0b001
    d_next = dict(g.d_next)
    d_next[0b011] = 0b000
    assert verify_lrpm(replace(g, d_next=d_next)) is False


def _chain(edges, start, target):
    """start and its successors under `edges` up to target, or None if the
    orbit ends first."""
    out = [start]
    while out[-1] != target:
        dst = edges.get(out[-1])
        if dst is None:
            return None
        out.append(dst)
    return out


def _recursive_walk(g, mu, nu, seen=None):
    """The literal recursive definition on the graph's own edges, on vertex
    masks: the union of the boundaries of every pair reached through the
    boundaries of (mu, nu), or None unless every such pair is a cycle.  Its
    orbits must not cycle.  The pairs reached, (s, s) included, are added
    to `seen`."""
    seen = set() if seen is None else seen
    verts = set()

    def ok(m, v):
        if (m, v) in seen:
            return True
        seen.add((m, v))
        ub = _chain(g.u_next, m, v)
        db = _chain(g.d_next, v, m)
        if ub is None or db is None:
            return False
        verts.update(ub, db)
        return all(ok(m, u) for u in ub) and all(ok(w, v) for w in db)

    return verts if ok(mu, nu) else None


def _forgeries(g, edits):
    """g with `edits` of its edges redirected, in every way that moves each
    to another mask with more (U) or fewer (D) +1 spins than its source,
    in or out of the graph, so no orbit cycles (that case runs in a child
    process below)."""
    options = [
        (field, src, dst)
        for field, sign in (("u_next", 1), ("d_next", -1))
        for src, old in getattr(g, field).items()
        for dst in range(1 << g.n)
        if dst != old and sign * (dst.bit_count() - src.bit_count()) > 0
    ]
    for picks in combinations(options, edits):
        if len({(field, src) for field, src, _ in picks}) < edits:
            continue
        fields = {"u_next": dict(g.u_next), "d_next": dict(g.d_next)}
        for field, src, dst in picks:
            fields[field][src] = dst
        yield replace(g, **fields)


def _walk_keys(walk):
    """The states a _subcycle_walk result holds degrees for, or None."""
    return None if walk is None else set(walk)


def test_verify_lrpm_on_every_single_edge_forgery():
    # verify_lrpm against the recursive definition, and the states the walk
    # gives degrees to against the recursive union: from (alpha, omega) for
    # n <= 4 and from every pair of vertices for n <= 3
    outcomes = set()
    for n in range(1, 5):
        for values in permutations(range(1, n + 1)):
            g = build_bfs(make_permutation(values))
            ends = (0, (1 << n) - 1)
            for forged in _forgeries(g, 1):
                expected = _recursive_walk(forged, *ends)
                got = verify_lrpm(forged)
                assert got == (expected is not None), (values, forged)
                outcomes.add(got)
                pairs = product(g.canonical_masks(), repeat=2) if n <= 3 else [ends]
                for mu, nu in pairs:
                    walk = _subcycle_walk(forged.u_next.get, forged.d_next.get, mu, nu)
                    expected = _recursive_walk(forged, mu, nu)
                    assert _walk_keys(walk) == expected, (values, forged, mu, nu)
    assert outcomes == {True, False}


def test_verify_lrpm_on_every_two_edge_forgery():
    outcomes = set()
    for n in range(1, 4):
        for values in permutations(range(1, n + 1)):
            g = build_bfs(make_permutation(values))
            ends = (0, (1 << n) - 1)
            for forged in _forgeries(g, 2):
                expected = _recursive_walk(forged, *ends)
                got = verify_lrpm(forged)
                assert got == (expected is not None), (values, forged)
                outcomes.add(got)
                walk = _subcycle_walk(forged.u_next.get, forged.d_next.get, *ends)
                assert _walk_keys(walk) == expected, (values, forged)
    assert outcomes == {True, False}


def test_subcycle_walk_steps_twice_per_reached_pair():
    # a reached pair (m, v), m != v, lies once on m's U-record and once on
    # v's D-record, and every step of a walk that succeeds adds one record
    # state; the pair (s, s) costs no step
    steps = 0

    def counted(edges):
        def step(s):
            nonlocal steps
            steps += 1
            return edges.get(s)

        return step

    walked = 0
    for n in range(1, 6):
        for values in permutations(range(1, n + 1)):
            g = build_bfs(make_permutation(values))
            u_step, d_step = counted(g.u_next), counted(g.d_next)
            pairs = product(g.canonical_masks(), repeat=2) if n <= 4 else [(0, (1 << n) - 1)]
            for mu, nu in pairs:
                steps = 0
                if _subcycle_walk(u_step, d_step, mu, nu) is None:
                    continue
                reached = set()
                _recursive_walk(g, mu, nu, reached)
                assert steps == 2 * sum(m != v for m, v in reached), (values, mu, nu)
                walked += 1
    assert walked > 600


def _verify_random_inputs(seed, count):
    """The first count inputs of the benchmark's verify-random workload:
    n=22 permutations drawn by random.Random(seed), taken in turn from four
    bands of vertex count, 128-511, 512-1023, 1024-2047 and 2560-3072."""
    rng = random.Random(seed)
    bands = itertools.cycle(((128, 511), (512, 1023), (1024, 2047), (2560, 3072)))
    rhos = []
    for lo, hi in itertools.islice(bands, count):
        rho = make_permutation(rng.sample(range(1, 23), 22))
        while not lo <= count_increasing(rho) <= hi:
            rho = make_permutation(rng.sample(range(1, 23), 22))
        rhos.append(rho)
    return rhos


def _assert_walk_degrees_are_nesting_degrees(rho):
    """The walk from (alpha, omega), on the breadth-first maps and on the raw
    steppers, gives every vertex len(phi) as its degree, which the
    alternation search and the order-free fixpoint give too."""
    steps = _mask_steppers(rho)
    u_next, d_next, _, rest = _closure(*steps)
    lengths = _label_lengths(rest)
    ends = (0, (1 << rho.n) - 1)
    assert _subcycle_walk(u_next.get, d_next.get, *ends) == lengths, rho.values
    assert _subcycle_walk(*steps, *ends) == lengths, rho.values
    assert _alternation_masks(rho) == lengths, rho.values
    assert fixpoint_degrees(u_next.get, d_next.get, *ends) == lengths, rho.values


def test_walk_degrees_are_nesting_degrees_exhaustive_small():
    for n in range(1, 8):
        for values in permutations(range(1, n + 1)):
            _assert_walk_degrees_are_nesting_degrees(make_permutation(values))


@pytest.mark.parametrize("part", range(4))
def test_walk_degrees_are_nesting_degrees_wide(part):
    for rho in _verify_random_inputs(1, 64)[part::4]:
        _assert_walk_degrees_are_nesting_degrees(rho)


def test_walk_degrees_are_depths_from_every_pair():
    # from any pair of vertices the walk and the fixpoint agree, on maps
    # and on configurations, or both find a pair that is not a cycle
    for n in range(1, 5):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            g = build_bfs(rho)
            for mu, nu in product(g.canonical_masks(), repeat=2):
                walk = _subcycle_walk(g.u_next.get, g.d_next.get, mu, nu)
                assert walk == fixpoint_degrees(g.u_next.get, g.d_next.get, mu, nu)
                views = _subcycle_walk(*_map_steppers(rho), g.config(mu), g.config(nu))
                if views is not None:
                    views = {v.mask: d for v, d in views.items()}
                assert views == walk, (values, mu, nu)


def test_verify_lrpm_rejects_edge_out_of_the_graph():
    # the D-edge of ++- redirected to -+-, which is not a vertex: the
    # D-orbit of omega then leaves the graph and never reaches alpha
    g = build_bfs(RHO231)
    assert cfg(-1, 1, -1) not in g
    d_next = dict(g.d_next)
    d_next[0b011] = 0b010
    assert verify_lrpm(replace(g, d_next=d_next)) is False


def test_verify_lrpm_returns_on_a_cycling_orbit():
    # the U-edge of ++- redirected to ---: the U-orbit of alpha cycles
    # through ---, +--, ++- and never reaches omega.  Run in a child process
    # with a timeout and a memory cap, so a walk that does not stop fails
    # the test instead of hanging or exhausting the machine.
    code = textwrap.dedent(
        """
        import resource
        from dataclasses import replace
        from preisach import build_bfs, make_permutation, verify_lrpm
        resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
        g = build_bfs(make_permutation([2, 3, 1]))
        u_next = dict(g.u_next)
        u_next[0b011] = 0b000
        print(verify_lrpm(replace(g, u_next=u_next)))
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=30,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_loop_vertices_examples():
    g = build_bfs(RHO231)
    assert loop_vertices(RHO231, cycle_of(RHO231, alpha(3), omega(3))) == g.vertices
    assert loop_vertices(RHO231, cycle_of(RHO231, alpha(3), alpha(3))) == {alpha(3)}
    assert loop_vertices(RHO231, cycle_of(RHO231, alpha(3), cfg(1, 1, -1))) == {
        alpha(3),
        cfg(1, -1, -1),
        cfg(1, 1, -1),
    }


def test_loop_vertices_matches_recursive_union():
    # the oracle: recurse from (mu, nu) into (mu, u) for every u on the
    # U-boundary and (w, nu) for every w on the D-boundary, as cycle_of
    # finds them, and take the union of every boundary met
    def recursive_union(rho, mu, nu, seen, verts):
        if (mu, nu) in seen:
            return
        seen.add((mu, nu))
        c = cycle_of(rho, mu, nu)
        verts.update(c.u_boundary, c.d_boundary)
        for u in c.u_boundary:
            recursive_union(rho, mu, u, seen, verts)
        for w in c.d_boundary:
            recursive_union(rho, w, nu, seen, verts)

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
                    expected: set[SpinConfig] = set()
                    recursive_union(rho, mu, nu, set(), expected)
                    assert loop_vertices(rho, c) == expected, (values, mu, nu)


def _forward_steps(rho):
    """Each forward step m of rho: the maps of the graph grown so far, which
    are _forward_maps of rho restricted to the values < m in rho's order,
    and the ends of the loop the step copies."""
    for m in range(2, rho.n + 1):
        before = make_permutation([v for v in rho.values if v < m])
        u_next, d_next = _forward_maps(before)
        k = sum(1 for v in rho.values[: rho.position_of(m)] if v <= m)
        top = bottom = (1 << (m - 1)) - 1
        for _ in range(k - 1):
            bottom = d_next[bottom]
        yield before, u_next, d_next, bottom, top


def _assert_closure_is_walk(u_next, d_next, bottom, top):
    """_loop_closure equals the states the major sub-cycle walk over the
    same maps meets, the set loop_vertices returns; returns that set."""
    loop = _loop_closure(u_next, d_next, bottom, top)
    assert loop == _walk_keys(_subcycle_walk(u_next.get, d_next.get, bottom, top))
    return loop


def test_loop_closure_matches_loop_vertices_exhaustive_small():
    # every forward step for n <= 7; loop_vertices, on configurations and
    # the maps themselves, for n <= 6
    for n in range(2, 8):
        for values in permutations(range(1, n + 1)):
            for before, u_next, d_next, bottom, top in _forward_steps(make_permutation(values)):
                loop = _assert_closure_is_walk(u_next, d_next, bottom, top)
                if n <= 6:
                    ends = (SpinConfig._unchecked(before.n, m) for m in (bottom, top))
                    expected = {v.mask for v in loop_vertices(before, cycle_of(before, *ends))}
                    assert loop == expected, (values, top)


@pytest.mark.parametrize("index", range(4))
def test_loop_closure_matches_subcycle_walk_wide(index):
    for _, u_next, d_next, bottom, top in _forward_steps(random_permutation(22, 11, index)):
        _assert_closure_is_walk(u_next, d_next, bottom, top)


def _assert_loop_sizes(rho):
    """At each forward step m the copied loop has as many vertices as rho
    has increasing subsequences ending at value m, and its copies are the
    vertices whose breadth-first phi label ends in m."""
    ending = Counter(s[-1] for s in enumerate_increasing(rho) if s)
    labels = _labels(*_closure(*_mask_steppers(rho))[2:])
    for m, (_, u_next, d_next, bottom, top) in enumerate(_forward_steps(rho), 2):
        loop = _loop_closure(u_next, d_next, bottom, top)
        assert len(loop) == ending[m], (rho.values, m)
        copies = {v | 1 << (m - 1) for v in loop}
        assert copies == {v for v, s in labels.items() if s and s[-1] == m}, (rho.values, m)


def test_forward_loop_sizes_exhaustive_small():
    for n in range(2, 8):
        for values in permutations(range(1, n + 1)):
            _assert_loop_sizes(make_permutation(values))


@pytest.mark.parametrize("index", range(3))
def test_forward_loop_sizes_wide(index):
    _assert_loop_sizes(random_permutation(22, 11, index))


@pytest.mark.parametrize(
    "rho", [RHO231, random_permutation(22, 0, 0)], ids=["2,3,1", "n22"]
)
def test_builders_exports_and_lrpm_make_no_configuration(rho, monkeypatch):
    # the graph is held as masks: SpinConfig is only the view at the API
    # boundary, and none of these calls cross it
    def refuse(*args, **kwargs):
        raise AssertionError("a SpinConfig was made")

    monkeypatch.setattr(SpinConfig, "__init__", refuse)
    monkeypatch.setattr(SpinConfig, "_unchecked", classmethod(refuse))
    with pytest.raises(AssertionError, match="SpinConfig was made"):
        alpha(rho.n)
    for build in (build_bfs, build_forward):
        g = build(rho)
        assert export_json(g) and export_dot(g)
        assert verify_lrpm(g)


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


def _assert_inverse_duality(rho):
    # delta(m) sets bit p-1 exactly when spin rho_p is down in m, so spin s
    # of m shows, inverted, as spin pos(s) of delta(m).  U on rho raises the
    # down spin s of least index; D on rho^-1 scans spins pos(1), pos(2), ...
    # and lowers the first up one, pos(s).  Likewise for D on rho and U on
    # rho^-1.  So delta carries G(rho) onto G(rho^-1) with the two maps
    # swapped and alpha sent to omega.
    n = rho.n
    full = (1 << n) - 1

    def delta(m):
        return full ^ sum(1 << p for p, v in enumerate(rho.values) if m >> (v - 1) & 1)

    inv = invert(rho)
    g = build_bfs(rho)
    gi = build_bfs(inv)
    assert {delta(a): delta(b) for a, b in g.u_next.items()} == gi.d_next
    assert {delta(a): delta(b) for a, b in g.d_next.items()} == gi.u_next
    assert (delta(0), delta(full)) == (full, 0)

    # the merge identities trade places: D^{k-1} U^{n-1} alpha on rho, with
    # rho_k = n, is U^{q-1} D^{n-1} omega on rho^-1, with q = inv_n = k
    assert merge_identity_top(rho) == merge_identity_bottom(inv)
    k = rho.position_of(n)
    u, d = _mask_steppers(rho)
    ui, di = _mask_steppers(inv)

    assert inv.values[-1] == k
    top = _apply_n(d, _apply_n(u, 0, n - 1), k - 1)
    assert delta(top) == _apply_n(ui, _apply_n(di, full, n - 1), k - 1)

    # phi on rho^-1 of the image of every vertex labels it from omega, D-block
    # first: no label is longer than LIS(rho^-1) = LIS(rho), and one is as long
    decode = Staircase(inv).decode
    lengths = [len(decode(delta(m))) for m in [*g.u_next, full]]
    lis = lis_patience(rho)
    assert all(k <= lis for k in lengths) and lis in lengths


def test_inverse_duality_exhaustive_small():
    for n in range(1, 7):
        for values in permutations(range(1, n + 1)):
            _assert_inverse_duality(make_permutation(values))


@settings(max_examples=40, deadline=None)
@given(permutations_st(min_n=7, max_n=12))
def test_inverse_duality(rho):
    _assert_inverse_duality(rho)


def test_inverse_duality_wide():
    # n=22, 418 to 3,956 vertices
    for index in range(12):
        _assert_inverse_duality(random_permutation(22, 13, index))


def test_canonical_vertex_order():
    g = build_bfs(RHO231)
    assert [v.spins for v in g.canonical_vertices()] == [
        (-1, -1, -1),
        (1, -1, -1),
        (1, -1, 1),
        (1, 1, -1),
        (1, 1, 1),
    ]


def _by_count_then_spin_string(g):
    """The vertex masks sorted by (+1 count, spin string), the string
    reading spin 1 first, '0' down and '1' up."""

    def key(sigma):
        return sigma.count_plus(), "".join("1" if s == 1 else "0" for s in sigma.spins)

    return [sigma.mask for sigma in sorted(g.vertices, key=key)]


def test_canonical_masks_sort_by_count_then_spin_string_exhaustive_small():
    for n in range(1, 7):
        for values in permutations(range(1, n + 1)):
            g = build_bfs(make_permutation(values))
            assert g.canonical_masks() == _by_count_then_spin_string(g), values


def test_canonical_masks_sort_by_count_then_spin_string_on_the_export_pool():
    # the two smallest graphs of the benchmark's export pool, n=36
    pool_path = Path(__file__).resolve().parents[1] / "perfbench" / "export_pool.json"
    pool = json.loads(pool_path.read_text(encoding="utf-8"))
    for entry in sorted(pool, key=lambda entry: entry["vertices"])[:2]:
        g = build_bfs(make_permutation(entry["perm"]))
        got, want = g.canonical_masks(), _by_count_then_spin_string(g)
        # the first mismatch, not pytest's diff of two lists this long
        mismatch = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
        assert len(got) == len(want) and mismatch is None, mismatch
