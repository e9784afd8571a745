from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from itertools import permutations as all_permutations
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import preisach.cli
import preisach.graph
from preisach import (
    Permutation,
    PreisachGraph,
    SpinConfig,
    VertexBudgetExceeded,
    alpha,
    build_bfs,
    build_forward,
    count_increasing,
    lis_patience,
    make_permutation,
    nesting_of_graph,
    phi_all,
)
from preisach.cli import (
    _closure,
    _mask_steppers,
    build_parser,
    cmd_stats,
    cmd_verify,
    cmd_verify_all,
    export_dot,
    export_json,
    format_config,
    load_json,
    main,
    parse_config,
    parse_permutation,
    random_permutation,
)
from preisach.graph import DEFAULT_MAX_VERTICES, _labels
from strategies import permutations_st

RHO231 = make_permutation([2, 3, 1])


def test_parse_permutation_commas():
    assert parse_permutation("2,3,1") == RHO231


def test_parse_permutation_spaces():
    assert parse_permutation("2 4 3 5 1").values == (2, 4, 3, 5, 1)


def test_parse_permutation_rejects_duplicate():
    with pytest.raises(ValueError, match="duplicate value 2"):
        parse_permutation("2,2,1")


def test_parse_permutation_rejects_non_integer():
    with pytest.raises(ValueError, match="non-integer token"):
        parse_permutation("2,x,1")


@pytest.mark.parametrize("token", ["1_0", "+2", "\u0662", "\uff12", "1.0", "0x1", "--1", "1-", "x"])
def test_cli_reads_only_plain_ascii_integers(token, capsys):
    # int() would take "1_0" as 10, and "+2", Arabic-Indic or fullwidth
    # digits as 2
    with pytest.raises(ValueError, match="non-integer token"):
        parse_permutation(f"{token},2,3")
    for argv in (
        ["lis", "--perm", f"2,{token},1"],
        ["phi-inverse", "--perm", "2,3,1", f"--subseq={token},3"],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: non-integer token {token!r}\n"), argv
    # the integer options read a value by the same rule
    for argv in (
        ["verify-all", f"--n={token}"],
        ["stats", "--n=2", f"--samples={token}"],
        ["stats", "--n=2", "--samples=1", f"--seed={token}"],
        ["build", "--perm=2,3,1", f"--max-vertices={token}"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and f"invalid int value: {token!r}\n" in err, argv
    assert main(["lis", "--perm", "2,-1,1"]) == 2
    assert capsys.readouterr().err == "error: value -1 out of range 1..3\n"


def test_parse_permutation_separators():
    for text in ("2,3,1", "2 3 1", "2, 3, 1", " 2 ,3 , 1 "):
        assert parse_permutation(text) == RHO231


@pytest.mark.parametrize("text", ["2,,3,1", ",2,3,1", "2,3,1,", "2, ,3,1", ","])
def test_parse_permutation_rejects_empty_fields(text):
    with pytest.raises(ValueError, match="empty field"):
        parse_permutation(text)


def test_cli_rejects_empty_fields(capsys):
    for argv in (
        ["lis", "--perm", "2,,3,1"],
        ["lis", "--perm", "2,3,1,"],
        ["phi-inverse", "--perm", "2,3,1", "--subseq", "2,,3"],
        ["phi-inverse", "--perm", "2,3,1", "--subseq", ",3"],
        ["phi-inverse", "--perm", "2,3,1", "--subseq", "2,"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "empty field" in err, argv
    for subseq, vertex in (("()", "---"), ("", "---"), ("2, 3", "+-+"), ("2 3", "+-+")):
        assert main(["phi-inverse", "--perm", "2,3,1", "--subseq", subseq]) == 0
        assert capsys.readouterr().out == vertex + "\n", subseq


def test_parse_config_examples():
    assert parse_config("---", 3) == alpha(3)
    assert parse_config("+-+", 3) == SpinConfig((1, -1, 1))
    with pytest.raises(ValueError, match="illegal character '0'"):
        parse_config("+0-", 3)
    with pytest.raises(ValueError, match="expected 3 spins"):
        parse_config("+-", 3)


def test_export_dot_single_spin():
    g = build_bfs(make_permutation([1]))
    assert export_dot(g) == (
        "digraph preisach {\n"
        '  "-";\n'
        '  "+";\n'
        '  "-" -> "+" [color=black, label=1];\n'
        '  "+" -> "-" [color=red, label=1];\n'
        "}\n"
    )


def test_export_dot_fig_instance():
    text = export_dot(build_bfs(RHO231))
    assert text.count("->") == 8
    assert text.count("color=black") == 4
    assert text.count("color=red") == 4
    assert text.count('";') == 5


def test_export_json_single_spin():
    g = build_bfs(make_permutation([1]))
    assert export_json(g) == (
        '{"n":1,"perm":[1],"vertices":["-","+"],'
        '"edges":[{"from":"-","to":"+","kind":"U","label":1},'
        '{"from":"+","to":"-","kind":"D","label":1}]}'
    )


def _assert_same_text(got, want, context):
    # one comparison, not pytest's diff of the two texts, which takes
    # minutes once they are a few hundred vertices long
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(got + "\0", want + "\0")) if a != b)
        span = slice(max(i - 30, 0), i + 30)
        pytest.fail(f"{context}: texts differ at character {i}: {got[span]!r} vs {want[span]!r}")


def _oracle_names(g):
    """The sign string of every vertex mask, in the canonical order taken
    from SpinConfig's own: by +1 count, then by spin sequence with -1
    before +1."""
    order = sorted(g.vertices, key=lambda sigma: (sigma.count_plus(), sigma))
    return {sigma.mask: "".join("+" if s == 1 else "-" for s in sigma.spins) for sigma in order}


def _export_json_oracle(g):
    """export_json as a dict per edge handed to json.dumps, in the order of
    _oracle_names."""
    name = _oracle_names(g)
    edges = []
    for v in name:
        for kind, succ in (("U", g.u_next), ("D", g.d_next)):
            t = succ.get(v)
            if t is not None:
                edges.append(
                    {"from": name[v], "to": name[t], "kind": kind, "label": (v ^ t).bit_length()}
                )
    payload = {
        "n": g.n,
        "perm": list(g.perm.values),
        "vertices": list(name.values()),
        "edges": edges,
    }
    return json.dumps(payload, separators=(",", ":"))


def test_export_json_matches_the_json_dumps_oracle_exhaustive_small():
    for n in range(1, 7):
        for values in all_permutations(range(1, n + 1)):
            g = build_bfs(make_permutation(values))
            _assert_same_text(export_json(g), _export_json_oracle(g), values)


@settings(max_examples=40, deadline=None)
@given(permutations_st(min_n=7, max_n=10))
def test_export_json_matches_the_json_dumps_oracle(rho):
    g = build_bfs(rho)
    _assert_same_text(export_json(g), _export_json_oracle(g), rho.values)


def _export_dot_oracle(g):
    """export_dot as one line per vertex and then one per edge, in the order
    of _oracle_names, each vertex's U-edge before its D-edge."""
    name = _oracle_names(g)
    lines = ["digraph preisach {"] + [f'  "{s}";' for s in name.values()]
    for v in name:
        for color, succ in (("black", g.u_next), ("red", g.d_next)):
            t = succ.get(v)
            if t is not None:
                label = (v ^ t).bit_length()
                lines.append(f'  "{name[v]}" -> "{name[t]}" [color={color}, label={label}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_export_dot_matches_the_line_oracle_exhaustive_small():
    for n in range(1, 7):
        for values in all_permutations(range(1, n + 1)):
            g = build_bfs(make_permutation(values))
            _assert_same_text(export_dot(g), _export_dot_oracle(g), values)


@settings(max_examples=40, deadline=None)
@given(permutations_st(min_n=7, max_n=10))
def test_export_dot_matches_the_line_oracle(rho):
    g = build_bfs(rho)
    _assert_same_text(export_dot(g), _export_dot_oracle(g), rho.values)


@given(permutations_st(max_n=8))
def test_export_json_round_trip(rho):
    g = build_bfs(rho)
    assert load_json(export_json(g)) == g


@settings(max_examples=50)
@given(permutations_st(max_n=6), st.data())
def test_load_json_rejects_mutated_edge(rho, data):
    payload = json.loads(export_json(build_bfs(rho)))
    edge = data.draw(st.sampled_from(payload["edges"]))
    labels = [i for i in range(1, rho.n + 1) if i != edge["label"]]
    if labels and data.draw(st.booleans()):
        edge["label"] = data.draw(st.sampled_from(labels))
    else:
        edge["to"] = data.draw(
            st.sampled_from([v for v in payload["vertices"] if v != edge["to"]])
        )
    with pytest.raises(ValueError, match="transition"):
        load_json(json.dumps(payload))


def _rewrites(edge, n):
    """Every edge with one field of edge, or its "to" with the label that
    follows it, set to each value of that field; edge itself among them."""
    signs = ["".join(p) for p in product("-+", repeat=n)]
    for field, values in (
        ("from", signs),
        ("to", signs),
        ("kind", ["U", "D"]),
        ("label", range(-1, n + 2)),
    ):
        for value in values:
            yield {**edge, field: value}
    src = parse_config(edge["from"], n).mask
    for s in signs:
        yield {**edge, "to": s, "label": (src ^ parse_config(s, n).mask).bit_length()}


def test_load_json_accepts_exactly_the_transitions_exhaustive_small():
    # the rest of each payload is the graph, so it is whole again exactly
    # when the rewritten edge is the transition of its kind from its source
    # that it replaced, as the _mask_steppers oracle computes it
    for n in range(1, 5):
        for values in all_permutations(range(1, n + 1)):
            rho = make_permutation(values)
            g = build_bfs(rho)
            steps = dict(zip("UD", _mask_steppers(rho)))
            payload = json.loads(export_json(g))
            for i, edge in enumerate(payload["edges"]):
                for new in _rewrites(edge, n):
                    src = parse_config(new["from"], n).mask
                    dst = parse_config(new["to"], n).mask
                    expected = (
                        (new["from"], new["kind"]) == (edge["from"], edge["kind"])
                        and steps[new["kind"]](src) == dst
                        and new["label"] == (src ^ dst).bit_length()
                    )
                    edges = list(payload["edges"])
                    edges[i] = new
                    text = json.dumps({**payload, "edges": edges})
                    if expected:
                        assert load_json(text) == g, new
                    else:
                        with pytest.raises(ValueError):
                            load_json(text)


def test_exports_match_the_recorded_pool_digests():
    # the two smallest graphs of the benchmark's export pool, about 8,300
    # vertices each: both exports byte-identical to the recorded digests
    pool_path = Path(__file__).resolve().parents[1] / "perfbench" / "export_pool.json"
    pool = json.loads(pool_path.read_text(encoding="utf-8"))
    for entry in sorted(pool, key=lambda entry: entry["vertices"])[:2]:
        g = build_bfs(make_permutation(entry["perm"]))
        text = export_json(g)
        assert hashlib.sha256(text.encode()).hexdigest() == entry["json_sha256"]
        assert hashlib.sha256(export_dot(g).encode()).hexdigest() == entry["dot_sha256"]
        assert load_json(text) == g


def test_exports_are_deterministic():
    rho = make_permutation([2, 4, 3, 5, 1])
    assert export_dot(build_bfs(rho)) == export_dot(build_bfs(rho))
    assert export_json(build_bfs(rho)) == export_json(build_bfs(rho))


def test_exports_independent_of_thread():
    rho = make_permutation([2, 4, 3, 5, 1])
    with ThreadPoolExecutor(max_workers=4) as pool:
        graphs = list(pool.map(lambda _: build_bfs(rho), range(4)))
    texts = {export_dot(g) for g in graphs} | {export_dot(build_bfs(rho))}
    assert len(texts) == 1


def test_cmd_verify_fig_instance():
    report = cmd_verify(RHO231)
    assert report.passed()
    assert report.vertex_count == 5
    assert report.nesting_of_graph == 2 and report.lis == 2


def test_cmd_verify_single_spin():
    report = cmd_verify(make_permutation([1]))
    assert report.passed() and report.vertex_count == 2 and report.lis == 1


def test_cmd_verify_five_spins():
    report = cmd_verify(make_permutation([2, 4, 3, 5, 1]))
    assert report.passed() and report.lis == 3


def test_cmd_verify_checks_phi_lengths_against_the_walk_degrees(monkeypatch):
    # the walk's degree of omega raised by one: every label still encodes
    # its vertex, but one length no longer equals its nesting degree
    real = preisach.cli._subcycle_walk

    def off_by_one(u_succ, d_succ, mu, nu):
        degrees = real(u_succ, d_succ, mu, nu)
        degrees[nu] += 1
        return degrees

    monkeypatch.setattr(preisach.cli, "_subcycle_walk", off_by_one)
    report = cmd_verify(RHO231)
    assert report.lrpm_ok and report.builders_agree
    assert not report.bijection_ok and not report.passed()


def _forge_maps(monkeypatch, edit):
    """Make cmd_verify see the breadth-first D-successor map of (2, 3, 1)
    with the entries of edit, mask to mask, put in."""
    real = preisach.cli._closure

    def forged(u_step, d_step):
        u_next, d_next, first, rest = real(u_step, d_step)
        return u_next, {**d_next, **edit}, first, rest

    monkeypatch.setattr(preisach.cli, "_closure", forged)


def test_cmd_verify_checks_builder_agreement_on_masks(monkeypatch):
    # the D-edge of ++- (mask 3) redirected from +-- to ---
    assert build_bfs(RHO231).d_next[0b011] == 0b001
    _forge_maps(monkeypatch, {0b011: 0b000})
    report = cmd_verify(RHO231)
    assert not report.builders_agree and not report.passed()


def test_cmd_verify_checks_builder_agreement_on_an_extra_entry(monkeypatch):
    # a D-edge out of -+-, which is no vertex: the walk, the labels and the
    # vertex count never meet it, so only builder agreement fails
    assert SpinConfig((-1, 1, -1)) not in build_bfs(RHO231)
    _forge_maps(monkeypatch, {0b010: 0b000})
    report = cmd_verify(RHO231)
    assert report.edge_count == 9
    assert report.cardinality_ok and report.bijection_ok and report.lrpm_ok
    assert not report.builders_agree and not report.passed()


def test_cmd_verify_checks_lrpm_on_masks(monkeypatch):
    # the same forgery as test_verify_lrpm_rejects_forged_graph, on the
    # breadth-first maps: (alpha, omega) is a cycle, (+--, ++-) is not; the
    # walk that fails gives no degrees, so the bijection check fails too
    _forge_maps(monkeypatch, {0b011: 0b000})
    report = cmd_verify(RHO231)
    assert not report.lrpm_ok and not report.passed()
    assert not report.bijection_ok


def _forge_labels(monkeypatch, relabel):
    """Make cmd_verify see the breadth-first labels with those of relabel,
    keyed by vertex mask, in their place.  Each forged label is a cons
    cell: its first value, and as its rest a vertex listed before it whose
    label is the forged label's tail."""
    real = preisach.cli._closure

    def forged(u_step, d_step):
        u_next, d_next, first, rest = real(u_step, d_step)
        labels = _labels(first, rest)
        order = list(labels)
        first, rest = dict(first), dict(rest)
        for t, label in relabel.items():
            first[t] = label[0]
            rest[t] = next(r for r in order[: order.index(t)] if labels[r] == label[1:])
        assert _labels(first, rest) == {**labels, **relabel}
        return u_next, d_next, first, rest

    monkeypatch.setattr(preisach.cli, "_closure", forged)


def test_cmd_verify_rejects_swapped_labels(monkeypatch):
    # +-- and ++- swap labels: the same set of labels, the same lengths,
    # but no longer phi
    labels = _labels(*_closure(*_mask_steppers(RHO231))[2:])
    assert (labels[0b001], labels[0b011]) == ((1,), (2,))
    _forge_labels(monkeypatch, {0b001: (2,), 0b011: (1,)})
    report = cmd_verify(RHO231)
    assert report.cardinality_ok and report.builders_agree and report.lrpm_ok
    assert not report.bijection_ok and not report.passed()


@pytest.mark.parametrize("label", [(3, 2), (3, 1), (1, 3), (4,), (0,), (-1,), (2, 2)])
def test_cmd_verify_rejects_a_label_that_is_no_subsequence(monkeypatch, label):
    # +-+ is labelled (2, 3); a length-2 forgery keeps the alternation check quiet
    _forge_labels(monkeypatch, {0b101: label})
    report = cmd_verify(RHO231)
    assert not report.bijection_ok and not report.passed()


def test_cmd_verify_peak_memory_per_vertex():
    # identity n=14 (16,384 vertices) peaks at 373 B per vertex under
    # tracemalloc, run after run, in the sub-cycle walk; 445 if the cons
    # cells outlive their check
    rho = make_permutation(range(1, 15))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        report = cmd_verify(rho)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.passed() and report.vertex_count == 1 << 14
    assert peak / report.vertex_count < 390


@pytest.mark.parametrize("export, bound", [(export_json, 450), (export_dot, 500)])
def test_export_peak_memory_per_vertex(export, bound):
    # identity n=14 (16,384 vertices) peaks under tracemalloc at 406 B per
    # vertex in export_json and 458 in export_dot, run after run; export_json
    # peaks at 561 if the edge list outlives its join, either export at 514
    # or 566 if the vertex names do, and export_dot at 580 if its joined
    # text is copied again to end it with a newline
    g = build_bfs(make_permutation(range(1, 15)))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        text = export(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert text.endswith("}\n" if export is export_dot else "]}")
    assert peak / (1 << 14) < bound


def test_cmd_verify_all_small():
    summary = cmd_verify_all(3)
    assert summary.checked == 6 and not summary.failures
    summary = cmd_verify_all(1)
    assert summary.checked == 1 and not summary.failures


def test_cmd_verify_all_guard():
    with pytest.raises(ValueError, match="n too large"):
        cmd_verify_all(12)
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            cmd_verify_all(n)


def test_random_permutation_deterministic():
    assert random_permutation(5, 1, 0) == random_permutation(5, 1, 0)
    assert random_permutation(5, 1, 0) != random_permutation(5, 1, 1)
    for index in range(20):
        values = random_permutation(7, 3, index).values
        assert sorted(values) == list(range(1, 8))
        assert Permutation(values).values == values


@pytest.mark.parametrize("n", [0, -3])
def test_random_permutation_rejects_empty_n(n, capsys):
    with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
        random_permutation(n, 1, 0)
    with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
        cmd_stats(n, 3, 0)
    assert main(["stats", "--n", str(n), "--samples", "3"]) == 2
    assert f"n must be >= 1, got {n}" in capsys.readouterr().err


def test_random_permutation_is_uniform_enough():
    counts = Counter(random_permutation(3, 1, i).values for i in range(120_000))
    assert len(counts) == 6
    three_sigma = 3 * (120_000 * (1 / 6) * (5 / 6)) ** 0.5
    for c in counts.values():
        assert abs(c - 20_000) <= three_sigma


def _mix64(x):
    x &= (1 << 64) - 1
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & ((1 << 64) - 1)
    return x ^ (x >> 31)


class _SplitMix64:
    """splitmix64 as a stream object: one draw per next64, and below(b)
    rejects a draw unless it is under the largest multiple of b that fits
    in 64 bits.  The reference for random_permutation's inline loop."""

    def __init__(self, key):
        self._state = key & ((1 << 64) - 1)

    def next64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        return _mix64(self._state)

    def below(self, bound):
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next64()
            if x < limit:
                return x % bound


def _fisher_yates(n, seed, index):
    rng = _SplitMix64(_mix64(seed) + index)
    values = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        values[i], values[j] = values[j], values[i]
    return tuple(values)


@pytest.mark.parametrize("n", [1, 2, 3, 22, 400])
def test_random_permutation_follows_the_splitmix64_oracle(n):
    for seed in (0, 1, 7, -3, (1 << 64) + 5):
        for index in (*range(20), (1 << 64) - 1, 1 << 70):
            assert random_permutation(n, seed, index).values == _fisher_yates(n, seed, index)


def test_random_permutation_stream_is_pinned():
    # every (seed, index) names one fixed stream: a digest of 150 of them
    digest = hashlib.sha256()
    for seed in range(3):
        for index in range(50):
            values = random_permutation(400, seed, index).values
            digest.update(",".join(map(str, values)).encode() + b"\n")
    assert digest.hexdigest() == (
        "0b876e1d03c6ae5e68a82874f8b42a99e3b2dfbc04ba8865e12cea11c653abf6"
    )


@pytest.mark.parametrize("n", [1, 2, 22, 400])
def test_random_permutation_draws_are_permutations(n):
    # the draw is built unvalidated: each one is still 1..n in some order
    for seed in range(3):
        for index in range(40):
            rho = random_permutation(n, seed, index)
            assert type(rho.values) is tuple and rho.n == n
            assert sorted(rho.values) == list(range(1, n + 1))
            assert all(type(v) is int for v in rho.values)
            assert Permutation(rho.values) == rho


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 1 << 64))
def test_cmd_stats_nesting_checked_is_the_naive_budget_count(n, samples, seed):
    # at the 2**LIS bound of the first sample, one below it, and at and
    # below its vertex count, every graph within the budget is checked
    counts = [count_increasing(random_permutation(n, seed, i)) for i in range(samples)]
    bound = 2 ** lis_patience(random_permutation(n, seed, 0))
    for budget in (1, bound - 1, bound, counts[0] - 1, counts[0]):
        report = cmd_stats(n, samples, seed, budget)
        assert report.nesting_checked == sum(c <= budget for c in counts), budget


def test_cmd_stats_single_spin():
    report = cmd_stats(1, 5, 3)
    assert report.lis_mean == 1.0 and report.lis_stddev == 0.0


def test_cmd_stats_counts_confirmed_graphs():
    report = cmd_stats(20, 50, 7, max_vertices=1 << 20)
    assert report.nesting_checked == 50


def test_cmd_stats_reproducible():
    assert cmd_stats(30, 20, 11) == cmd_stats(30, 20, 11)


def test_cmd_stats_budget_boundary():
    # a graph of exactly max_vertices vertices fits; one more does not
    seed = 5
    c = count_increasing(random_permutation(12, seed, 0))
    assert cmd_stats(12, 1, seed, max_vertices=c).nesting_checked == 1
    assert cmd_stats(12, 1, seed, max_vertices=c - 1).nesting_checked == 0


def _readme_cli_examples():
    """Each `$ preisach ...` example of the README's CLI block, as its argv
    and the output shown under it, blank-line separated."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, _, output = chunk.partition("\n")
        argv = shlex.split(command.removeprefix("$ preisach "), comments=True)
        examples.append(pytest.param(argv, output, id=argv[0]))
    return examples


def _mask_elapsed(text):
    return re.sub(r"^elapsed=[0-9.]+s$", "elapsed=...", text, flags=re.M)


_README_EXAMPLES = _readme_cli_examples()


def _subcommands():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return subparsers.choices


def test_readme_cli_block_has_an_example_of_every_subcommand():
    assert sorted(p.id for p in _README_EXAMPLES) == sorted(_subcommands())


@pytest.mark.parametrize("argv, output", _README_EXAMPLES)
def test_cli_output_matches_readme(argv, output, capsys):
    # every example prints what the README shows, its elapsed time aside
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (_mask_elapsed(out), err) == (_mask_elapsed(output) + "\n", "")


def test_readme_quick_start_runs():
    # the Python block of the README runs, and every result it states in a
    # comment is what its line evaluates to
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        body = ast.parse(code).body
        if body and isinstance(body[0], ast.Expr):
            assert eval(code, namespace) == ast.literal_eval(comment.strip()), line
            stated.append(comment.strip())
        else:
            exec(code, namespace)
    assert stated == ["5", "[(), (1,), (2, 3), (2,), (3,)]", "True"]


@pytest.mark.parametrize("budget", [0, -5])
def test_cmd_stats_rejects_empty_budget(budget, capsys):
    with pytest.raises(VertexBudgetExceeded, match="budget is empty"):
        cmd_stats(5, 3, 0, max_vertices=budget)
    argv = ["stats", "--n", "5", "--samples", "3", "--max-vertices", str(budget)]
    assert main(argv) == 3
    assert "budget is empty" in capsys.readouterr().err


def test_cli_exit_codes(capsys):
    assert main(["verify", "--perm", "2,3,1"]) == 0
    assert main(["verify", "--perm", "2,2,1"]) == 2
    assert main(["build", "--perm", "1,2,3,4,5,6,7,8,9,10", "--max-vertices", "100"]) == 3
    assert main(["verify-all", "--n", "12"]) == 2
    assert main(["verify-all", "--n", "0"]) == 2
    assert "n must be >= 1, got 0" in capsys.readouterr().err


_BAD_TOKENS = ["x", "+2", "1_0", "0x1", "2.0", "\u0662", "0", "-1", "--1"]


@st.composite
def _perm_args(draw, bad_st=st.booleans()):
    """A --perm string, the permutation it should parse to (None if a bad
    token was put in, as bad_st draws), and that permutation's vertex
    count."""
    rho = draw(permutations_st(max_n=7))
    tokens = [str(v) for v in rho.values]
    bad = draw(bad_st)
    if bad:
        i = draw(st.integers(0, rho.n - 1))
        extra = [str(rho.n + 1)] + [t for t in tokens if t != tokens[i]]
        tokens[i] = draw(st.sampled_from(_BAD_TOKENS + extra))
    text = draw(st.sampled_from([",", " ", ", "])).join(tokens)
    return text, None if bad else rho, count_increasing(rho)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["build", "export-dot", "export-json", "nesting", "verify"]),
    _perm_args(),
    st.sampled_from(["empty", "below", "exact", "default"]),
    st.integers(-3, 0),
)
def test_cli_graph_commands_on_generated_argv(command, perm, budget_kind, empty):
    # exit 0 prints exactly the library's answer: the export (or size) of
    # build_bfs(rho), its nesting degree, or the cmd_verify report but for
    # its elapsed line; a bad token exits 2; exit 3 happens exactly when the
    # budget is below 1 or below the vertex count; no exception leaves main
    text, rho, count = perm
    budget = {"empty": empty, "below": count - 1, "exact": count, "default": None}[budget_kind]
    argv = [command, f"--perm={text}"]
    if budget is not None:
        argv.append(f"--max-vertices={budget}")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if rho is None:
        expected = 2
    elif budget is not None and (budget < 1 or budget < count):
        expected = 3
    else:
        expected = 0
    assert code == expected, argv
    if code:
        assert out == "" and err.startswith("error: "), argv
        return
    g = build_bfs(rho)
    if command == "verify":
        checks = "builders_agree cardinality_ok bijection_ok nesting_ok lrpm_ok merge_identities_ok"
        fields = [line.split("=", 1) for line in out.splitlines()]
        assert fields.pop(-2)[0] == "elapsed" and (out[-1], err) == ("\n", ""), argv
        assert fields == [
            ["perm", ",".join(map(str, rho.values))],
            ["vertices", str(count)],
            ["edges", str(g.edge_count)],
            *[[name, "true"] for name in checks.split()],
            ["nesting_of_graph", str(nesting_of_graph(g))],
            ["lis", str(lis_patience(rho))],
            ["result", "PASS"],
        ], argv
        return
    shown = {
        "build": f"vertices={count} edges={g.edge_count}",
        "export-dot": export_dot(g),
        "export-json": export_json(g),
        "nesting": str(nesting_of_graph(g)),
    }[command]
    assert (out, err) == (shown.removesuffix("\n") + "\n", ""), argv


_TO_BITS = str.maketrans("+-", "10")


def _signs(mask, n):
    return "".join("+" if mask >> i & 1 else "-" for i in range(n))


@st.composite
def _codec_argv(draw, command, n, labels):
    """The option a codec command takes, for an n-spin permutation whose
    phi is labels (empty if there is none), and its value: for phi and
    nesting --vertex a sign string, of a vertex, of a non-vertex, of the
    wrong length or with an illegal character; for phi-inverse a list of
    values, an increasing subsequence, rising values at any positions, any
    values or a list with a bad token."""
    if command == "phi-inverse":
        kinds = ["rising", "any", "bad"] + ["increasing", "increasing"] * bool(labels)
        kind = draw(st.sampled_from(kinds))
        if kind == "increasing":
            values = list(draw(st.sampled_from(sorted(labels.values()))))
        elif kind == "rising":
            # rising values, so their positions decide
            values = sorted(draw(st.sets(st.integers(1, n), max_size=n)))
        else:
            values = draw(st.lists(st.integers(-1, n + 1), max_size=4))
        if kind == "bad":
            values[draw(st.integers(0, len(values))) :] = [draw(st.sampled_from(_BAD_TOKENS[:6]))]
        return "--subseq", ",".join(map(str, values)) or "()"
    others = [m for m in range(1 << n) if m not in labels]
    kinds = ["length", "illegal"] + ["vertex"] * 3 * bool(labels) + ["other"] * bool(others)
    kind = draw(st.sampled_from(kinds))
    if kind == "vertex":
        text = _signs(draw(st.sampled_from(sorted(labels))), n)
    elif kind == "other":
        text = _signs(draw(st.sampled_from(others)), n)
    else:
        text = _signs(draw(st.integers(0, (1 << n) - 1)), n)
    if kind == "length":
        text = text + "+" if draw(st.booleans()) or n == 1 else text[1:]
    elif kind == "illegal":
        i = draw(st.integers(0, n - 1))
        text = text[:i] + draw(st.sampled_from("x0 1")) + text[i + 1 :]
    return "--vertex", text


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["phi", "phi-inverse", "nesting", "lis"]),
    _perm_args(st.sampled_from([False, False, False, True])),
    st.sampled_from(["empty", "below"] + ["exact", "default"] * 2),
    st.integers(-3, 0),
    st.data(),
)
def test_cli_codec_commands_on_generated_argv(command, perm, budget_kind, empty, data):
    # exit 0 prints the answer read off phi_all(build_bfs(rho)): the label
    # of a vertex, the vertex of a label, a label's length, or the longest
    # label's length for lis; a bad token, a non-vertex or a sequence that
    # is no increasing subsequence exits 2; exit 3 happens exactly when the
    # budget is below 1 or below the vertex count (lis takes no budget);
    # no exception leaves main
    text, rho, count = perm
    n = len(text.replace(",", " ").split())
    labels = {} if rho is None else {v.mask: s for v, s in phi_all(build_bfs(rho)).items()}
    argv = [command, f"--perm={text}"]
    budget = value = None
    if command != "lis":
        option, value = data.draw(_codec_argv(command, n, labels))
        argv.append(f"{option}={value}")
        budget = {"empty": empty, "below": count - 1, "exact": count, "default": None}[budget_kind]
        if budget is not None:
            argv.append(f"--max-vertices={budget}")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if rho is None:
        expected = 2
    elif budget is not None and (budget < 1 or budget < count):
        expected = 3
    else:
        answer = _codec_answer(command, value, n, labels)
        expected = 2 if answer is None else 0
    assert code == expected, argv
    if code:
        assert out == "" and err.startswith("error: "), argv
    else:
        assert (out, err) == (answer + "\n", ""), argv


def _codec_answer(command, value, n, labels):
    """What a codec command prints for an option value, read off labels,
    phi of every vertex mask; None if the value must be rejected."""
    if command == "lis":
        return str(max(map(len, labels.values())))
    if command == "phi-inverse":
        values = value.split(",") if value != "()" else []
        if not all(re.fullmatch(r"-?[0-9]+", v) for v in values):
            return None
        vertex_of = {s: m for m, s in labels.items()}
        key = tuple(map(int, values))
        return _signs(vertex_of[key], n) if key in vertex_of else None
    if len(value) != n or not set(value) <= set("+-"):
        return None
    label = labels.get(int(value[::-1].translate(_TO_BITS), 2))
    if label is None:
        return None
    return (",".join(map(str, label)) or "()") if command == "phi" else str(len(label))


def _library_outcome(call):
    """The exit code main gives for the outcome of a library call, and its
    result: 0 and the result, or 2 for ValueError and 3 for
    VertexBudgetExceeded, with None."""
    try:
        return 0, call()
    except VertexBudgetExceeded:
        return 3, None
    except ValueError:
        return 2, None


_NOT_INTS = ["x", "2.0", "0x1", ""]


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["verify-all", "stats"]),
    st.one_of(st.integers(-2, 5), st.sampled_from([9, 12] + _NOT_INTS)),
    st.one_of(st.integers(-2, 4), st.sampled_from(_NOT_INTS)),
    st.one_of(st.none(), st.integers(-(1 << 65), 1 << 65), st.sampled_from(_NOT_INTS)),
    st.one_of(st.none(), st.integers(-2, 40), st.sampled_from(_NOT_INTS)),
)
def test_cli_verify_all_and_stats_on_generated_argv(command, n, samples, seed, budget):
    # a value that is no integer exits 2 from the parser; otherwise the exit
    # code is the outcome of cmd_verify_all or cmd_stats on the same values
    # (2 for a bad n or sample count, 3 for a budget below 1 or, for
    # verify-all, below 2^n) and exit 0 prints exactly its summary; the
    # code is always 0, 1, 2 or 3 and no exception leaves main
    argv = [command, f"--n={n}"]
    given_values = [n]
    if command == "stats":
        argv.append(f"--samples={samples}")
        given_values.append(samples)
        if seed is not None:
            argv.append(f"--seed={seed}")
            given_values.append(seed)
    if budget is not None:
        argv.append(f"--max-vertices={budget}")
        given_values.append(budget)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), argv
    if any(type(v) is str for v in given_values):
        assert code == 2 and out == "" and "invalid int value" in err, argv
        return
    budget = DEFAULT_MAX_VERTICES if budget is None else budget
    if command == "verify-all":
        expected, summary = _library_outcome(lambda: cmd_verify_all(n, budget))
        if summary is not None:
            assert not summary.failures
            shown = f"n={n}\npermutations={summary.checked}\nfailures=0\n"
    else:
        seed = 0 if seed is None else seed
        expected, report = _library_outcome(lambda: cmd_stats(n, samples, seed, budget))
        if report is not None:
            shown = (
                f"n={n}\nsamples={samples}\nseed={seed}\n"
                f"lis_mean={report.lis_mean:.6f}\nlis_stddev={report.lis_stddev:.6f}\n"
                f"nesting_checked={report.nesting_checked}\n"
            )
    assert code == expected, argv
    if code:
        assert out == "" and err.startswith("error: "), argv
    else:
        assert (out, err) == (shown, ""), argv


# every integer option of every subcommand, after the arguments that
# subcommand needs besides it
_INT_OPTIONS = {
    **{
        (command, "--max-vertices"): ["--perm=2,3,1", *extra]
        for command, extra in (
            ("build", []),
            ("export-dot", []),
            ("export-json", []),
            ("phi", ["--vertex=+-+"]),
            ("phi-inverse", ["--subseq=2,3"]),
            ("nesting", []),
            ("verify", []),
        )
    },
    ("verify-all", "--n"): [],
    ("verify-all", "--max-vertices"): ["--n=2"],
    ("stats", "--n"): ["--samples=1"],
    ("stats", "--samples"): ["--n=2"],
    ("stats", "--seed"): ["--n=2", "--samples=1"],
    ("stats", "--max-vertices"): ["--n=2", "--samples=1"],
}

_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
_FULLWIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))


def test_int_options_cover_every_integer_option_of_the_parser():
    names = {"--n", "--samples", "--seed", "--max-vertices"}
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    found = {
        (command, option)
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option in names
    }
    assert found == set(_INT_OPTIONS)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(_INT_OPTIONS)),
    st.integers(-(1 << 65), 1 << 65),
    st.sampled_from(["plain", "padded", "plus", "underscore", "arabic-indic", "fullwidth"]),
)
def test_cli_integer_options_take_only_plain_ascii_integers(key, value, spelling):
    # int() reads all six spellings of value; the options take only the
    # plain one, with or without blanks around it, as --perm reads a value
    command, option = key
    if spelling not in ("plain", "padded"):
        # -3..6 (0..9 spelled with a plus), so that a parser that took the
        # value would still end quickly
        value = value % 10 - 3 * (spelling != "plus")
    sign, digits = "-" * (value < 0), str(abs(value))
    token = {
        "plain": str(value),
        "padded": f" {value} ",
        "plus": f"+{value}",
        "underscore": f"{sign}0_{digits}",
        "arabic-indic": sign + digits.translate(_ARABIC_INDIC),
        "fullwidth": sign + digits.translate(_FULLWIDTH),
    }[spelling]
    assert int(token) == value
    argv = [command, *_INT_OPTIONS[key], f"{option}={token}"]
    if spelling in ("plain", "padded"):
        args = build_parser().parse_args(argv)
        assert getattr(args, option[2:].replace("-", "_")) == value, argv
        return
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 2 and out.getvalue() == "", argv
    assert f"error: argument {option}: invalid int value: {token!r}\n" in err.getvalue(), argv


# for every option of any subcommand: the value it is given where it is
# required (None: it is left at its default), and a second value, which
# must change what the command prints or its exit code
_OPTION_VALUES = {
    "--perm": ("2,3,1", "1,2,3"),
    "--vertex": ("+-+", "+++"),
    "--subseq": ("2,3", "()"),
    "--n": ("2", "3"),
    "--samples": ("1", "2"),
    "--seed": (None, "1"),
    "--max-vertices": (None, "1"),
    "--out": (None, "out.txt"),
    "--help": (None, None),
}


_SUBCOMMAND_OPTIONS = [
    pytest.param(command, action.option_strings[-1], id=f"{command}:{action.option_strings[-1]}")
    for command, sub in _subcommands().items()
    for action in sub._actions
]


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, _mask_elapsed(out.getvalue()), err.getvalue()


@pytest.mark.parametrize("command, option", _SUBCOMMAND_OPTIONS)
def test_every_option_changes_the_output_or_the_exit_code(command, option, tmp_path, monkeypatch):
    # generated from the parser, so an option added without a value here,
    # or one that has no effect, fails
    monkeypatch.chdir(tmp_path)
    assert option in _OPTION_VALUES, f"no values to try for {command} {option}"
    actions = {a.option_strings[-1]: a for a in _subcommands()[command]._actions}
    argv = [command]
    for name, action in actions.items():
        if action.required:
            argv.append(f"{name}={_OPTION_VALUES[name][0]}")
    other = _OPTION_VALUES[option][1]
    changed = [*argv, option if actions[option].nargs == 0 else f"{option}={other}"]
    assert _outcome(changed) != _outcome(argv), changed


def test_cli_negative_budget_still_exits_3(capsys):
    assert main(["build", "--perm", "2,3,1", "--max-vertices", "-1"]) == 3
    assert capsys.readouterr() == ("", "error: vertex budget exceeded: budget is empty\n")
    assert main(["verify-all", "--n", "2", "--max-vertices", "-1"]) == 3
    assert main(["stats", "--n", "2", "--samples", "1", "--seed", "-7"]) == 0
    assert capsys.readouterr().out.startswith("n=2\nsamples=1\nseed=-7\n")


def test_cli_takes_the_sign_string_of_two_down_spins(capsys):
    # argparse passes [] for the value of --vertex=--; it is the sign string "--"
    assert main(["phi", "--perm", "2,1", "--vertex=--"]) == 0
    assert capsys.readouterr() == ("()\n", "")
    assert main(["nesting", "--perm", "2,1", "--vertex=--"]) == 0
    assert capsys.readouterr() == ("0\n", "")
    assert main(["phi", "--perm", "1,2,3", "--vertex=--"]) == 2
    assert capsys.readouterr().err == "error: expected 3 spins, got 2\n"


def test_cli_phi_round_trip(capsys):
    assert main(["phi", "--perm", "2,4,3,5,1", "--vertex", "+++-+"]) == 0
    assert capsys.readouterr().out.strip() == "2,4,5"
    assert main(["phi-inverse", "--perm", "2,4,3,5,1", "--subseq", "2,4,5"]) == 0
    assert capsys.readouterr().out.strip() == "+++-+"
    # sign strings can start with '-'; the --opt=value form keeps argparse happy
    assert main(["phi", "--perm", "2,3,1", "--vertex=---"]) == 0
    assert capsys.readouterr().out.strip() == "()"
    assert main(["phi-inverse", "--perm", "2,3,1", "--subseq", "()"]) == 0
    assert capsys.readouterr().out.strip() == "---"


@pytest.mark.parametrize(
    "argv, answer",
    [
        (["phi", "--vertex", "+++-+"], "2,4,5"),
        (["phi-inverse", "--subseq", "2,4,5"], "+++-+"),
        (["nesting", "--vertex", "+++-+"], "3"),
    ],
    ids=["phi", "phi-inverse", "nesting-vertex"],
)
def test_cli_codec_commands_keep_the_graph_budget(argv, answer, capsys):
    # no graph is built, but the budget is charged with its vertex count,
    # with build_bfs's exit code and message at every budget
    rho = make_permutation([2, 4, 3, 5, 1])
    c = count_increasing(rho)
    for budget in (0, -1, c - 1, c):
        assert main([*argv, "--perm", "2,4,3,5,1", "--max-vertices", str(budget)]) == (
            0 if budget == c else 3
        )
        out, err = capsys.readouterr()
        if budget == c:
            assert (out, err) == (answer + "\n", "")
            continue
        with pytest.raises(VertexBudgetExceeded) as exc:
            build_bfs(rho, budget)
        assert (out, err) == ("", f"error: {exc.value}\n")


def _no_count(rho):
    raise AssertionError(f"counted the subsequences of a {rho.n}-permutation")


@pytest.mark.parametrize(
    "command, option",
    [
        ("phi", "--vertex"),
        ("phi-inverse", "--subseq"),
        ("nesting", "--vertex"),
        ("nesting", None),
        ("build", None),
        ("export-json", None),
        ("verify", None),
    ],
    ids=["phi", "phi-inverse", "nesting", "nesting-graph", "build", "export-json", "verify"],
)
def test_cli_codec_commands_refuse_below_the_lis_bound_without_counting(
    command, option, monkeypatch, capsys
):
    # a budget under 2**LIS is refused by the budget gate with build_bfs's
    # message and no count: at n=400 (LIS about 36) the count was the whole
    # cost of it.  verify counts for its cardinality check, in O(n log n),
    # through its own name, not through the gate.
    monkeypatch.setattr(preisach.graph, "count_increasing", _no_count)
    cases = [
        (make_permutation([2, 4, 3, 5, 1]), (1, 7)),
        (random_permutation(400, 0, 0), (1, 1000, DEFAULT_MAX_VERTICES)),
    ]
    for rho, budgets in cases:
        assert 2 ** lis_patience(rho) > max(budgets)
        arg = {"--subseq": ["--subseq", "()"], "--vertex": ["--vertex=" + "-" * rho.n], None: []}
        perm = ",".join(map(str, rho.values))
        for budget in budgets:
            argv = [command, *arg[option], "--perm", perm, "--max-vertices", str(budget)]
            assert main(argv) == 3
            with pytest.raises(VertexBudgetExceeded) as exc:
                build_bfs(rho, budget)
            assert capsys.readouterr() == ("", f"error: {exc.value}\n")


def _no_build(*args):
    raise AssertionError("a graph pass started over the budget")


@pytest.mark.parametrize(
    "values, budget",
    [(tuple(range(1, 31)), None), ((2, 4, 3, 5, 1), "count-1")],
    ids=["identity-30-default", "24351-count-1"],
)
def test_every_entry_point_refuses_an_over_budget_permutation_before_building(
    values, budget, monkeypatch, capsys
):
    # the budget is decided before any pass starts: with every pass made to
    # fail, each builder, cmd_verify, cmd_verify_all and every command that
    # builds still refuses, with the message a pass that ran out would give
    rho = make_permutation(values)
    limit = DEFAULT_MAX_VERTICES if budget is None else count_increasing(rho) - 1
    monkeypatch.setattr(preisach.graph, "_closure", _no_build)
    monkeypatch.setattr(preisach.graph, "_forward_maps", _no_build)
    monkeypatch.setattr(preisach.cli, "_closure", _no_build)
    message = f"vertex budget exceeded: graph needs more than {limit} vertices"
    for call in (build_bfs, build_forward, cmd_verify):
        with pytest.raises(VertexBudgetExceeded) as exc:
            call(rho, limit)
        assert str(exc.value) == message, call
    with pytest.raises(VertexBudgetExceeded) as exc:
        cmd_verify_all(4, 2)
    assert str(exc.value) == "vertex budget exceeded: graph needs more than 2 vertices"
    options = ["--perm", ",".join(map(str, values))]
    if budget is not None:
        options += ["--max-vertices", str(limit)]
    for command in ("build", "export-dot", "export-json", "verify", "nesting"):
        assert main([command, *options]) == 3, command
        assert capsys.readouterr() == ("", f"error: {message}\n"), command
    assert main(["verify-all", "--n", "4", "--max-vertices", "2"]) == 3
    assert capsys.readouterr() == (
        "",
        "error: vertex budget exceeded: graph needs more than 2 vertices\n",
    )


@pytest.mark.parametrize(
    "values", [(2, 3, 1), tuple(range(1, 7)), tuple(range(6, 0, -1))], ids=str
)
def test_cli_graph_nesting_is_lis_within_the_budget(values, capsys):
    # nesting without --vertex runs build_bfs's pass: its answer is the LIS,
    # and past the budget it fails with build_bfs's exit code and message
    rho = make_permutation(values)
    c = count_increasing(rho)
    argv = ["nesting", "--perm", ",".join(map(str, values)), "--max-vertices"]
    assert main([*argv, str(c)]) == 0
    assert capsys.readouterr() == (f"{lis_patience(rho)}\n", "")
    assert main([*argv, str(c - 1)]) == 3
    with pytest.raises(VertexBudgetExceeded) as exc:
        build_bfs(rho, c - 1)
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")


def test_cli_codec_commands_reject_non_vertices_and_non_subsequences(capsys):
    for argv, message in [
        (["phi", "--vertex=-+-"], "not a vertex: (-1, 1, -1)"),
        (["nesting", "--vertex=-+-"], "not a vertex: (-1, 1, -1)"),
        (["phi", "--vertex", "++"], "expected 3 spins"),
        (["phi-inverse", "--subseq", "3,2"], "not an increasing subsequence"),
        (["phi-inverse", "--subseq", "1,3"], "not an increasing subsequence"),
        (["phi-inverse", "--subseq", "4"], "value 4 out of range"),
        (["phi-inverse", "--subseq", "x"], "non-integer token 'x'"),
    ]:
        assert main([*argv, "--perm", "2,3,1"]) == 2, argv
        assert message in capsys.readouterr().err, argv


def test_cli_codec_commands_answer_on_identity_64(capsys):
    # 2^64 vertices: the budget admits the graph, and no graph is built
    perm = ",".join(map(str, range(1, 65)))
    budget = ["--perm", perm, "--max-vertices", str(1 << 64)]
    assert main(["phi", "--vertex", "+" * 64, *budget]) == 0
    assert capsys.readouterr().out == "64\n"
    assert main(["phi-inverse", "--subseq", perm, *budget]) == 0
    vertex = capsys.readouterr().out.strip()
    assert vertex == "-+" * 32
    assert main(["nesting", f"--vertex={vertex}", *budget]) == 0
    assert capsys.readouterr().out == "64\n"


def test_cli_verify_output(capsys):
    assert main(["verify", "--perm", "2,3,1"]) == 0
    out = capsys.readouterr().out
    assert "result=PASS" in out
    assert "vertices=5" in out
    assert "nesting_of_graph=2" in out


def _with_unreachable_vertex() -> str:
    # the (2,3,1) export plus -+-, which is closed under its own two true
    # transitions but not reachable from alpha
    payload = json.loads(export_json(build_bfs(RHO231)))
    payload["vertices"].append("-+-")
    payload["edges"] += [
        {"from": "-+-", "to": "++-", "kind": "U", "label": 1},
        {"from": "-+-", "to": "---", "kind": "D", "label": 2},
    ]
    return json.dumps(payload)


@pytest.mark.parametrize(
    "text, match",
    [
        ("[]", "malformed"),
        ('{"n":1,"vertices":["-","+"],"edges":[]}', "malformed.*perm"),
        ('{"n":1,"perm":[1],"vertices":["-","+"],"edges":["U"]}', "malformed"),
        ('{"n":1,"perm":[1],"vertices":[1,2],"edges":[]}', "malformed"),
        ('{"n":1,"perm":[1],"vertices":[["-"],["+"]],"edges":[]}', "malformed"),
        ('{"n":2,"perm":[1,2],"vertices":["--","+"],"edges":[]}', "expected 2 spins, got 1"),
        ('{"n":2,"perm":[1,2],"vertices":["--","+0"],"edges":[]}', "illegal character '0'"),
        ('{"n":2,"perm":[1,2],"vertices":["--","+x","-",1],"edges":[]}', "illegal character 'x'"),
        (
            '{"n":2,"perm":[1,2],"vertices":["--"],'
            '"edges":[{"from":"++","to":"--","kind":"U","label":7}]}',
            "not a listed vertex",
        ),
        (
            '{"n":1,"perm":[1],"vertices":["-","+"],'
            '"edges":[{"from":"-","to":"+","kind":"U","label":7}]}',
            "outside 1..1",
        ),
        (
            '{"n":1,"perm":[1],"vertices":["-","+"],'
            '"edges":[{"from":"-","to":"+","kind":"U","label":1},'
            '{"from":"-","to":"-","kind":"U","label":1}]}',
            "second U-edge",
        ),
        (
            '{"n":2,"perm":[1,2],"vertices":["--","+-"],'
            '"edges":[{"from":"--","to":"+-","kind":"U","label":2}]}',
            "not the U-transition",
        ),
        (
            '{"n":1,"perm":[1],"vertices":["-","+"],'
            '"edges":[{"from":"-","to":"+","kind":"D","label":1}]}',
            "not the D-transition",
        ),
        (
            '{"n":2,"perm":[1,2],"vertices":["--","-+"],'
            '"edges":[{"from":"--","to":"-+","kind":"U","label":2}]}',
            "not the U-transition",
        ),
        (
            '{"n":2,"perm":[2,1],"vertices":["++","-+"],'
            '"edges":[{"from":"++","to":"-+","kind":"D","label":1}]}',
            "not the D-transition",
        ),
        ('{"n":1,"perm":[1],"vertices":["-","+","-"],"edges":[]}', "listed twice"),
        ('{"n":1,"perm":[1],"vertices":[],"edges":[]}', "alpha or omega"),
        ('{"n":1,"perm":[1],"vertices":["-","+"],"edges":[]}', "lack a U-edge"),
        (
            '{"n":1,"perm":[1],"vertices":["-","+"],'
            '"edges":[{"from":"-","to":"+","kind":"U","label":1}]}',
            "lack a D-edge",
        ),
        (_with_unreachable_vertex(), "6 vertices listed, perm has 5"),
        (
            '{"n":true,"perm":[1],"vertices":["-","+"],'
            '"edges":[{"from":"-","to":"+","kind":"U","label":1},'
            '{"from":"+","to":"-","kind":"D","label":1}]}',
            "inconsistent n: True",
        ),
        (
            '{"n":1,"perm":[1],"vertices":["-","+"],'
            '"edges":[{"from":"-","to":"+","kind":"U","label":true},'
            '{"from":"+","to":"-","kind":"D","label":1}]}',
            "label True outside",
        ),
        (
            '{"n":1,"perm":[true],"vertices":["-","+"],'
            '"edges":[{"from":"-","to":"+","kind":"U","label":1},'
            '{"from":"+","to":"-","kind":"D","label":1}]}',
            "non-integer value True",
        ),
        (
            '{"n":1,"perm":[1],"vertices":"-+",'
            '"edges":[{"from":"-","to":"+","kind":"U","label":1},'
            '{"from":"+","to":"-","kind":"D","label":1}]}',
            "malformed.*vertices is not an array",
        ),
        (
            '{"n":1,"perm":[1],"vertices":["-","+"],'
            '"edges":[{"from":"-","to":"+","kind":"X","label":1},'
            '{"from":"+","to":"-","kind":"D","label":1}]}',
            "neither U nor D",
        ),
        (
            '{"n":1,"perm":[1],"vertices":["-","+"],'
            '"edges":[{"from":"-","to":"+","kind":"u","label":1},'
            '{"from":"+","to":"-","kind":"D","label":1}]}',
            "neither U nor D",
        ),
        (
            '{"n":1,"perm":[1],"vertices":["-","+"],'
            '"edges":[{"from":"-","to":"+","kind":1,"label":1},'
            '{"from":"+","to":"-","kind":"D","label":1}]}',
            "neither U nor D",
        ),
        (
            '{"n":1,"perm":[1],"vertices":["-","+"],'
            '"edges":[{"from":"-","to":"+","kind":null,"label":1},'
            '{"from":"+","to":"-","kind":"D","label":1}]}',
            "neither U nor D",
        ),
        (
            '{"n":1,"perm":[1],"vertices":["-","+"],'
            '"edges":[{"from":"-","to":"+","kind":["U"],"label":1},'
            '{"from":"+","to":"-","kind":"D","label":1}]}',
            "neither U nor D",
        ),
        (
            '{"n":1,"perm":[1],"vertices":{"-":0,"+":0},'
            '"edges":[{"from":"-","to":"+","kind":"U","label":1},'
            '{"from":"+","to":"-","kind":"D","label":1}]}',
            "malformed.*vertices is not an array",
        ),
        (
            '{"n":1,"perm":[1],"vertices":["-","+"],'
            '"edges":{"U":{"from":"-","to":"+","kind":"U","label":1}}}',
            "malformed.*edges is not an array",
        ),
    ],
    ids=[
        "top-level-list",
        "missing-perm",
        "edge-not-an-object",
        "vertex-not-a-string",
        "vertex-a-list",
        "vertex-wrong-length",
        "vertex-illegal-character",
        "vertex-first-bad-name",
        "endpoint-not-a-vertex",
        "label-out-of-range",
        "second-edge-of-one-kind",
        "wrong-label",
        "wrong-direction",
        "u-edge-not-i-plus",
        "d-edge-not-i-minus",
        "repeated-vertex",
        "no-vertices",
        "no-u-edge",
        "no-d-edge",
        "unreachable-vertex",
        "boolean-n",
        "boolean-label",
        "boolean-perm-value",
        "vertices-as-string",
        "kind-X",
        "kind-lowercase",
        "kind-number",
        "kind-null",
        "kind-list",
        "vertices-as-object",
        "edges-as-object",
    ],
)
def test_load_json_rejects_malformed_payload(text, match):
    with pytest.raises(ValueError, match=match):
        load_json(text)


def test_cli_runs_as_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "preisach.cli", *args],
            env=env, capture_output=True, text=True, timeout=60,
        )

    ok = cli("lis", "--perm", "2,3,1")
    assert ok.returncode == 0 and ok.stdout == "2\n"
    assert cli("lis", "--perm", "2,2,1").returncode == 2


def test_cli_export_to_file(tmp_path):
    out = tmp_path / "graph.json"
    assert main(["export-json", "--perm", "2,3,1", "--out", str(out)]) == 0
    g = load_json(out.read_text(encoding="utf-8"))
    assert len(g.vertices) == 5


def test_cli_out_to_unwritable_path(tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    assert main(["build", "--perm", "1,2,3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_verify_writes_its_report_to_out(tmp_path, capsys):
    # the same lines as on stdout, elapsed time excepted
    def lines(text):
        return [line for line in text.splitlines() if not line.startswith("elapsed=")]

    assert main(["verify", "--perm", "2,3,1"]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report.txt"
    assert main(["verify", "--perm", "2,3,1", "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert lines(out.read_text(encoding="utf-8")) == lines(stdout)
    assert len(lines(stdout)) == 12


@pytest.mark.parametrize(
    "argv",
    [
        ["lis", "--perm", "2,3,1"],
        ["export-json", "--perm", "2,4,3,5,1"],
        ["verify", "--perm", "2,3,1"],
    ],
    ids=["lis", "export-json", "verify"],
)
def test_cli_out_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    # one final newline in both, the elapsed time excepted
    def without_elapsed(data):
        lines = data.splitlines(keepends=True)
        return b"".join(line for line in lines if not line.startswith(b"elapsed="))

    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert without_elapsed(out.read_bytes()) == without_elapsed(stdout)
    assert stdout.endswith(b"\n") and not stdout.endswith(b"\n\n")


def test_cli_verify_to_unwritable_path(tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    assert main(["verify", "--perm", "2,3,1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_format_config_round_trip():
    sigma = SpinConfig((1, -1, 1))
    assert parse_config(format_config(sigma), 3) == sigma
