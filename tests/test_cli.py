from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import preisach.cli
from preisach import SpinConfig, VertexBudgetExceeded, alpha, build_bfs, make_permutation
from preisach.cli import (
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


def test_cmd_verify_checks_phi_lengths_against_alternation_oracle(monkeypatch):
    real = preisach.cli._alternation_masks

    def off_by_one(rho, max_vertices):
        degrees = real(rho, max_vertices)
        degrees[(1 << rho.n) - 1] += 1
        return degrees

    monkeypatch.setattr(preisach.cli, "_alternation_masks", off_by_one)
    report = cmd_verify(RHO231)
    assert not report.bijection_ok and not report.passed()


def test_cmd_verify_checks_builder_agreement_on_masks(monkeypatch):
    # the forward builder's D-edge of ++- (mask 3) redirected from +-- to ---
    real = preisach.cli._forward_maps

    def redirected(rho, max_vertices):
        u_next, d_next = real(rho, max_vertices)
        assert d_next[0b011] == 0b001
        return u_next, {**d_next, 0b011: 0b000}

    monkeypatch.setattr(preisach.cli, "_forward_maps", redirected)
    report = cmd_verify(RHO231)
    assert not report.builders_agree and not report.passed()


def test_cmd_verify_checks_lrpm_on_masks(monkeypatch):
    # the same forgery as test_verify_lrpm_rejects_forged_graph, on the
    # breadth-first maps: (alpha, omega) is a cycle, (+--, ++-) is not
    real = preisach.cli._closure

    def forged(start, u_step, d_step, max_vertices):
        u_next, d_next, labels = real(start, u_step, d_step, max_vertices)
        return u_next, {**d_next, 0b011: 0b000}, labels

    monkeypatch.setattr(preisach.cli, "_closure", forged)
    report = cmd_verify(RHO231)
    assert not report.lrpm_ok and not report.passed()


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
        random_permutation(7, 3, index)  # validity enforced by the constructor


def test_random_permutation_is_uniform_enough():
    counts = Counter(random_permutation(3, 1, i).values for i in range(120_000))
    assert len(counts) == 6
    three_sigma = 3 * (120_000 * (1 / 6) * (5 / 6)) ** 0.5
    for c in counts.values():
        assert abs(c - 20_000) <= three_sigma


def test_cmd_stats_single_spin():
    report = cmd_stats(1, 5, 3)
    assert report.lis_mean == 1.0 and report.lis_stddev == 0.0


def test_cmd_stats_counts_confirmed_graphs():
    report = cmd_stats(20, 50, 7, max_vertices=1 << 20)
    assert report.nesting_checked == 50


def test_cmd_stats_reproducible():
    assert cmd_stats(30, 20, 11) == cmd_stats(30, 20, 11)


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


def test_format_config_round_trip():
    sigma = SpinConfig((1, -1, 1))
    assert parse_config(format_config(sigma), 3) == sigma
