"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The exhaustive and randomized theorem suites are computed once in module
fixtures and shared by the criteria that consume them.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import permutations

import pytest

from preisach import (
    Permutation,
    alpha,
    apply_D,
    apply_U,
    build_bfs,
    build_forward,
    count_increasing,
    invert,
    lis_patience,
    make_permutation,
    nesting_degrees,
    phi,
)
from preisach.cli import (
    cmd_stats,
    cmd_verify,
    cmd_verify_all,
    export_dot,
    export_json,
    random_permutation,
)
from preisach.oracle_routes import alternation_degrees
from preisach.oracles import enumerate_increasing, lis_bruteforce

BUDGET = 1 << 20
SUITE2_SEED = 1
SUITE2_SIZES = (10, 13, 16)
SUITE2_SAMPLES = 500


def _report(ok: bool, line: str) -> None:
    print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


@dataclass
class SuiteResult:
    permutations: int = 0
    verify_elapsed: float = 0.0
    verify_failures: list[str] = field(default_factory=list)
    oracle_mismatches: list[str] = field(default_factory=list)
    inverse_mismatches: list[str] = field(default_factory=list)


def _run_suite(perms: list[Permutation]) -> SuiteResult:
    result = SuiteResult()
    for rho in perms:
        result.permutations += 1
        name = ",".join(map(str, rho.values))

        t0 = time.perf_counter()
        report = cmd_verify(rho, BUDGET)
        result.verify_elapsed += time.perf_counter() - t0
        if not report.passed():
            result.verify_failures.append(name)

        g = build_bfs(rho, BUDGET)
        degrees = nesting_degrees(g)
        oracle = alternation_degrees(rho, BUDGET)
        if any(degrees[v] != oracle[v] for v in g.vertices):
            result.oracle_mismatches.append(name)

        gi = build_bfs(invert(rho), BUDGET)
        if len(gi.vertices) != len(g.vertices) or max(
            nesting_degrees(gi).values()
        ) != max(degrees.values()):
            result.inverse_mismatches.append(name)
    return result


@pytest.fixture(scope="module")
def suite1() -> SuiteResult:
    perms = [
        make_permutation(values)
        for n in range(1, 8)
        for values in permutations(range(1, n + 1))
    ]
    assert len(perms) == 5913
    return _run_suite(perms)


@pytest.fixture(scope="module")
def suite2() -> SuiteResult:
    perms = [
        random_permutation(n, SUITE2_SEED, index)
        for n in SUITE2_SIZES
        for index in range(SUITE2_SAMPLES)
    ]
    return _run_suite(perms)


def test_criterion_1_exhaustive_theorem_suite(suite1):
    ok = (
        suite1.permutations == 5913
        and not suite1.verify_failures
        and suite1.verify_elapsed < 120.0
    )
    _report(
        ok,
        f"criterion 1: exhaustive suite N=1..7, {suite1.permutations} permutations, "
        f"{len(suite1.verify_failures)} failures, verify time "
        f"{suite1.verify_elapsed:.1f}s (limit 120s)",
    )


def test_criterion_1b_exhaustive_n8():
    t0 = time.perf_counter()
    summary = cmd_verify_all(8, BUDGET)
    elapsed = time.perf_counter() - t0
    ok = summary.checked == 40320 and not summary.failures and elapsed < 120.0
    _report(
        ok,
        f"criterion 1b: exhaustive suite N=8, {summary.checked} permutations, "
        f"{len(summary.failures)} failures, verify time {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_2_randomized_suite(suite2):
    ok = (
        suite2.permutations == SUITE2_SAMPLES * len(SUITE2_SIZES)
        and not suite2.verify_failures
        and suite2.verify_elapsed < 300.0
    )
    _report(
        ok,
        f"criterion 2: randomized suite N in {SUITE2_SIZES}, "
        f"{suite2.permutations} permutations, {len(suite2.verify_failures)} failures, "
        f"verify time {suite2.verify_elapsed:.1f}s (limit 300s)",
    )


def test_criterion_3_figure_fixtures():
    five_vertices = len(build_bfs(make_permutation([2, 3, 1]), BUDGET).vertices) == 5

    rho_fig3 = make_permutation([2, 4, 3, 1])
    builders_equal = build_bfs(rho_fig3, BUDGET) == build_forward(rho_fig3, BUDGET)

    rho = make_permutation([2, 4, 3, 5, 1])
    g = build_bfs(rho, BUDGET)
    sigma = alpha(5)
    for _ in range(5):
        sigma = apply_U(sigma, rho)
    for _ in range(2):
        sigma = apply_D(sigma, rho)
    sigma = apply_U(sigma, rho)
    phi_matches = phi(g, sigma) == (2, 4, 5)

    ok = five_vertices and builders_equal and phi_matches
    _report(
        ok,
        "criterion 3: figure fixtures (2,3,1) vertices=5, (2,4,3,1) builder "
        f"equality={builders_equal}, (2,4,3,5,1) phi(U^5 D^2 U^1 alpha)="
        f"{'(2,4,5)' if phi_matches else 'mismatch'}",
    )


def test_criterion_4_oracle_cross_validation():
    failures = []
    checked = 0
    for n in range(1, 8):
        for values in permutations(range(1, n + 1)):
            rho = make_permutation(values)
            if lis_patience(rho) != lis_bruteforce(rho):
                failures.append(values)
            if len(enumerate_increasing(rho)) != count_increasing(rho):
                failures.append(values)
            checked += 1
    random_checked = 0
    for n in range(8, 13):
        for index in range(40):
            rho = random_permutation(n, 2, index)
            if lis_patience(rho) != lis_bruteforce(rho):
                failures.append(rho.values)
            if len(enumerate_increasing(rho)) != count_increasing(rho):
                failures.append(rho.values)
            random_checked += 1
    ok = not failures and checked == 5913 and random_checked == 200
    _report(
        ok,
        f"criterion 4: oracle cross-validation, {checked} exhaustive + "
        f"{random_checked} random permutations, {len(failures)} mismatches",
    )


def test_criterion_5_nesting_oracle_agreement(suite1, suite2):
    mismatches = suite1.oracle_mismatches + suite2.oracle_mismatches
    _report(
        not mismatches,
        f"criterion 5: nesting degree vs alternation oracle on "
        f"{suite1.permutations + suite2.permutations} graphs, "
        f"{len(mismatches)} mismatches",
    )


def test_criterion_6_inverse_permutation_invariants(suite1, suite2):
    mismatches = suite1.inverse_mismatches + suite2.inverse_mismatches
    _report(
        not mismatches,
        f"criterion 6: vertex count and graph nesting invariant under inversion "
        f"on {suite1.permutations + suite2.permutations} permutations, "
        f"{len(mismatches)} mismatches",
    )


def test_criterion_7_monte_carlo_band():
    t0 = time.perf_counter()
    report = cmd_stats(400, 200, 7, BUDGET)
    elapsed = time.perf_counter() - t0
    ok = 33.0 <= report.lis_mean <= 38.0 and elapsed < 30.0
    _report(
        ok,
        f"criterion 7: LIS mean {report.lis_mean:.3f} in [33, 38] for n=400, "
        f"200 samples, seed 7, {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_8_determinism():
    rho = make_permutation([2, 4, 3, 5, 1])
    dot_a = export_dot(build_bfs(rho, BUDGET))
    json_a = export_json(build_bfs(rho, BUDGET))
    with ThreadPoolExecutor(max_workers=4) as pool:
        graphs = list(pool.map(lambda _: build_bfs(rho, BUDGET), range(4)))
    exports_stable = all(
        export_dot(g) == dot_a and export_json(g) == json_a for g in graphs
    )
    stats_stable = cmd_stats(400, 50, 7, BUDGET) == cmd_stats(400, 50, 7, BUDGET)
    ok = exports_stable and stats_stable
    _report(
        ok,
        f"criterion 8: determinism, exports byte-identical across runs and "
        f"threads={exports_stable}, stats reproducible={stats_stable}",
    )
