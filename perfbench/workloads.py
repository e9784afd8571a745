"""One workload of the benchmark, run in a child process of run.py.

Usage, from the repository root:
    PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD SEED SECONDS TRACE

Prints one JSON line.  With TRACE 0 the workload runs as a closed loop, one
operation at a time, until SECONDS of operation time have passed; every
output is checked after its timer stops.  items_per_s is the items of the
operations that passed over their time in reference seconds: each
operation's wall time is scaled by the calibration loop timed on either
side of it (calibration.py).

With TRACE 1 a fixed number of the workload's inputs are each run once as
the real operation (timed and checked), replayed as the same calls into
the package with no tracing, replayed again inside spans, and, if the
replay builds graphs, replayed once more under tracemalloc.  Times are
scaled to reference seconds by the median calibration loop of the run.
The spans are written to .bench_out/spans-WORKLOAD-seedSEED.jsonl in the
repository root.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import reference
from calibration import REFERENCE_S, loop_seconds, reference_seconds
from spans import BuildMemory, Tracer, plain

from preisach.bijection import nesting_degrees, phi_all
from preisach.cli import (
    cmd_stats,
    cmd_verify,
    cmd_verify_all,
    export_dot,
    export_json,
    load_json,
    random_permutation,
)
from preisach.core import apply_D, apply_U, make_permutation
from preisach.graph import (
    DEFAULT_MAX_VERTICES,
    build_bfs,
    build_forward,
    merge_identity_bottom,
    merge_identity_top,
    verify_lrpm,
)
from preisach.oracles import count_increasing, enumerate_increasing, lis_patience

ROOT = Path(__file__).resolve().parents[1]
EXPORT_POOL = Path(__file__).with_name("export_pool.json")

# verify-random draws n=22 permutations in a fixed mix of graph sizes, one
# per stratum in turn.  Uniform draws are heavy-tailed (1% pass 4400
# vertices), so one rare giant graph would decide a whole run's throughput
# and peak memory; the mix keeps both the same from seed to seed.
VERIFY_N = 22
VERIFY_STRATA = ((128, 511), (512, 1023), (1024, 2047), (2560, 3072))
VERIFY_ALL_N = 6
STATS_N = 400
STATS_SAMPLES = 250

# Spans whose self time is a per-layer metric, reported as NAME_s.
LAYER_SPANS = (
    "graph.build_bfs",
    "graph.build_forward",
    "graph.eq",
    "graph.verify_lrpm",
    "graph.merge_identities",
    "bijection.phi_all",
    "bijection.nesting_degrees",
    "oracles.count_increasing",
    "oracles.lis_patience",
    "oracles.enumerate_increasing",
    "cli.export_json",
    "cli.export_dot",
    "cli.load_json",
    "cli.random_permutation",
    "core.apply_maps",
)
# Exact counts summed over the replayed operations, except max_nesting (a max).
COUNTS = (
    "graph.vertices",
    "graph.edges",
    "bijection.max_nesting",
    "cli.export_bytes",
    "core.transitions",
)


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], Iterator]  # seed -> endless stream of inputs
    op: Callable  # input -> output: the timed operation
    check: Callable  # (input, output) -> whether the output is correct
    items: Callable  # input -> items of work one operation does
    replay: Callable  # (input, call) -> counts: the op's calls, made by `call`
    traced_ops: int  # inputs the traced run replays


def merge_counts(total: dict, more: dict) -> dict:
    out = dict(total)
    for key, value in more.items():
        if key == "bijection.max_nesting":
            out[key] = max(out.get(key, 0), value)
        else:
            out[key] = out.get(key, 0) + value
    return out


def graph_counts(g) -> dict:
    return {"graph.vertices": len(g.vertices), "graph.edges": g.edge_count}


# --- verify-random and verify-all ------------------------------------------


def merge_identities(rho) -> bool:
    return merge_identity_top(rho) and merge_identity_bottom(rho)


def replay_verify(rho, call):
    """cmd_verify's calls into the package, in its order; its comparisons
    and report are left out and show as cli.cmd_verify_unaccounted_s."""
    g = call("graph.build_bfs", build_bfs, rho)
    g_fwd = call("graph.build_forward", build_forward, rho)
    call("graph.eq", operator.eq, g, g_fwd)
    count = call("oracles.count_increasing", count_increasing, rho)
    call("bijection.phi_all", phi_all, g)
    degrees = call("bijection.nesting_degrees", nesting_degrees, g)
    call("oracles.enumerate_increasing", enumerate_increasing, rho, max(count, 1))
    call("oracles.lis_patience", lis_patience, rho)
    call("graph.verify_lrpm", verify_lrpm, g)
    call("graph.merge_identities", merge_identities, rho)
    return g, {**graph_counts(g), "bijection.max_nesting": max(degrees.values())}


def apply_maps(g) -> int:
    """One apply_U and one apply_D per vertex; returns how many moved."""
    rho = g.perm
    return sum((apply_U(v, rho) != v) + (apply_D(v, rho) != v) for v in g.vertices)


def verify_random_inputs(seed: int) -> Iterator:
    rng = random.Random(seed)
    for lo, hi in itertools.cycle(VERIFY_STRATA):
        while True:
            values = rng.sample(range(1, VERIFY_N + 1), VERIFY_N)
            if lo <= reference.count_increasing(values) <= hi:
                break
        yield make_permutation(values)


def check_verify(rho, report) -> bool:
    return (
        report.passed()
        and report.vertex_count == reference.count_increasing(rho.values)
        and report.nesting_of_graph == reference.lis(rho.values)
    )


def replay_verify_random(rho, call) -> dict:
    g, counts = call("cli.cmd_verify", replay_verify, rho, call)
    return {**counts, "core.transitions": call("core.apply_maps", apply_maps, g)}


def replay_verify_all(n: int, call) -> dict:
    def calls(n):
        counts: dict = {}
        for values in itertools.permutations(range(1, n + 1)):
            _, more = call("cli.cmd_verify", replay_verify, make_permutation(values), call)
            counts = merge_counts(counts, more)
        return counts

    return call("cli.cmd_verify_all", calls, n)


def check_verify_all(n: int, summary) -> bool:
    return summary.checked == math.factorial(n) and not summary.failures


# --- stats-mc ----------------------------------------------------------------


def stats_inputs(seed: int) -> Iterator[int]:
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def run_stats(seed: int):
    return cmd_stats(STATS_N, STATS_SAMPLES, seed)


def check_stats(seed: int, report) -> bool:
    lis = [
        reference.lis(random_permutation(STATS_N, seed, index).values)
        for index in range(STATS_SAMPLES)
    ]
    return (
        report.samples == STATS_SAMPLES
        and math.isclose(report.lis_mean, statistics.fmean(lis), rel_tol=1e-12)
        and math.isclose(report.lis_stddev, statistics.pstdev(lis), rel_tol=1e-9)
    )


def replay_stats(seed: int, call) -> dict:
    def calls(seed):
        counts = {"cli.nesting_checked": 0, "cli.samples": STATS_SAMPLES}
        for index in range(STATS_SAMPLES):
            rho = call("cli.random_permutation", random_permutation, STATS_N, seed, index)
            call("oracles.lis_patience", lis_patience, rho)
            if call("oracles.count_increasing", count_increasing, rho) <= DEFAULT_MAX_VERTICES:
                g = call("graph.build_bfs", build_bfs, rho)
                call("bijection.nesting_degrees", nesting_degrees, g)
                counts = merge_counts(counts, {**graph_counts(g), "cli.nesting_checked": 1})
        return counts

    return call("cli.cmd_stats", calls, seed)


# --- export-roundtrip --------------------------------------------------------


def export_inputs(seed: int) -> Iterator[dict]:
    pool = json.loads(EXPORT_POOL.read_text(encoding="utf-8"))
    random.Random(seed).shuffle(pool)
    for entry in itertools.cycle(pool):
        yield {**entry, "rho": make_permutation(entry["perm"])}


def export_roundtrip(entry: dict, call=plain):
    g = call("graph.build_bfs", build_bfs, entry["rho"])
    text_json = call("cli.export_json", export_json, g)
    text_dot = call("cli.export_dot", export_dot, g)
    loaded = call("cli.load_json", load_json, text_json)
    return g, text_json, text_dot, loaded


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_export(entry: dict, output) -> bool:
    g, text_json, text_dot, loaded = output
    return (
        loaded == g
        and sha256(text_json) == entry["json_sha256"]
        and sha256(text_dot) == entry["dot_sha256"]
    )


def replay_export(entry: dict, call) -> dict:
    g, text_json, text_dot, _ = call("export_roundtrip", export_roundtrip, entry, call)
    size = len(text_json.encode("utf-8")) + len(text_dot.encode("utf-8"))
    return {**graph_counts(g), "cli.export_bytes": size}


WORKLOADS = {
    "verify-random": Workload(
        inputs=verify_random_inputs,
        op=cmd_verify,
        check=check_verify,
        items=lambda rho: reference.count_increasing(rho.values),
        replay=replay_verify_random,
        traced_ops=8,
    ),
    "verify-all": Workload(
        inputs=lambda seed: itertools.repeat(VERIFY_ALL_N),
        op=cmd_verify_all,
        check=check_verify_all,
        items=math.factorial,
        replay=replay_verify_all,
        traced_ops=1,
    ),
    "stats-mc": Workload(
        inputs=stats_inputs,
        op=run_stats,
        check=check_stats,
        items=lambda seed: STATS_SAMPLES,
        replay=replay_stats,
        traced_ops=4,
    ),
    "export-roundtrip": Workload(
        inputs=export_inputs,
        op=export_roundtrip,
        check=check_export,
        items=lambda entry: entry["vertices"],
        replay=replay_export,
        traced_ops=4,
    ),
}


def run_op(workload: Workload, inp) -> tuple[float, bool]:
    """Run one operation and check its output after the timer stops.
    Returns the operation's seconds and whether it succeeded; the output is
    released on return, before the next operation starts."""
    start = time.perf_counter()
    try:
        output = workload.op(inp)
    except Exception:
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return elapsed, False
    elapsed = time.perf_counter() - start
    try:
        return elapsed, bool(workload.check(inp, output))
    except Exception:
        traceback.print_exc()
        return elapsed, False


def timed_run(workload: Workload, seed: int, seconds: float) -> dict:
    attempted = failed = items = 0
    busy = ref_time = 0.0
    inputs = workload.inputs(seed)
    loop_before = loop_seconds()
    while busy < seconds:
        inp = next(inputs)
        elapsed, ok = run_op(workload, inp)
        loop_after = loop_seconds()
        attempted += 1
        busy += elapsed
        ref_time += reference_seconds(elapsed, loop_before, loop_after)
        loop_before = loop_after
        if ok:
            items += workload.items(inp)
        else:
            failed += 1
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "attempted": attempted,
        "failed": failed,
        "items_per_s": items / ref_time,
        "items_per_wall_s": items / busy,
        "peak_rss_mb": peak_kib / 1024,
    }


def traced_run(workload: Workload, name: str, seed: int) -> dict:
    tracer = Tracer()
    memory = BuildMemory()
    counts: dict = {}
    op_time = untraced_time = 0.0
    attempted = failed = 0
    loops = []
    for op_id, inp in enumerate(itertools.islice(workload.inputs(seed), workload.traced_ops)):
        loops.append(loop_seconds())
        attempted += 1
        elapsed, ok = run_op(workload, inp)
        if not ok:
            failed += 1
            continue
        op_time += elapsed
        start = time.perf_counter()
        workload.replay(inp, plain)
        untraced_time += time.perf_counter() - start
        tracer.op = op_id
        more = workload.replay(inp, tracer.call)
        if more.get("graph.vertices"):
            workload.replay(inp, memory.call)
        counts = merge_counts(counts, more)
    loops.append(loop_seconds())
    tracer.write(ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl")

    self_times = tracer.self_times()
    metrics: dict = {f"{span}_s": self_times.get(span, 0.0) for span in LAYER_SPANS}
    metrics.update({key: counts.get(key, 0) for key in COUNTS})
    metrics["graph.bytes_per_vertex"] = (
        memory.peak_bytes / memory.vertices if memory.vertices else 0.0
    )
    samples = counts.get("cli.samples", 0)
    metrics["cli.nesting_checked_ratio"] = (
        counts["cli.nesting_checked"] / samples if samples else 0.0
    )
    metrics["cli.cmd_verify_unaccounted_s"] = (
        op_time - tracer.child_time("cli.cmd_verify") if "cli.cmd_verify" in self_times else 0.0
    )
    metrics["trace.overhead_s"] = tracer.root_time() - untraced_time
    scale = REFERENCE_S / statistics.median(loops)
    metrics = {k: v * scale if k.endswith("_s") else v for k, v in metrics.items()}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv
    workload = WORKLOADS[name]
    if trace == "1":
        result = traced_run(workload, name, int(seed))
    else:
        result = timed_run(workload, int(seed), float(seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
