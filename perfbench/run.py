"""Benchmark of the preisach package: the verify, export and stats paths,
end to end and layer by layer.

Usage, from the repository root (no install needed):
    python3 perfbench/run.py --workload verify-random --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json: setup_s,
the median wall time of fresh interpreters that import preisach and
preisach.cli, and items_per_s and peak_rss_mb of a child process that runs
the workload for --seconds of operation time.  With --trace 1 the child
replays the workload's calls inside spans and it prints the per-layer
metrics.  The last line of output is one JSON object; the lines before it
give each metric with its unit, and fail_ratio.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import loop_seconds, reference_seconds

ROOT = Path(__file__).resolve().parents[1]
SETUP_RUNS = 15
CHILD_TIMEOUT_S = 160


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": "src"}


def setup_seconds() -> float:
    """Median time, in reference seconds, of a fresh interpreter importing
    the package.  One unmeasured start first writes the bytecode caches,
    which an installed package has already."""
    cmd = [sys.executable, "-c", "import preisach, preisach.cli"]
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True)
    times = []
    loop_before = loop_seconds()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True)
        wall = time.perf_counter() - start
        loop_after = loop_seconds()
        times.append(reference_seconds(wall, loop_before, loop_after))
        loop_before = loop_after
    return statistics.median(times)


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).with_name("workloads.py")),
        workload,
        str(seed),
        str(seconds),
        str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        declared = spec["per_layer"]
        child = run_child(workload, seed, seconds, trace)
        values = child["metrics"]
    else:
        declared = spec["end_to_end"]
        setup = setup_seconds()
        child = run_child(workload, seed, seconds, trace)
        values = {
            "setup_s": setup,
            "items_per_s": child["items_per_s"],
            "peak_rss_mb": child["peak_rss_mb"],
        }
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")
    attempted, failed = child["attempted"], child["failed"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{workload} {name}={metric['value']} {metric['unit']}")
    if not trace:
        print(f"{workload} items_per_wall_s={child['items_per_wall_s']} items/s (not scaled)")
    print(f"{workload} fail_ratio={failed / attempted} ratio ({failed} of {attempted} operations failed)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "preisach" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a checkout of the preisach repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        for workload in names if args.workload == "all" else [args.workload]:
            result = measure(spec, workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result))
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
