"""Write export_pool.json: the fixed inputs of the export-roundtrip workload
and the sha256 digests of their DOT and JSON exports.

The pool is the first POOL_SIZE permutations of n=36 drawn from
random.Random(POOL_SEED) whose graphs have between 8192 and 12288
vertices.  The digests were recorded from the package at the commit that
added this benchmark; exports must stay byte-identical, so the file is a
reference to check against, not something to regenerate when it disagrees.

Usage, from the repository root:  PYTHONPATH=src python3 perfbench/export_pool.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import reference

from preisach.cli import export_dot, export_json
from preisach.core import make_permutation
from preisach.graph import build_bfs

POOL_PATH = Path(__file__).with_name("export_pool.json")
POOL_SEED = 2020
POOL_SIZE = 12
N = 36
MIN_VERTICES, MAX_VERTICES = 8192, 12288


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    rng = random.Random(POOL_SEED)
    pool = []
    while len(pool) < POOL_SIZE:
        values = rng.sample(range(1, N + 1), N)
        vertices = reference.count_increasing(values)
        if not MIN_VERTICES <= vertices <= MAX_VERTICES:
            continue
        g = build_bfs(make_permutation(values))
        pool.append(
            {
                "perm": values,
                "vertices": vertices,
                "json_sha256": sha256(export_json(g)),
                "dot_sha256": sha256(export_dot(g)),
            }
        )
    lines = ",\n".join(json.dumps(entry) for entry in pool)
    POOL_PATH.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    main()
