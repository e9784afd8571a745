"""Ways to make the calls a workload replays: plainly, inside a span, or
under tracemalloc.

A replay names every call it makes into the package, as
`call(name, fn, *args)`, so one replay serves the untraced pass, the
traced pass and the memory pass of the traced run.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path


def plain(name, fn, *args):
    """Call fn with no bookkeeping: the untraced pass."""
    return fn(*args)


class Tracer:
    """Records one span per call: name, start, end, parent span and
    operation id.  Spans stay in memory until `write`."""

    def __init__(self) -> None:
        # [name, start, end, parent index or None, operation id]
        self.spans: list[list] = []
        self.op = 0
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    def call(self, name, fn, *args):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(record)
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._open.pop()
            record[1] = start - self._t0
            record[2] = end - self._t0

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, less the time covered by child spans.
        Children of one span never overlap: the replay runs on one thread."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            totals[name] += end - start - covered
        return totals

    def child_time(self, parent_name: str) -> float:
        """Total duration of the spans whose parent span is named parent_name."""
        return sum(
            end - start
            for _, start, end, parent, _ in self.spans
            if parent is not None and self.spans[parent][0] == parent_name
        )

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


class BuildMemory:
    """Measures the tracemalloc peak of every `graph.build_bfs` call and the
    vertices it built; every other call runs plainly."""

    def __init__(self) -> None:
        self.peak_bytes = 0
        self.vertices = 0

    def call(self, name, fn, *args):
        if name != "graph.build_bfs":
            return fn(*args)
        tracemalloc.start()
        try:
            g = fn(*args)
            self.peak_bytes += tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.vertices += len(g.vertices)
        return g
