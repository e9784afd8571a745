"""Command-line front end: parsing, graph export, theorem checks, statistics.

Exit codes: 0 success, 1 verification failure, 2 usage, parse or output error,
3 vertex/item budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from itertools import permutations as all_permutations
from statistics import pstdev

from .bijection import (
    _alternation_masks,
    nesting_degree,
    nesting_of_graph,
    phi,
    phi_inverse,
)
from .core import Permutation, SpinConfig, alpha, make_permutation, omega
from .graph import (
    DEFAULT_MAX_VERTICES,
    EdgeKind,
    PreisachGraph,
    VertexBudgetExceeded,
    _closure,
    _forward_maps,
    _mask_steppers,
    _subcycle_walk,
    build_bfs,
    merge_identity_bottom,
    merge_identity_top,
)
from .oracles import ItemBudgetExceeded, count_increasing, enumerate_increasing, lis_patience

__all__ = [
    "VerifyReport",
    "VerifyAllSummary",
    "StatsReport",
    "parse_permutation",
    "parse_config",
    "format_config",
    "export_dot",
    "export_json",
    "load_json",
    "cmd_verify",
    "cmd_verify_all",
    "random_permutation",
    "cmd_stats",
    "main",
    "run",
]

_VERIFY_ALL_LIMIT = 8


def parse_permutation(text: str) -> Permutation:
    """Parse comma- or whitespace-separated values: "2,3,1" or "2 3 1"."""
    tokens = text.replace(",", " ").split()
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"non-integer token {tok!r}") from None
    return make_permutation(values)


def parse_config(text: str, n: int) -> SpinConfig:
    """Parse a sign string: character i is spin i, '+' up, '-' down."""
    if len(text) != n:
        raise ValueError(f"expected {n} spins, got {len(text)}")
    if n < 1:
        raise ValueError("spin configuration must have at least one spin")
    mask = 0
    for i, ch in enumerate(text):
        if ch == "+":
            mask |= 1 << i
        elif ch != "-":
            raise ValueError(f"illegal character {ch!r}")
    return SpinConfig._unchecked(n, mask)


# the spins' bits, '1' up and '0' down, to signs
_SIGNS = str.maketrans("10", "+-")


def format_config(sigma: SpinConfig) -> str:
    return sigma._bits().translate(_SIGNS)


def _export_rows(g: PreisachGraph) -> tuple[list[str], list[tuple[str, str, str, int]]]:
    """The sign strings of the vertices in canonical order, and per vertex
    its U-edge then its D-edge as (from, to, kind, label).  A label is the
    one bit the two vertex masks differ in."""
    name = {v: format_config(v) for v in g.canonical_vertices()}
    rows = []
    for v, s in name.items():
        for kind, succ in (("U", g.u_next), ("D", g.d_next)):
            t = succ.get(v)
            if t is not None:
                rows.append((s, name[t], kind, (v.mask ^ t.mask).bit_length()))
    return list(name.values()), rows


def export_dot(g: PreisachGraph) -> str:
    """DOT digraph: sign-string node names, U-edges black, D-edges red,
    each labeled with the flipped spin; canonical order throughout."""
    names, rows = _export_rows(g)
    lines = ["digraph preisach {"]
    lines += [f'  "{s}";' for s in names]
    for s, d, kind, label in rows:
        color = "black" if kind == "U" else "red"
        lines.append(f'  "{s}" -> "{d}" [color={color}, label={label}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: PreisachGraph) -> str:
    """Canonical JSON: {"n", "perm", "vertices", "edges"}, stable order."""
    names, rows = _export_rows(g)
    payload = {
        "n": g.n,
        "perm": list(g.perm.values),
        "vertices": names,
        "edges": [
            {"from": s, "to": d, "kind": kind, "label": label} for s, d, kind, label in rows
        ],
    }
    return json.dumps(payload, separators=(",", ":"))


def load_json(text: str) -> PreisachGraph:
    """Rebuild a graph from export_json output.

    Raises ValueError for a malformed payload: a missing key or a value of
    the wrong shape (a boolean n or label, or vertices or edges given as
    anything but a JSON array, included), an edge endpoint that is
    not a listed vertex, a label outside 1..n, a second edge of one kind from
    the same source, an edge that is not the U- or D-transition of perm from
    its source, or a payload that is not the whole graph: a vertex listed
    twice, alpha or omega not listed, a listed vertex other than omega
    without its U-edge or other than alpha without its D-edge, or a vertex
    count other than the number of increasing subsequences of perm.  A
    payload that passes is the graph build_bfs(perm) builds.
    """
    payload = json.loads(text)
    try:
        rho = make_permutation(payload["perm"])
        n = rho.n
        if type(payload["n"]) is not int or payload["n"] != n:
            raise ValueError(f"inconsistent n: {payload['n']!r} vs permutation of {n}")
        for key in ("vertices", "edges"):
            if type(payload[key]) is not list:
                raise ValueError(f"malformed graph JSON: {key} is not an array")
        vertex_of = {s: parse_config(s, n) for s in payload["vertices"]}
        u_step, d_step = _mask_steppers(rho)
        u_next: dict[SpinConfig, SpinConfig] = {}
        d_next: dict[SpinConfig, SpinConfig] = {}
        for item in payload["edges"]:
            src = vertex_of.get(item["from"])
            dst = vertex_of.get(item["to"])
            if src is None or dst is None:
                raise ValueError(
                    f"edge {item['from']} -> {item['to']}: endpoint is not a listed vertex"
                )
            kind = EdgeKind(item["kind"])
            label = item["label"]
            if type(label) is not int or not 1 <= label <= n:
                raise ValueError(f"edge label {label!r} outside 1..{n}")
            edges = u_next if kind is EdgeKind.U else d_next
            if src in edges:
                raise ValueError(f"second {kind.value}-edge from {item['from']}")
            t = (u_step if kind is EdgeKind.U else d_step)(src.mask)
            if t != dst.mask or label != (t ^ src.mask).bit_length():
                raise ValueError(
                    f"edge {item['from']} -> {item['to']} label {label}: "
                    f"not the {kind.value}-transition of perm"
                )
            edges[src] = dst
        if len(vertex_of) != len(payload["vertices"]):
            raise ValueError("a vertex is listed twice")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc!r}") from None
    vertices = frozenset(vertex_of.values())
    bottom, top = alpha(n), omega(n)
    if bottom not in vertices or top not in vertices:
        raise ValueError("alpha or omega is not a listed vertex")
    # every source is a listed vertex, omega has no U-edge and alpha no
    # D-edge, so a short count means some listed vertex lacks its edge
    for kind, edges in (("U", u_next), ("D", d_next)):
        if len(edges) < len(vertices) - 1:
            raise ValueError(
                f"{len(vertices) - 1 - len(edges)} listed vertices lack a {kind}-edge"
            )
    count = count_increasing(rho)
    if len(vertices) != count:
        raise ValueError(
            f"{len(vertices)} vertices listed, perm has {count} increasing subsequences"
        )
    return PreisachGraph(rho, vertices, u_next, d_next, bottom, top)


@dataclass
class VerifyReport:
    """Outcome of every structural check for one permutation."""

    perm: Permutation
    vertex_count: int
    edge_count: int
    builders_agree: bool
    cardinality_ok: bool
    bijection_ok: bool
    nesting_ok: bool
    lrpm_ok: bool
    merge_identities_ok: bool
    nesting_of_graph: int
    lis: int
    elapsed: float

    def passed(self) -> bool:
        return (
            self.builders_agree
            and self.cardinality_ok
            and self.bijection_ok
            and self.nesting_ok
            and self.lrpm_ok
            and self.merge_identities_ok
        )


def cmd_verify(rho: Permutation, max_vertices: int = DEFAULT_MAX_VERTICES) -> VerifyReport:
    """Build the graph both ways and check every structural identity:
    builder equality, vertex count = subsequence count, bijectivity of phi
    with each length equal to the tree-free minimal alternation count, graph
    nesting = LIS length, loop return-point memory of (alpha, omega), and
    both merge identities.

    Every check runs on the builders' mask successor maps (bit i-1 of a
    vertex mask set meaning spin i is up); no graph object is built.  One
    breadth-first pass (graph._closure) gives both the maps and phi."""
    t0 = time.perf_counter()
    u_next, d_next, images = _closure(0, *_mask_steppers(rho), max_vertices)
    u_fwd, d_fwd = _forward_maps(rho, max_vertices)
    builders_agree = u_next == u_fwd and d_next == d_fwd
    # every vertex but omega has a U-edge
    vertex_count = len(u_next) + 1

    count = count_increasing(rho)
    cardinality_ok = vertex_count == count

    expected = enumerate_increasing(rho, max_items=max(count, 1)).value_tuples()
    got = set(images.values())
    bijection_ok = (
        len(got) == vertex_count
        and got == expected
        and {m: len(s) for m, s in images.items()}
        == _alternation_masks(rho, max_vertices)
    )

    nesting = max(map(len, images.values()))
    lis = lis_patience(rho)
    nesting_ok = nesting == lis

    lrpm_ok = _subcycle_walk(u_next.get, d_next.get, 0, (1 << rho.n) - 1) is not None
    merge_ok = merge_identity_top(rho) and merge_identity_bottom(rho)

    return VerifyReport(
        perm=rho,
        vertex_count=vertex_count,
        edge_count=len(u_next) + len(d_next),
        builders_agree=builders_agree,
        cardinality_ok=cardinality_ok,
        bijection_ok=bijection_ok,
        nesting_ok=nesting_ok,
        lrpm_ok=lrpm_ok,
        merge_identities_ok=merge_ok,
        nesting_of_graph=nesting,
        lis=lis,
        elapsed=time.perf_counter() - t0,
    )


@dataclass
class VerifyAllSummary:
    n: int
    checked: int
    failures: tuple[str, ...]


def cmd_verify_all(n: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> VerifyAllSummary:
    """cmd_verify over every permutation of {1, ..., n}; n is capped because
    the run is factorial."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _VERIFY_ALL_LIMIT:
        raise ValueError(f"n too large: {n} (max {_VERIFY_ALL_LIMIT})")
    failures = []
    checked = 0
    for values in all_permutations(range(1, n + 1)):
        rho = Permutation(values)
        report = cmd_verify(rho, max_vertices)
        checked += 1
        if not report.passed():
            failures.append(",".join(map(str, values)))
    return VerifyAllSummary(n=n, checked=checked, failures=tuple(failures))


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class _SplitMix64:
    """splitmix64: tiny, fast, and identical on every platform."""

    def __init__(self, key: int) -> None:
        self._state = key & _MASK64

    def next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection sampling."""
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next64()
            if x < limit:
                return x % bound


def random_permutation(n: int, seed: int, index: int) -> Permutation:
    """Uniform permutation from a stream keyed by (seed, index).

    Fisher-Yates driven by splitmix64; the same arguments give the same
    permutation everywhere, and distinct indices give independent streams,
    so samples can be drawn in any order or in parallel.
    """
    rng = _SplitMix64(_mix64(seed) + index)
    values = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        values[i], values[j] = values[j], values[i]
    return Permutation(tuple(values))


@dataclass
class StatsReport:
    """Monte-Carlo LIS statistics over seeded random permutations."""

    n: int
    samples: int
    seed: int
    lis_mean: float
    lis_stddev: float
    nesting_checked: int


def cmd_stats(
    n: int, samples: int, seed: int, max_vertices: int = DEFAULT_MAX_VERTICES
) -> StatsReport:
    """Sample permutations, report the LIS mean and population stddev, and,
    for every sample whose graph fits the vertex budget (decided exactly via
    count_increasing before building), confirm graph nesting = LIS from
    the phi labels of one breadth-first pass on masks, the pass cmd_verify
    uses.  A budget below 1 raises
    VertexBudgetExceeded, as the builders do."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if max_vertices < 1:
        raise VertexBudgetExceeded("vertex budget exceeded: budget is empty")
    lis_values = []
    checked = 0
    for index in range(samples):
        rho = random_permutation(n, seed, index)
        lis = lis_patience(rho)
        lis_values.append(lis)
        if count_increasing(rho) <= max_vertices:
            images = _closure(0, *_mask_steppers(rho), max_vertices)[2]
            if max(map(len, images.values())) != lis:
                raise RuntimeError(
                    f"graph nesting != LIS for {rho.values}"
                )
            checked += 1
    mean = sum(lis_values) / samples
    stddev = pstdev(lis_values)
    return StatsReport(
        n=n,
        samples=samples,
        seed=seed,
        lis_mean=mean,
        lis_stddev=float(stddev),
        nesting_checked=checked,
    )


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _format_subseq(values: tuple[int, ...]) -> str:
    return ",".join(map(str, values)) if values else "()"


def _parse_subseq(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "()"):
        return ()
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _print_verify_report(report: VerifyReport) -> None:
    def flag(b: bool) -> str:
        return "true" if b else "false"

    print(f"perm={','.join(map(str, report.perm.values))}")
    print(f"vertices={report.vertex_count}")
    print(f"edges={report.edge_count}")
    print(f"builders_agree={flag(report.builders_agree)}")
    print(f"cardinality_ok={flag(report.cardinality_ok)}")
    print(f"bijection_ok={flag(report.bijection_ok)}")
    print(f"nesting_ok={flag(report.nesting_ok)}")
    print(f"lrpm_ok={flag(report.lrpm_ok)}")
    print(f"merge_identities_ok={flag(report.merge_identities_ok)}")
    print(f"nesting_of_graph={report.nesting_of_graph}")
    print(f"lis={report.lis}")
    print(f"elapsed={report.elapsed:.6f}s")
    print(f"result={'PASS' if report.passed() else 'FAIL'}")


def _cmd_build(args: argparse.Namespace) -> int:
    g = build_bfs(parse_permutation(args.perm), args.max_vertices)
    _write_out(f"vertices={len(g.vertices)} edges={g.edge_count}", args.out)
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    g = build_bfs(parse_permutation(args.perm), args.max_vertices)
    _write_out(export_dot(g), args.out)
    return 0


def _cmd_export_json(args: argparse.Namespace) -> int:
    g = build_bfs(parse_permutation(args.perm), args.max_vertices)
    _write_out(export_json(g), args.out)
    return 0


def _cmd_phi(args: argparse.Namespace) -> int:
    rho = parse_permutation(args.perm)
    g = build_bfs(rho, args.max_vertices)
    sigma = parse_config(args.vertex, rho.n)
    _write_out(_format_subseq(phi(g, sigma).values), args.out)
    return 0


def _cmd_phi_inverse(args: argparse.Namespace) -> int:
    from .bijection import increasing_subsequence

    rho = parse_permutation(args.perm)
    g = build_bfs(rho, args.max_vertices)
    s = increasing_subsequence(_parse_subseq(args.subseq), rho)
    _write_out(format_config(phi_inverse(g, s)), args.out)
    return 0


def _cmd_nesting(args: argparse.Namespace) -> int:
    rho = parse_permutation(args.perm)
    g = build_bfs(rho, args.max_vertices)
    if args.vertex is None:
        value = nesting_of_graph(g)
    else:
        value = nesting_degree(g, parse_config(args.vertex, rho.n))
    _write_out(str(value), args.out)
    return 0


def _cmd_lis(args: argparse.Namespace) -> int:
    _write_out(str(lis_patience(parse_permutation(args.perm))), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = cmd_verify(parse_permutation(args.perm), args.max_vertices)
    _print_verify_report(report)
    return 0 if report.passed() else 1


def _cmd_verify_all(args: argparse.Namespace) -> int:
    summary = cmd_verify_all(args.n, args.max_vertices)
    print(f"n={summary.n}")
    print(f"permutations={summary.checked}")
    print(f"failures={len(summary.failures)}")
    for perm in summary.failures:
        print(f"failed={perm}")
    return 0 if not summary.failures else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    report = cmd_stats(args.n, args.samples, args.seed, args.max_vertices)
    print(f"n={report.n}")
    print(f"samples={report.samples}")
    print(f"seed={report.seed}")
    print(f"lis_mean={report.lis_mean:.6f}")
    print(f"lis_stddev={report.lis_stddev:.6f}")
    print(f"nesting_checked={report.nesting_checked}")
    return 0


def _add_common(sub: argparse.ArgumentParser, perm: bool = True) -> None:
    if perm:
        sub.add_argument("--perm", required=True, help="permutation, e.g. '2,3,1'")
    sub.add_argument(
        "--max-vertices",
        type=int,
        default=DEFAULT_MAX_VERTICES,
        help="vertex budget (default 2^20)",
    )
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preisach",
        description="Preisach graph of a permutation: build, export, verify.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="build the graph and print its size")
    _add_common(p)
    p.set_defaults(func=_cmd_build)

    p = subs.add_parser("export-dot", help="emit the graph as DOT")
    _add_common(p)
    p.set_defaults(func=_cmd_export_dot)

    p = subs.add_parser("export-json", help="emit the graph as canonical JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_export_json)

    p = subs.add_parser("phi", help="increasing subsequence of a vertex")
    _add_common(p)
    p.add_argument(
        "--vertex",
        required=True,
        help="sign string, e.g. '+-+'; use --vertex=-- for strings starting with '-'",
    )
    p.set_defaults(func=_cmd_phi)

    p = subs.add_parser("phi-inverse", help="vertex of an increasing subsequence")
    _add_common(p)
    p.add_argument(
        "--subseq", required=True, help="values, e.g. '2,3'; '()' for the empty one"
    )
    p.set_defaults(func=_cmd_phi_inverse)

    p = subs.add_parser("nesting", help="nesting degree of a vertex or the graph")
    _add_common(p)
    p.add_argument("--vertex", default=None, help="sign string; omit for the graph")
    p.set_defaults(func=_cmd_nesting)

    p = subs.add_parser("lis", help="longest increasing subsequence length")
    p.add_argument("--perm", required=True, help="permutation, e.g. '2,3,1'")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_lis)

    p = subs.add_parser("verify", help="run every structural check")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("verify-all", help="verify every permutation of size n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
    p.set_defaults(func=_cmd_verify_all)

    p = subs.add_parser("stats", help="LIS statistics over random permutations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (VertexBudgetExceeded, ItemBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
