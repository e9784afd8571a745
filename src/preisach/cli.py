"""Command-line front end: parsing, graph export, theorem checks, statistics.

Exit codes: 0 success, 1 verification failure, 2 usage, parse or output error,
3 vertex budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass
from itertools import permutations as all_permutations
from statistics import pstdev

from .bijection import Staircase
from .core import Permutation, SpinConfig, make_permutation
from .graph import (
    DEFAULT_MAX_VERTICES,
    PreisachGraph,
    VertexBudgetExceeded,
    _SIGNS,
    _charge,
    _charge_graph,
    _closure,
    _forward_agrees,
    _graph_size,
    _label_lengths,
    _mask_steppers,
    _merge_bottom,
    _merge_top,
    _subcycle_walk,
    build_bfs,
)
from .oracles import count_increasing, lis_patience

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


def _integers(text: str) -> list[int]:
    """The values of a comma- or whitespace-separated list, each a plain
    ASCII integer (-?[0-9]+); every comma stands between two values."""
    fields = [f.split() for f in text.split(",")]
    if len(fields) > 1 and not all(fields):
        raise ValueError(f"empty field in {text!r}")
    tokens = [tok for f in fields for tok in f]
    for tok in tokens:
        if not re.fullmatch(r"-?[0-9]+", tok):
            raise ValueError(f"non-integer token {tok!r}")
    return list(map(int, tokens))


def _int_option(text: str) -> int:
    """The value of an integer option: one plain ASCII integer, read as
    _integers reads a value.  Anything else is reported in the words
    argparse uses for type=int."""
    try:
        [value] = _integers(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return value


def parse_permutation(text: str) -> Permutation:
    """Parse comma- or whitespace-separated values: "2,3,1" or "2 3 1".
    An empty field ("2,,3", ",2" or "2,") or a value that is not a plain
    ASCII integer ("+2", "1_0") is rejected."""
    return make_permutation(_integers(text))


# sign strings to the spins' bits, '+' up and '-' down (graph._SIGNS
# goes back)
_BITS = str.maketrans("+-", "10")
_NO_SIGNS = str.maketrans("", "", "+-")


def _parse_mask(text: str, n: int) -> int:
    """The vertex mask of a sign string: character i is spin i, '+' up."""
    if type(text) is not str:
        raise TypeError(f"sign string expected, got {text!r}")
    if len(text) != n:
        raise ValueError(f"expected {n} spins, got {len(text)}")
    if n < 1:
        raise ValueError("spin configuration must have at least one spin")
    if illegal := text.translate(_NO_SIGNS):
        raise ValueError(f"illegal character {illegal[0]!r}")
    return int(text[::-1].translate(_BITS), 2)


def _format_mask(mask: int, n: int) -> str:
    return f"{mask:0{n}b}"[::-1].translate(_SIGNS)


def parse_config(text: str, n: int) -> SpinConfig:
    """Parse a sign string: character i is spin i, '+' up, '-' down."""
    return SpinConfig._unchecked(n, _parse_mask(text, n))


def format_config(sigma: SpinConfig) -> str:
    return _format_mask(sigma.mask, sigma.n)


def export_dot(g: PreisachGraph) -> str:
    """DOT digraph: sign-string node names, U-edges black, D-edges red,
    each labeled with the flipped spin; canonical order throughout, each
    vertex's U-edge before its D-edge.  A label is the one bit the two
    vertex masks differ in."""
    order, name = g._canonical_names()
    u_next, d_next = g.u_next, g.d_next
    lines = ["digraph preisach {"]
    lines += [f'  "{name[v]}";' for v in order]
    append = lines.append
    for v in order:
        if (t := u_next.get(v)) is not None:
            append(
                f'  "{name[v]}" -> "{name[t]}" [color=black, label={(v ^ t).bit_length()}];'
            )
        if (t := d_next.get(v)) is not None:
            append(f'  "{name[v]}" -> "{name[t]}" [color=red, label={(v ^ t).bit_length()}];')
    # the text ends with a newline without a second copy, and the names go
    # before the join
    lines += ["}", ""]
    del order, name
    return "\n".join(lines)


def export_json(g: PreisachGraph) -> str:
    """Canonical JSON: {"n", "perm", "vertices", "edges"}, stable order.

    The text is written directly, with no per-edge objects, and is byte for
    byte what json.dumps(payload, separators=(",", ":")) gives: names are
    '+' and '-' only, kinds are "U" and "D", and n, perm and the labels are
    ints, so nothing needs escaping.  Edges are listed as export_dot lists
    them."""
    order, name = g._canonical_names()
    u_next, d_next = g.u_next, g.d_next
    vertices = ",".join([f'"{name[v]}"' for v in order])
    edges = []
    append = edges.append
    for v in order:
        if (t := u_next.get(v)) is not None:
            append(
                f'{{"from":"{name[v]}","to":"{name[t]}","kind":"U",'
                f'"label":{(v ^ t).bit_length()}}}'
            )
        if (t := d_next.get(v)) is not None:
            append(
                f'{{"from":"{name[v]}","to":"{name[t]}","kind":"D",'
                f'"label":{(v ^ t).bit_length()}}}'
            )
    # the names go before the join, and the edge list (append holds it
    # too) with it, so no part of the text is held more than twice
    del order, name, append
    edges = ",".join(edges)
    perm = ",".join(map(str, g.perm.values))
    return f'{{"n":{g.n},"perm":[{perm}],"vertices":[{vertices}],"edges":[{edges}]}}'


def load_json(text: str) -> PreisachGraph:
    """Rebuild a graph from export_json output.

    Raises ValueError for a malformed payload: a missing key or a value of
    the wrong shape (a boolean n or label, or vertices or edges given as
    anything but a JSON array, included), an edge endpoint that is not a
    listed vertex, an edge kind other than the strings "U" and "D", a label
    outside 1..n, a second edge of one kind from the same source, an edge
    that is not the U- or D-transition of perm from its source, or a payload
    that is not the whole graph: a vertex listed twice, alpha or omega not
    listed, a listed vertex other than omega without its U-edge or other
    than alpha without its D-edge, or a vertex count other than the number
    of increasing subsequences of perm.  A payload that passes is the graph
    build_bfs(perm) builds.  An edge is checked in O(1), from its label's
    bit and per-kind tables built once per payload.
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
        names = payload["vertices"]
        # _parse_mask inline: it runs only on the first name that fails one
        # of its tests, to raise its own error
        for s in names:
            if type(s) is not str or len(s) != n or s.translate(_NO_SIGNS):
                _parse_mask(s, n)
        mask_of = {s: int(s[::-1].translate(_BITS), 2) for s in names}
        # the transition test per kind, as src & scope[label] == want[label]
        # with bit = 2**(label-1): U raises spin label iff it is the lowest
        # down spin (omega has none), so the spins below it are up and it is
        # down; D lowers it iff it is the first up spin in scan order, so it
        # is up and no spin scanned before it is
        u_scope = [0] + [(2 << i) - 1 for i in range(n)]
        u_want = [0] + [(1 << i) - 1 for i in range(n)]
        d_scope = [0] * (n + 1)
        d_want = [0] + [1 << i for i in range(n)]
        seen = 0
        for v in rho.values:
            seen |= 1 << (v - 1)
            d_scope[v] = seen
        u_next: dict[int, int] = {}
        d_next: dict[int, int] = {}
        for item in payload["edges"]:
            src = mask_of.get(item["from"])
            dst = mask_of.get(item["to"])
            if src is None or dst is None:
                raise ValueError(
                    f"edge {item['from']} -> {item['to']}: endpoint is not a listed vertex"
                )
            kind = item["kind"]
            if kind == "U":
                edges, scope, want = u_next, u_scope, u_want
            elif kind == "D":
                edges, scope, want = d_next, d_scope, d_want
            else:
                raise ValueError(f"edge kind {kind!r} is neither U nor D")
            label = item["label"]
            if type(label) is not int or not 1 <= label <= n:
                raise ValueError(f"edge label {label!r} outside 1..{n}")
            if src in edges:
                raise ValueError(f"second {kind}-edge from {item['from']}")
            if src & scope[label] != want[label] or dst != src ^ (1 << (label - 1)):
                raise ValueError(
                    f"edge {item['from']} -> {item['to']} label {label}: "
                    f"not the {kind}-transition of perm"
                )
            edges[src] = dst
        if len(mask_of) != len(names):
            raise ValueError("a vertex is listed twice")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc!r}") from None
    # a name is its mask's n signs, so names and masks are one to one
    listed = len(mask_of)
    if "-" * n not in mask_of or "+" * n not in mask_of:
        raise ValueError("alpha or omega is not a listed vertex")
    # every source is a listed vertex, omega has no U-edge and alpha no
    # D-edge, so a short count means some listed vertex lacks its edge
    for kind, edges in (("U", u_next), ("D", d_next)):
        if len(edges) < listed - 1:
            raise ValueError(f"{listed - 1 - len(edges)} listed vertices lack a {kind}-edge")
    count = count_increasing(rho)
    if listed != count:
        raise ValueError(f"{listed} vertices listed, perm has {count} increasing subsequences")
    return PreisachGraph(rho, u_next, d_next)


# the checks of a VerifyReport, in output order; it passes when all hold
_CHECKS = (
    "builders_agree",
    "cardinality_ok",
    "bijection_ok",
    "nesting_ok",
    "lrpm_ok",
    "merge_identities_ok",
)


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
        return all(getattr(self, name) for name in _CHECKS)


def cmd_verify(rho: Permutation, max_vertices: int = DEFAULT_MAX_VERTICES) -> VerifyReport:
    """Build the graph once and check every structural identity: builder
    equality, vertex count = subsequence count, bijectivity of phi with
    each length equal to the nesting degree, graph nesting = LIS length,
    loop return-point memory of (alpha, omega), and both merge identities.

    The budget is decided first, from the subsequence count.  Every check
    runs on the mask successor maps (bit i-1 of a vertex mask set meaning
    spin i is up) of one breadth-first pass (graph._closure), which also
    labels phi, as cons cells.  The steppers of rho are built once, for the
    pass and both merge identities.  One major sub-cycle walk from (alpha,
    omega) (graph._subcycle_walk) decides loop return-point memory and gives
    each vertex its depth in the hierarchy of sub-cycles, its nesting
    degree, which must equal its phi length; on maps whose walk fails there
    are no degrees, so bijection_ok is false as well as lrpm_ok.  Builder
    agreement runs build_forward's rule against the same maps
    (graph._forward_agrees) instead of building a second graph.  The cells
    are dropped once checked, before the walk, where the run peaks.

    phi is checked without listing the increasing subsequences.  Every
    vertex has a label, and Staircase.encodes_cells confirms, in O(1) per
    vertex, that each label is an increasing subsequence that encodes back
    to the vertex it labels.  So phi maps into the increasing subsequences,
    and it is injective, because equal labels encode to equal masks.  Both
    sets are finite, and of equal size when vertex_count ==
    count_increasing(rho), so phi is then onto as well."""
    t0 = time.perf_counter()
    count = count_increasing(rho)
    _charge(count, max_vertices)
    steps = _mask_steppers(rho)
    u_next, d_next, first, rest = _closure(*steps)
    # every vertex but omega has a U-edge
    vertex_count = len(u_next) + 1
    cardinality_ok = vertex_count == count

    lengths = _label_lengths(rest)
    encodes = len(rest) == vertex_count - 1 and Staircase(rho).encodes_cells(
        first, rest, lengths
    )
    del first, rest
    nesting = max(lengths.values())
    degrees = _subcycle_walk(u_next.get, d_next.get, 0, (1 << rho.n) - 1)
    lrpm_ok = degrees is not None
    bijection_ok = cardinality_ok and encodes and lengths == degrees
    builders_agree = _forward_agrees(rho, u_next, d_next)
    lis = lis_patience(rho)
    nesting_ok = nesting == lis

    merge_ok = _merge_top(rho, *steps) and _merge_bottom(rho, *steps)

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
    the run is factorial.  Each is a permutation by construction, so it is
    not validated again."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _VERIFY_ALL_LIMIT:
        raise ValueError(f"n too large: {n} (max {_VERIFY_ALL_LIMIT})")
    failures = []
    checked = 0
    for values in all_permutations(range(1, n + 1)):
        report = cmd_verify(Permutation._unchecked(values), max_vertices)
        checked += 1
        if not report.passed():
            failures.append(",".join(map(str, values)))
    return VerifyAllSummary(n=n, checked=checked, failures=tuple(failures))


_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def random_permutation(n: int, seed: int, index: int) -> Permutation:
    """Uniform permutation from a stream keyed by (seed, index).

    Fisher-Yates driven by splitmix64 inline, from state _mix64(seed) +
    index.  A draw x for bound b is kept iff x < 2^64 - 2^64 % b, that is
    iff the next multiple of b above x is at most 2^64, so x % b is
    unbiased.  Distinct indices give independent streams, so samples can
    be drawn in any order or in parallel.  Swaps of 1..n give a permutation
    by construction, so the draw is not validated again; n < 1 raises
    ValueError, since a permutation has at least one entry."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    state = (_mix64(seed) + index) & _MASK64
    values = list(range(1, n + 1))
    for bound in range(n, 1, -1):
        while True:
            # the golden-ratio increment, then _mix64 inline
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            x = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            x ^= x >> 31
            j = x % bound
            if x - j + bound <= 1 << 64:
                break
        values[bound - 1], values[j] = values[j], values[bound - 1]
    return Permutation._unchecked(tuple(values))


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
    for every sample whose graph fits the vertex budget (decided exactly
    before building, by the 2**LIS lower bound first and count_increasing
    only when that does not settle it), confirm graph nesting = LIS from
    the phi labels of one breadth-first pass on masks, the pass cmd_verify
    uses.  A budget below 1 raises VertexBudgetExceeded, as builders do."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _charge(1, max_vertices)
    lis_values = []
    checked = 0
    for index in range(samples):
        rho = random_permutation(n, seed, index)
        lis = lis_patience(rho)
        lis_values.append(lis)
        if _graph_size(rho, lis, max_vertices) <= max_vertices:
            rest = _closure(*_mask_steppers(rho))[3]
            if max(_label_lengths(rest).values()) != lis:
                raise RuntimeError(f"graph nesting != LIS for {rho.values}")
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
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _format_subseq(values: tuple[int, ...]) -> str:
    return ",".join(map(str, values)) if values else "()"


def _parse_subseq(text: str) -> tuple[int, ...]:
    """Values as parse_permutation reads them; "()" or "" is the empty one."""
    if text.strip() in ("", "()"):
        return ()
    return tuple(_integers(text))


def _format_verify_report(report: VerifyReport) -> str:
    lines = [
        f"perm={','.join(map(str, report.perm.values))}",
        f"vertices={report.vertex_count}",
        f"edges={report.edge_count}",
    ]
    lines += [f"{name}={'true' if getattr(report, name) else 'false'}" for name in _CHECKS]
    lines += [
        f"nesting_of_graph={report.nesting_of_graph}",
        f"lis={report.lis}",
        f"elapsed={report.elapsed:.6f}s",
        f"result={'PASS' if report.passed() else 'FAIL'}",
    ]
    return "\n".join(lines)


def _size_line(g: PreisachGraph) -> str:
    # every vertex but omega has a U-edge
    return f"vertices={len(g.u_next) + 1} edges={g.edge_count}"


def _cmd_graph(args: argparse.Namespace) -> int:
    """build, export-dot and export-json: build_bfs, then args.render."""
    g = build_bfs(parse_permutation(args.perm), args.max_vertices)
    _write_out(args.render(g), args.out)
    return 0


def _phi_of(rho: Permutation, text: str) -> tuple[int, ...]:
    """phi of the vertex given as a sign string, by the staircase codec."""
    sigma = parse_config(text, rho.n)
    code = Staircase(rho)
    s = code.decode(sigma.mask)
    if code.encode(s) != sigma.mask:
        raise ValueError(f"not a vertex: {sigma.spins}")
    return s


def _cmd_phi(args: argparse.Namespace) -> int:
    rho = parse_permutation(args.perm)
    _charge_graph(rho, args.max_vertices)
    _write_out(_format_subseq(_phi_of(rho, args.vertex)), args.out)
    return 0


def _cmd_phi_inverse(args: argparse.Namespace) -> int:
    rho = parse_permutation(args.perm)
    _charge_graph(rho, args.max_vertices)
    mask = Staircase(rho).encode(_parse_subseq(args.subseq))
    _write_out(_format_mask(mask, rho.n), args.out)
    return 0


def _cmd_nesting(args: argparse.Namespace) -> int:
    rho = parse_permutation(args.perm)
    _charge_graph(rho, args.max_vertices)
    if args.vertex is None:
        # the longest phi label of the breadth-first pass build_bfs runs
        rest = _closure(*_mask_steppers(rho))[3]
        value = max(_label_lengths(rest).values())
    else:
        value = len(_phi_of(rho, args.vertex))
    _write_out(str(value), args.out)
    return 0


def _cmd_lis(args: argparse.Namespace) -> int:
    _write_out(str(lis_patience(parse_permutation(args.perm))), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = cmd_verify(parse_permutation(args.perm), args.max_vertices)
    _write_out(_format_verify_report(report), args.out)
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


class _SignString(argparse.Action):
    """Store a sign string.  argparse drops a lone "--" value, as in
    --vertex=--, and passes [] instead; that is the sign string "--"."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--perm", required=True, help="permutation, e.g. '2,3,1'")
    sub.add_argument(
        "--max-vertices",
        type=_int_option,
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

    for name, render, text in (
        ("build", _size_line, "build the graph and print its size"),
        ("export-dot", export_dot, "emit the graph as DOT"),
        ("export-json", export_json, "emit the graph as canonical JSON"),
    ):
        p = subs.add_parser(name, help=text)
        _add_common(p)
        p.set_defaults(func=_cmd_graph, render=render)

    p = subs.add_parser("phi", help="increasing subsequence of a vertex")
    _add_common(p)
    p.add_argument(
        "--vertex",
        required=True,
        action=_SignString,
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
    p.add_argument(
        "--vertex", default=None, action=_SignString, help="sign string; omit for the graph"
    )
    p.set_defaults(func=_cmd_nesting)

    p = subs.add_parser("lis", help="longest increasing subsequence length")
    p.add_argument("--perm", required=True, help="permutation, e.g. '2,3,1'")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_lis)

    p = subs.add_parser("verify", help="run every structural check")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("verify-all", help="verify every permutation of size n")
    p.add_argument("--n", type=_int_option, required=True)
    p.add_argument("--max-vertices", type=_int_option, default=DEFAULT_MAX_VERTICES)
    p.set_defaults(func=_cmd_verify_all)

    p = subs.add_parser("stats", help="LIS statistics over random permutations")
    p.add_argument("--n", type=_int_option, required=True)
    p.add_argument("--samples", type=_int_option, required=True)
    p.add_argument("--seed", type=_int_option, default=0)
    p.add_argument("--max-vertices", type=_int_option, default=DEFAULT_MAX_VERTICES)
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
    except VertexBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
