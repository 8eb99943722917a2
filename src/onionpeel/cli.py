"""Command-line entry point.

Subcommands: gen, peel, forest, disk, triangulate, bd, pipeline, oracle,
verify.  Graphs travel as EPG text (stdin or --in), reports as JSON
(--json or stdout).  Exit codes: 0 success, 1 domain error (message names
the error variant), 2 usage error.  Identical inputs and flags produce
byte-identical outputs; per-stage timings go to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
import time
from bisect import bisect_left
from collections import Counter

from .branchdecomp import decompose_pipeline, treewidth_bound
from .embedding import Edge, Embedding
from .epg import format_epg, parse_epg, to_dot
from .errors import BadParameter, FormatError, InvariantViolation, OnionPeelError
from .generators import (
    gen_counterexample,
    gen_cycle,
    gen_k4_minus_edge,
    gen_nested_triangles,
    gen_path,
    gen_random_kouter,
    gen_wheel,
)
from .oracles import OracleBudget, brute_branchwidth, brute_outerplanarity, certify_theorem1
from .peeling import build_rooted_forest, onion_peels, saturate_inward_neighbors
from .triangulate import to_full_triangulation, to_triangulated_disk


#: largest theorem-1 k that ``oracle`` and ``verify`` certify; the library
#: itself takes any k
THEOREM1_MAX_K = 6


def _read_text(path: str | None) -> str:
    """The UTF-8 text of ``path``, or of stdin without one."""
    try:
        if not path:
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path or 'stdin'} is not UTF-8 text: {exc}") from None


def _read_embedding(args) -> Embedding:
    return parse_epg(_read_text(getattr(args, "infile", None)))


def _read_input(args) -> Embedding | None:
    """The input graph, or None for theorem 1, which builds its own."""
    return None if getattr(args, "which", None) == "theorem1" else _read_embedding(args)


def _digest(emb: Embedding) -> str:
    return hashlib.sha256(format_epg(emb).encode()).hexdigest()


def _emit_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, path: str | None) -> None:
    _emit_text(json.dumps(obj, sort_keys=True) + "\n", path)


def _trace_json(trace, emb_in: Embedding, emb_out: Embedding) -> dict:
    return {
        "added": [[u, v, stage] for u, v, stage in trace.added_edges],
        "k_in": onion_peels(emb_in).k,
        "k_out": onion_peels(emb_out).k,
    }


# -- subcommand handlers -----------------------------------------------------


#: ``gen``'s families, each with its generator called on the parsed arguments
_FAMILIES = {
    "nested_triangles": lambda a: gen_nested_triangles(a.parameter),
    "counterexample": lambda a: gen_counterexample(a.parameter),
    "k4_minus_edge": lambda a: gen_k4_minus_edge(),
    "cycle": lambda a: gen_cycle(a.parameter),
    "wheel": lambda a: gen_wheel(a.parameter),
    "path": lambda a: gen_path(a.parameter),
    "random_kouter": lambda a: gen_random_kouter(a.parameter, a.width, a.seed),
}


def _cmd_gen(args) -> int:
    if args.family != "k4_minus_edge" and args.parameter is None:
        raise BadParameter(f"family {args.family!r} requires a parameter")
    if args.parameter is not None and args.parameter < 1:
        raise BadParameter(f"parameter must be >= 1, got {args.parameter}")
    emb = _FAMILIES[args.family](args)
    _emit_text(format_epg(emb), args.out)
    if args.dot:
        _emit_text(to_dot(emb), args.dot)
    return 0


def _cmd_convert(args, full: bool) -> int:
    emb = _read_embedding(args)
    t0 = time.monotonic()
    out, trace = to_full_triangulation(emb) if full else to_triangulated_disk(emb)
    print(
        f"{'triangulate' if full else 'disk'}: {1000 * (time.monotonic() - t0):.1f} ms",
        file=sys.stderr,
    )
    _emit_text(format_epg(out), args.out)
    if args.dot:
        _emit_text(to_dot(out), args.dot)
    if args.json:
        _emit_json(_trace_json(trace, emb, out), args.json)
    return 0


def _cmd_report(args) -> int:
    """Emit ``args.report``'s JSON; ``verify`` re-derives every report but bd's."""
    emb = _read_input(args)
    t0 = time.monotonic()
    report = args.report(emb, args)
    print(f"{args.command}: {1000 * (time.monotonic() - t0):.1f} ms", file=sys.stderr)
    _emit_json(report, args.json)
    return 0 if report.get("passed", True) else 1


# -- reports: one function (emb, args) -> dict per artifact kind ------------


def _peel_report(emb: Embedding, args) -> dict:
    peels = onion_peels(emb)
    return {"k": peels.k, "layers": [sorted(layer) for layer in peels.layers]}


def _forest_report(emb: Embedding, args) -> dict:
    forest = build_rooted_forest(saturate_inward_neighbors(emb))
    return {
        "height": forest.height,
        "roots": sorted(forest.roots),
        "parents": [[v, p] for v, p in sorted(forest.parent.items())],
        "depth": [[v, d] for v, d in sorted(forest.depth.items())],
    }


def _bd_report(emb: Embedding, args) -> dict:
    cert = decompose_pipeline(emb)
    bd = cert.tree
    nodes = []
    for n in bd.nodes:
        rec: dict = {"id": n.id, "kind": n.kind}
        if n.face is not None:
            rec["face"] = n.face
        if n.edge is not None:
            rec["edge"] = list(n.edge)
        nodes.append(rec)
    return {
        "nodes": nodes,
        "arcs": [list(a) for a in bd.arcs],
        "assignment": {f"{u}-{v}": leaf for (u, v), leaf in sorted(bd.assignment.items())},
        "width": bd.width,
        "bounds": {"2h": cert.width_bound, "tw": cert.tw_bound},
    }


def _pipeline_report(emb: Embedding, args) -> dict:
    cert = decompose_pipeline(emb)
    return {
        "command": "pipeline",
        "input_digest": _digest(emb),
        "k_in": cert.peel_count,
        "k_out": cert.disk_peel_count,
        "forest_height": cert.forest_height,
        "bd_width": cert.width,
        "tw_bound": cert.tw_bound,
    }


def _oracle_report(emb: Embedding | None, args) -> dict:
    budget = OracleBudget(max_edges=args.budget_edges, max_vertices=args.budget_vertices)
    if args.which == "bw":
        return {"oracle": "bw", "edges": emb.edge_count,
                "branchwidth": brute_branchwidth(emb, budget)}
    if args.which == "outerplanarity":
        return {"oracle": "outerplanarity", "vertices": emb.vertex_count,
                "k": brute_outerplanarity(emb, budget)}
    if args.k > THEOREM1_MAX_K:
        raise BadParameter(
            f"theorem1 k={args.k} exceeds the command-line cap k <= {THEOREM1_MAX_K}"
        )
    report = certify_theorem1(args.k)
    return {
        "oracle": "theorem1",
        "k": report.k,
        "triangulations": report.triangulation_count,
        "min_outerplanarity": report.min_outerplanarity,
        "three_connected": report.three_connected,
        "passed": report.passed,
        "assumption": report.assumption,
    }


# -- verify -------------------------------------------------------------------


_REPORTS = {
    "peel": _peel_report,
    "forest": _forest_report,
    "pipeline": _pipeline_report,
    "oracle": _oracle_report,
}


def _cmd_verify(args) -> int:
    if not args.json:
        raise BadParameter("verify requires --json ARTIFACT")
    text = _read_text(args.json)
    try:
        artifact = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or too many digits
        raise FormatError(f"artifact is not JSON: {exc}") from None
    kind = _artifact_kind(artifact)
    _check_shape(kind, artifact)
    if kind == "oracle":
        # the oracle and its theorem-1 k come from the artifact
        args = argparse.Namespace(**vars(args), which=artifact["oracle"], k=artifact.get("k"))
    emb = _read_input(args)
    if kind in _REPORTS:
        _require(artifact == _REPORTS[kind](emb, args), f"{kind} artifact: rerun differs")
    else:
        {"trace": _verify_conversion, "bd": _verify_bd}[kind](emb, artifact, args)
    print(f"verified: {kind} artifact is consistent", file=sys.stderr)
    return 0


def _artifact_kind(artifact) -> str:
    if not isinstance(artifact, dict):
        raise FormatError("artifact must be a JSON object")
    if "oracle" in artifact:
        return "oracle"
    if "layers" in artifact:
        return "peel"
    if "parents" in artifact:
        return "forest"
    if "added" in artifact:
        return "trace"
    if "assignment" in artifact:
        return "bd"
    if "bd_width" in artifact:
        return "pipeline"
    raise FormatError("unrecognized artifact type")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_ints(x, length: int | None = None) -> bool:
    return (
        isinstance(x, list)
        and all(_is_int(t) for t in x)
        and (length is None or len(x) == length)
    )


def _is_pair(x) -> bool:
    return _is_ints(x, 2)


def _list_of(pred):
    return lambda x: isinstance(x, list) and all(pred(t) for t in x)


def _is_stage(x) -> bool:
    return (
        isinstance(x, list) and len(x) == 3
        and _is_int(x[0]) and _is_int(x[1]) and isinstance(x[2], str)
    )


# a bd node's keys by kind: face nodes name an inner face, the others an edge
_BD_NODE_KEYS = {
    "face": {"id", "kind", "face"},
    "arc": {"id", "kind", "edge"},
    "edge": {"id", "kind", "edge"},
}


def _is_bd_node(x) -> bool:
    return (
        isinstance(x, dict)
        and isinstance(x.get("kind"), str)
        and x["kind"] in _BD_NODE_KEYS
        and set(x) == _BD_NODE_KEYS[x["kind"]]
        and _is_int(x["id"])
        and (_is_int(x["face"]) if "face" in x else _is_pair(x["edge"]))
    )


def _edge_key(key: str) -> Edge | None:
    """The edge a bd assignment key names, or None unless it reads ``f"{u}-{v}"``."""
    m = re.fullmatch(r"(-?[0-9]+)-(-?[0-9]+)", key)
    if m is None:
        return None
    try:
        u, v = int(m[1]), int(m[2])
    except ValueError:  # beyond Python's limit on digits
        return None
    return (u, v) if key == f"{u}-{v}" else None


def _is_assignment(x) -> bool:
    return isinstance(x, dict) and all(
        _edge_key(key) is not None and _is_int(leaf) for key, leaf in x.items()
    )


# per artifact kind (and per oracle), the keys its checker reads and their shapes
_SHAPES = {
    "peel": {"k": _is_int, "layers": _list_of(_is_ints)},
    "forest": {
        "height": _is_int,
        "roots": _is_ints,
        "parents": _list_of(_is_pair),
        "depth": _list_of(_is_pair),
    },
    "trace": {"added": _list_of(_is_stage), "k_in": _is_int, "k_out": _is_int},
    "bd": {
        "nodes": lambda x: _list_of(_is_bd_node)(x) and len(x) > 0,
        "arcs": _list_of(_is_pair),
        "assignment": _is_assignment,
        "width": _is_int,
        "bounds": lambda x: (
            isinstance(x, dict)
            and set(x) == {"2h", "tw"}
            and all(map(_is_int, x.values()))
        ),
    },
    "pipeline": {
        "command": lambda x: isinstance(x, str),
        "input_digest": lambda x: isinstance(x, str),
        **{key: _is_int for key in
           ("k_in", "k_out", "forest_height", "bd_width", "tw_bound")},
    },
    "bw": {"branchwidth": _is_int},
    "outerplanarity": {"k": _is_int},
    "theorem1": {
        "k": _is_int,
        "min_outerplanarity": _is_int,
        "passed": lambda x: isinstance(x, bool),
    },
}


def _check_shape(kind: str, artifact: dict) -> None:
    """Reject an artifact its checker cannot read, before any check runs.

    A bd artifact, which is not compared whole, must also hold no key its
    checker does not read.
    """
    if kind == "oracle":
        kind = artifact["oracle"]
        if kind not in ("bw", "outerplanarity", "theorem1"):
            raise FormatError(f"oracle artifact: unknown oracle {kind!r}")
    for key, ok in _SHAPES[kind].items():
        if key not in artifact:
            raise FormatError(f"{kind} artifact: missing key {key!r}")
        if not ok(artifact[key]):
            raise FormatError(f"{kind} artifact: malformed {key!r}")
    if kind == "bd":
        unknown = sorted(set(artifact) - set(_SHAPES["bd"]))
        if unknown:
            raise FormatError(f"bd artifact: unknown key {unknown[0]!r}")
        ids = {n["id"] for n in artifact["nodes"]}
        if len(ids) != len(artifact["nodes"]):
            raise FormatError("bd artifact: repeated node id")
        ends = {x for arc in artifact["arcs"] for x in arc}
        ends.update(artifact["assignment"].values())
        if not ends <= ids:
            raise FormatError("bd artifact: arc or leaf names an unknown node")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvariantViolation(message)


def _verify_conversion(emb, artifact, args) -> None:
    # k_out == k_in + 1 can only come from the apex step
    full = artifact["k_out"] > artifact["k_in"] or any(
        stage == "apex" for _, _, stage in artifact["added"]
    )
    out, trace = to_full_triangulation(emb) if full else to_triangulated_disk(emb)
    _require(
        artifact == _trace_json(trace, emb, out),
        "conversion artifact: rerun differs",
    )
    if args.out:
        _require(
            parse_epg(_read_text(args.out)) == out,
            "conversion artifact: output embedding differs",
        )


def _verify_bd(emb, artifact, args) -> None:
    """Independent re-check of a claimed branch decomposition.

    Validates the tree shape, the assignment and every node's label
    directly (edge nodes are exactly the assigned leaves and carry their
    edge; face nodes name distinct inner faces of the disk; each arc node
    joins exactly the two faces its edge separates) and recomputes
    every cut from the leaf-bipartition definition, without using the
    library's construction or its bottom-up width aggregation.  One DFS
    checks connectivity and gives the preorder the cuts are read from.
    The stated bounds are re-derived: ``tw`` from the width, ``2h`` from
    the disk's rooted forest.
    """
    disk, _ = to_triangulated_disk(emb)
    nodes = {n["id"]: n for n in artifact["nodes"]}
    arcs = [tuple(a) for a in artifact["arcs"]]
    adj: dict[int, list[int]] = {i: [] for i in nodes}
    for a, b in arcs:
        adj[a].append(b)
        adj[b].append(a)
    _require(len(arcs) == len(nodes) - 1, "bd artifact: arc count")
    order, parent = _preorder(adj, min(nodes))
    _require(len(order) == len(nodes), "bd artifact: tree disconnected")
    _require(all(len(adj[i]) <= 3 for i in nodes), "bd artifact: degree > 3")
    assignment = {_edge_key(key): leaf for key, leaf in artifact["assignment"].items()}
    _require(
        sorted(assignment) == list(disk.edges), "bd artifact: edges mismatch"
    )
    _require(
        len(set(assignment.values())) == len(assignment),
        "bd artifact: assignment not injective",
    )
    for (u, v), leaf in assignment.items():
        _require(len(adj[leaf]) == 1, "bd artifact: assigned node not a leaf")
        _require(nodes[leaf]["kind"] == "edge", "bd artifact: leaf kind")
        _require(nodes[leaf]["edge"] == [u, v], "bd artifact: leaf edge mismatch")
    _require(
        sum(n["kind"] == "edge" for n in nodes.values()) == len(assignment),
        "bd artifact: unassigned edge node",
    )
    faces = [n["face"] for n in nodes.values() if n["kind"] == "face"]
    outer = disk.face_index_of_dart(disk.outer_darts[0])
    _require(
        len(set(faces)) == len(faces)
        and all(0 <= f < len(disk.faces) and f != outer for f in faces),
        "bd artifact: face nodes are not distinct inner faces",
    )
    for i, n in nodes.items():
        if n["kind"] == "arc":
            u, v = n["edge"]
            sides = sorted(nodes[j]["face"] for j in adj[i] if nodes[j]["kind"] == "face")
            _require(
                disk.has_edge(u, v)
                and sides == sorted(disk.face_index_of_dart(d) for d in ((u, v), (v, u))),
                "bd artifact: arc edge does not separate the arc's two faces",
            )
    width = max(_arc_cuts(order, parent, arcs, assignment), default=0)
    _require(width == artifact["width"], "bd artifact: width mismatch")
    _require(
        artifact["bounds"]["tw"] == treewidth_bound(width),
        "bd artifact: tw bound mismatch",
    )
    _require(
        artifact["bounds"]["2h"] == 2 * (build_rooted_forest(disk).height + 1),
        "bd artifact: 2h bound mismatch",
    )


def _preorder(adj: dict[int, list[int]], root: int) -> tuple[list[int], dict]:
    """The nodes reachable from ``root`` in DFS preorder, and their parents."""
    parent = {root: None}
    order = []
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    return order, parent


def _arc_cuts(order, parent, arcs, assignment) -> list[int]:
    """Per arc of a tree, how many vertices have an edge on each side.

    The side below an arc is a subtree, one contiguous run of the preorder,
    so its leaves are one run of the leaves sorted by preorder position; a
    vertex crosses the arc iff that run holds some but not all of its edges.
    """
    pre = {x: i for i, x in enumerate(order)}
    size = dict.fromkeys(order, 1)
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    slots = sorted((pre[leaf], e) for e, leaf in assignment.items())
    starts = [p for p, _ in slots]
    degree = Counter(w for e in assignment for w in e)
    cuts = []
    for a, b in arcs:
        below = a if parent[a] == b else b
        lo = bisect_left(starts, pre[below])
        hi = bisect_left(starts, pre[below] + size[below])
        side = Counter(w for _, e in slots[lo:hi] for w in e)
        cuts.append(sum(1 for w, n in side.items() if n < degree[w]))
    return cuts


# -- argument parsing --------------------------------------------------------


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onionpeel",
        description="triangulate k-outerplanar embeddings and certify the bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p, graph_out=False):
        p.add_argument("--in", dest="infile", metavar="PATH", help="EPG input (default stdin)")
        p.add_argument("--json", metavar="PATH", help="JSON report output (default stdout)")
        if graph_out:
            p.add_argument("--out", metavar="PATH", help="EPG output (default stdout)")
            p.add_argument("--dot", metavar="PATH", help="also write a DOT rendering")

    def budget_flags(p):
        p.add_argument("--budget-edges", type=int, default=9)
        p.add_argument("--budget-vertices", type=int, default=7)

    p = sub.add_parser("gen", help="emit a corpus family instance as EPG")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("parameter", nargs="?", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=5, help="ring width (random_kouter)")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--dot", metavar="PATH")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("peel", help="onion-peel layers as JSON")
    io_flags(p)
    p.set_defaults(func=_cmd_report, report=_peel_report)

    p = sub.add_parser("forest", help="saturate, then BFS spanning forest as JSON")
    io_flags(p)
    p.set_defaults(func=_cmd_report, report=_forest_report)

    p = sub.add_parser("disk", help="convert to a triangulated disk")
    io_flags(p, graph_out=True)
    p.set_defaults(func=lambda a: _cmd_convert(a, full=False))

    p = sub.add_parser("triangulate", help="convert to a full triangulation")
    io_flags(p, graph_out=True)
    p.set_defaults(func=lambda a: _cmd_convert(a, full=True))

    p = sub.add_parser("bd", help="branch decomposition as JSON")
    io_flags(p)
    p.set_defaults(func=_cmd_report, report=_bd_report)

    p = sub.add_parser("pipeline", help="disk + forest + branch decomposition report")
    io_flags(p)
    p.set_defaults(func=_cmd_report, report=_pipeline_report)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    p.add_argument("which", choices=["bw", "outerplanarity", "theorem1"])
    p.add_argument(
        "k", nargs="?", type=int, default=1,
        help=f"theorem1 parameter, at most {THEOREM1_MAX_K}",
    )
    io_flags(p)
    budget_flags(p)
    p.set_defaults(func=_cmd_report, report=_oracle_report)

    p = sub.add_parser("verify", help="independently re-check an emitted artifact")
    io_flags(p)
    p.add_argument("--out", metavar="PATH", help="claimed EPG output of a conversion")
    budget_flags(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OnionPeelError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
