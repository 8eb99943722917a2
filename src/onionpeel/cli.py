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
import sys
import time

from .branchdecomp import decompose_pipeline
from .checkers import artifact_kind, check_shape, require, verify_bd
from .embedding import Embedding
from .epg import format_epg, parse_epg, to_dot
from .errors import BadParameter, FormatError, OnionPeelError
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
    if args.family == "k4_minus_edge" and args.parameter is not None:
        raise BadParameter("family 'k4_minus_edge' takes no parameter")
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
    """The stored tree by node position; its tuples serialise as JSON arrays."""
    cert = decompose_pipeline(emb)
    bd = cert.tree
    first_arc = len(bd.faces)
    first_leaf = first_arc + len(bd.arc_edges)
    nodes = [{"id": i, "kind": "face", "face": f} for i, f in enumerate(bd.faces)]
    nodes += ({"id": a, "kind": "arc", "edge": e} for a, e in enumerate(bd.arc_edges, first_arc))
    nodes += ({"id": leaf, "kind": "edge", "edge": e} for leaf, e in enumerate(bd.edges, first_leaf))
    return {
        "nodes": nodes,
        "arcs": bd.arcs,
        "assignment": {f"{u}-{v}": leaf for leaf, (u, v) in enumerate(bd.edges, first_leaf)},
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
    kind = artifact_kind(artifact)
    assignment = check_shape(kind, artifact)
    if kind == "oracle":
        # the oracle and its theorem-1 k come from the artifact
        args = argparse.Namespace(**vars(args), which=artifact["oracle"], k=artifact.get("k"))
    emb = _read_input(args)
    if kind in _REPORTS:
        require(artifact == _REPORTS[kind](emb, args), f"{kind} artifact: rerun differs")
    elif kind == "trace":
        _verify_conversion(emb, artifact, args)
    else:
        verify_bd(emb, artifact, assignment)
    print(f"verified: {kind} artifact is consistent", file=sys.stderr)
    return 0


def _verify_conversion(emb, artifact, args) -> None:
    # k_out == k_in + 1 can only come from the apex step
    full = artifact["k_out"] > artifact["k_in"] or any(
        stage == "apex" for _, _, stage in artifact["added"]
    )
    out, trace = to_full_triangulation(emb) if full else to_triangulated_disk(emb)
    require(
        artifact == _trace_json(trace, emb, out),
        "conversion artifact: rerun differs",
    )
    if args.out:
        require(
            parse_epg(_read_text(args.out)) == out,
            "conversion artifact: output embedding differs",
        )


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
