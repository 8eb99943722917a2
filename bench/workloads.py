"""The benchmark workloads: seeded inputs, jobs, and independent checks.

A workload's ``setup(seed, tiny)`` builds its inputs from the seed alone,
serializes each one to EPG text, and returns the list of jobs that make up
one round.  A job is one user-level call (one conversion, pipeline run,
oracle call or CLI command).  Every job parses its input from that EPG
text inside the timed call, so no value memoized on an ``Embedding``
(``Embedding._memo`` caches peels) can carry over between jobs or rounds.

Checks never reuse the library routine they judge: peel counts come from a
radial BFS over vertex-face incidences, faces from a face tracer written
here, and EPG text is re-read by a parser written here.

Library names are looked up on the module at call time (``op.name``), so
the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import onionpeel as op
import onionpeel.cli as op_cli

STAGES = ("saturate", "connect", "outer-cut", "inner-cut", "ear", "apex")


@dataclass
class Job:
    """One user-level call and how to judge its output.

    ``run`` is the timed call.  ``render`` turns its result into the
    emitted text (EPG, trace or report JSON) that is digested.  ``check``
    returns a list of problems, empty when the output is right.
    ``before`` prepares files outside timing.  ``span`` names the
    benchmark-side span that encloses the call in a traced run.  Jobs
    that share a ``block`` run together and in order: a CLI ``verify``
    reads the artifact its emitting command wrote.
    """

    name: str
    run: Callable[[], Any]
    render: Callable[[Any], str]
    check: Callable[[Any], list[str]]
    before: Callable[[], None] | None = None
    span: str | None = None
    block: str | None = None


# ---------------------------------------------------------------------------
# Independent reading of embeddings
# ---------------------------------------------------------------------------


def read_epg(text: str) -> tuple[dict[int, list[int]], list[tuple[int, int]]]:
    """Rotation map and outer darts of EPG text, parsed without the library."""
    rot: dict[int, list[int]] = {}
    outer: list[tuple[int, int]] = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].replace(":", " ").split()
        if not tokens or tokens[0] == "epg":
            continue
        if tokens[0] == "v":
            rot[int(tokens[1])] = [int(t) for t in tokens[2:]]
        elif tokens[0] == "outer":
            outer.append((int(tokens[1]), int(tokens[2])))
    return rot, outer


def trace_faces(rot: dict[int, list[int]]) -> list[list[tuple[int, int]]]:
    """Face walks under next(u->v) = (v->w), w following u at v."""
    pos = {v: {w: i for i, w in enumerate(ns)} for v, ns in rot.items()}
    seen: set[tuple[int, int]] = set()
    faces = []
    for v, ns in rot.items():
        for w in ns:
            if (v, w) in seen:
                continue
            walk = []
            d = (v, w)
            while d not in seen:
                seen.add(d)
                walk.append(d)
                a, b = d
                nb = rot[b]
                d = (b, nb[(pos[b][a] + 1) % len(nb)])
            faces.append(walk)
    return faces


def edge_set(rot: dict[int, list[int]]) -> set[tuple[int, int]]:
    return {(v, w) for v, ns in rot.items() for w in ns if v < w}


def is_connected(rot: dict[int, list[int]]) -> bool:
    if not rot:
        return True
    start = next(iter(rot))
    seen = {start}
    stack = [start]
    while stack:
        for y in rot[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(rot)


def radial_peels(rot: dict[int, list[int]], outer_dart: tuple[int, int]) -> dict[int, int]:
    """Peel index of each vertex of a connected embedding.

    BFS over the vertex-face incidence graph from the outer face: a vertex
    at radial distance 2i-1 lies in peel i.
    """
    faces = trace_faces(rot)
    face_of = {d: i for i, f in enumerate(faces) for d in f}
    faces_at: dict[int, set[int]] = {v: set() for v in rot}
    for i, f in enumerate(faces):
        for a, _ in f:
            faces_at[a].add(i)
    peel: dict[int, int] = {}
    frontier = [face_of[outer_dart]]
    seen_faces = set(frontier)
    level = 1
    while frontier:
        verts = sorted(
            {a for i in frontier for a, _ in faces[i] if a not in peel}
        )
        for v in verts:
            peel[v] = level
        frontier = sorted(
            {i for v in verts for i in faces_at[v] if i not in seen_faces}
        )
        seen_faces.update(frontier)
        level += 1
    for v in rot:  # isolated vertices count as outer
        peel.setdefault(v, 1)
    return peel


def peel_count(rot, outer_dart) -> int:
    return max(radial_peels(rot, outer_dart).values(), default=0)


def outer_vertices(rot, outer_dart) -> set[int]:
    for f in trace_faces(rot):
        if outer_dart in f:
            return {a for a, _ in f}
    raise ValueError(f"outer dart {outer_dart} is not a dart")


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def _next_dart(rot, dart):
    a, b = dart
    nb = rot[b]
    return (b, nb[(nb.index(a) + 1) % len(nb)])


def _bridge(rot, u, v) -> bool:
    """True when v is unreachable from u once the edge uv is gone."""
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in rot[x]:
            if y not in seen and {x, y} != {u, v}:
                seen.add(y)
                stack.append(y)
    return v not in seen


def delete_edges(emb, keep_edges: int, rng: random.Random):
    """Delete random non-bridge edges down to keep_edges.

    The graph stays connected.  When the outer dart's edge goes, the
    outer dart moves to its successor on the same face walk, which lies
    in the merged face that becomes the outer face.
    """
    rot = emb.rotations_dict()
    outer = emb.outer_darts[0]
    edges = list(emb.edges)
    rng.shuffle(edges)
    count = len(edges)
    for u, v in edges:
        if count <= keep_edges:
            break
        if _bridge(rot, u, v):
            continue
        if outer in ((u, v), (v, u)):
            outer = _next_dart(rot, outer)
        rot[u].remove(v)
        rot[v].remove(u)
        count -= 1
    return op.Embedding(rot, [outer])


def relabel(emb, rng: random.Random):
    """The same embedding under a random vertex relabeling."""
    verts = list(emb.vertices)
    perm = verts[:]
    rng.shuffle(perm)
    p = dict(zip(verts, perm))
    rot = {p[v]: [p[w] for w in emb.rotation(v)] for v in verts}
    return op.Embedding(rot, [(p[a], p[b]) for a, b in emb.outer_darts])


# ---------------------------------------------------------------------------
# Job builders
# ---------------------------------------------------------------------------


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _full_job(label: str, text: str) -> Job:
    rot_in, outer_in = read_epg(text)
    k_in = peel_count(rot_in, outer_in[0])
    outer_in_set = outer_vertices(rot_in, outer_in[0])
    in_edges = edge_set(rot_in)

    def run():
        return op.to_full_triangulation(op.parse_epg(text))

    def render(result):
        tri, trace = result
        added = [[u, v, s] for u, v, s in trace.added_edges]
        return op.format_epg(tri) + _dump({"added": added})

    def check(result):
        tri, trace = result
        rot, outer = read_epg(op.format_epg(tri))
        problems = []
        faces = trace_faces(rot)
        n, m = len(rot), len(edge_set(rot))
        if not (n >= 3 and is_connected(rot) and all(len(f) == 3 for f in faces)
                and n - m + len(faces) == 2):
            problems.append("output is not a triangulation")
        added = [((min(u, v), max(u, v)), s) for u, v, s in trace.added_edges]
        new = {e for e, _ in added}
        if any(s not in STAGES for _, s in added) or len(new) != len(added) or new & in_edges:
            problems.append("trace edges are not new, distinct and staged")
        if edge_set(rot) != in_edges | new:
            problems.append("output edges != input edges + trace edges")
        apex = {e for e, s in added if s == "apex"}
        disk = {v: [w for w in ns if (min(v, w), max(v, w)) not in apex] for v, ns in rot.items()}
        if apex:
            long = [f for f in trace_faces(disk) if len(f) > 3]
            disk_outer = {a for a, _ in long[0]} if len(long) == 1 else None
        else:
            disk_outer = outer_vertices(rot, outer[0])
        if disk_outer != outer_in_set:
            problems.append("disk does not keep the input's outer vertex set")
        k_out = peel_count(rot, outer[0])
        if k_out > k_in + 1:
            problems.append(f"k_out {k_out} > k_in {k_in} + 1")
        return problems

    return Job(f"to_full_triangulation {label}", run, render, check)


def _pipeline_job(label: str, text: str, known_k: int | None = None) -> Job:
    rot_in, outer_in = read_epg(text)
    k = peel_count(rot_in, outer_in[0])

    def run():
        return op.decompose_pipeline(op.parse_epg(text))

    def render(cert):
        return _dump({
            "k": cert.peel_count, "height": cert.forest_height,
            "width": cert.width, "tw": cert.tw_bound,
        })

    def check(cert):
        problems = []
        if cert.peel_count != k:
            problems.append(f"pipeline k {cert.peel_count} != radial k {k}")
        if known_k is not None and k != known_k:
            problems.append(f"k {k} != construction's {known_k}")
        if cert.width > 2 * k:
            problems.append(f"width {cert.width} > 2k = {2 * k}")
        if cert.tw_bound > 3 * k - 1 or cert.tw_bound != max(1, 3 * cert.width // 2 - 1):
            problems.append(f"treewidth bound {cert.tw_bound} wrong for width {cert.width}")
        return problems

    return Job(f"decompose_pipeline {label}", run, render, check)


def _peels_job(label: str, text: str, known_k: int) -> Job:
    rot_in, outer_in = read_epg(text)
    radial = radial_peels(rot_in, outer_in[0])

    def run():
        return op.onion_peels(op.parse_epg(text))

    def render(peels):
        return _dump([sorted(layer) for layer in peels.layers])

    def check(peels):
        problems = []
        if peels.k != known_k:
            problems.append(f"k {peels.k} != construction's {known_k}")
        got = {v: i + 1 for i, layer in enumerate(peels.layers) for v in layer}
        if got != radial:
            problems.append("peel layers differ from the radial BFS layers")
        return problems

    return Job(f"onion_peels {label}", run, render, check)


# -- sparse conversion -------------------------------------------------------

#: the two path sizes whose conversion times give the size exponent
PATH_SIZES = (120, 240)


def convert_sparse_jobs(rng: random.Random, tiny: bool) -> list[Job]:
    """Paths at two sizes, and 22 edge-deleted 3-ring graphs of width 14.

    The edge-deleted graphs keep n + n/8 edges, so conversion adds most of
    the output's edges; with at most 3 rings their peel count stays <= 3.
    They share one shape, so their 44 jobs cost alike and the median call
    of ``convert-cli`` falls among them whatever the seed.
    """
    paths = (12, 24) if tiny else PATH_SIZES
    rings, widths = (2, (6, 7)) if tiny else (3, [14] * 22)
    inputs = [(f"path{n}", op.gen_path(n)) for n in paths]
    for i, width in enumerate(widths):
        base = op.gen_random_kouter(rings, width, rng.randrange(10**9))
        n = base.vertex_count
        inputs.append((f"sparse_rk{rings}x{width}#{i}", delete_edges(base, n + n // 8, rng)))
    jobs = []
    for label, emb in inputs:
        text = op.format_epg(emb)
        jobs.append(_full_job(label, text))
        jobs.append(_pipeline_job(label, text))
    return jobs


def size_exponent(latency_by_job: dict[str, float], tiny: bool) -> float:
    """Log-log slope of to_full_triangulation time between the path sizes."""
    a, b = (12, 24) if tiny else PATH_SIZES
    ta = latency_by_job.get(f"to_full_triangulation path{a}")
    tb = latency_by_job.get(f"to_full_triangulation path{b}")
    if not ta or not tb:
        return 0.0
    return math.log(tb / ta) / math.log(b / a)


# -- deep peeling ------------------------------------------------------------


def peel_deep_jobs(rng: random.Random, tiny: bool) -> list[Job]:
    """Triangulated disks 8 and 36 peels deep: k-ring graphs and nested triangles.

    A k-ring graph's innermost ring bounds one long face; setup converts
    each to a triangulated disk, so the jobs' own conversions add no edge.
    The 16 k-ring graphs share one shape, and the nested triangles are one
    graph under four seeded relabelings, so the jobs of each group cost
    alike: the latency tail falls inside the nested triangles' calls
    whether a run makes three rounds or four, and whatever the seed.
    """
    depth, copies = (5, 1) if tiny else (36, 4)
    ring_shapes = ((3, 6), (4, 5)) if tiny else [(8, 14)] * 16
    inputs = [(f"nested{depth}#{i}", relabel(op.gen_nested_triangles(depth), rng), depth)
              for i in range(copies)]
    for rings, width in ring_shapes:
        emb, _ = op.to_triangulated_disk(
            op.gen_random_kouter(rings, width, rng.randrange(10**9)))
        inputs.append((f"rk{rings}x{width}#{len(inputs)}", emb, rings))
    jobs = []
    for label, emb, k in inputs:
        text = op.format_epg(emb)
        jobs.append(_pipeline_job(label, text, known_k=k))
        jobs.append(_peels_job(label, text, known_k=k))
    return jobs


# -- oracles -----------------------------------------------------------------


def _theorem1_job(k: int) -> Job:
    # k=2: the gadget's one long face is an 8-gon, with Catalan(6) = 132 triangulations
    expect_count, expect_min = (1, 2) if k == 1 else (132, 3)

    def render(report):
        return _dump({
            "k": report.k, "triangulations": report.triangulation_count,
            "min": report.min_outerplanarity, "passed": report.passed,
            "three_connected": report.three_connected,
        })

    def check(report):
        if (report.passed, report.triangulation_count, report.min_outerplanarity) != (
            True, expect_count, expect_min
        ):
            return [f"theorem1({k}) report {render(report).strip()}"]
        return []

    return Job(f"certify_theorem1 {k}", lambda: op.certify_theorem1(k), render, check)


def _outerplanarity_job(label: str, text: str) -> Job:
    rot, outer = read_epg(text)
    k = peel_count(rot, outer[0])

    def check(value):
        return [] if 1 <= value <= k else [f"outerplanarity {value} not in [1, {k}]"]

    return Job(f"brute_outerplanarity {label}",
               lambda: op.brute_outerplanarity(op.parse_epg(text)), _dump, check)


def _branchwidth_job(label: str, text: str) -> Job:
    width = op.decompose_pipeline(op.parse_epg(text)).width

    def check(value):
        return [] if value <= width else [f"branchwidth {value} > pipeline width {width}"]

    return Job(f"brute_branchwidth {label}",
               lambda: op.brute_branchwidth(op.parse_epg(text)), _dump, check)


def brute_force_jobs(rng: random.Random, tiny: bool) -> list[Job]:
    """Brute-force oracle calls near the default budgets.

    The outerplanarity inputs are the 7-vertex wheel W6 minus one random
    spoke: their rotation-system count is fixed by the degree sequence, so
    every call costs the same and the latency percentiles do not depend on
    which spoke the seed picks.  There are 32 of them, so that the median
    call of ``peel-oracles`` falls in the middle of their group, away from
    the cheaper peels and the dearer pipelines.  The branchwidth inputs have 8 edges; the
    branch-and-bound cost of a 9-edge input swings 30-fold with the vertex
    labeling, which would make the percentiles depend on the seed.
    """
    jobs = []
    n_op, n_bw = (1, 1) if tiny else (32, 4)
    wheel = op.gen_wheel(6)
    for i in range(n_op):
        rot = wheel.rotations_dict()
        spoke = rng.randrange(6)
        rot[spoke].remove(6)
        rot[6].remove(spoke)
        emb = relabel(op.Embedding(rot, wheel.outer_darts), rng)
        jobs.append(_outerplanarity_job(f"w6-spoke#{i}", op.format_epg(emb)))
    bases = (op.gen_wheel(6), op.gen_nested_triangles(2))  # 12 edges each
    for i in range(n_bw):
        emb = relabel(delete_edges(bases[i % 2], 8, rng), rng)
        jobs.append(_branchwidth_job(f"small#{i}", op.format_epg(emb)))
    return jobs


# -- CLI round trip ----------------------------------------------------------


def _cli(argv: list[str]) -> int:
    """Run the CLI in-process; its stderr notes are dropped."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return op_cli.cli_main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cli_job(name: str, argv: list[str], outputs: list[str], span: str, block: str,
             expect: int = 0, before=None) -> Job:
    def render(code):
        texts = [f"exit {code}\n"]
        texts += [_read(p) for p in outputs if os.path.exists(p)]
        return "".join(texts)

    def check(code):
        return [] if code == expect else [f"exit code {code}, expected {expect}"]

    return Job(name, lambda: _cli(argv), render, check, before=before, span=span, block=block)


def tamper_trace(src: str, dst: str) -> None:
    """Copy a conversion-trace artifact with one added edge changed."""
    artifact = json.loads(_read(src))
    u, v, stage = artifact["added"][0]
    artifact["added"][0] = [u, v + 1 if v + 1 != u else v + 2, stage]
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(_dump(artifact))


def cli_roundtrip_jobs(inputs, workdir: str, tamper: bool) -> list[Job]:
    """Per EPG file: four emitting commands, four verifies, and with
    ``tamper`` one trace artifact with an edge changed that must be rejected."""
    jobs = []
    for i, (label, emb) in enumerate(inputs):
        d = os.path.join(workdir, f"in{i}")
        os.makedirs(d, exist_ok=True)
        src = os.path.join(d, "input.epg")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(op.format_epg(emb))
        p = {name: os.path.join(d, name) for name in (
            "peel.json", "trace.json", "tri.epg", "bd.json", "pipeline.json", "bad.json")}
        emits = [
            ("peel", ["peel", "--in", src, "--json", p["peel.json"]], [p["peel.json"]]),
            ("triangulate", ["triangulate", "--in", src, "--json", p["trace.json"],
                             "--out", p["tri.epg"]], [p["trace.json"], p["tri.epg"]]),
            ("bd", ["bd", "--in", src, "--json", p["bd.json"]], [p["bd.json"]]),
            ("pipeline", ["pipeline", "--in", src, "--json", p["pipeline.json"]],
             [p["pipeline.json"]]),
        ]
        for cmd, argv, outs in emits:
            jobs.append(_cli_job(f"cli {cmd} {label}", argv, outs, f"cli.emit.{cmd}", label))
        verifies = [
            ("peel", ["--json", p["peel.json"]]),
            ("trace", ["--json", p["trace.json"], "--out", p["tri.epg"]]),
            ("bd", ["--json", p["bd.json"]]),
            ("pipeline", ["--json", p["pipeline.json"]]),
        ]
        for kind, extra in verifies:
            jobs.append(_cli_job(f"cli verify {kind} {label}", ["verify", "--in", src] + extra,
                                 [], f"cli.verify.{kind}", label))
        if tamper:
            jobs.append(_cli_job(
                f"cli verify tampered-trace {label}",
                ["verify", "--in", src, "--json", p["bad.json"], "--out", p["tri.epg"]],
                [], "cli.verify.tampered", label, expect=1,
                before=lambda a=p["trace.json"], b=p["bad.json"]: tamper_trace(a, b),
            ))
    return jobs


def kring_files(rng: random.Random, tiny: bool):
    """The k-ring graphs the CLI round trip of ``convert-cli`` reads."""
    shapes = ((2, 6), (2, 7)) if tiny else ((3, 12), (3, 14), (4, 12), (4, 14), (4, 16))
    return [(f"rk{rings}x{width}", op.gen_random_kouter(rings, width, rng.randrange(10**9)))
            for rings, width in shapes]


# -- the workloads -----------------------------------------------------------

WORKLOADS = ("convert-cli", "peel-oracles")


def setup(workload: str, seed: int, tiny: bool, workdir: str) -> list[Job]:
    """One round of a workload's jobs, built from the seed alone.

    ``convert-cli`` adds edges: sparse inputs through the library's
    conversion and pipeline, then k-ring files through every emitting CLI
    command and ``verify``.  ``peel-oracles`` adds none: deep triangulated
    disks through peeling and the pipeline, brute-force oracle calls, and
    the theorem-1 certification.  Its other jobs appear twice in a round,
    beside the one 10-second certification, so in a 50-second run the
    certification gets three or four calls and each other job six to
    eight, spread over the run.

    Each workload also makes a few millisecond-sized calls into the layers
    it is not about, so that every per-layer metric of a traced run is
    measured on every workload instead of reading a structural zero:
    ``convert-cli`` calls the oracles on K4 and K4 minus an edge, and
    ``peel-oracles`` runs the CLI round trip on nested triangles, whose
    conversion adds no edge.
    """
    rng = random.Random(seed)
    if workload == "convert-cli":
        return (convert_sparse_jobs(rng, tiny)
                + cli_roundtrip_jobs(kring_files(rng, tiny), workdir, tamper=True)
                + [_theorem1_job(1), _branchwidth_job("k4", op.format_epg(op.gen_wheel(3)))])
    if workload == "peel-oracles":
        nested = [("nested4", op.gen_nested_triangles(4))]
        around = (peel_deep_jobs(rng, tiny) + brute_force_jobs(rng, tiny)
                  + cli_roundtrip_jobs(nested, workdir, tamper=False))
        return around + [_theorem1_job(1 if tiny else 2)] + around
    raise ValueError(f"unknown workload {workload!r}")
