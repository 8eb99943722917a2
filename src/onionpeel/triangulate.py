"""Conversion to triangulated disks and full triangulations.

The disk pipeline only ever adds edges, in five stages: saturate inner
faces (so the spanning forest exists before any outer-face edits), bridge
components across the outer region, split repeated outer-walk vertices,
split repeated inner-walk vertices, then ear-cut inner faces down to
triangles.  The bridges join each component at its smallest outer vertex,
in that vertex's order, to the component holding the smallest one.
Every stage links corners of one mutable face builder, and the three
corner-cutting stages share one loop; the result is validated once.  No
stage removes a vertex from the outer face, so the outer vertex set is
preserved and the peel count cannot grow.  The apex step then fans one
outer vertex with exactly two outer neighbors across the outer region,
closing the disk into a triangulation at the cost of at most one extra
peel.  It links corners of the same builder, so a full triangulation is
one builder with one validated build.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

from .embedding import (
    Dart,
    Edge,
    Embedding,
    _FaceBuilder,
    _origin,
    is_triangulated_disk,
    is_triangulation,
)
from .errors import InvariantViolation, RepairStuck, TooSmall
from .peeling import _radial_peels, _saturate, onion_peels

@dataclass(frozen=True)
class DiskConversionTrace:
    """Audit trail of a conversion: every added edge with its stage."""

    added_edges: tuple[tuple[int, int, str], ...]


def _connect(b: _FaceBuilder) -> list[Edge]:
    """Bridge b's components across the outer region, smallest starts first.

    A component starts at the origin of its outer walk's minimal dart, or
    at itself if isolated.  The smallest start is the hub, which absorbs
    the others in start order; each edge links the corners before the two
    walks' minimal darts.  So each component is joined at its smallest
    outer vertex:

    - ``_trace`` visits darts in sorted order, so a walk starts at its
      minimal dart, whose origin is the smallest vertex on the walk, and
      the builder's dart of an input walk is that start;
    - an embedding has one outer walk per edged component, none nested,
      and saturation adds edges only inside inner faces, so each outer
      walk here is still the input's;
    - a join with the component starting at v adds (hub, v) and darts
      whose origins are at least v, so the hub's minimal dart after it is
      the smaller of its last one and (hub, v).
    """
    (hub, m), *rest = sorted(
        [(d[0], d) for d in map(b.dart.__getitem__, b.outer)]
        + [(v, None) for v, n in b.nbr.items() if n is None]
    )
    for v, d in rest:
        b.link(_outer_corner(b, hub, m), _outer_corner(b, v, d))
        m = (hub, v) if m is None else min(m, (hub, v))
    return [(hub, v) for v, _ in rest]


def _outer_corner(b: _FaceBuilder, x: int, d: Dart | None) -> Dart:
    """The corner at x before its outer walk's minimal dart d (None: x isolated)."""
    return (None, x) if d is None else b.pred(d)


def _cut_corners(b: _FaceBuilder, outer: bool, repeated_only: bool, stuck) -> list[Edge]:
    """Cut corners off wanted faces until no face is wanted.

    A walk is wanted when it lies on the ``outer`` side, has at least 4
    darts and, if ``repeated_only``, repeats a vertex.  Takes the wanted
    walk with the smallest minimal dart and the first position j from that
    dart whose flankers, a at j-1 and c at j+1, are distinct and not
    adjacent, and whose vertex v repeats on the walk if ``repeated_only``.
    The chord (a, c) cuts the corner at j off into a triangle, which is
    never wanted; the rest, the walk of (a, c), keeps the walk's outer
    mark and is the one walk tested again.  A wanted walk without such a
    position raises ``stuck(b, its minimal dart)``.

    The minimal darts and vertex counts are this loop's own, from one
    listing of a walk the first time it is tested.  A wanted rest has at
    least 4 darts, more than the triangle, so it keeps the walk's id; its
    min-heap gains (a, c) and pops darts that left it once they surface,
    and its counts, as it reads ``... (t, a), (a, c), (c, x) ...`` where
    the walk read ``(t, a), (a, v), (v, c), (c, x)``, lose one v.

    The scan resumes instead of restarting.  Eligibility only decays
    (adjacency grows, counts fall) and a cut changes only the corners at
    a and c, so the positions from the minimal dart up to a's corner stay
    ineligible: the rest is next scanned from its new dart (a, c), unless
    its minimal dart has changed, which sends the scan back to the new
    minimal dart.
    """
    heaps: dict[int, list[Dart]] = {}  # tested walk id -> min-heap of its darts, some stale
    counts: dict[int, Counter[int]] = {}  # wanted walk id -> vertex -> occurrences

    def wanted(i: int, occ: Counter[int] | None = None) -> bool:
        if (i in b.outer) != outer or b.size[i] < 4:
            return False
        if i not in heaps:
            darts = heaps[i] = b.darts(b.dart[i])
            if repeated_only:
                occ = Counter(map(_origin, darts))
            heapq.heapify(darts)
        if repeated_only:
            if len(occ) == b.size[i]:
                return False
            counts[i] = occ
        return True

    def first(i: int) -> Dart:
        darts = heaps[i]
        while b.wid[darts[0]] != i:
            heapq.heappop(darts)
        return darts[0]

    heap = [(first(i), i) for i in b.size if wanted(i)]
    heapq.heapify(heap)
    resume: dict[tuple[int, Dart], Dart] = {}  # (walk id, run start) -> dart
    added: list[Edge] = []
    while heap:
        start, i = heapq.heappop(heap)
        d = resume.pop((i, start), start)
        occ = counts.pop(i, None)
        before = b.pred(d)
        corner = b.pred(before)
        for _ in range(b.size[i]):
            (v, c), a = d, before[0]
            if a != c and (a, c) not in b.nxt and (not repeated_only or occ[v] > 1):
                break
            corner, before, d = before, d, b.nxt[d]
        else:
            raise stuck(b, start)
        b.link(corner, d)
        ac = (a, c)
        if repeated_only:
            occ[v] -= 1
        if wanted(i, occ):
            heapq.heappush(heaps[i], ac)
            heapq.heappush(heap, (first(i), i))
        resume[(i, start)] = ac
        added.append((min(a, c), max(a, c)))
    return added


# (stage, outer side, repeated_only, error) of the corner-cutting stages
_CUTS = (
    (
        "outer-cut",
        True,
        True,
        lambda b, d: RepairStuck(
            "every occurrence of every repeated outer vertex has adjacent flankers"
        ),
    ),
    (
        "inner-cut",
        False,
        True,
        lambda b, d: RepairStuck(
            "every occurrence of every repeated inner-face vertex has "
            "adjacent flankers"
        ),
    ),
    (
        "ear",
        False,
        False,
        lambda b, d: InvariantViolation(
            f"no ear available on inner face {tuple(map(_origin, b.darts(d)))}"
        ),
    ),
)


def _disk_stages(emb: Embedding) -> tuple[_FaceBuilder | None, list[tuple[int, int, str]]]:
    """Run the five disk stages on one builder; return it (None when emb is
    already a triangulated disk, to which no stage adds an edge) and the
    added edges with their stages.  Below 3 vertices it raises TooSmall."""
    if emb.vertex_count < 3:
        raise TooSmall(f"need at least 3 vertices, got {emb.vertex_count}")
    if is_triangulated_disk(emb):
        return None, []
    b = _FaceBuilder(emb)
    sat = _saturate(b, emb)
    added = [(u, v, "saturate") for u, v in sorted((min(e), max(e)) for e in sat)]
    added += [(u, v, "connect") for u, v in _connect(b)]
    for stage, *cut in _CUTS:
        added += [(u, v, stage) for u, v in _cut_corners(b, *cut)]
    return b, added


def to_triangulated_disk(emb: Embedding) -> tuple[Embedding, DiskConversionTrace]:
    """Add edges until the embedding is a triangulated disk.

    All stages link corners of one builder, and the result is validated
    once; a triangulated disk is returned as it is, unbuilt.  The outer
    vertex set of the output equals the input's and the peel count never
    increases; both are enforced here as bug certificates.
    A planar embedding cannot carry two crossing exterior chords, so an
    ear always exists while an inner face is long.
    """
    b, added = _disk_stages(emb)
    k_in = onion_peels(emb).k
    current = emb if b is None else b.embedding()
    if not is_triangulated_disk(current):
        raise InvariantViolation("disk pipeline did not produce a disk")
    if current.outer_vertices != emb.outer_vertices:
        raise InvariantViolation("disk pipeline changed the outer vertex set")
    k = onion_peels(current).k
    if k > k_in:
        raise InvariantViolation(f"disk pipeline raised the peel count {k_in} -> {k}")
    return current, DiskConversionTrace(added_edges=tuple(added))


def _apex(b: _FaceBuilder, cycle: tuple[int, ...]) -> int | None:
    """The smallest vertex of ``cycle`` with exactly two neighbours on it,
    each rotation read round its vertex through ``b.nxt``; None if none."""
    on_cycle = frozenset(cycle)
    for v in sorted(cycle):
        ns = [b.nbr[v]]
        while (w := b.nxt[ns[-1], v][1]) != ns[0]:
            ns.append(w)
        if len(on_cycle.intersection(ns)) == 2:
            return v


def to_full_triangulation(emb: Embedding) -> tuple[Embedding, DiskConversionTrace]:
    """Triangulate fully: disk conversion plus the outer apex fan, on one
    builder with one validated build.

    The apex r is the smallest outer-cycle vertex with exactly two
    neighbors on the outer cycle (one exists: the outer cycle plus its
    chords is a 2-connected outerplanar graph, which has a degree-2
    vertex).  r is fanned to every non-adjacent outer vertex across the
    outer region; the final outer face is the fan triangle at r's
    cyclic-successor neighbor.  Peel count grows by at most one.

    The fan runs on the disk stages' builder (a disk input gets one, a
    triangulation is returned unbuilt), so the disk is never built: its
    certificates read the builder before the fan, and its peels are the
    output's from the fan triangles, which hold its outer walk.
    """
    if is_triangulation(emb):
        return emb, DiskConversionTrace(added_edges=())
    b, added = _disk_stages(emb)
    k_in = onion_peels(emb).k
    b = b or _FaceBuilder(emb)
    walk = b.darts(b.dart[min(b.outer)]) if len(b.outer) == 1 else []
    cycle = tuple(map(_origin, walk))
    if (
        len(cycle) < 3 or len(set(cycle)) < len(cycle) or None in b.nbr.values()
        or sum(n != 3 for n in b.size.values()) != (len(cycle) != 3)
    ):
        raise InvariantViolation("disk pipeline did not produce a disk")
    if frozenset(cycle) != emb.outer_vertices:
        raise InvariantViolation("disk pipeline changed the outer vertex set")
    r = _apex(b, cycle)
    if r is None:
        raise InvariantViolation("no outer vertex with two outer neighbors")
    pos_r = cycle.index(r)
    added += [(min(r, v), max(r, v), "apex") for v in b.fan(walk, pos_r)]
    result = b.embedding([walk[(pos_r + 1) % len(cycle)]])
    k_disk = _radial_peels(result, {result._walk_of_dart[d] for d in walk}).k
    if k_disk > k_in:
        raise InvariantViolation(f"disk pipeline raised the peel count {k_in} -> {k_disk}")
    if not is_triangulation(result):
        raise InvariantViolation("apex step did not produce a triangulation")
    k = onion_peels(result).k
    if k > k_in + 1:
        raise InvariantViolation(f"apex step raised the peel count {k_in} -> {k}")
    return result, DiskConversionTrace(added_edges=tuple(added))
