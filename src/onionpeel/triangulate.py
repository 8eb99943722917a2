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
peel.
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
from .peeling import _saturate, onion_peels

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
      minimal dart, whose origin is the smallest vertex on the walk;
    - an embedding has one outer walk per edged component, none nested,
      and saturation adds edges only inside inner faces, so each outer
      walk here is still the input's;
    - after each join the hub is still the smallest origin on the merged
      walk, whose id the join returns.
    """
    (hub, i), *rest = sorted(
        [(b.first(i)[0], i) for i in b.outer]
        + [(v, None) for v, n in b.nbr.items() if n is None]
    )
    for v, j in rest:
        (i,) = b.link(_outer_corner(b, hub, i), _outer_corner(b, v, j))
    return [(hub, v) for v, _ in rest]


def _outer_corner(b: _FaceBuilder, x: int, i: int | None) -> Dart:
    """The corner before walk i's minimal dart, whose origin is x (None: x isolated)."""
    return (None, x) if i is None else b.pred(b.first(i))


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
    position raises ``stuck(b, walk id)``.

    The vertex counts are this loop's own.  A walk is counted once, the
    first time it is tested.  The rest reads ``... (t, a), (a, c), (c, x)
    ...`` where the walk read ``(t, a), (a, v), (v, c), (c, x)``, so its
    counts are the walk's with one fewer v, moved to the rest's id.

    The scan resumes instead of restarting.  Eligibility only decays
    (adjacency grows, counts fall) and a cut changes only the corners at
    a and c, so the positions from the minimal dart up to a's corner stay
    ineligible: the rest is next scanned from its new dart (a, c), unless
    its minimal dart has changed, which sends the scan back to the new
    minimal dart.
    """
    counts: dict[int, Counter[int]] = {}  # wanted walk id -> vertex -> occurrences

    def wanted(i: int, occ: Counter[int] | None = None) -> bool:
        if (i in b.outer) != outer or b.size[i] < 4:
            return False
        if repeated_only:
            if occ is None:
                occ = Counter(map(_origin, b.darts(b.first(i))))
            if len(occ) == b.size[i]:
                return False
            counts[i] = occ
        return True

    heap = [(b.first(i), i) for i in b.size if wanted(i)]
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
            raise stuck(b, i)
        b.link(corner, d)
        ac = (a, c)
        rest = b.wid[ac]
        if repeated_only:
            occ[v] -= 1
        if wanted(rest, occ):
            heapq.heappush(heap, (b.first(rest), rest))
        resume[(rest, start)] = ac
        added.append((min(a, c), max(a, c)))
    return added


# (stage, outer side, repeated_only, error) of the corner-cutting stages
_CUTS = (
    (
        "outer-cut",
        True,
        True,
        lambda b, i: RepairStuck(
            "every occurrence of every repeated outer vertex has adjacent flankers"
        ),
    ),
    (
        "inner-cut",
        False,
        True,
        lambda b, i: RepairStuck(
            "every occurrence of every repeated inner-face vertex has "
            "adjacent flankers"
        ),
    ),
    (
        "ear",
        False,
        False,
        lambda b, i: InvariantViolation(
            "no ear available on inner face "
            f"{tuple(d[0] for d in b.darts(b.first(i)))}"
        ),
    ),
)


def to_triangulated_disk(emb: Embedding) -> tuple[Embedding, DiskConversionTrace]:
    """Add edges until the embedding is a triangulated disk.

    All stages link corners of one builder, and the result is validated
    once; a triangulated disk is returned as it is, unbuilt.  The outer
    vertex set of the output equals the input's and the peel count never
    increases; both are enforced here as bug certificates.
    A planar embedding cannot carry two crossing exterior chords, so an
    ear always exists while an inner face is long.
    """
    if emb.vertex_count < 3:
        raise TooSmall(f"need at least 3 vertices, got {emb.vertex_count}")
    k_in = onion_peels(emb).k
    added: list[tuple[int, int, str]] = []
    current = emb
    if not is_triangulated_disk(emb):  # no stage adds an edge to a disk
        b = _FaceBuilder(emb)
        sat = _saturate(b, emb)
        added += [(u, v, "saturate") for u, v in sorted((min(e), max(e)) for e in sat)]
        added += [(u, v, "connect") for u, v in _connect(b)]
        for stage, *cut in _CUTS:
            added += [(u, v, stage) for u, v in _cut_corners(b, *cut)]
        current = b.embedding()

    if not is_triangulated_disk(current):
        raise InvariantViolation("disk pipeline did not produce a disk")
    if current.outer_vertices != emb.outer_vertices:
        raise InvariantViolation("disk pipeline changed the outer vertex set")
    if onion_peels(current).k > k_in:
        raise InvariantViolation(
            f"disk pipeline raised the peel count {k_in} -> "
            f"{onion_peels(current).k}"
        )
    return current, DiskConversionTrace(added_edges=tuple(added))


def to_full_triangulation(emb: Embedding) -> tuple[Embedding, DiskConversionTrace]:
    """Triangulate fully: disk conversion plus the outer apex fan.

    The apex r is the smallest outer-cycle vertex with exactly two
    neighbors on the outer cycle (one exists: the outer cycle plus its
    chords is a 2-connected outerplanar graph, which has a degree-2
    vertex).  r is fanned to every non-adjacent outer vertex across the
    outer region; the final outer face is the fan triangle at r's
    cyclic-successor neighbor.  Peel count grows by at most one.
    """
    k_in = onion_peels(emb).k
    disk, disk_trace = to_triangulated_disk(emb)
    walk = disk._walks[disk._outer_ids[0]]
    cycle = tuple(map(_origin, walk))
    outer_set = frozenset(cycle)
    rot = disk._rotations
    r = min((v for v in cycle if len(outer_set.intersection(rot[v])) == 2), default=None)
    if r is None:
        raise InvariantViolation("no outer vertex with two outer neighbors")

    added = list(disk_trace.added_edges)
    if len(cycle) == 3:
        result = disk
    else:
        pos_r = cycle.index(r)
        b = _FaceBuilder(disk)
        added += [(min(r, v), max(r, v), "apex") for v in b.fan(walk, pos_r)]
        result = b.embedding([walk[(pos_r + 1) % len(cycle)]])

    if not is_triangulation(result):
        raise InvariantViolation("apex step did not produce a triangulation")
    if onion_peels(result).k > k_in + 1:
        raise InvariantViolation(
            f"apex step raised the peel count {k_in} -> {onion_peels(result).k}"
        )
    return result, DiskConversionTrace(added_edges=tuple(added))
