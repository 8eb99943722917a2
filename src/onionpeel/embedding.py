"""Combinatorial planar embeddings as rotation systems.

An embedding is a per-vertex cyclic order of neighbors (the rotation,
clockwise by convention) plus one designated outer dart per edged
component.  A *dart* is one direction of an edge and is represented by the
ordered pair ``(u, v)``; the pair is its own identifier, its origin is
``u`` and its reverse is ``(v, u)``.  Simple graphs only: no self-loops, no
parallel edges.

Faces are traced with one fixed successor rule:

    next(u -> v) = (v -> w)  where w follows u in the rotation at v.

All geometric statements are realized through this single convention;
nothing downstream depends on clockwise versus counterclockwise, only on
consistency.

Embeddings are immutable values; derived data (face walks, components) is
computed once and cached on the instance.  Every added edge goes through
one internal primitive, the corner link of a mutable half-edge face
builder, so a run of insertions validates only once.  A link rewires
four successors and relabels the shorter of the two walks it splits a
face into, or joins into one; building an embedding is linear up to
sorting each rotation.  An embedding of several components is accepted
only when every component lies in the outer region: one outer dart per edged
component, all merged into a single outer region.  Isolated vertices
carry an empty rotation and count as outer.

Construction is one structural pass over a successor map, a few
dictionary operations per dart.  Plain rotations are type-checked (an id
must be an int, or have ``__index__`` and not be a bool) and give the map;
``parse_epg`` hands int tuples, which skip the type check, and the face
builder hands over its map with the rotations read off it, which two
C-level passes prove to be that map.  The trace closes a triangle in
three lookups and follows any other walk back to its start, one append
and one walk-id store per dart, and doubles as the structure check: a
map with one entry per dart and none from a vertex to itself, and a
trace that finds every dart's successor, prove the rotations simple and
symmetric, so the per-vertex check runs only to name the first defect
of an input that fails the proof.  The Euler check
compares totals, counting per component only to name a failure.  The
embedding keeps the rotations as given, the walks as dart tuples with
the outer walks' ids, and its successor and dart -> walk maps, which a
``_FaceBuilder`` copies rather than recomputes; the canonical rotations
(``rotation``, ``rotations_dict``, ``==``, ``hash``) and the ``faces``
records are built on first use.  Construction costs O(V + E)
dictionary operations plus the trace's sorts of the vertex ids and of
each rotation, O(V log V + E log D) in all for largest degree D.
"""

from __future__ import annotations

import heapq
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Mapping, Sequence

from .errors import (
    AsymmetricAdjacency,
    BadParameter,
    EulerViolation,
    InvariantViolation,
    NestedComponent,
    ParallelEdge,
    SelfLoop,
)

Dart = tuple[int, int]
Edge = tuple[int, int]
Traced = tuple[list[tuple[Dart, ...]], dict[Dart, int]]  # walks, and dart -> walk id

_origin = operator.itemgetter(0)
_head = operator.itemgetter(1)


def edge_of(dart: Dart) -> Edge:
    """Unordered edge of a dart, normalized to (min, max)."""
    u, v = dart
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, slots=True)
class FaceWalk:
    """One face of an embedding: a closed dart walk under the successor rule.

    Walks start at their minimal dart and every dart lies in exactly one
    walk.  ``is_outer`` marks the walks whose union forms the outer region.
    """

    darts: tuple[Dart, ...]
    is_outer: bool

    def __len__(self) -> int:
        return len(self.darts)

    @property
    def vertices(self) -> tuple[int, ...]:
        """Origins along the walk, with repetition."""
        return tuple(map(_origin, self.darts))

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(map(_origin, self.darts))

    @property
    def is_simple(self) -> bool:
        """True when no vertex repeats on the walk."""
        return len(self.vertex_set) == len(self.darts)

    def edges(self) -> tuple[Edge, ...]:
        return tuple(edge_of(d) for d in self.darts)


def _canonical_rotation(rot: tuple[int, ...]) -> tuple[int, ...]:
    i = rot.index(min(rot)) if rot else 0
    return rot[i:] + rot[:i] if i else rot


class Embedding:
    """Validated, canonical, immutable rotation-system embedding."""

    def __init__(self, rotations: Mapping[int, Sequence[int]], outer_darts: Iterable[Dart]):
        rot = rotations if type(rotations) is _Rotations else _coerce(rotations)
        succ = _successors(rot) if rot.succ is None else rot.succ
        traced = _checked_trace(rot, succ)
        if traced is None:
            self._validate_structure(rot)  # raises the first defect it finds
        walks, walk_of = traced
        comp_of = _components(rot)
        self._check_euler(rot, walks, comp_of)
        outer = self._resolve_outer(rot, walks, walk_of, comp_of, outer_darts)

        self._rotations = rot  # as given: each rotation starts anywhere
        self._outer_darts = outer
        self._walks = walks
        self._outer_ids = tuple(walk_of[d] for d in outer)  # ascending
        self._walk_of_dart = walk_of
        self._succ = succ
        self._comp_of = comp_of
        self._memo: dict = {}

    # -- construction-time checks -------------------------------------

    @staticmethod
    def _validate_structure(rot: _Rotations) -> None:
        adj = {v: set(ns) for v, ns in rot.items()}
        for v, ns in rot.items():
            if v in adj[v]:
                raise SelfLoop(f"vertex {v} lists itself as a neighbor")
            if len(adj[v]) != len(ns):
                raise ParallelEdge(f"vertex {v} lists a neighbor twice")
            for w in ns:
                if w not in rot:
                    raise AsymmetricAdjacency(f"{v} lists unknown vertex {w}")
                if v not in adj[w]:
                    raise AsymmetricAdjacency(f"{v} lists {w} but {w} does not list {v}")

    @staticmethod
    def _check_euler(rot: _Rotations, walks: list[tuple[Dart, ...]], comp_of: dict[int, int]):
        # Each edged component has V-E+F = 2 - 2g <= 2 (g its genus), so
        # the totals reach 2 per edged component only when each one does;
        # the per-component count below runs only to name the failure.
        degrees = list(map(len, rot.values()))
        isolated = degrees.count(0)
        edged = len(set(comp_of.values())) - isolated
        if len(rot) - isolated - sum(degrees) // 2 + len(walks) == 2 * edged:
            return
        n_verts, n_darts = Counter(), Counter()
        for v, ns in rot.items():
            n_verts[comp_of[v]] += 1
            n_darts[comp_of[v]] += len(ns)
        n_walks = Counter(comp_of[w[0][0]] for w in walks)
        for c, dv in n_darts.items():
            v, e, f = n_verts[c], dv // 2, n_walks[c]
            if dv and v - e + f != 2:
                raise EulerViolation(
                    f"component of vertex {c}: V-E+F = {v}-{e}+{f} != 2 "
                    "(not a sphere embedding)"
                )

    @staticmethod
    def _resolve_outer(rot, walks, walk_of, comp_of, outer_darts) -> tuple[Dart, ...]:
        chosen: dict[int, int] = {}  # component -> walk index
        for d in outer_darts:
            try:
                u, v = d
            except (TypeError, ValueError):
                raise BadParameter(f"outer dart {d!r} is not a pair") from None
            d = (_vertex_id(u), _vertex_id(v))
            if d not in walk_of:
                raise BadParameter(f"outer dart {d} is not a dart of the graph")
            c = comp_of[d[0]]
            w = walk_of[d]
            if c in chosen and chosen[c] != w:
                raise NestedComponent(
                    f"component of vertex {d[0]} has two distinct outer face designations"
                )
            chosen[c] = w
        edged = {comp_of[v] for v, ns in rot.items() if ns}
        missing = edged - set(chosen)
        if missing:
            v = min(missing)
            raise NestedComponent(f"component of vertex {v} has no outer face designation")
        return tuple(sorted(walks[w][0] for w in chosen.values()))

    # -- value semantics ------------------------------------------------

    @property
    def _rot(self) -> dict[int, tuple[int, ...]]:
        """The rotations, each from its smallest neighbour, built on first use."""
        rot, given = self._memo.get("rot"), self._rotations
        if rot is None:
            rot = self._memo["rot"] = dict(zip(given, map(_canonical_rotation, given.values())))
        return rot

    @property
    def _key(self) -> tuple:
        """Sorted canonical rotations and outer darts, built on first use."""
        key = self._memo.get("key")
        if key is None:
            key = self._memo["key"] = (tuple(sorted(self._rot.items())), self._outer_darts)
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Embedding):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        n, m, f = self.vertex_count, self.edge_count, len(self._walks)
        return f"Embedding({n} vertices, {m} edges, {f} face walks)"

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._rotations))

    @property
    def vertex_count(self) -> int:
        return len(self._rotations)

    def rotation(self, v: int) -> tuple[int, ...]:
        """Cyclic neighbor order at v (canonical start)."""
        return self._rot[v]

    def degree(self, v: int) -> int:
        return len(self._rotations[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._succ

    @property
    def edges(self) -> tuple[Edge, ...]:
        memo = self._memo.get("edges")
        if memo is None:
            pairs = ((v, w) for v, ns in self._rotations.items() for w in ns if v < w)
            memo = self._memo["edges"] = tuple(sorted(pairs))
        return memo

    @property
    def edge_count(self) -> int:
        return len(self._succ) // 2

    @property
    def darts(self) -> tuple[Dart, ...]:
        return tuple(sorted(self._walk_of_dart))

    @property
    def outer_darts(self) -> tuple[Dart, ...]:
        return self._outer_darts

    @property
    def faces(self) -> tuple[FaceWalk, ...]:
        """The face walks in walk order, as records built on first use."""
        faces = self._memo.get("faces")
        if faces is None:
            is_outer = [False] * len(self._walks)
            for i in self._outer_ids:
                is_outer[i] = True
            faces = self._memo["faces"] = tuple(map(FaceWalk, self._walks, is_outer))
        return faces

    @property
    def outer_faces(self) -> tuple[FaceWalk, ...]:
        faces = self.faces
        return tuple(faces[i] for i in self._outer_ids)

    @property
    def inner_faces(self) -> tuple[FaceWalk, ...]:
        return tuple(f for f in self.faces if not f.is_outer)

    def face_index_of_dart(self, d: Dart) -> int:
        return self._walk_of_dart[d]

    @property
    def outer_vertices(self) -> frozenset[int]:
        """Vertices on the outer region, isolated vertices included."""
        memo = self._memo.get("outer_vertices")
        if memo is None:
            on_walks = chain.from_iterable(map(_origin, self._walks[i]) for i in self._outer_ids)
            isolated = (v for v, ns in self._rotations.items() if not ns)
            memo = self._memo["outer_vertices"] = frozenset(chain(on_walks, isolated))
        return memo

    @property
    def components(self) -> tuple[frozenset[int], ...]:
        memo = self._memo.get("components")
        if memo is None:
            groups: dict[int, set[int]] = {}
            for v, c in self._comp_of.items():
                groups.setdefault(c, set()).add(v)
            memo = self._memo["components"] = tuple(frozenset(groups[c]) for c in sorted(groups))
        return memo

    @property
    def is_connected(self) -> bool:
        return len(set(self._comp_of.values())) <= 1

    def rotations_dict(self) -> dict[int, list[int]]:
        """Mutable copy of the rotation map."""
        return {v: list(ns) for v, ns in self._rot.items()}


# -- Face tracing -------------------------------------------------------------


def _trace(rot: Mapping[int, Sequence[int]], succ: Mapping[Dart, Dart] | None = None) -> Traced:
    """Partition all darts into face walks under the successor rule.

    Walks follow one successor map, ``_successors(rot)`` unless given.
    Darts are visited in sorted order, so each walk starts at its minimal
    dart and walks are numbered by it.  A dart d whose successors s and t
    close back to it is a triangle, stored from three lookups; any other
    walk, a 2-dart one included (its t is d), is followed until it comes
    back to d.  That stop is sound because the map is one-to-one: each
    vertex's rotation names each neighbour once, so every walk returns to
    its start or reaches a dart with no successor, which raises
    ``KeyError``.  :func:`_checked_trace` tests the count of keys first.
    """
    if succ is None:
        succ = _successors(rot)
    walk_of: dict[Dart, int] = {}
    walks: list[tuple[Dart, ...]] = []
    for v in sorted(rot):
        for w in sorted(rot[v]):
            d = (v, w)
            if d in walk_of:
                continue
            i = len(walks)
            s = succ[d]
            t = succ[s]
            if succ[t] == d:
                walk_of[d] = walk_of[s] = walk_of[t] = i
                walks.append((d, s, t))
                continue
            walk = [d, s]
            walk_of[d] = walk_of[s] = i
            while t != d:
                walk.append(t)
                walk_of[t] = i
                t = succ[t]
            walks.append(tuple(walk))
    return walks, walk_of


def _checked_trace(rot: Mapping[int, Sequence[int]], succ: Mapping[Dart, Dart]) -> Traced | None:
    """``_trace(rot, succ)``, or None when rot is not a valid rotation system.

    rot is valid (simple and symmetric) when no vertex lists itself, no
    rotation repeats a neighbour, and every listed neighbour lists the
    vertex back.  ``succ = _successors(rot)``, built by the constructor or
    handed in and proven so by :func:`_read_rotations`, has a key (t, v)
    for each t in the rotation at v, so the first two hold when it has no
    key (v, v) and one key per dart, and the third when the trace, which
    looks up the successor of every dart, finds each one.
    """
    if len(succ) != sum(map(len, rot.values())):
        return None
    if not succ.keys().isdisjoint(zip(rot, rot)):
        return None
    try:
        return _trace(rot, succ)
    except KeyError:
        return None


def _successors(rot: Mapping[int, Sequence[int]]) -> dict[Dart, Dart]:
    """Each dart (t, v) mapped to (v, s), s after t in the rotation at v."""
    succ: dict[Dart, Dart] = {}
    for v, ns in rot.items():
        if ns:
            t = ns[-1]
            for s in ns:
                succ[(t, v)] = (v, s)
                t = s
    return succ


class _Rotations(dict):
    """A rotation map of int tuples, which ``Embedding`` takes without
    ``_coerce``; ``succ`` is the successor map it was read off, proven
    to be its ``_successors`` by :func:`_read_rotations`, or None."""

    succ: dict[Dart, Dart] | None = None


def _coerce(rotations: Mapping[int, Sequence[int]]) -> _Rotations:
    """The rotation map with tuple rotations; every id must be an integer."""
    rot = _Rotations((v, tuple(ns)) for v, ns in rotations.items())
    if {*map(type, rot), *map(type, chain.from_iterable(rot.values()))} - {int}:
        rot = _Rotations((_vertex_id(v), tuple(map(_vertex_id, ns))) for v, ns in rot.items())
    return rot


def _read_rotations(nbr: Mapping[int, int | None], succ: dict[Dart, Dart]) -> _Rotations:
    """The rotations read off a successor map, carrying it once proven.

    The rotation at x runs from ``nbr[x]`` (None: isolated) by ``s =
    succ[(t, x)][1]`` until it closes; a missing dart, or more steps than
    vertices, raises.  A closed chain repeats no neighbour, as each step
    depends only on the last, so succ is ``_successors(rot)`` if it has
    one key per dart read and every value starts where its key ends.
    """
    rot = _Rotations()
    cap = len(nbr)
    try:
        for x, y in nbr.items():
            ns = [] if y is None else [y]
            while ns and (y := succ[(y, x)][1]) != ns[0]:
                ns.append(y)
                if len(ns) > cap:
                    raise InvariantViolation(f"successors at vertex {x} do not close")
            rot[x] = tuple(ns)
    except KeyError:
        raise InvariantViolation(f"no successor of dart ({y}, {x})") from None
    if len(succ) != sum(map(len, rot.values())) or not all(
        map(operator.eq, map(_head, succ), map(_origin, succ.values()))
    ):
        raise InvariantViolation("successor map does not match its rotations")
    rot.succ = succ
    return rot


def _vertex_id(x: object) -> int:
    """x as a vertex id: an int, or any type with ``__index__`` but bool."""
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise BadParameter(f"vertex id {x!r} is not an integer")
    return operator.index(x)


def _components(rot: Mapping[int, Iterable[int]]) -> dict[int, int]:
    """Map each vertex to the smallest vertex of its component."""
    comp: dict[int, int] = {}
    for v in sorted(rot):
        if v in comp:
            continue
        seen = frontier = {v}
        while frontier:  # one breadth-first level per step, in C
            frontier = set(chain.from_iterable(map(rot.__getitem__, frontier)))
            frontier -= seen
            seen |= frontier
        comp.update(dict.fromkeys(seen, v))
    return comp


# -- Public operations --------------------------------------------------------


def is_triangulated_disk(emb: Embedding) -> bool:
    """Outer face a simple cycle of length >= 3, all inner faces triangles."""
    disk = emb._memo.get("is_disk")
    if disk is None:
        disk = False
        if emb.is_connected and len(emb._outer_ids) == 1:
            lengths = list(map(len, emb._walks))
            outer = emb._walks[emb._outer_ids[0]]
            disk = (
                len(outer) >= 3
                and len(set(map(_origin, outer))) == len(outer)
                and lengths.count(3) == len(lengths) - (len(outer) != 3)
            )
        emb._memo["is_disk"] = disk
    return disk


def is_triangulation(emb: Embedding) -> bool:
    """Every face (outer included) a triangle; at least 3 vertices: a
    triangulated disk whose outer walk, its only one, has 3 darts."""
    return is_triangulated_disk(emb) and len(emb._walks[emb._outer_ids[0]]) == 3


# -- Edge insertion (used by peeling, triangulation and the oracles) ----------


class _FaceBuilder:
    """Mutable copy of an embedding that grows by one edge at a time.

    The one edge-insertion primitive: callers copy an embedding in, link
    corners, and validate once at the end with :meth:`embedding`, which
    hands ``nxt`` to the embedding.  It is a pointer half-edge structure
    (the DCEL of de Berg et al., *Computational Geometry*, ch. 2).  Each
    dart's successor ``nxt`` under the face rule is the one record of
    rotation and adjacency: (a, c) is an edge when it is a key, and
    :meth:`rotations` reads the rotations off it from ``nbr``, one
    neighbour per vertex (None if isolated).  It also holds the inverse
    of ``nxt`` from the first :meth:`pred` on, each dart's walk id
    ``wid``, each walk's length ``size``, and ``outer``, the ids of the
    outer walks; no walk is stored as a dart sequence.  A walk's minimal
    dart comes from its lazy-deletion min-heap and its vertex-occurrence
    counts from a map, each built on first request and then kept up to date.

    A *corner* is named by the dart ``(t, x)`` on which a walk enters x;
    the walk leaves x on ``(x, s)`` with s the successor of t in the
    rotation at x.  An isolated vertex x has the one corner ``(None, x)``.
    """

    def __init__(self, emb: Embedding):
        self.nbr = {v: ns[0] if ns else None for v, ns in emb._rotations.items()}
        self.nxt = dict(emb._succ)
        self.wid = dict(emb._walk_of_dart)
        self.size = dict(enumerate(map(len, emb._walks)))
        self.outer = set(emb._outer_ids)
        self._walks = emb._walks
        self._heaps: dict[int, list[Dart]] = {}  # built on first use
        self._counts: dict[int, dict[int, int]] = {}
        self._prv: dict[Dart, Dart] | None = None  # none until a pred
        self._fresh = count(len(self.size))

    def first(self, i: int) -> Dart:
        """The minimal dart of walk i, from its heap."""
        heap = self._heap(i)
        while self.wid[heap[0]] != i:
            heapq.heappop(heap)
        return heap[0]

    def darts(self, start: Dart) -> list[Dart]:
        """The walk through ``start``, from it."""
        darts = [start]
        d = self.nxt[start]
        while d != start:
            darts.append(d)
            d = self.nxt[d]
        return darts

    def pred(self, d: Dart) -> Dart:
        """The dart before d on its walk."""
        if self._prv is None:
            self._prv = {s: d for d, s in self.nxt.items()}
        return self._prv[d]

    def counts(self, i: int) -> dict[int, int]:
        """Vertex -> occurrences on walk i."""
        c = self._counts.get(i)
        if c is None:
            c = self._counts[i] = _origin_counts(self.darts(self.first(i)))
        return c

    def is_simple(self, i: int) -> bool:
        """True when no vertex repeats on walk i."""
        return self.size[i] == 3 or len(self.counts(i)) == self.size[i]

    def link(self, corner_u: Dart, corner_v: Dart) -> tuple[int, ...]:
        """Add the edge (u, v) between two corners; return the new walk ids.

        Each endpoint gets the other right after t in its rotation, which
        is where its corner sits, and four successors are rewired.  Two
        corners of one walk split it into (u, v) followed by the darts
        after v's corner through u's, and (v, u) followed by the rest; the
        first part keeps the walk's outer mark.  The parts are walked in
        lockstep and only the shorter gets a fresh id, so a split costs
        O(shorter part) and a dart changes id O(log n) times.  Joins happen
        only across the outer region: corners of two outer walks, or of an
        isolated vertex, join into one outer walk (:meth:`_join`).  Each
        new dart is one tuple, shared by the maps, lists and heaps that
        hold it, and the lockstep walk stops on it.
        """
        u, v = corner_u[1], corner_v[1]
        uv, vu = (u, v), (v, u)
        nxt, prv, wid = self.nxt, self._prv, self.wid
        w, w_v = wid.get(corner_u), wid.get(corner_v)
        for corner, out, back in ((corner_u, uv, vu), (corner_v, vu, uv)):
            if corner[0] is None:
                self.nbr[corner[1]] = out[1]
                nxt[back] = out
                if prv is not None:
                    prv[out] = back
            else:
                s = nxt[corner]
                nxt[back], nxt[corner] = s, out
                if prv is not None:
                    prv[s], prv[out] = back, corner
        if w is None or w != w_v:
            return (self._join(uv, vu, w, w_v),)
        f = next(self._fresh)
        side_u, side_v = [uv], [vu]
        p, q = nxt[uv], nxt[vu]
        while p is not uv and q is not vu:
            side_u.append(p)
            side_v.append(q)
            p, q = nxt[p], nxt[q]
        first_short = p is uv
        darts, long = (side_u, vu) if first_short else (side_v, uv)
        outer = first_short and w in self.outer
        if outer:
            self.outer.remove(w)
        wid[long] = w
        self.size[w] += 2 - len(darts)
        heapq.heappush(self._heap(w), long)
        c = self._counts.get(w)
        if c is not None:
            part = _origin_counts(darts)
            c[u] += 1
            c[v] += 1
            for x, k in part.items():
                if c[x] == k:
                    del c[x]
                else:
                    c[x] -= k
        self._relabel(darts, f, outer)
        return (f, w) if first_short else (w, f)

    def _join(self, uv: Dart, vu: Dart, w_u: int | None, w_v: int | None) -> int:
        """Join the walks w_u and w_v (None: an isolated vertex) across the
        new darts uv = (u, v) and vu = (v, u).

        The longer walk keeps its id.  The shorter side's darts and the
        two new ones take that id, join its heap and add to its counts, so
        a join costs O(shorter side) and a dart changes id O(log n) times.
        Two isolated vertices make a fresh 2-dart walk.  Joins happen only
        across the outer region, each walk outer or None, so the kept walk
        is marked outer already.
        """
        if w_u is None and w_v is None:
            f = next(self._fresh)
            self._relabel([uv, vu], f, True)
            return f
        if w_u is None or (w_v is not None and self.size[w_v] > self.size[w_u]):
            keep, drop, start, stop = w_v, w_u, vu, uv
        else:
            keep, drop, start, stop = w_u, w_v, uv, vu
        darts = [start]
        d = self.nxt[start]
        while d is not stop:
            darts.append(d)
            d = self.nxt[d]
        darts.append(stop)
        self.outer.discard(drop)
        self.size[keep] += self.size.pop(drop, 0) + 2
        self._heaps.pop(drop, None)
        self._counts.pop(drop, None)
        self.wid.update(dict.fromkeys(darts, keep))
        heap = self._heap(keep)
        for d in darts:
            heapq.heappush(heap, d)
        c = self._counts.get(keep)
        if c is not None:
            for x, _ in darts:
                c[x] = c.get(x, 0) + 1
        return keep

    def _heap(self, i: int) -> list[Dart]:
        """Walk i's min-heap of darts, made from its input face if it has none."""
        heap = self._heaps.get(i)
        if heap is None:
            heap = self._heaps[i] = list(self._walks[i])
            heapq.heapify(heap)
        return heap

    def _relabel(self, darts: list[Dart], f: int, outer: bool) -> None:
        """Give the whole walk ``darts`` the fresh id f."""
        self.wid.update(dict.fromkeys(darts, f))
        self.size[f] = len(darts)
        heapq.heapify(darts)
        self._heaps[f] = darts
        if outer:
            self.outer.add(f)

    def fan(self, walk: Sequence[Dart], pos: int) -> list[int]:
        """Link the corner of ``walk[pos]``'s origin w across the walk.

        The targets are the walk's vertices other than w and not adjacent
        to it, each at its first occurrence; they are linked, and returned,
        in walk order from w, so each spoke stays inside the part of the
        face that holds the targets still to come.
        """
        w = walk[pos][0]
        first: dict[int, int] = {}
        for j, (x, _) in enumerate(walk):
            first.setdefault(x, j)
        targets = [j for x, j in first.items() if x != w and (w, x) not in self.nxt]
        targets.sort(key=lambda j: (j - pos) % len(walk))
        for j in targets:
            self.link(walk[pos - 1], walk[j - 1])
        return [walk[j][0] for j in targets]

    def rotations(self) -> _Rotations:
        """The rotation at every vertex, read off ``nxt``, which the result carries."""
        return _read_rotations(self.nbr, self.nxt)

    def embedding(self, outer_darts: Iterable[Dart] | None = None) -> Embedding:
        """Validate the current state as an embedding, outer at the outer
        walks' minimal darts unless given.  It keeps ``nxt``: link no more."""
        if outer_darts is None:
            outer_darts = [self.first(i) for i in self.outer]
        return Embedding(self.rotations(), outer_darts)


def _origin_counts(darts: Iterable[Dart]) -> dict[int, int]:
    """Vertex -> how many of ``darts`` leave it."""
    c: dict[int, int] = {}
    for x, _ in darts:
        c[x] = c.get(x, 0) + 1
    return c
