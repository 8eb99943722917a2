"""Onion-peel decompositions and outer-face-rooted spanning forests.

The i-th peel of an embedding is the set of outer-region vertices after
i-1 rounds of deleting all outer-region vertices; the number of nonempty
peels is the outerplanarity of this particular embedding.  Peels are
computed without deleting anything, by one breadth-first search over the
radial graph, whose nodes are the vertices and the face walks, with an
edge wherever a vertex lies on a face.  Started from the outer walks, the
search reaches a vertex of peel i at radial distance 2i-1: deleting peel
i-1 merges exactly the faces at distance 2i-2 into the outer region, and
every face it does not touch survives as the same walk.  This is the
layering of Baker's technique (also Bienstock & Monma, 1990).

Saturation adds edges inside each inner face so that every vertex one peel
deep gains a neighbor one peel up, after which a multi-source BFS from the
outer vertices yields a spanning forest whose height is at most (peel
count - 1).  :func:`validate_forest` checks a forest's shape only; the
height bound is certified where the forest is used, in
``branchdecomp.decompose_pipeline``.  Peels are cached on the embedding
value, which is immutable, so caches never go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .embedding import Edge, Embedding, _FaceBuilder, _origin
from .errors import InvariantViolation, UnreachableVertex


@dataclass(frozen=True)
class PeelDecomposition:
    """Nonempty vertex layers L_1..L_k partitioning the vertex set."""

    layers: tuple[frozenset[int], ...]

    @property
    def k(self) -> int:
        return len(self.layers)

    def index_of(self) -> dict[int, int]:
        """Vertex -> 1-based peel index."""
        return {v: i + 1 for i, layer in enumerate(self.layers) for v in layer}


@dataclass(frozen=True)
class RootedForest:
    """Spanning forest with every tree rooted at one outer-face vertex."""

    parent: Mapping[int, int]  # roots unmapped
    depth: Mapping[int, int]
    roots: frozenset[int]

    @property
    def height(self) -> int:
        return max(self.depth.values(), default=0)

    def root_path(self, v: int) -> list[int]:
        """Vertices from v up to (and including) its root.

        A path longer than the parent map can hold has met a cycle, which
        raises :class:`InvariantViolation` naming v.
        """
        path = [v]
        while path[-1] in self.parent:
            if len(path) > len(self.parent):
                raise InvariantViolation(
                    f"no root above vertex {v!r}: the parent map has a cycle"
                )
            path.append(self.parent[path[-1]])
        return path

    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (min(v, p), max(v, p)) for v, p in self.parent.items()
        )


def onion_peels(emb: Embedding) -> PeelDecomposition:
    """Peel layers of a fixed embedding, by one radial BFS.

    The search runs over the embedding's own walk map: the faces of a
    vertex v are the walks of its darts (v, w), and a face's vertices are
    its darts' origins.  It starts from every outer walk at once, so each
    component of a disconnected embedding peels from its own outer walk,
    exactly as iterated removal of the outer-region vertices would;
    isolated vertices count as outer.  Layer i holds the vertices at
    radial distance 2i-1 from the outer walks.  Cost is O(V + E),
    independent of the peel count; a vertex left unreached raises a bug
    certificate.
    """
    memo = emb._memo.get("peels")
    if memo is None:
        memo = emb._memo["peels"] = _radial_peels(emb, emb._outer_ids)
    return memo


def _radial_peels(emb: Embedding, start: Iterable[int]) -> PeelDecomposition:
    """The radial BFS layers of ``emb`` from the walk ids ``start`` and the isolated vertices."""
    rot, walk_of, walks = emb._rotations, emb._walk_of_dart, emb._walks
    reached = set(start)
    layer = {v for v, ns in rot.items() if not ns}
    layer.update(d[0] for i in reached for d in walks[i])
    placed: set[int] = set()
    layers = []
    while layer:
        layers.append(frozenset(layer))
        placed |= layer
        new = {walk_of[v, w] for v in layer for w in rot[v]} - reached
        reached |= new
        layer = {d[0] for i in new for d in walks[i]} - placed
    if len(placed) != len(rot):
        missing = sorted(rot.keys() - placed)
        raise InvariantViolation(f"radial search never reached vertices {missing[:5]}")
    return PeelDecomposition(layers=tuple(layers))


def saturate_inward_neighbors(emb: Embedding) -> Embedding:
    """Add edges inside inner faces so every deep vertex sees the peel above.

    In each inner face, the vertex w in the smallest-index peel (ties:
    smallest id, first occurrence) is fanned to every face vertex not
    already adjacent to it.  Peels are taken from the input embedding; the
    outer face is untouched and the peel count never increases.
    """
    b = _FaceBuilder(emb)
    _saturate(b, emb)
    return b.embedding()


def _saturate(b: _FaceBuilder, emb: Embedding) -> list[Edge]:
    """Fan the inner faces of ``emb`` inside its builder ``b``.

    Returns the added edges in insertion order, one :meth:`_FaceBuilder.fan`
    per inner face that is not a triangle.
    """
    index = onion_peels(emb).index_of()
    added = []
    outer = set(emb._outer_ids)
    for i, walk in enumerate(emb._walks):
        if len(walk) == 3 or i in outer:  # a triangle's vertices are adjacent
            continue
        verts = tuple(map(_origin, walk))
        anchor_pos = min(range(len(verts)), key=lambda p: (index[verts[p]], verts[p]))
        added += [(verts[anchor_pos], v) for v in b.fan(walk, anchor_pos)]
    return added


def build_rooted_forest(emb: Embedding) -> RootedForest:
    """Multi-source BFS forest from all outer-face vertices.

    Every outer vertex is a depth-0 root; each remaining vertex adopts the
    smallest-id neighbor in the previous level as its parent.  On a
    saturated embedding the height is at most (peel count - 1).
    """
    roots = sorted(emb.outer_vertices)
    depth: dict[int, int] = {r: 0 for r in roots}
    parent: dict[int, int] = {}
    level = roots
    d = 0
    while level:
        d += 1
        candidates: dict[int, int] = {}
        for u in level:
            for v in emb._rotations[u]:
                if v in depth:
                    continue
                if v not in candidates or u < candidates[v]:
                    candidates[v] = u
        level = sorted(candidates)
        for v in level:
            parent[v] = candidates[v]
            depth[v] = d
    missing = emb._rotations.keys() - depth.keys()
    if missing:
        raise UnreachableVertex(
            f"no path to the outer face from: {sorted(missing)[:5]}"
        )
    return RootedForest(parent=parent, depth=depth, roots=frozenset(roots))


def validate_forest(emb: Embedding, forest: RootedForest) -> None:
    """Check spanning, no extra vertex, outer roots, depth coherence, acyclicity.

    Depth coherence (every parent one level up) already rules out parent
    cycles, so the root paths are checked in one pass in depth order:
    each vertex takes its path's top and its count of outer vertices
    from its parent.  The pass is linear after one sort by depth, itself
    linear when the depth map lists the levels in order, as
    :func:`build_rooted_forest`'s does.
    """
    verts = set(emb._rotations)
    covered = set(forest.depth)
    if not verts <= covered:
        raise UnreachableVertex(
            f"forest does not span: missing {sorted(verts - covered)[:5]}"
        )
    if covered != verts:  # named in depth-map order: no sort, so any key type
        extra = [v for v in forest.depth if v not in verts][:5]
        raise InvariantViolation(f"forest covers vertices outside the embedding: {extra}")
    outer = emb.outer_vertices
    for r in forest.roots:
        if r not in outer:
            raise InvariantViolation(f"root {r} is not an outer vertex")
    parent, depth, roots = forest.parent, forest.depth, forest.roots
    for v, p in parent.items():
        if not emb.has_edge(v, p):
            raise InvariantViolation(f"forest edge ({v},{p}) not in embedding")
        if depth[v] != depth[p] + 1:
            raise InvariantViolation(f"depth({v}) != depth({p}) + 1")
    top: dict[int, int] = {}  # vertex -> the parentless end of its root path
    n_outer: dict[int, int] = {}  # vertex -> outer vertices on its root path
    for v in sorted(depth, key=depth.__getitem__):
        p = parent.get(v)
        if p is None:
            top[v] = v
            n_outer[v] = int(v in outer)
        else:
            top[v] = top[p]
            n_outer[v] = n_outer[p] + (v in outer)
    for v in verts:
        if (v in roots) == (v in parent):
            raise InvariantViolation(f"vertex {v}: exactly one of root/parented")
        if top[v] not in roots:
            raise UnreachableVertex(f"vertex {v} has no root path")
        if n_outer[v] != 1:
            raise InvariantViolation(
                f"tree of {v} contains {n_outer[v]} outer vertices"
            )
