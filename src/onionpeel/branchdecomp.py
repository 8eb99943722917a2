"""Branch decompositions of triangulated disks from rooted forests.

The duals of the edges that are neither forest edges nor on the outer
cycle form a tree T* on the inner faces (tree-co-tree: the forest plus
all but one outer edge is a spanning tree, so the remaining duals span
the dual graph, with the outer face as a leaf).  Subdividing every arc of
T* and hanging one leaf per graph edge yields a degree-<=3 tree whose
leaf assignment is a branch decomposition; a forest of height h-1 bounds
its width by 2h because every cut is covered by at most two root paths
plus one edge.  :func:`build_branch_tree` is the one builder.  Its edge
loop leaves the tree in a compact form, face nodes joined through arc
nodes, and the tree stores that form as it is.  :func:`_cut_pass`, the
one cut routine, computes and certifies every cut in one bottom-up pass
over the face nodes; it runs once more on the stored form, uncertified,
when ``bd.cuts`` is first read.  The sorted arcs, the leaf assignment
and the node and cut records are built only when first read.
:func:`verify_tree_cotree` reaches T* by the tree-co-tree route instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count
from typing import Collection, NamedTuple

from .embedding import Edge, Embedding, _components, is_triangulated_disk
from .errors import (
    BoundViolated,
    DegreeOverflow,
    InvariantViolation,
    NotADisk,
    NotATree,
)
from .peeling import RootedForest, build_rooted_forest, onion_peels, validate_forest
from .triangulate import to_triangulated_disk


class BDNode(NamedTuple):
    id: int
    kind: str  # 'face' | 'arc' | 'edge'
    face: int | None = None  # face index (face nodes)
    edge: Edge | None = None  # graph edge (edge nodes; subdivided dual for arc nodes)


class ArcCut(NamedTuple):
    arc: tuple[int, int]
    crossing: frozenset[int]


@dataclass(frozen=True)
class BranchDecomposition:
    """Degree-<=3 tree with one leaf per graph edge, and every arc's cut.

    Node ids are positions: the face nodes, then the arc nodes, then the
    edge-node leaves.  The tree is stored in the compact form that the
    builder's edge loop makes and :func:`_cut_pass` reads: each face
    node's inner-face index, each arc node's edge and two face nodes, and
    each leaf's node and edge.  ``arcs``, ``assignment``, ``nodes`` and
    ``cuts`` are built from the stored fields when first read; equality
    and hashing use the stored fields, which determine all four.
    """

    width: int
    faces: tuple[int, ...]  # per face node, its inner face's index
    arc_edges: tuple[Edge, ...]  # per arc node, the edge it subdivides
    ends: tuple[int, ...]  # per arc node, its two face nodes
    hangs: tuple[int, ...]  # per leaf, the node it hangs from
    edges: tuple[Edge, ...]  # per leaf, its edge, in edge order

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Every arc, sorted; face ids < arc ids < leaf ids, so each is (min, max)."""
        first_arc = len(self.faces)
        arcs = [(f, first_arc + j // 2) for j, f in enumerate(self.ends)]
        arcs += zip(self.hangs, count(first_arc + len(self.arc_edges)))
        arcs.sort()
        return tuple(arcs)

    @cached_property
    def assignment(self) -> dict[Edge, int]:
        """Each edge's leaf, in leaf order."""
        return dict(zip(self.edges, count(len(self.faces) + len(self.arc_edges))))

    @cached_property
    def nodes(self) -> tuple[BDNode, ...]:
        first_arc = len(self.faces)
        first_leaf = first_arc + len(self.arc_edges)
        return (
            *(BDNode(i, "face", f) for i, f in enumerate(self.faces)),
            *(BDNode(a, "arc", None, e) for a, e in enumerate(self.arc_edges, first_arc)),
            *(BDNode(leaf, "edge", None, e) for leaf, e in enumerate(self.edges, first_leaf)),
        )

    @cached_property
    def cuts(self) -> tuple[ArcCut, ...]:
        """Every arc's crossing set, in arc order, from one more cut pass."""
        crossing: dict[tuple[int, int], frozenset[int]] = {}
        _cut_pass(len(self.faces), self.ends, self.hangs, self.edges, cuts=crossing)
        return tuple(ArcCut(arc, c) for arc, c in sorted(crossing.items()))


@dataclass(frozen=True)
class WidthCertificate:
    """Achieved peel count, forest height, width, the certified bounds and tree."""

    peel_count: int
    forest_height: int
    width: int
    width_bound: int  # 2 * (forest_height + 1)
    tw_bound: int
    disk_peel_count: int  # of the triangulated disk the tree was built on
    tree: BranchDecomposition = field(repr=False, compare=False)


def build_branch_tree(disk: Embedding, forest: RootedForest) -> BranchDecomposition:
    """The certified branch tree of a triangulated disk and its rooted forest.

    Face nodes are the inner faces, in face order.  Every edge neither in
    the forest nor on the outer cycle is a dual arc, subdivided by an arc
    node; arc nodes follow in edge order.  Then one edge-node leaf per
    graph edge, in edge order, hangs from its arc node, or else from the
    inner face on the side of its canonical dart (the unique inner side
    for outer edges).  Face nodes keep degree <= 3 because a triangle
    contributes at most one incidence per edge.

    The edge loop leaves the tree in compact form, each arc node's two
    faces and each leaf's node, and :func:`_cut_pass` checks it and
    computes and certifies every cut in one pass over the face nodes: a
    leaf arc's crossing must lie within its edge and a face arc's on the
    forest separator of its arc node's edge (:func:`_on_separator`, O(1)
    per vertex after one O(V) preorder of the forest); then the width
    must be at most 2(h+1).  All are bug certificates.  The tree keeps
    the compact form; its sorted ``arcs`` and its ``assignment`` are
    built only when read.  With the disk's sorted edge list given, the
    build costs O(V + E * (width + h)), h the forest height: one pass over
    the edges, one preorder of the forest, a climb of at most h parents
    per arc node to key its separator, and the cut pass.
    """
    if not is_triangulated_disk(disk):
        raise NotADisk("branch tree requires a triangulated disk")
    validate_forest(disk, forest)
    parent = forest.parent
    face_of = disk._walk_of_dart
    outer_idx = face_of[disk.outer_darts[0]]
    n_walks = len(disk._walks)
    # inner faces are numbered in face order, skipping the outer face
    faces = (*range(outer_idx), *range(outer_idx + 1, n_walks))
    node_of_face = [*range(outer_idx), -1, *range(outer_idx, n_walks - 1)]
    first_arc = len(faces)
    arc_edges: list[Edge] = []
    ends: list[int] = []  # per arc node, its two face nodes
    hangs: list[int] = []  # per edge, the node its leaf hangs from
    edges = disk.edges
    for e in edges:
        u, v = e
        f1 = face_of[u, v]
        f2 = face_of[v, u]
        # an edge flanks the outer face iff it lies on the outer cycle
        if f1 == outer_idx or f2 == outer_idx or parent.get(u) == v or parent.get(v) == u:
            side = f2 if f1 == outer_idx else f1
            if side == outer_idx:
                raise InvariantViolation(f"edge {e} has no inner side")
            hangs.append(node_of_face[side])
        else:
            hangs.append(first_arc + len(arc_edges))
            arc_edges.append(e)
            ends += node_of_face[f1], node_of_face[f2]
    intervals = _forest_intervals(forest)
    keys = [_separator_key(intervals, parent, u, v) for u, v in arc_edges]
    width = _cut_pass(first_arc, ends, hangs, edges, intervals, keys)
    bound = 2 * (forest.height + 1)
    if width > bound:
        raise BoundViolated(f"width {width} exceeds 2(h+1) = {bound}")
    return BranchDecomposition(width, faces, tuple(arc_edges), tuple(ends), tuple(hangs), edges)


def _check_tree(nodes, arcs) -> None:
    if len(arcs) != len(nodes) - 1:
        raise NotATree(f"{len(nodes)} nodes but {len(arcs)} arcs")
    adj: dict[int, list[int]] = {n: [] for n in nodes}
    for a, b in arcs:
        adj[a].append(b)
        adj[b].append(a)
    if len(set(_components(adj).values())) > 1:
        raise NotATree("arc set leaves the node set disconnected")


def verify_tree_cotree(disk: Embedding, forest: RootedForest) -> None:
    """Independent route to T*: spanning tree plus dual co-tree.

    The forest edges plus all but one outer edge (the one with the
    smallest canonical dart) form a spanning tree; the duals of the
    remaining edges must form a spanning tree of the dual graph in which
    the outer face is a leaf.  Deleting that leaf must give exactly the
    face pairs that the arc nodes of :func:`build_branch_tree` join.
    """
    forest_edges = forest.edges()
    outer_edges = frozenset(disk.outer_faces[0].edges())
    excluded = min(outer_edges)
    tree_edges = forest_edges | (outer_edges - {excluded})
    if len(tree_edges) != disk.vertex_count - 1:
        raise InvariantViolation("forest + outer cycle minus one is not spanning")
    _check_tree(tuple(disk.vertices), sorted(tree_edges))
    co_arcs = []
    for e in disk.edges:
        if e in tree_edges:
            continue
        u, v = e
        co_arcs.append((disk.face_index_of_dart((u, v)), disk.face_index_of_dart((v, u))))
    _check_tree(tuple(range(len(disk.faces))), co_arcs)
    outer_idx = disk.face_index_of_dart(disk.outer_darts[0])
    outer_degree = sum(1 for a, b in co_arcs if outer_idx in (a, b))
    if outer_degree != 1:
        raise InvariantViolation(
            f"outer face has co-tree degree {outer_degree}, expected a leaf"
        )
    bd = build_branch_tree(disk, forest)
    joined = [bd.faces[x] for x in bd.ends]  # per arc node, the two faces it joins
    pruned = {
        (min(a, b), max(a, b)) for a, b in co_arcs if outer_idx not in (a, b)
    }
    built = {(min(fs), max(fs)) for fs in zip(joined[::2], joined[1::2])}
    if pruned != built:
        raise InvariantViolation("co-tree arcs differ from the branch tree's arc nodes")


def _cut_pass(n_faces: int, ends, hangs, edges, intervals=None, keys=None, cuts=None) -> int:
    """The width of a branch tree in compact form, by one bottom-up pass.

    Node ids are positions: ``n_faces`` face nodes, then one arc node per
    pair of ``ends`` (the two faces it joins), then one leaf per edge of
    ``edges``, hung from the node ``hangs`` names.  Given ``intervals``
    and ``keys`` (per arc node, its edge's :func:`_separator_key`), every
    cut is certified as it is made; a dict ``cuts`` receives every arc's
    crossing.  Bug certificates, in this order: a node of degree over 3,
    or a leaf with a node hung from it; ``NotATree``, with
    :func:`_check_tree`'s text, unless there is one arc node fewer than
    faces and a search over the faces reaches them all; a leaf arc's
    crossing off its edge (:func:`_on_edge`); a face arc's off its arc
    node's separator.

    Each subtree's map counts the edges below it of every vertex that
    crosses the arc above it; a vertex leaves once all its edges lie
    below, so a map holds one crossing, at most width entries.  A leaf's
    cut, its edge's endpoints with an edge elsewhere, goes straight into
    the map of the face it hangs from, or is kept for its arc node.  The
    pass visits the face nodes only, bottom up, and merges each arc node
    inline: the map of the face below is the crossing of its lower face
    arc, and adding the leaf's cut gives its upper face arc's, where only
    the leaf's endpoints need a separator test.  Maps merge small into
    large, and only the vertices whose count changed are tested for
    completion, so the pass costs O(nodes + the smaller maps' entries),
    at most O(E * width), plus the lower arcs' separator tests.
    """
    first_leaf = n_faces + len(ends) // 2
    n = first_leaf + len(edges)
    adj: list[list[int]] = [[] for _ in range(n_faces)]  # per face, its positions in ends
    for j, f in enumerate(ends):
        adj[f].append(j)
    degree = [*map(len, adj), *[2] * (first_leaf - n_faces), *[1] * len(edges)]
    for x in hangs:
        degree[x] += 1
    if max(degree) > 3 or max(degree[first_leaf:], default=1) > 1:
        for i, d in enumerate(degree):  # name the first defect
            if d > 3:
                kind = "face" if i < n_faces else "arc" if i < first_leaf else "edge"
                raise DegreeOverflow(f"node {i} ({kind}) has degree {d}")
            if d != 1 and i >= first_leaf:
                raise InvariantViolation(f"edge node {i} is not a leaf")
    if len(ends) != 2 * (n_faces - 1):
        raise NotATree(f"{n} nodes but {len(ends) + len(edges)} arcs")
    up = [-1] * n_faces  # the position in ends by which each face was reached
    up[0] = len(ends)
    order = [0]
    for x in order:
        for j in adj[x]:
            y = ends[j ^ 1]
            if up[y] < 0:
                up[y] = j ^ 1
                order.append(y)
    if len(order) != n_faces:
        raise NotATree("arc set leaves the node set disconnected")

    total = Counter(chain.from_iterable(edges))  # vertex -> its edge count
    maps = [{} for _ in range(n_faces)]  # vertex -> count, own leaves', then the subtree's
    leaf_cuts: list[Collection[int]] = [()] * (first_leaf - n_faces)  # per arc node
    width = 0
    for leaf, x, e in zip(range(first_leaf, n), hangs, edges):
        u, v = e
        crossing = e if total[u] > 1 and total[v] > 1 else tuple(w for w in e if total[w] > 1)
        if len(crossing) > width:
            width = len(crossing)
        if keys is not None and not _on_edge(e, crossing):
            raise BoundViolated(f"cut at leaf arc {(x, leaf)} not within edge {e}")
        if cuts is not None:
            cuts[x, leaf] = frozenset(crossing)
        if x >= n_faces:
            leaf_cuts[x - n_faces] = crossing
            continue
        m = maps[x]
        for w in crossing:
            m[w] = m.get(w, 0) + 1

    for x in reversed(order):
        c = maps[x]
        changed = [*c]
        i = up[x]
        for j in adj[x]:
            if j == i:
                continue
            a = j >> 1
            arc_node = n_faces + a
            y = ends[j ^ 1]
            m = maps[y]  # the crossing of the lower face arc
            if len(m) > width:
                width = len(m)
            if keys is not None and not _on_separator(keys[a], intervals, m):
                raise BoundViolated(f"cut at arc {(y, arc_node)} escapes its forest separator")
            if cuts is not None:
                cuts[y, arc_node] = frozenset(m)
            crossing = leaf_cuts[a]
            for w in crossing:
                k = m.get(w, 0) + 1
                if k == total[w]:
                    del m[w]
                else:
                    m[w] = k
            if len(m) > width:  # m is now the crossing of the upper face arc
                width = len(m)
            if keys is not None and not _on_separator(keys[a], intervals, crossing):
                raise BoundViolated(f"cut at arc {(x, arc_node)} escapes its forest separator")
            if cuts is not None:
                cuts[x, arc_node] = frozenset(m)
            if len(m) > len(c):
                c, m = m, c
            for v, k in m.items():
                c[v] = c.get(v, 0) + k
            changed += m
        for v in changed:
            if c.get(v) == total[v]:
                del c[v]
        maps[x] = c
    return width


def _on_edge(e: Edge, crossing) -> bool:
    """Whether every vertex of ``crossing`` is an endpoint of ``e``."""
    return crossing is e or all(w in e for w in crossing)


def treewidth_bound(bw: int) -> int:
    """Treewidth bound implied by branchwidth: max(1, floor(3/2 bw) - 1)."""
    return max(1, (3 * bw) // 2 - 1)


# what a vertex outside the forest reads as: no one's ancestor, below every depth
_OFF_FOREST = (0, 0, -2)


def _forest_intervals(forest: RootedForest) -> dict[int, tuple[int, int, int]]:
    """Per forest vertex w, ``(tin, end, depth)`` from one preorder.

    Each subtree takes the preorder numbers ``tin[w] .. end[w] - 1``, so
    w is v or an ancestor of v iff ``tin[w] <= tin[v] < end[w]``.
    """
    parent = forest.parent
    children: dict[int, list[int]] = {}
    for v, p in parent.items():
        children.setdefault(p, []).append(v)
    order = []
    stack = [*forest.roots]
    while stack:  # a stack pops each subtree whole, so this is a preorder
        v = stack.pop()
        order.append(v)
        stack += children.get(v, ())
    size = dict.fromkeys(order, 1)
    for v in reversed(order):
        p = parent.get(v)
        if p is not None:
            size[p] += size[v]
    depth = forest.depth
    return {v: (t, t + size[v], depth[v]) for t, v in enumerate(order)}


def _separator_key(intervals, parent, v1: int, v2: int) -> tuple[int, int, int]:
    """``(tin[v1], tin[v2], d)`` naming the forest separator of edge v1-v2.

    The separator is the root paths of v1 and v2 down from depth d: with
    one root, d is the depth of their lowest common ancestor, and the
    separator is the cycle the edge closes; across two trees d is -1 and
    both paths are whole.  v1 climbs until it is an ancestor of v2; it
    climbs past its root only when the two lie in different trees.
    """
    t1, t2 = intervals[v1][0], intervals[v2][0]
    w = v1
    s, t, d = intervals[w]
    while not s <= t2 < t:
        w = parent.get(w)
        if w is None:
            return t1, t2, -1
        s, t, d = intervals[w]
    return t1, t2, d


def _on_separator(key: tuple[int, int, int], intervals, crossing) -> bool:
    """Whether every vertex of ``crossing`` lies on the separator ``key`` names.

    w lies on it iff w is an ancestor of v1 or of v2 (or one of them) at
    depth at least d: O(1) per vertex, and no separator is built.
    """
    t1, t2, d = key
    for w in crossing:
        s, t, dw = intervals.get(w, _OFF_FOREST)
        if dw < d or not (s <= t1 < t or s <= t2 < t):
            return False
    return True


def decompose_pipeline(emb: Embedding) -> WidthCertificate:
    """Disk conversion, forest, certified branch tree, bounds.

    The returned certificate reports the input's peel count k, holds the
    certified tree, and guarantees forest height <= k - 1, width <= 2k and
    treewidth bound <= 3k - 1.
    """
    k = onion_peels(emb).k
    disk, _ = to_triangulated_disk(emb)
    forest = build_rooted_forest(disk)
    if forest.height > k - 1:
        raise BoundViolated(f"forest height {forest.height} exceeds k-1 = {k - 1}")
    bd = build_branch_tree(disk, forest)
    tw = treewidth_bound(bd.width)
    if bd.width > 2 * k:
        raise BoundViolated(f"width {bd.width} exceeds 2k = {2 * k}")
    if tw > 3 * k - 1:
        raise BoundViolated(f"treewidth bound {tw} exceeds 3k-1 = {3 * k - 1}")
    return WidthCertificate(
        peel_count=k,
        forest_height=forest.height,
        width=bd.width,
        width_bound=2 * (forest.height + 1),
        tw_bound=tw,
        disk_peel_count=onion_peels(disk).k,
        tree=bd,
    )
