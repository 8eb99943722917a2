"""Branch decompositions of triangulated disks from rooted forests.

The duals of the edges that are neither forest edges nor on the outer
cycle form a tree T* on the inner faces (tree-co-tree: the forest plus
all but one outer edge is a spanning tree, so the remaining duals span
the dual graph, with the outer face as a leaf).  Subdividing every arc of
T* and hanging one leaf per graph edge yields a degree-<=3 tree whose
leaf assignment is a branch decomposition; a forest of height h-1 bounds
its width by 2h because every cut is covered by at most two root paths
plus one edge.  :func:`build_branch_tree` is the one builder: one pass
computes the cuts and certifies each against that bound as it goes, and
the tree's node and cut records are built only when first read.
:func:`verify_tree_cotree` reaches T* by the tree-co-tree route instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Collection, Iterator, Mapping, NamedTuple, NoReturn

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
    edge-node leaves.  The tree is stored flat, as each face node's
    inner-face index and each arc node's subdivided edge; ``nodes`` and
    ``cuts`` are built from the stored fields when first read, and
    equality compares the stored fields, which determine both.
    """

    arcs: tuple[tuple[int, int], ...]  # sorted, each (min, max)
    assignment: Mapping[Edge, int]  # in leaf order
    width: int
    faces: tuple[int, ...]  # per face node, its inner face's index
    arc_edges: tuple[Edge, ...]  # per arc node, the edge it subdivides

    @cached_property
    def nodes(self) -> tuple[BDNode, ...]:
        first_arc = len(self.faces)
        return (
            *(BDNode(i, "face", f) for i, f in enumerate(self.faces)),
            *(BDNode(a, "arc", None, e) for a, e in enumerate(self.arc_edges, first_arc)),
            *(BDNode(leaf, "edge", None, e) for e, leaf in self.assignment.items()),
        )

    @cached_property
    def cuts(self) -> tuple[ArcCut, ...]:
        """Every arc's crossing set, in arc order."""
        arcs = self.arcs
        n = len(self.faces) + len(self.arc_edges) + len(self.assignment)
        cuts: list[ArcCut] = [None] * len(arcs)  # type: ignore[list-item]
        for i, crossing in _cut_maps(n, arcs, self.assignment):
            cuts[i] = ArcCut(arcs[i], frozenset(crossing))
        return tuple(cuts)


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

    The degree checks, the tree checks inside :func:`_cut_maps` and the
    certification are bug certificates.  Each cut is certified as the
    pass yields it: a leaf arc's crossing must lie within its edge, and a
    face arc's on the forest separator of its arc node's edge (tested by
    :func:`_on_separator`); then the width, the largest crossing, must be
    at most 2(h+1).
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
    # face ids < arc ids < leaf ids, so every arc below is already (min, max)
    arc_edges: list[Edge] = []
    arcs: list[tuple[int, int]] = []
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
            a = first_arc + len(arc_edges)
            arc_edges.append(e)
            arcs.append((node_of_face[f1], a))
            arcs.append((node_of_face[f2], a))
            hangs.append(a)
    first_leaf = first_arc + len(arc_edges)
    n = first_leaf + len(edges)
    leaves = range(first_leaf, n)
    assignment = dict(zip(edges, leaves))
    arcs += zip(hangs, leaves)
    arcs.sort()

    degree = Counter(chain.from_iterable(arcs))
    if max(degree.values()) > 3 or set(map(degree.__getitem__, leaves)) != {1}:
        for i in range(n):  # name the first defect
            d = degree[i]
            if d > 3:
                kind = "face" if i < first_arc else "arc" if i < first_leaf else "edge"
                raise DegreeOverflow(f"node {i} ({kind}) has degree {d}")
            if d != 1 and i >= first_leaf:
                raise InvariantViolation(f"edge node {i} is not a leaf")
    intervals = _forest_intervals(forest)
    keys = [_separator_key(intervals, parent, u, v) for u, v in arc_edges]
    width = 0
    for i, crossing in _cut_maps(n, arcs, assignment):
        if len(crossing) > width:
            width = len(crossing)
        b = arcs[i][1]
        if b >= first_leaf:
            e = edges[b - first_leaf]
            for w in crossing:
                if w not in e:
                    raise BoundViolated(f"cut at leaf arc {arcs[i]} not within edge {e}")
        elif not _on_separator(keys[b - first_arc], intervals, crossing):
            raise BoundViolated(f"cut at arc {arcs[i]} escapes its forest separator")
    bound = 2 * (forest.height + 1)
    if width > bound:
        raise BoundViolated(f"width {width} exceeds 2(h+1) = {bound}")
    return BranchDecomposition(
        arcs=tuple(arcs),
        assignment=assignment,
        width=width,
        faces=faces,
        arc_edges=tuple(arc_edges),
    )


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
    _check_tree(
        tuple(disk.vertices), [(u, v) for u, v in sorted(tree_edges)]
    )
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
    faces_of: dict[int, list[int]] = {}  # arc node -> the faces it joins
    for pair in bd.arcs:
        x, y = (bd.nodes[i] for i in pair)
        if x.kind == "face" and y.kind == "arc":
            faces_of.setdefault(y.id, []).append(x.face)
    pruned = {
        (min(a, b), max(a, b)) for a, b in co_arcs if outer_idx not in (a, b)
    }
    built = {(min(fs), max(fs)) for fs in faces_of.values()}
    if pruned != built:
        raise InvariantViolation("co-tree arcs differ from the branch tree's arc nodes")


def _cut_maps(n: int, arcs, assignment) -> Iterator[tuple[int, Collection[int]]]:
    """Every arc's crossing set, by one bottom-up subtree aggregation.

    Yields ``(i, crossing)`` for every arc ``arcs[i]`` of the tree on
    nodes ``0..n-1`` whose leaves carry the edges of ``assignment``.
    Each subtree's map counts the edges below it of every vertex that
    crosses the arc above it.  A vertex leaves the map once all its edges
    lie below: it crosses no arc further up.  So a map holds one arc's
    crossing set, at most width entries.  Node ids are positions, so
    every per-node table is a list.

    Leaves are done inline, in the one loop over the arcs: a leaf's cut
    is its edge's endpoints that have an edge elsewhere, and those
    endpoints go straight into the map of the node the leaf hangs from.
    A leaf costs O(1) and makes no dict, and the search and the pass
    below visit only the unassigned nodes; leaves are about 320 of the
    734 nodes of an 8x14 k-ring disk.  The pass assumes that every
    assigned node is a leaf of an unassigned node, which
    :func:`build_branch_tree`'s degree check ensures; arcs that break
    this go to :func:`_check_tree`.

    One BFS from the first unassigned node both orders the pass and
    certifies the tree: ``NotATree`` is raised, with :func:`_check_tree`'s
    text, unless there is one arc fewer than nodes, every leaf has an arc
    and the search reaches every unassigned node.  With one arc fewer
    than nodes, the search can reach them all only if the leaves hold
    just one arc each, so a repeated leaf arc needs no check of its own.
    Every check runs before the first yield.

    The leaf arcs come first, each with its crossing as a tuple of
    endpoints.  Then every other arc comes with the live count map of the
    subtree below it, whose keys are the crossing: the pass merges that
    map into the one above once it resumes, so a caller reads or copies
    it before advancing.

    Maps merge small into large: a node keeps its largest map (its own
    leaves' map or a child's), adds the smaller maps into it in place,
    and tests only the vertices whose count just changed for completion.
    A node thus pays for the entries of its smaller maps, not for the map
    it passes up, and the pass costs O(E + sum of the smaller maps'
    sizes), at most O(E * width).  Arc nodes, whose one smaller map is
    their leaf's, pay O(1).
    """
    if len(arcs) != n - 1:
        raise NotATree(f"{n} nodes but {len(arcs)} arcs")
    if not arcs:
        return
    total = Counter(chain.from_iterable(assignment))  # vertex -> its edge count
    leaf_edge: list[Edge | None] = [None] * n
    for e, leaf in assignment.items():
        leaf_edge[leaf] = e
    adj = [[] if e is None else None for e in leaf_edge]  # arc ids between unassigned nodes
    maps: list[dict[int, int] | None] = [None] * n  # own leaves' counts, then the subtree's
    hung = [False] * n
    leaf_arcs: list[int] = []
    leaf_cuts: list[tuple[int, ...]] = []
    for i, (a, b) in enumerate(arcs):
        hang, e = a, leaf_edge[b]
        if e is None:
            hang, e = b, leaf_edge[a]
            if e is None:
                adj[a].append(i)
                adj[b].append(i)
                continue
        if leaf_edge[hang] is not None:  # a leaf-leaf arc
            _reject(n, arcs)
        hung[a + b - hang] = True
        u, v = e
        if total[u] > 1 and total[v] > 1:
            crossing = e
        else:
            crossing = tuple(w for w in e if total[w] > 1)
        m = maps[hang]
        if m is None:
            m = maps[hang] = {}
        for w in crossing:
            m[w] = m.get(w, 0) + 1
        leaf_arcs.append(i)
        leaf_cuts.append(crossing)
    if hung.count(True) != len(assignment):  # a leaf without an arc
        _reject(n, arcs)
    root = leaf_edge.index(None)
    up = [-1] * n  # the arc to the parent; the root's is a sentinel
    up[root] = len(arcs)
    order = [root]
    for x in order:
        for i in adj[x]:
            a, b = arcs[i]
            y = a + b - x
            if up[y] < 0:
                up[y] = i
                order.append(y)
    if len(order) != n - len(assignment):
        raise NotATree("arc set leaves the node set disconnected")
    yield from zip(leaf_arcs, leaf_cuts)
    for x in reversed(order):
        c = maps[x] or {}
        changed = [*c]
        i = up[x]
        for j in adj[x]:
            if j != i:
                a, b = arcs[j]
                m = maps[a + b - x]
                if len(m) > len(c):
                    c, m = m, c
                for v, k in m.items():
                    c[v] = c.get(v, 0) + k
                changed += m
        for v in changed:
            if c.get(v) == total[v]:
                del c[v]
        maps[x] = c
        if x != root:
            yield i, c


def _reject(n: int, arcs) -> NoReturn:
    """Raise for arcs in which some assigned node is no leaf of an unassigned one."""
    _check_tree(range(n), arcs)
    raise InvariantViolation("an assigned node does not hang from an unassigned node")


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
