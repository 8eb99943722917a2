"""Branch decompositions of triangulated disks from rooted forests.

The duals of the edges that are neither forest edges nor on the outer
cycle form a tree T* on the inner faces (tree-co-tree: the forest plus
all but one outer edge is a spanning tree, so the remaining duals span
the dual graph, with the outer face as a leaf).  Subdividing every arc of
T* and hanging one leaf per graph edge yields a degree-<=3 tree whose
leaf assignment is a branch decomposition; a forest of height h-1 bounds
its width by 2h because every cut is covered by at most two root paths
plus one edge.  :func:`build_branch_tree` is the one builder: it computes
every cut once and certifies that bound before it hands out the tree.
:func:`verify_tree_cotree` reaches T* by the tree-co-tree route instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, NamedTuple, NoReturn

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
    """Degree-<=3 tree with one leaf per graph edge, and every arc's cut."""

    nodes: tuple[BDNode, ...]  # node ids are positions
    arcs: tuple[tuple[int, int], ...]
    assignment: Mapping[Edge, int]
    width: int
    cuts: tuple[ArcCut, ...]  # sorted by arc


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
    contributes at most one incidence per edge.  The tree and degree
    checks (the tree check inside :func:`_width_and_cuts`) and
    :func:`_certify` are bug certificates.
    """
    if not is_triangulated_disk(disk):
        raise NotADisk("branch tree requires a triangulated disk")
    validate_forest(disk, forest)
    parent = forest.parent
    face_of = disk._walk_of_dart
    outer_idx = face_of[disk.outer_darts[0]]
    # inner faces are numbered in face order, skipping the outer face
    node_of_face = [*range(outer_idx), -1, *range(outer_idx, len(disk._walks) - 1)]
    nodes = [BDNode(i, "face", fi) for fi, i in enumerate(node_of_face) if i >= 0]
    # face ids < arc ids < leaf ids, so every arc below is already (min, max)
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
            a = len(nodes)
            nodes.append(BDNode(a, "arc", None, e))
            arcs.append((node_of_face[f1], a))
            arcs.append((node_of_face[f2], a))
            hangs.append(a)
    leaves = range(len(nodes), len(nodes) + len(edges))
    nodes += [BDNode(leaf, "edge", None, e) for leaf, e in zip(leaves, edges)]
    assignment = dict(zip(edges, leaves))
    arcs += zip(hangs, leaves)
    arcs.sort()

    degree = [0] * len(nodes)
    for a, b in arcs:
        degree[a] += 1
        degree[b] += 1
    for i, d in enumerate(degree):
        if d > 3:
            raise DegreeOverflow(f"node {i} ({nodes[i].kind}) has degree {d}")
        if d != 1 and i >= leaves.start:
            raise InvariantViolation(f"edge node {i} is not a leaf")
    width, cuts = _width_and_cuts(nodes, arcs, assignment)
    bd = BranchDecomposition(
        nodes=tuple(nodes),
        arcs=tuple(arcs),
        assignment=assignment,
        width=width,
        cuts=cuts,
    )
    _certify(forest, bd)
    return bd


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


def _width_and_cuts(nodes, arcs, assignment) -> tuple[int, tuple[ArcCut, ...]]:
    """Exact per-arc crossing sets by bottom-up subtree aggregation.

    Each subtree's map counts the edges below it of every vertex that
    crosses the arc above it.  A vertex leaves the map once all its edges
    lie below: it crosses no arc further up.  So a map holds one arc's
    crossing set, at most width entries.  Node ids are positions, so
    every per-node table is a list.

    Leaves are done inline, in the one loop over the arcs: a leaf's cut
    is its edge's endpoints that have an edge elsewhere, and those
    endpoints go straight into the map of the node the leaf hangs from.
    A leaf costs O(1) and makes no dict, and the search and the pass
    below visit only the unassigned (face and arc) nodes; leaves are
    about 320 of the 734 nodes of an 8x14 k-ring disk.  The pass assumes
    that every assigned node is a leaf of an unassigned node, which
    :func:`build_branch_tree`'s degree check ensures; arcs that break
    this go to :func:`_check_tree`.

    One BFS from the first unassigned node both orders the pass and
    certifies the tree: ``NotATree`` is raised, with :func:`_check_tree`'s
    text, unless there is one arc fewer than nodes, every leaf has an arc
    and the search reaches every unassigned node.  With one arc fewer
    than nodes, the search can reach them all only if the leaves hold
    just one arc each, so a repeated leaf arc needs no check of its own.

    Maps merge small into large: a node keeps its largest map (its own
    leaves' map or a child's), adds the smaller maps into it in place,
    and tests only the vertices whose count just changed for completion.
    A node thus pays for the entries of its smaller maps, not for the map
    it passes up, and the pass costs O(E + sum of the smaller maps'
    sizes), at most O(E * width).  Arc nodes, whose one smaller map is
    their leaf's, pay O(1).
    """
    n = len(nodes)
    if len(arcs) != n - 1:
        raise NotATree(f"{n} nodes but {len(arcs)} arcs")
    if not arcs:
        return 0, ()
    total = Counter(chain.from_iterable(assignment))  # vertex -> its edge count
    leaf_edge: list[Edge | None] = [None] * n
    for e, leaf in assignment.items():
        leaf_edge[leaf] = e
    adj = [[] if e is None else None for e in leaf_edge]  # arc ids between unassigned nodes
    maps: list[dict[int, int] | None] = [None] * n  # own leaves' counts, then the subtree's
    hung = [False] * n
    cuts: list[ArcCut] = [None] * len(arcs)  # type: ignore[list-item]
    width = 0
    for i, arc in enumerate(arcs):
        a, b = arc
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
            crossing = frozenset(e)
        else:
            crossing = frozenset(w for w in e if total[w] > 1)
        m = maps[hang]
        if m is None:
            m = maps[hang] = {}
        for w in crossing:
            m[w] = m.get(w, 0) + 1
        cuts[i] = ArcCut(arc if a < b else (b, a), crossing)
        if len(crossing) > width:
            width = len(crossing)
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
            a, b = arc = arcs[i]
            cuts[i] = ArcCut(arc if a < b else (b, a), frozenset(c))
            if len(c) > width:
                width = len(c)
    cuts.sort()
    return width, tuple(cuts)


def _reject(n: int, arcs) -> NoReturn:
    """Raise for arcs in which some assigned node is no leaf of an unassigned one."""
    _check_tree(range(n), arcs)
    raise InvariantViolation("an assigned node does not hang from an unassigned node")


def treewidth_bound(bw: int) -> int:
    """Treewidth bound implied by branchwidth: max(1, floor(3/2 bw) - 1)."""
    return max(1, (3 * bw) // 2 - 1)


def _certify(forest: RootedForest, bd: BranchDecomposition) -> None:
    """Check width <= 2(height+1) and each of ``bd.cuts`` against its separator.

    For an arc between a face node and an arc node, the crossing vertices
    must lie on the root paths of the subdivided edge's endpoints (a path
    from outer face to outer face, or a cycle through the forest); for an
    arc at an edge-node leaf they must be endpoints of that edge.
    """
    bound = 2 * (forest.height + 1)
    if bd.width > bound:
        raise BoundViolated(f"width {bd.width} exceeds 2(h+1) = {bound}")
    separators: dict[int, set[int]] = {}
    for cut in bd.cuts:
        a, b = bd.nodes[cut.arc[0]], bd.nodes[cut.arc[1]]
        if a.kind == "edge" or b.kind == "edge":
            e = (a if a.kind == "edge" else b).edge
            u, v = e
            for w in cut.crossing:
                if w != u and w != v:
                    raise BoundViolated(
                        f"cut at leaf arc {cut.arc} not within edge {e}"
                    )
            continue
        arc_node = a if a.kind == "arc" else b
        if arc_node.id not in separators:
            separators[arc_node.id] = _separator(forest, *arc_node.edge)
        if not cut.crossing <= separators[arc_node.id]:
            raise BoundViolated(
                f"cut at arc {cut.arc} escapes its forest separator"
            )


def _separator(forest: RootedForest, v1: int, v2: int) -> set[int]:
    """Forest vertices on the root paths of v1 and v2.

    The deeper endpoint climbs by ``forest.depth`` until the two climbs
    meet, so with one root the paths are cut at the lowest common
    ancestor: the separator is the cycle closed by the edge v1-v2.  With
    two roots both climbs end at their roots.
    """
    parent, depth = forest.parent, forest.depth
    sep = {v1, v2}
    while v1 != v2:
        if v1 in parent and (v2 not in parent or depth[v1] >= depth[v2]):
            v1 = parent[v1]
            sep.add(v1)
        elif v2 in parent:
            v2 = parent[v2]
            sep.add(v2)
        else:
            break
    return sep


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
