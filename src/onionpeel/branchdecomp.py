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
from typing import Mapping

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


@dataclass(frozen=True)
class BDNode:
    id: int
    kind: str  # 'face' | 'arc' | 'edge'
    face: int | None = None  # face index (face nodes)
    edge: Edge | None = None  # graph edge (edge nodes; subdivided dual for arc nodes)


@dataclass(frozen=True)
class ArcCut:
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
    forest_edges = forest.edges()
    outer_edges = frozenset(disk.outer_faces[0].edges())
    outer_idx = disk.face_index_of_dart(disk.outer_darts[0])
    nodes: list[BDNode] = []
    node_of_face: dict[int, int] = {}
    for fi in range(len(disk.faces)):
        if fi != outer_idx:
            node_of_face[fi] = len(nodes)
            nodes.append(BDNode(id=len(nodes), kind="face", face=fi))
    # face ids < arc ids < leaf ids, so every arc below is already (min, max)
    arcs: list[tuple[int, int]] = []
    hangs: list[int] = []  # per edge, the node its leaf hangs from
    for e in disk.edges:
        u, v = e
        f1 = disk.face_index_of_dart((u, v))
        f2 = disk.face_index_of_dart((v, u))
        if e in forest_edges or e in outer_edges:
            side = f2 if f1 == outer_idx else f1
            if side == outer_idx:
                raise InvariantViolation(f"edge {e} has no inner side")
            hangs.append(node_of_face[side])
        elif outer_idx in (f1, f2):
            raise InvariantViolation(f"non-outer edge {e} flanks the outer face")
        else:
            a = len(nodes)
            nodes.append(BDNode(id=a, kind="arc", edge=e))
            arcs += [(node_of_face[f1], a), (node_of_face[f2], a)]
            hangs.append(a)
    assignment: dict[Edge, int] = {}
    for e, hang in zip(disk.edges, hangs):
        leaf = len(nodes)
        nodes.append(BDNode(id=leaf, kind="edge", edge=e))
        assignment[e] = leaf
        arcs.append((hang, leaf))
    arcs.sort()

    degree = Counter(x for arc in arcs for x in arc)
    for n in nodes:
        if degree[n.id] > 3:
            raise DegreeOverflow(f"node {n.id} ({n.kind}) has degree {degree[n.id]}")
        if n.kind == "edge" and degree[n.id] != 1:
            raise InvariantViolation(f"edge node {n.id} is not a leaf")
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
    outer_idx = disk.faces.index(disk.outer_faces[0])
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

    One BFS from the smallest node id both orders the pass and certifies
    the tree: ``NotATree`` is raised unless there is one arc fewer than
    nodes and the search reaches every node.

    Each subtree's map counts the edges below it of every vertex that
    crosses the arc above it.  A vertex leaves the map once all its edges
    lie below: it crosses no arc further up.  So a map holds one arc's
    crossing set, at most width entries.

    Maps merge small into large: a node keeps its largest child's map,
    adds the smaller maps and its own leaf edge into it in place, and
    tests only the vertices whose count just changed for completion.  A
    node thus pays for the entries of its smaller children's maps, not
    for the map it passes up, and the pass costs O(E + sum of the smaller
    maps' sizes), at most O(E * width).  Arc nodes, whose one smaller
    child is a leaf, pay O(1).
    """
    if len(arcs) != len(nodes) - 1:
        raise NotATree(f"{len(nodes)} nodes but {len(arcs)} arcs")
    if not arcs:
        return 0, ()
    adj: dict[int, list[int]] = {n.id: [] for n in nodes}
    for a, b in arcs:
        adj[a].append(b)
        adj[b].append(a)
    leaf_edge = {leaf: e for e, leaf in assignment.items()}
    total: dict[int, int] = {}
    for e in assignment:
        for v in e:
            total[v] = total.get(v, 0) + 1
    root = min(adj)
    parent: dict[int, int] = {root: root}
    order = [root]
    for x in order:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    if len(order) != len(adj):
        raise NotATree("arc set leaves the node set disconnected")
    below: dict[int, list[dict[int, int]]] = {}  # node -> its children's maps
    cuts: list[ArcCut] = []
    width = 0
    for x in reversed(order):
        maps = below.pop(x, [])
        c = max(maps, key=len) if maps else {}
        changed: list[int] = []
        for m in maps:
            if m is not c:
                for v, n in m.items():
                    c[v] = c.get(v, 0) + n
                changed += m
        if x in leaf_edge:
            for v in leaf_edge[x]:
                c[v] = c.get(v, 0) + 1
            changed += leaf_edge[x]
        for v in changed:
            if c.get(v) == total[v]:
                del c[v]
        if x != root:
            below.setdefault(parent[x], []).append(c)
            crossing = frozenset(c)
            arc = (min(x, parent[x]), max(x, parent[x]))
            cuts.append(ArcCut(arc=arc, crossing=crossing))
            width = max(width, len(crossing))
    cuts.sort(key=lambda c: c.arc)
    return width, tuple(cuts)


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
            if not cut.crossing <= frozenset(e):
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
