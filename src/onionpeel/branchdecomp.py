"""Branch decompositions of triangulated disks from rooted forests.

The dual tree T* has one node per inner face and one arc per edge that is
neither a forest edge nor on the outer cycle (tree-co-tree: those duals
form a spanning tree of the dual minus the outer face).  Subdividing every
arc and hanging one leaf per graph edge yields a degree-<=3 tree whose
leaf assignment is a branch decomposition; a forest of height h-1 bounds
its width by 2h because every cut is covered by at most two root paths
plus one edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .embedding import Edge, Embedding, _components, is_triangulated_disk
from .errors import (
    BoundViolated,
    DegreeOverflow,
    InvariantViolation,
    NotADisk,
    NotATree,
    TooSmall,
)
from .peeling import RootedForest, build_rooted_forest, onion_peels, validate_forest
from .triangulate import to_triangulated_disk


@dataclass(frozen=True)
class DualTree:
    """Inner-face tree: nodes are face indices, arcs carry their primal edge."""

    face_ids: tuple[int, ...]
    arcs: tuple[tuple[int, int, Edge], ...]


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
    """Degree-<=3 tree with one leaf per graph edge."""

    nodes: tuple[BDNode, ...]
    arcs: tuple[tuple[int, int], ...]
    assignment: Mapping[Edge, int]
    width: int

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for a, b in self.arcs:
            adj[a].append(b)
            adj[b].append(a)
        return adj


@dataclass(frozen=True)
class WidthCertificate:
    """Achieved peel count, forest height, width, and the certified bounds."""

    peel_count: int
    forest_height: int
    width: int
    width_bound: int  # 2 * (forest_height + 1)
    tw_bound: int


def _forest_and_outer_edges(
    disk: Embedding, forest: RootedForest
) -> tuple[frozenset[Edge], frozenset[Edge]]:
    return forest.edges(), frozenset(disk.outer_faces[0].edges())


def build_dual_tree(disk: Embedding, forest: RootedForest) -> DualTree:
    """Dual tree on the inner faces of a triangulated disk.

    Arcs are the duals of edges not in the forest and not on the outer
    cycle.  The construction is verified to be a tree; failure is a bug
    certificate.
    """
    if not is_triangulated_disk(disk):
        raise NotADisk("dual tree requires a triangulated disk")
    validate_forest(disk, forest)
    forest_edges, outer_edges = _forest_and_outer_edges(disk, forest)
    outer_idx = disk.faces.index(disk.outer_faces[0])
    face_ids = tuple(i for i in range(len(disk.faces)) if i != outer_idx)
    arcs = []
    for e in disk.edges:
        if e in forest_edges or e in outer_edges:
            continue
        u, v = e
        f1 = disk.face_index_of_dart((u, v))
        f2 = disk.face_index_of_dart((v, u))
        if outer_idx in (f1, f2):
            raise InvariantViolation(f"non-outer edge {e} flanks the outer face")
        arcs.append((f1, f2, e))
    _check_tree(face_ids, [(a, b) for a, b, _ in arcs])
    return DualTree(face_ids=face_ids, arcs=tuple(arcs))


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
    the outer face is a leaf.  Deleting that leaf must reproduce
    build_dual_tree's arc set exactly.
    """
    forest_edges, outer_edges = _forest_and_outer_edges(disk, forest)
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
    dual = build_dual_tree(disk, forest)
    pruned = {
        (min(a, b), max(a, b)) for a, b in co_arcs if outer_idx not in (a, b)
    }
    built = {(min(a, b), max(a, b)) for a, b, _ in dual.arcs}
    if pruned != built:
        raise InvariantViolation("co-tree arcs differ from the dual-tree arcs")


def build_branch_tree(
    dual: DualTree, disk: Embedding, forest: RootedForest
) -> BranchDecomposition:
    """Subdivide every dual arc and hang one edge-node leaf per graph edge.

    Edges whose dual is an arc attach to their arc node; forest and outer
    edges attach to the inner face on the side of their canonical dart
    (the unique inner side for outer edges).  Face nodes keep degree <= 3
    because a triangle contributes at most one incidence per edge.
    """
    return _branch_tree(dual, disk, forest)[0]


def _branch_tree(
    dual: DualTree, disk: Embedding, forest: RootedForest
) -> tuple[BranchDecomposition, list[ArcCut]]:
    """:func:`build_branch_tree`'s tree and the crossing set of every arc."""
    forest_edges, outer_edges = _forest_and_outer_edges(disk, forest)
    outer_idx = disk.faces.index(disk.outer_faces[0])
    nodes: list[BDNode] = []
    node_of_face: dict[int, int] = {}
    for fi in dual.face_ids:
        node_of_face[fi] = len(nodes)
        nodes.append(BDNode(id=len(nodes), kind="face", face=fi))
    arcs: list[tuple[int, int]] = []
    node_of_dual_arc: dict[Edge, int] = {}
    for f1, f2, e in sorted(dual.arcs, key=lambda t: t[2]):
        a = len(nodes)
        nodes.append(BDNode(id=a, kind="arc", edge=e))
        node_of_dual_arc[e] = a
        arcs.append((node_of_face[f1], a))
        arcs.append((a, node_of_face[f2]))
    assignment: dict[Edge, int] = {}
    for e in disk.edges:
        leaf = len(nodes)
        nodes.append(BDNode(id=leaf, kind="edge", edge=e))
        assignment[e] = leaf
        if e in node_of_dual_arc:
            arcs.append((node_of_dual_arc[e], leaf))
        else:
            u, v = e
            side = disk.face_index_of_dart((u, v))
            if side == outer_idx:
                side = disk.face_index_of_dart((v, u))
            if side == outer_idx:
                raise InvariantViolation(f"edge {e} has no inner side")
            arcs.append((node_of_face[side], leaf))
    arcs = [(min(a, b), max(a, b)) for a, b in arcs]

    degree: dict[int, int] = {}
    for a, b in arcs:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    for n in nodes:
        if degree.get(n.id, 0) > 3:
            raise DegreeOverflow(f"node {n.id} ({n.kind}) has degree {degree[n.id]}")
        if n.kind == "edge" and degree.get(n.id, 0) != 1:
            raise InvariantViolation(f"edge node {n.id} is not a leaf")
    _check_tree([n.id for n in nodes], arcs)
    width, cuts = _width_and_cuts(nodes, arcs, assignment)
    bd = BranchDecomposition(
        nodes=tuple(nodes),
        arcs=tuple(sorted(arcs)),
        assignment=assignment,
        width=width,
    )
    return bd, cuts


def _width_and_cuts(nodes, arcs, assignment) -> tuple[int, list[ArcCut]]:
    """Exact per-arc crossing sets by bottom-up subtree aggregation.

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
    if not arcs:
        return 0, []
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
    return width, cuts


def compute_width(bd: BranchDecomposition) -> tuple[int, tuple[ArcCut, ...]]:
    """Exact width and the crossing set of every arc."""
    width, cuts = _width_and_cuts(bd.nodes, bd.arcs, bd.assignment)
    return width, tuple(cuts)


def treewidth_bound(bw: int) -> int:
    """Treewidth bound implied by branchwidth: max(1, floor(3/2 bw) - 1)."""
    return max(1, (3 * bw) // 2 - 1)


def certify_width_bound(
    disk: Embedding, forest: RootedForest, bd: BranchDecomposition
) -> WidthCertificate:
    """Certify width <= 2(height+1) and re-derive each cut's separator.

    For an arc between a face node and an arc node, the crossing vertices
    must lie on the root paths of the subdivided edge's endpoints (a path
    from outer face to outer face, or a cycle through the forest); for an
    arc at an edge-node leaf they must be endpoints of that edge.

    A caller may hand in a tree it built itself, so this call recomputes
    the width and cuts and checks the stored width against them.  The
    pipeline has them from building the tree and hands them over once.
    """
    width, cuts = compute_width(bd)
    if width != bd.width:
        raise InvariantViolation(f"stored width {bd.width} != computed {width}")
    return _certify(disk, forest, bd, cuts)


def _certify(
    disk: Embedding,
    forest: RootedForest,
    bd: BranchDecomposition,
    cuts: Iterable[ArcCut],
) -> WidthCertificate:
    """:func:`certify_width_bound` on cuts already computed for ``bd``."""
    width = bd.width
    h = forest.height
    bound = 2 * (h + 1)
    if width > bound:
        raise BoundViolated(f"width {width} exceeds 2(h+1) = {bound}")
    node_by_id = {n.id: n for n in bd.nodes}
    separators: dict[int, set[int]] = {}
    for cut in cuts:
        a, b = (node_by_id[cut.arc[0]], node_by_id[cut.arc[1]])
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
    return WidthCertificate(
        peel_count=onion_peels(disk).k,
        forest_height=h,
        width=width,
        width_bound=bound,
        tw_bound=treewidth_bound(width),
    )


def _separator(forest: RootedForest, v1: int, v2: int) -> set[int]:
    """Forest vertices on the root paths of v1 and v2.

    With one root, the paths are cut at the lowest common ancestor: the
    separator is the cycle closed by the edge v1-v2.
    """
    p1 = forest.root_path(v1)
    p2 = forest.root_path(v2)
    if p1[-1] != p2[-1]:
        return set(p1) | set(p2)
    on_p1 = set(p1)
    up = [v2]
    while up[-1] not in on_p1:
        up.append(forest.parent[up[-1]])
    lca = up[-1]
    return set(up) | set(p1[: p1.index(lca) + 1])


def decompose_pipeline(emb: Embedding) -> WidthCertificate:
    """Disk conversion, forest, dual tree, branch tree, width, bounds.

    The returned certificate reports the input's peel count k and
    guarantees width <= 2k and treewidth bound <= 3k - 1.
    """
    return _decompose(emb)[0]


def _decompose(emb: Embedding) -> tuple[WidthCertificate, int]:
    """:func:`decompose_pipeline`'s certificate and its disk's peel count."""
    if emb.vertex_count < 3:
        raise TooSmall(f"need at least 3 vertices, got {emb.vertex_count}")
    k = onion_peels(emb).k
    disk, _ = to_triangulated_disk(emb)
    forest = build_rooted_forest(disk)
    dual = build_dual_tree(disk, forest)
    bd, cuts = _branch_tree(dual, disk, forest)
    cert = _certify(disk, forest, bd, cuts)
    if cert.width > 2 * k:
        raise BoundViolated(f"width {cert.width} exceeds 2k = {2 * k}")
    if cert.tw_bound > 3 * k - 1:
        raise BoundViolated(
            f"treewidth bound {cert.tw_bound} exceeds 3k-1 = {3 * k - 1}"
        )
    return WidthCertificate(
        peel_count=k,
        forest_height=cert.forest_height,
        width=cert.width,
        width_bound=cert.width_bound,
        tw_bound=cert.tw_bound,
    ), cert.peel_count
