import dataclasses
import random

import pytest

from onionpeel import (
    Embedding,
    build_branch_tree,
    build_rooted_forest,
    decompose_pipeline,
    errors,
    gen_counterexample,
    gen_cycle,
    gen_nested_triangles,
    gen_path,
    gen_random_kouter,
    gen_wheel,
    onion_peels,
    to_triangulated_disk,
    treewidth_bound,
    verify_tree_cotree,
)
from onionpeel import branchdecomp
from onionpeel.branchdecomp import ArcCut, _certify, _width_and_cuts


def disk_and_forest(emb):
    disk, _ = to_triangulated_disk(emb)
    forest = build_rooted_forest(disk)
    return disk, forest


def relabel(emb, rng):
    """The same embedding under a seeded random vertex relabelling."""
    verts = list(emb.vertices)
    perm = verts[:]
    rng.shuffle(perm)
    p = dict(zip(verts, perm))
    rot = {p[v]: [p[w] for w in emb.rotation(v)] for v in verts}
    return Embedding(rot, [(p[a], p[b]) for a, b in emb.outer_darts])


def deep_disks():
    """Inputs shaped like the benchmark's: 8x14 k-ring disks and nested triangles 36 deep."""
    rng = random.Random(11)
    disks = [(f"rk8x14#{i}", gen_random_kouter(8, 14, rng.randrange(10**9))) for i in range(3)]
    disks.append(("nested36", gen_nested_triangles(36)))
    disks += [(f"nested36#{i}", relabel(gen_nested_triangles(36), rng)) for i in range(2)]
    return disks


def dual_tree(bd):
    """The branch tree's face nodes, and per arc node its edge and faces."""
    faces = [n.face for n in bd.nodes if n.kind == "face"]
    joined = {n.id: [] for n in bd.nodes if n.kind == "arc"}
    for a, b in bd.arcs:
        if bd.nodes[a].kind == "face" and b in joined:
            joined[b].append(bd.nodes[a].face)
    return faces, [(bd.nodes[a].edge, sorted(fs)) for a, fs in joined.items()]


def test_dual_tree_triangle():
    disk, forest = disk_and_forest(gen_cycle(3))
    faces, arcs = dual_tree(build_branch_tree(disk, forest))
    assert len(faces) == 1 and arcs == []


def test_dual_tree_k4_is_path():
    disk, forest = disk_and_forest(gen_wheel(3))
    faces, arcs = dual_tree(build_branch_tree(disk, forest))
    assert len(faces) == 3
    assert sorted(e for e, _ in arcs) == [(1, 3), (2, 3)]
    degree = {}
    for _, ends in arcs:
        assert len(ends) == 2
        for f in ends:
            degree[f] = degree.get(f, 0) + 1
    assert sorted(degree.values()) == [1, 1, 2]


def test_dual_tree_octahedron_has_seven_faces():
    disk, forest = disk_and_forest(gen_nested_triangles(2))
    faces, arcs = dual_tree(build_branch_tree(disk, forest))
    assert len(faces) == 7
    assert len(arcs) == 6


def test_dual_tree_requires_disk():
    c4 = gen_cycle(4)
    with pytest.raises(errors.NotADisk):
        build_branch_tree(c4, build_rooted_forest(c4))


def test_branch_tree_triangle():
    disk, forest = disk_and_forest(gen_cycle(3))
    bd = build_branch_tree(disk, forest)
    kinds = [n.kind for n in bd.nodes]
    assert kinds.count("face") == 1 and kinds.count("edge") == 3
    assert len(bd.arcs) == 3
    assert bd.width == 2


def test_branch_tree_k4_node_count():
    disk, forest = disk_and_forest(gen_wheel(3))
    bd = build_branch_tree(disk, forest)
    assert len(bd.nodes) == 3 + 2 + 6
    assert {n.id for n in bd.nodes if n.kind == "edge"} == set(bd.assignment.values())


def test_branch_tree_structure_corpus(corpus):
    for label, emb in corpus:
        disk, forest = disk_and_forest(emb)
        bd = build_branch_tree(disk, forest)
        n_inner = len(disk.faces) - 1
        assert len(bd.nodes) == n_inner + (n_inner - 1) + disk.edge_count, label
        degree = {}
        for a, b in bd.arcs:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert max(degree.values()) <= 3, label
        leaves = {i for i, d in degree.items() if d == 1}
        edge_nodes = {n.id for n in bd.nodes if n.kind == "edge"}
        assert leaves == edge_nodes, label
        assert sorted(bd.assignment) == list(disk.edges), label


def unpruned_width_and_cuts(nodes, arcs, assignment):
    """Reference: every subtree's map keeps every vertex with an edge below."""
    if not arcs:
        return 0, ()
    adj = {n.id: [] for n in nodes}
    for a, b in arcs:
        adj[a].append(b)
        adj[b].append(a)
    leaf_edge = {leaf: e for e, leaf in assignment.items()}
    total = {}
    for e in assignment:
        for v in e:
            total[v] = total.get(v, 0) + 1
    root = min(adj)
    parent = {root: root}
    order = [root]
    for x in order:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    counts = {}
    cuts = []
    width = 0
    for x in reversed(order):
        c = {}
        if x in leaf_edge:
            for v in leaf_edge[x]:
                c[v] = c.get(v, 0) + 1
        for y in adj[x]:
            if y != parent[x] and parent.get(y) == x:
                for v, n in counts.pop(y).items():
                    c[v] = c.get(v, 0) + n
        counts[x] = c
        if x != root:
            crossing = frozenset(v for v, n in c.items() if 0 < n < total[v])
            arc = (min(x, parent[x]), max(x, parent[x]))
            cuts.append(ArcCut(arc=arc, crossing=crossing))
            width = max(width, len(crossing))
    cuts.sort(key=lambda c: c.arc)
    return width, tuple(cuts)


def test_width_and_cuts_match_unpruned_aggregation(corpus):
    extra = [("path240", gen_path(240)), ("cycle400", gen_cycle(400))] + deep_disks()
    for label, emb in corpus + extra:
        disk, forest = disk_and_forest(emb)
        bd = build_branch_tree(disk, forest)
        args = (bd.nodes, bd.arcs, bd.assignment)
        assert (bd.width, bd.cuts) == unpruned_width_and_cuts(*args), label


class CountedVertex(int):
    """A vertex label that counts how often a dict or set hashes it."""

    hashes = 0

    def __hash__(self):
        CountedVertex.hashes += 1
        return int.__hash__(self)


def test_width_pass_merges_small_maps_into_large():
    # nested triangles 9..72 deep have widths 18..144; merging each node's
    # smaller maps into its largest keeps the dict work per edge flat,
    # where copying or merging into a smaller map grows with the width
    per_edge = []
    for depth in (9, 72):
        disk, forest = disk_and_forest(gen_nested_triangles(depth))
        bd = build_branch_tree(disk, forest)
        assignment = {
            (CountedVertex(u), CountedVertex(v)): leaf
            for (u, v), leaf in bd.assignment.items()
        }
        CountedVertex.hashes = 0
        width, _ = _width_and_cuts(bd.nodes, bd.arcs, assignment)
        assert width == bd.width == 2 * depth
        per_edge.append(CountedVertex.hashes / len(assignment))
    assert per_edge[1] < 1.25 * per_edge[0], per_edge


def test_width_two_ways_agree(small_corpus):
    for label, emb in small_corpus:
        disk, forest = disk_and_forest(emb)
        bd = build_branch_tree(disk, forest)
        assert bd.width == max(len(c.crossing) for c in bd.cuts), label
        adj = {n.id: [] for n in bd.nodes}
        for a, b in bd.arcs:
            adj[a].append(b)
            adj[b].append(a)
        by_arc = {c.arc: c.crossing for c in bd.cuts}
        assert sorted(by_arc) == list(bd.arcs), label
        leaf_of = {leaf: e for e, leaf in bd.assignment.items()}
        for a, b in bd.arcs:
            side = {a}
            stack = [a]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if {x, y} == {a, b} or y in side:
                        continue
                    side.add(y)
                    stack.append(y)
            side_edges = {e for leaf, e in leaf_of.items() if leaf in side}
            other = set(bd.assignment) - side_edges
            crossing = frozenset(
                w
                for e in side_edges
                for w in e
                if any(w in e2 for e2 in other)
            )
            assert by_arc[(min(a, b), max(a, b))] == crossing, label


def test_certify_and_bounds_corpus(corpus):
    for label, emb in corpus:
        disk, forest = disk_and_forest(emb)
        bd = build_branch_tree(disk, forest)
        cert = decompose_pipeline(emb)
        assert cert.width == bd.width <= cert.width_bound, label
        assert cert.width_bound == 2 * (forest.height + 1), label
        assert cert.forest_height == forest.height, label
        assert cert.peel_count == onion_peels(emb).k, label
        assert cert.disk_peel_count == onion_peels(disk).k, label


def test_width_pass_runs_once_per_pipeline(monkeypatch):
    calls = []
    width_and_cuts = branchdecomp._width_and_cuts

    def counting(*args):
        calls.append(1)
        return width_and_cuts(*args)

    emb = gen_random_kouter(4, 7, 3)
    monkeypatch.setattr(branchdecomp, "_width_and_cuts", counting)
    decompose_pipeline(emb)
    assert len(calls) == 1
    calls.clear()
    build_branch_tree(*disk_and_forest(emb))
    assert len(calls) == 1


def test_certify_rejects_a_crossing_vertex_off_its_separator():
    disk, forest = disk_and_forest(gen_nested_triangles(4))
    bd = build_branch_tree(disk, forest)
    _certify(forest, bd)
    cuts = bd.cuts
    kind = {n.id: n for n in bd.nodes}
    tampered = 0
    for i, cut in enumerate(cuts):
        ends = [kind[x] for x in cut.arc]
        arc_node = next((n for n in ends if n.kind == "arc"), None)
        if arc_node is None or any(n.kind == "edge" for n in ends):
            continue
        v1, v2 = arc_node.edge
        paths = set(forest.root_path(v1)) | set(forest.root_path(v2))
        off = min(set(disk.vertices) - paths)
        bad = cuts[:i] + (ArcCut(cut.arc, cut.crossing | {off}),) + cuts[i + 1:]
        with pytest.raises(errors.BoundViolated):
            _certify(forest, dataclasses.replace(bd, cuts=bad))
        tampered += 1
    assert tampered == 2 * sum(1 for n in bd.nodes if n.kind == "arc")


def test_tree_cotree_second_route(small_corpus):
    for label, emb in small_corpus:
        disk, forest = disk_and_forest(emb)
        verify_tree_cotree(disk, forest)


def test_width_of_single_leaf_decomposition():
    from onionpeel import BDNode

    nodes = (BDNode(id=0, kind="edge", edge=(0, 1)),)
    assert _width_and_cuts(nodes, (), {(0, 1): 0}) == (0, ())


def test_treewidth_bound_values():
    assert treewidth_bound(1) == 1
    assert treewidth_bound(2) == 2
    assert treewidth_bound(6) == 8
    for k in range(1, 11):
        assert treewidth_bound(2 * k) == 3 * k - 1


def test_pipeline_examples():
    c4 = decompose_pipeline(gen_cycle(4))
    assert c4.peel_count == 1 and c4.width <= 2 and c4.tw_bound <= 2
    t3 = decompose_pipeline(gen_nested_triangles(3))
    assert t3.peel_count == 3 and t3.width <= 6 and t3.tw_bound <= 8
    k4 = decompose_pipeline(gen_wheel(3))
    assert k4.peel_count == 2 and k4.width <= 4 and k4.tw_bound <= 5
    g2 = decompose_pipeline(gen_counterexample(2))
    assert g2.peel_count == 2 and g2.width <= 4


def test_pipeline_width_bound_corpus(corpus):
    for label, emb in corpus:
        cert = decompose_pipeline(emb)
        k = onion_peels(emb).k
        assert cert.width <= 2 * k, label
        assert cert.tw_bound <= 3 * k - 1, label
        assert cert.forest_height <= k - 1, label


def test_pipeline_too_small():
    with pytest.raises(errors.TooSmall):
        decompose_pipeline(Embedding({0: [1], 1: [0]}, [(0, 1)]))
