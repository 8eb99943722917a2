import random
from collections import Counter

import pytest

from onionpeel import (
    Embedding,
    RootedForest,
    build_branch_tree,
    build_rooted_forest,
    decompose_pipeline,
    errors,
    format_epg,
    gen_counterexample,
    gen_cycle,
    gen_nested_triangles,
    gen_path,
    gen_random_kouter,
    gen_wheel,
    onion_peels,
    parse_epg,
    to_triangulated_disk,
    treewidth_bound,
    validate_forest,
    verify_tree_cotree,
)
from onionpeel import branchdecomp
from onionpeel.branchdecomp import ArcCut, BDNode, _cut_maps
from test_cli import run_cli


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


def width_and_cuts(n, arcs, assignment):
    """The width and the cuts sorted by arc, from one run of the pass."""
    width = 0
    cuts = []
    for i, crossing in _cut_maps(n, arcs, assignment):
        width = max(width, len(crossing))
        a, b = arcs[i]
        cuts.append(ArcCut((min(a, b), max(a, b)), frozenset(crossing)))
    return width, tuple(sorted(cuts))


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
        width, _ = width_and_cuts(len(bd.nodes), bd.arcs, assignment)
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


def count_passes(monkeypatch):
    """A list that gains an entry per run of the width pass."""
    calls = []

    def counting(*args):
        calls.append(1)
        return _cut_maps(*args)

    monkeypatch.setattr(branchdecomp, "_cut_maps", counting)
    return calls


def test_width_pass_runs_once_per_pipeline(monkeypatch):
    calls = count_passes(monkeypatch)
    emb = gen_random_kouter(4, 7, 3)
    decompose_pipeline(emb)
    assert len(calls) == 1
    calls.clear()
    build_branch_tree(*disk_and_forest(emb))
    assert len(calls) == 1


def tampered(monkeypatch, target, extra):
    """Make the width pass hand out arc ``target``'s crossing plus vertex ``extra``."""
    def cut_maps_plus(*args):
        for i, crossing in _cut_maps(*args):
            yield i, [*crossing, extra] if i == target else crossing

    monkeypatch.setattr(branchdecomp, "_cut_maps", cut_maps_plus)


def test_records_are_built_on_demand(monkeypatch):
    # the pipeline reads no node or cut record: it builds none, and a tree
    # builds each kind once, on first read
    built = Counter()

    def counting(record):
        def make(*args, **kwargs):
            built[record.__name__] += 1
            return record(*args, **kwargs)
        return make

    monkeypatch.setattr(branchdecomp, "BDNode", counting(BDNode))
    monkeypatch.setattr(branchdecomp, "ArcCut", counting(ArcCut))
    calls = count_passes(monkeypatch)
    disk, _ = to_triangulated_disk(gen_random_kouter(8, 14, 5))
    cert = decompose_pipeline(parse_epg(format_epg(disk)))
    assert built == {} and len(calls) == 1
    bd = cert.tree
    cuts = bd.cuts  # one more pass
    assert built == {"ArcCut": len(bd.arcs)} and len(calls) == 2
    nodes = bd.nodes
    once = {"ArcCut": len(bd.arcs), "BDNode": len(bd.arcs) + 1}
    assert built == once
    assert bd.cuts is cuts and bd.nodes is nodes
    assert built == once and len(calls) == 2
    assert (bd.width, cuts) == unpruned_width_and_cuts(nodes, bd.arcs, bd.assignment)


def test_certify_rejects_a_crossing_vertex_off_its_separator(monkeypatch):
    disk, forest = disk_and_forest(gen_nested_triangles(4))
    bd = build_branch_tree(disk, forest)
    kind = {n.id: n for n in bd.nodes}
    count = 0
    for i, arc in enumerate(bd.arcs):
        ends = [kind[x] for x in arc]
        arc_node = next((n for n in ends if n.kind == "arc"), None)
        if arc_node is None or any(n.kind == "edge" for n in ends):
            continue
        v1, v2 = arc_node.edge
        paths = set(forest.root_path(v1)) | set(forest.root_path(v2))
        off = min(set(disk.vertices) - paths)
        tampered(monkeypatch, i, off)
        with pytest.raises(errors.BoundViolated) as exc:
            build_branch_tree(disk, forest)
        assert str(exc.value) == f"cut at arc {arc} escapes its forest separator"
        count += 1
    assert count == 2 * sum(1 for n in bd.nodes if n.kind == "arc")


def test_tree_cotree_second_route(small_corpus):
    for label, emb in small_corpus:
        disk, forest = disk_and_forest(emb)
        verify_tree_cotree(disk, forest)


def test_width_pass_certifies_the_tree():
    disk, forest = disk_and_forest(gen_wheel(5))
    bd = build_branch_tree(disk, forest)
    n = len(bd.nodes)
    short = bd.arcs[1:]
    with pytest.raises(errors.NotATree) as exc:
        width_and_cuts(n, short, bd.assignment)
    assert str(exc.value) == f"{n} nodes but {n - 2} arcs"
    split = bd.arcs[1:] + bd.arcs[1:2]  # the right count, one node cut off
    with pytest.raises(errors.NotATree) as exc:
        width_and_cuts(n, split, bd.assignment)
    assert str(exc.value) == "arc set leaves the node set disconnected"
    for arcs in (short, split):
        with pytest.raises(errors.NotATree) as ref:
            branchdecomp._check_tree([x.id for x in bd.nodes], arcs)
        with pytest.raises(errors.NotATree) as exc:
            next(_cut_maps(n, arcs, bd.assignment))  # before the first cut
        assert str(exc.value) == str(ref.value)


def ref_separator(forest, v1, v2):
    """Both whole root paths, cut at the lowest common ancestor on one root."""
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


def test_separator_matches_the_root_path_route(corpus):
    # the interval test against the root paths, per arc node and vertex
    checked = 0
    for label, emb in [*corpus, *deep_disks()]:
        disk, bfs = disk_and_forest(emb)
        stranger = max(disk.vertices) + 1
        for forest in (bfs, depth_first_forest(disk)):
            intervals = branchdecomp._forest_intervals(forest)
            for v1, v2 in build_branch_tree(disk, forest).arc_edges:
                for a, b in ((v1, v2), (v2, v1)):
                    sep = ref_separator(forest, a, b)
                    key = branchdecomp._separator_key(intervals, forest.parent, a, b)
                    for w in disk.vertices:
                        on = branchdecomp._on_separator(key, intervals, (w,))
                        assert on == (w in sep), (label, a, b, w)
                        checked += 1
                    assert branchdecomp._on_separator(key, intervals, sep)
                    assert not branchdecomp._on_separator(key, intervals, (stranger,))
    assert checked > 100000


def test_width_of_single_leaf_decomposition():
    assert width_and_cuts(1, (), {(0, 1): 0}) == (0, ())


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
    with pytest.raises(errors.TooSmall, match="need at least 3 vertices, got 2"):
        decompose_pipeline(Embedding({0: [1], 1: [0]}, [(0, 1)]))


def depth_first_forest(emb):
    """A valid outer-rooted forest grown depth first, taller than the BFS one."""
    depth = dict.fromkeys(emb.outer_vertices, 0)
    parent = {}

    def grow(u):
        for w in emb.rotation(u):
            if w not in depth:
                parent[w], depth[w] = u, depth[u] + 1
                grow(w)

    for r in sorted(emb.outer_vertices):
        grow(r)
    return RootedForest(parent=parent, depth=depth, roots=emb.outer_vertices)


def test_pipeline_certifies_the_forest_lemma(monkeypatch):
    emb = gen_nested_triangles(4)  # a triangulation: its own disk
    deep = depth_first_forest(emb)
    validate_forest(emb, deep)
    assert deep.height >= onion_peels(emb).k
    monkeypatch.setattr(branchdecomp, "build_rooted_forest", depth_first_forest)
    with pytest.raises(errors.BoundViolated, match="forest height"):
        decompose_pipeline(emb)
    for command in ("bd", "pipeline"):
        code, _, err = run_cli([command], stdin_text=format_epg(emb))
        assert code == 1 and "BoundViolated: forest height" in err


def test_certify_rejects_a_vertex_off_a_leaf_edge(monkeypatch):
    disk, forest = disk_and_forest(gen_nested_triangles(4))
    bd = build_branch_tree(disk, forest)
    leaf_of = {leaf: e for e, leaf in bd.assignment.items()}
    count = 0
    for i, arc in enumerate(bd.arcs):
        leaf = next((x for x in arc if x in leaf_of), None)
        if leaf is None:
            continue
        e = leaf_of[leaf]
        off = min(set(disk.vertices) - set(e))
        tampered(monkeypatch, i, off)
        with pytest.raises(errors.BoundViolated) as exc:
            build_branch_tree(disk, forest)
        assert str(exc.value) == f"cut at leaf arc {arc} not within edge {e}"
        count += 1
    assert count == disk.edge_count


def leaf_defects(bd):
    """Arc sets of the right or wrong size that are not trees, each by its leaf arcs."""
    leaves = set(bd.assignment.values())
    leaf_arcs = [arc for arc in bd.arcs if leaves & set(arc)]
    inner_arcs = [arc for arc in bd.arcs if not leaves & set(arc)]
    drop_leaf = [arc for arc in bd.arcs if arc != leaf_arcs[0]]
    drop_inner = [arc for arc in bd.arcs if arc != inner_arcs[0]]
    l1, l2 = sorted(leaves - set(leaf_arcs[0]))[:2]
    return {
        "leaf arc twice, for an inner arc": drop_inner + [leaf_arcs[0]],
        "leaf arc twice, for another leaf's": drop_leaf + [leaf_arcs[1]],
        "leaf joined to a leaf, for another leaf's arc": drop_leaf + [(l1, l2)],
        "leaf arc dropped": drop_leaf,
        "leaf arc dropped, inner arc twice": drop_leaf + [inner_arcs[0]],
    }


def test_width_pass_rejects_leaf_defects_with_the_tree_check_text():
    disk, forest = disk_and_forest(gen_wheel(5))
    bd = build_branch_tree(disk, forest)
    ids = [x.id for x in bd.nodes]
    for label, arcs in leaf_defects(bd).items():
        with pytest.raises(errors.NotATree) as ref:
            branchdecomp._check_tree(ids, arcs)
        for order in (arcs, arcs[::-1]):
            with pytest.raises(errors.NotATree) as exc:
                next(_cut_maps(len(ids), order, bd.assignment))
            assert str(exc.value) == str(ref.value), label


def test_width_pass_needs_leaves_hung_from_unassigned_nodes():
    # moving a leaf to hang from another leaf still leaves a tree, but not
    # one the pass handles: it names the broken assumption, not a non-tree
    disk, forest = disk_and_forest(gen_wheel(5))
    bd = build_branch_tree(disk, forest)
    l1, l2 = sorted(bd.assignment.values())[:2]
    arcs = [arc for arc in bd.arcs if l2 not in arc] + [(l1, l2)]
    branchdecomp._check_tree([x.id for x in bd.nodes], arcs)
    with pytest.raises(errors.InvariantViolation, match="does not hang from"):
        next(_cut_maps(len(bd.nodes), arcs, bd.assignment))


def test_records_are_immutable_named_tuples():
    assert BDNode._fields == ("id", "kind", "face", "edge")
    assert BDNode._field_defaults == {"face": None, "edge": None}
    assert ArcCut._fields == ("arc", "crossing")
    assert ArcCut._field_defaults == {}
    node = BDNode(id=4, kind="arc", edge=(1, 2))
    assert node == BDNode(4, "arc", None, (1, 2))
    assert (node.id, node.kind, node.face, node.edge) == (4, "arc", None, (1, 2))
    cut = ArcCut(arc=(0, 4), crossing=frozenset({1, 2}))
    assert cut == ArcCut((0, 4), frozenset({1, 2}))
    assert hash(cut) == hash(ArcCut((0, 4), frozenset({2, 1})))
    for record, name in ((node, "kind"), (cut, "crossing")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def random_branch_tree(edges, rng):
    """Leaves 0..E-1 carry the edges; inner nodes join two random subtrees.

    The arcs come shuffled, each with its ends in random order.
    """
    nodes = [BDNode(i, "edge", None, e) for i, e in enumerate(edges)]
    arcs = []
    tops = list(range(len(edges)))
    while len(tops) > 1:
        x = len(nodes)
        nodes.append(BDNode(x, "arc"))
        for _ in range(2):
            arc = (tops.pop(rng.randrange(len(tops))), x)
            arcs.append(arc if rng.random() < 0.5 else arc[::-1])
        tops.append(x)
    rng.shuffle(arcs)
    return nodes, arcs, {e: i for i, e in enumerate(edges)}


def test_width_pass_matches_unpruned_aggregation_on_random_trees():
    # arbitrary graphs, pendant vertices included, on shuffled binary trees
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 12)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randrange(n))}
        nodes, arcs, assignment = random_branch_tree(sorted(edges), rng)
        if len(nodes) == 1:
            continue
        want = unpruned_width_and_cuts(nodes, arcs, assignment)
        assert width_and_cuts(len(nodes), arcs, assignment) == want, edges
