import dataclasses
import random
from collections import Counter
from functools import cached_property

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
from onionpeel.branchdecomp import ArcCut, BDNode, _cut_pass
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


def compact(bd):
    """``bd``'s tree in the cut pass's form, read off its sorted arcs: the
    face count, each arc node's two faces, each leaf's node, the edges."""
    first_arc = len(bd.faces)
    first_leaf = first_arc + len(bd.arc_edges)
    faces_of = {a: [] for a in range(first_arc, first_leaf)}
    hang = {}
    for a, b in bd.arcs:
        if b >= first_leaf:
            hang[b] = a
        else:
            faces_of[b].append(a)
    ends = [f for a in sorted(faces_of) for f in faces_of[a]]
    return first_arc, ends, [hang[leaf] for leaf in sorted(hang)], list(bd.assignment)


def expand(n_faces, ends, hangs, edges):
    """The nodes, arcs and assignment that a compact form stands for."""
    first_leaf = n_faces + len(ends) // 2
    arcs = [(f, n_faces + j // 2) for j, f in enumerate(ends)]
    arcs += [(x, leaf) for leaf, x in enumerate(hangs, first_leaf)]
    n = first_leaf + len(edges)
    nodes = [BDNode(i, "face" if i < n_faces else "arc" if i < first_leaf else "edge")
             for i in range(n)]
    return nodes, arcs, dict(zip(edges, range(first_leaf, n)))


def is_tree(nodes, arcs) -> bool:
    try:
        branchdecomp._check_tree([x.id for x in nodes], arcs)
    except errors.NotATree:
        return False
    return True


def width_and_cuts(n_faces, ends, hangs, edges):
    """The width and the cuts sorted by arc, from one run of the pass."""
    crossing = {}
    width = _cut_pass(n_faces, ends, hangs, edges, cuts=crossing)
    return width, tuple(sorted(ArcCut(arc, c) for arc, c in crossing.items()))


def test_width_and_cuts_match_unpruned_aggregation(corpus):
    # three seeded relabelings of every input, under both forests
    rng = random.Random(19)
    extra = [("path240", gen_path(240)), ("cycle400", gen_cycle(400))] + deep_disks()
    for label, emb in corpus + extra:
        for emb in [emb] + [relabel(emb, rng) for _ in range(3)]:
            disk, bfs = disk_and_forest(emb)
            for forest in (bfs, depth_first_forest(disk)):
                bd = build_branch_tree(disk, forest)
                args = (bd.nodes, bd.arcs, bd.assignment)
                assert (bd.width, bd.cuts) == unpruned_width_and_cuts(*args), label
                assert width_and_cuts(*compact(bd)) == (bd.width, bd.cuts), label


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
        n_faces, ends, hangs, edges = compact(bd)
        edges = [(CountedVertex(u), CountedVertex(v)) for u, v in edges]
        CountedVertex.hashes = 0
        width = _cut_pass(n_faces, ends, hangs, edges)
        assert width == bd.width == 2 * depth
        per_edge.append(CountedVertex.hashes / len(edges))
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


def test_branch_tree_takes_linear_line_events():
    # the build and its certified pass run a bounded number of lines per
    # tree node and per crossing vertex: 52,090 on nested36 (739 nodes,
    # 11,519 crossing vertices) and 31,455 on an 8x14 k-ring disk (734
    # and 3,308); the route before the compact pass, which sorted every
    # arc and rebuilt the tree from that list, ran 83,386 and 50,285,
    # over 12 per unit on the k-ring disk
    from test_checkers import line_events

    helpers = [getattr(branchdecomp, name) for name in (
        "_cut_pass", "_on_edge", "_on_separator", "_separator_key", "_forest_intervals")]
    for emb in (gen_nested_triangles(36), deep_disks()[0][1]):
        disk, forest = disk_and_forest(emb)
        bd, steps = line_events(build_branch_tree, disk, forest, also=helpers)
        size = len(bd.nodes) + sum(len(c.crossing) for c in bd.cuts)
        assert steps <= 9 * size, (steps, size)


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

    def counting(*args, **kwargs):
        calls.append(1)
        return _cut_pass(*args, **kwargs)

    monkeypatch.setattr(branchdecomp, "_cut_pass", counting)
    return calls


def test_width_pass_runs_once_per_pipeline(monkeypatch):
    calls = count_passes(monkeypatch)
    emb = gen_random_kouter(4, 7, 3)
    decompose_pipeline(emb)
    assert len(calls) == 1
    calls.clear()
    build_branch_tree(*disk_and_forest(emb))
    assert len(calls) == 1


def tampered(monkeypatch, check, target, extra):
    """Make the ``target``-th call of the certificate ``check`` (an attribute
    of branchdecomp) test its crossing plus vertex ``extra``."""
    real = getattr(branchdecomp, check)
    calls = []

    def plus(*args):
        *head, crossing = args
        calls.append(1)
        return real(*head, [*crossing, extra] if len(calls) - 1 == target else crossing)

    monkeypatch.setattr(branchdecomp, check, plus)


def certificate_calls(monkeypatch, check, run):
    """The first argument of every call that ``run()`` makes of ``check``."""
    real = getattr(branchdecomp, check)
    firsts = []

    def recording(first, *args):
        firsts.append(first)
        return real(first, *args)

    with monkeypatch.context() as m:
        m.setattr(branchdecomp, check, recording)
        run()
    return firsts


def face_depths(bd):
    """Each face node's distance from face node 0 in the dual tree."""
    faces_of = {}
    for f, a in bd.arcs:
        if f < len(bd.faces) and a < len(bd.faces) + len(bd.arc_edges):
            faces_of.setdefault(a, []).append(f)
    depth = {0: 0}
    todo = [0]
    for f in todo:
        for g in (g for fs in faces_of.values() if f in fs for g in fs):
            if g not in depth:
                depth[g] = depth[f] + 1
                todo.append(g)
    return depth


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


def eager_arcs_and_assignment(bd):
    """The sorted arcs and the edge -> leaf map, built as the builder once
    built them at the end of every call, from the edge loop's lists."""
    first_arc = len(bd.faces)
    first_leaf = first_arc + len(bd.arc_edges)
    leaves = range(first_leaf, first_leaf + len(bd.edges))
    arcs = [(f, first_arc + j // 2) for j, f in enumerate(bd.ends)]
    arcs += zip(bd.hangs, leaves)
    arcs.sort()
    return tuple(arcs), dict(zip(bd.edges, leaves))


def test_arcs_and_assignment_equal_the_eager_construction(corpus):
    # deep_disks() holds two relabelled nested-36 disks
    for label, emb in [*corpus, *deep_disks()]:
        disk, forest = disk_and_forest(emb)
        bd = build_branch_tree(disk, forest)
        arcs, assignment = eager_arcs_and_assignment(bd)
        assert bd.arcs == arcs and bd.assignment == assignment, label
        assert list(bd.assignment.items()) == list(assignment.items()), label
        # read back off the arcs, each arc node's faces come in id order
        n_faces, ends, hangs, edges = compact(bd)
        pairs = zip(bd.ends[::2], bd.ends[1::2])
        assert ends == [f for pair in pairs for f in sorted(pair)], label
        assert (n_faces, hangs, edges) == (len(bd.faces), [*bd.hangs], [*bd.edges]), label


def test_arcs_and_assignment_are_built_on_first_read(monkeypatch):
    # the pipeline reads only the width: it sorts no arc and maps no leaf
    built = Counter()
    for name in ("arcs", "assignment"):
        real = getattr(branchdecomp.BranchDecomposition, name).func

        def make(bd, name=name, real=real):
            built[name] += 1
            return real(bd)

        prop = cached_property(make)
        prop.__set_name__(branchdecomp.BranchDecomposition, name)
        monkeypatch.setattr(branchdecomp.BranchDecomposition, name, prop)
    disk, _ = to_triangulated_disk(gen_random_kouter(8, 14, 5))
    cert = decompose_pipeline(parse_epg(format_epg(disk)))
    assert built == {}
    bd = cert.tree
    arcs = bd.arcs
    assert built == {"arcs": 1}
    assignment = bd.assignment
    assert built == {"arcs": 1, "assignment": 1}
    assert bd.arcs is arcs and bd.assignment is assignment
    bd.nodes, bd.cuts
    assert built == {"arcs": 1, "assignment": 1}
    assert (arcs, assignment) == eager_arcs_and_assignment(bd)


def test_branch_trees_hash_and_compare_by_value():
    disk, forest = disk_and_forest(gen_random_kouter(4, 7, 3))
    a = build_branch_tree(disk, forest)
    b = decompose_pipeline(parse_epg(format_epg(disk))).tree
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash(decompose_pipeline(gen_random_kouter(4, 7, 3)).tree)
    other = build_branch_tree(*disk_and_forest(gen_random_kouter(4, 7, 4)))
    assert other != a
    assert len({a, b, other}) == 2


def test_certify_rejects_a_crossing_vertex_off_its_separator(monkeypatch):
    # every arc node tests its lower face arc's crossing, then its leaf's
    # endpoints on its upper face arc, against its edge's separator: an
    # off-separator vertex injected into either names that face arc
    disk, forest = disk_and_forest(gen_nested_triangles(4))
    bd = build_branch_tree(disk, forest)
    first_arc = len(bd.faces)
    intervals = branchdecomp._forest_intervals(forest)
    arc_node_of = {
        branchdecomp._separator_key(intervals, forest.parent, *e): a
        for a, e in enumerate(bd.arc_edges, first_arc)
    }
    keys = certificate_calls(monkeypatch, "_on_separator", lambda: build_branch_tree(disk, forest))
    assert Counter(map(arc_node_of.get, keys)) == dict.fromkeys(arc_node_of.values(), 2)
    depth = face_depths(bd)
    named = {}
    for target, key in enumerate(keys):
        a = arc_node_of[key]
        v1, v2 = bd.arc_edges[a - first_arc]
        paths = set(forest.root_path(v1)) | set(forest.root_path(v2))
        off = min(set(disk.vertices) - paths)
        with monkeypatch.context() as m:
            tampered(m, "_on_separator", target, off)
            with pytest.raises(errors.BoundViolated) as exc:
                build_branch_tree(disk, forest)
        named.setdefault(a, []).append(str(exc.value))
    for a, texts in named.items():
        lower, upper = sorted((f for f, b in bd.arcs if b == a), key=depth.get, reverse=True)
        assert texts == [
            f"cut at arc {(lower, a)} escapes its forest separator",
            f"cut at arc {(upper, a)} escapes its forest separator",
        ]
    assert len(named) == len(bd.arc_edges)


def test_certify_rejects_a_width_over_the_forest_bound(monkeypatch):
    disk, forest = disk_and_forest(gen_nested_triangles(4))
    bound = 2 * (forest.height + 1)
    monkeypatch.setattr(branchdecomp, "_cut_pass", lambda *args: bound + 1)
    with pytest.raises(errors.BoundViolated) as exc:
        build_branch_tree(disk, forest)
    assert str(exc.value) == f"width {bound + 1} exceeds 2(h+1) = {bound}"


def test_tree_cotree_second_route(small_corpus):
    for label, emb in small_corpus:
        disk, forest = disk_and_forest(emb)
        verify_tree_cotree(disk, forest)


def test_width_pass_certifies_the_tree():
    # the tree defects that the compact form can hold: too few arc nodes,
    # and the right count with a face cut off
    disk, forest = disk_and_forest(gen_wheel(5))
    bd = build_branch_tree(disk, forest)
    n_faces, ends, hangs, edges = compact(bd)
    last = n_faces + len(ends) // 2 - 1  # the last arc node, with its leaf
    j = hangs.index(last)
    short = (n_faces, ends[:-2], hangs[:j] + hangs[j + 1:], edges[:j] + edges[j + 1:])
    n = len(bd.nodes) - 2
    with pytest.raises(errors.NotATree) as exc:
        width_and_cuts(*short)
    assert str(exc.value) == f"{n} nodes but {n - 2} arcs"
    degree = Counter(ends) + Counter(hangs)
    moved = (  # one arc node's end moved to another face with room
        (n_faces, ends[:j] + [g] + ends[j + 1:], hangs, edges)
        for j, f in enumerate(ends)
        for g in range(n_faces)
        if g not in (f, ends[j ^ 1]) and degree[g] < 3
    )
    split = next(form for form in moved if not is_tree(*expand(*form)[:2]))
    with pytest.raises(errors.NotATree) as exc:
        width_and_cuts(*split)
    assert str(exc.value) == "arc set leaves the node set disconnected"
    for form in (short, split):
        nodes, arcs, _ = expand(*form)
        with pytest.raises(errors.NotATree) as ref:
            branchdecomp._check_tree([x.id for x in nodes], arcs)
        with pytest.raises(errors.NotATree) as exc:
            width_and_cuts(*form)
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
    # one face node with one leaf: a pendant edge crosses nothing
    assert width_and_cuts(1, [], [0], [(0, 1)]) == (0, (ArcCut((0, 1), frozenset()),))


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


def test_pipeline_certifies_the_width_bound(monkeypatch):
    emb = gen_nested_triangles(4)  # k = 4
    build = branchdecomp.build_branch_tree
    monkeypatch.setattr(
        branchdecomp, "build_branch_tree",
        lambda disk, forest: dataclasses.replace(build(disk, forest), width=9),
    )
    with pytest.raises(errors.BoundViolated) as exc:
        decompose_pipeline(emb)
    assert type(exc.value) is errors.BoundViolated
    assert str(exc.value) == "width 9 exceeds 2k = 8"


def test_pipeline_certifies_the_treewidth_bound(monkeypatch):
    emb = gen_nested_triangles(4)  # k = 4
    monkeypatch.setattr(branchdecomp, "treewidth_bound", lambda bw: 12)
    with pytest.raises(errors.BoundViolated) as exc:
        decompose_pipeline(emb)
    assert type(exc.value) is errors.BoundViolated
    assert str(exc.value) == "treewidth bound 12 exceeds 3k-1 = 11"


def test_certify_rejects_a_vertex_off_a_leaf_edge(monkeypatch):
    disk, forest = disk_and_forest(gen_nested_triangles(4))
    bd = build_branch_tree(disk, forest)
    hang = {leaf: x for x, leaf in bd.arcs if leaf in bd.assignment.values()}
    calls = certificate_calls(monkeypatch, "_on_edge", lambda: build_branch_tree(disk, forest))
    assert calls == list(disk.edges)
    for target, e in enumerate(calls):
        leaf = bd.assignment[e]
        off = min(set(disk.vertices) - set(e))
        with monkeypatch.context() as m:
            tampered(m, "_on_edge", target, off)
            with pytest.raises(errors.BoundViolated) as exc:
                build_branch_tree(disk, forest)
        assert str(exc.value) == f"cut at leaf arc {(hang[leaf], leaf)} not within edge {e}"


def degree_defect(nodes, arcs) -> str:
    """The build's text for the first node of too high a degree or the
    first edge node that is not a leaf, by node order."""
    degree = Counter(x for arc in arcs for x in arc)
    for x in nodes:
        if degree[x.id] > 3:
            return f"node {x.id} ({x.kind}) has degree {degree[x.id]}"
        if x.kind == "edge" and degree[x.id] != 1:
            return f"edge node {x.id} is not a leaf"
    return ""


def leaf_defects(n_faces, ends, hangs):
    """Leaves hung where the compact form allows no leaf, each as new hangs."""
    first_leaf = n_faces + len(ends) // 2
    full_face = next(f for f in range(n_faces) if ends.count(f) + hangs.count(f) == 3)
    face_leaf = next(i for i, x in enumerate(hangs) if x < n_faces and x != full_face)
    arc_leaf = next(i for i, x in enumerate(hangs) if x >= n_faces)
    other_arc = next(x for x in hangs if x >= n_faces and x != hangs[arc_leaf])

    def moved(i, x):
        return hangs[:i] + [x] + hangs[i + 1:]

    return {
        "leaf moved to a full face": moved(face_leaf, full_face),
        "leaf moved to another arc node": moved(arc_leaf, other_arc),
        "leaf hung from another leaf": moved(face_leaf, first_leaf + arc_leaf),
        "leaf hung from itself": moved(face_leaf, first_leaf + face_leaf),
    }


def test_width_pass_rejects_leaf_defects_with_the_degree_check_text():
    disk, forest = disk_and_forest(gen_wheel(5))
    n_faces, ends, hangs, edges = compact(build_branch_tree(disk, forest))
    for label, bad in leaf_defects(n_faces, ends, hangs).items():
        nodes, arcs, _ = expand(n_faces, ends, bad, edges)
        with pytest.raises((errors.DegreeOverflow, errors.InvariantViolation)) as exc:
            width_and_cuts(n_faces, ends, bad, edges)
        assert str(exc.value) == degree_defect(nodes, arcs) != "", label


def test_width_pass_needs_leaves_hung_from_unassigned_nodes():
    # moving a leaf to hang from another leaf still leaves a tree, but not
    # one the pass handles: it names the broken assumption, not a non-tree
    disk, forest = disk_and_forest(gen_wheel(5))
    n_faces, ends, hangs, edges = compact(build_branch_tree(disk, forest))
    first_leaf = n_faces + len(ends) // 2
    bad = hangs[:-1] + [first_leaf]  # the last leaf hangs from the first
    assert is_tree(*expand(n_faces, ends, bad, edges)[:2])
    with pytest.raises(errors.InvariantViolation, match=f"edge node {first_leaf} is not a leaf"):
        width_and_cuts(n_faces, ends, bad, edges)


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


def random_compact_tree(edges, rng):
    """A random tree in the cut pass's form whose leaves carry ``edges``.

    Face nodes of random ids join, through arc nodes in random order, into
    a random tree of degree <= 3; each leaf takes a random free place on a
    face or an arc node, so some faces and arc nodes carry no leaf.
    """
    n_faces = rng.randrange(len(edges) // 2, len(edges) + 2) or 1
    faces = rng.sample(range(n_faces), n_faces)
    room = dict.fromkeys(faces, 3)
    pairs = []
    for i, f in enumerate(faces[1:], 1):
        g = rng.choice([g for g in faces[:i] if room[g]])
        room[f] -= 1
        room[g] -= 1
        pairs.append([f, g] if rng.random() < 0.5 else [g, f])
    rng.shuffle(pairs)
    ends = [f for pair in pairs for f in pair]
    places = [*range(n_faces, n_faces + len(pairs))]
    places += [f for f in faces for _ in range(room[f])]
    rng.shuffle(places)
    return n_faces, ends, places[: len(edges)], edges


def test_width_pass_matches_unpruned_aggregation_on_random_trees():
    # arbitrary graphs, pendant vertices included, on random compact trees
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 12)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randrange(n))}
        edges = sorted(edges)
        rng.shuffle(edges)
        form = random_compact_tree(edges, rng)
        want = unpruned_width_and_cuts(*expand(*form))
        assert width_and_cuts(*form) == want, form
