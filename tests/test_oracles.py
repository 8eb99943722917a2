import itertools
import math
import random

import pytest

from onionpeel import (
    Embedding,
    OracleBudget,
    brute_branchwidth,
    brute_outerplanarity,
    catalan,
    certify_theorem1,
    decompose_pipeline,
    errors,
    gen_counterexample,
    gen_cycle,
    gen_k4_minus_edge,
    gen_path,
    gen_wheel,
    is_three_connected,
    is_triangulation,
    onion_peels,
)
from onionpeel import oracles
from onionpeel.embedding import _FaceBuilder, _components, _trace
from onionpeel.oracles import (
    _abstract_components,
    _adjacency,
    _component_outerplanarity,
    MAX_CHORD_SETS,
    _face_fillings,
    _min_peels,
    _triangulation_masks,
)


def radial_layers(face_sets, start, vertices):
    """Reference peel layers by one BFS over the vertex-face incidence graph.

    ``face_sets[i]`` holds the vertices of face walk i (repeats allowed)
    and ``start`` holds the indices of the walks forming the outer region.
    Vertices on no walk are isolated and count as outer.  Layer i holds
    the vertices at radial distance 2i-1 from the start walks; a vertex
    left unreached raises ``InvariantViolation``.
    """
    incident = {}
    for fi, fs in enumerate(face_sets):
        for v in fs:
            incident.setdefault(v, []).append(fi)
    reached = set(start)
    layer = {v for v in vertices if v not in incident}
    for fi in reached:
        layer.update(face_sets[fi])
    placed = set()
    layers = []
    while layer:
        layers.append(frozenset(layer))
        placed |= layer
        nxt = set()
        for v in layer:
            for fi in incident.get(v, ()):
                if fi not in reached:
                    reached.add(fi)
                    nxt.update(face_sets[fi])
        layer = nxt - placed
    if len(placed) != len(vertices):
        missing = sorted(set(vertices) - placed)
        raise errors.InvariantViolation(f"radial search never reached vertices {missing[:5]}")
    return tuple(layers)


def enumerate_face_triangulations(disk, face):
    """Reference: all triangulations of one simple face, built as embeddings.

    Every other face must already be a triangle, so each emitted embedding
    is a full triangulation.  Chord sets are the Catalan(m-2) polygon
    triangulations; a set containing an already-present edge is skipped.
    Each chord is linked on the pipeline's face builder and the result is
    validated as a triangulation.  A face that repeats a vertex, or a
    second non-triangle face, raises ``ValueError``.
    """
    if isinstance(face, int):
        face = disk.faces[face]
    if not face.is_simple:
        raise ValueError(f"face {face.vertices} repeats a vertex")
    if any(f.darts != face.darts and len(f) != 3 for f in disk.faces):
        raise ValueError("all faces other than the target must be triangles")
    m = len(face)
    if catalan(m - 2) > MAX_CHORD_SETS:
        raise errors.BudgetExceeded(f"Catalan({m - 2}) exceeds {MAX_CHORD_SETS}")
    c = face.vertices
    for chords in polygon_chord_sets(0, m - 1):
        if any(disk.has_edge(c[a], c[b]) for a, b in chords):
            continue
        b = _FaceBuilder(disk)
        for i, j in chords:
            x, y = c[i], c[j]
            # the one walk through both ends; its corners there take the chord
            walk = next(
                w for w in (successor_walk(b.nxt, (x, n)) for n in b.rotations()[x])
                if any(d[0] == y for d in w)
            )
            b.link(*[walk[p - 1] for p, d in enumerate(walk) if d[0] in (x, y)])
        tri = Embedding(b.rotations(), disk.outer_darts)
        assert is_triangulation(tri)
        yield tri


def successor_walk(nxt, start):
    """The darts from ``start`` along the successor map back to it."""
    walk = [start]
    while nxt[walk[-1]] != start:
        walk.append(nxt[walk[-1]])
    return walk


def polygon_chord_sets(i, j):
    """Chord sets of all triangulations of the sub-polygon c_i..c_j."""
    if j - i < 3:
        yield ()
        return
    for k in range(i + 1, j):
        extra = ()
        if k - i > 1:
            extra += ((i, k),)
        if j - k > 1:
            extra += ((k, j),)
        for left in polygon_chord_sets(i, k):
            for right in polygon_chord_sets(k, j):
                yield left + right + extra


def test_branchwidth_examples():
    assert brute_branchwidth(gen_cycle(3)) == 2
    assert brute_branchwidth(gen_wheel(3)) == 3
    assert brute_branchwidth(gen_path(2)) == 0
    assert brute_branchwidth([]) == 0
    assert brute_branchwidth(gen_path(3)) == 1
    assert brute_branchwidth(gen_path(5)) == 2  # interior edge forces both ends
    assert brute_branchwidth(gen_cycle(6)) == 2


def test_branchwidth_budget():
    with pytest.raises(errors.BudgetExceeded):
        brute_branchwidth(gen_cycle(10))
    assert brute_branchwidth(gen_cycle(10), OracleBudget(max_edges=10)) == 2


def test_outerplanarity_examples():
    assert brute_outerplanarity(gen_cycle(4)) == 1
    assert brute_outerplanarity(gen_wheel(3)) == 2
    assert brute_outerplanarity(gen_path(2)) == 1
    assert brute_outerplanarity([]) == 0


def test_outerplanarity_k5_not_planar():
    k5 = list(itertools.combinations(range(5), 2))
    with pytest.raises(errors.NotPlanar):
        brute_outerplanarity(k5)


def test_outerplanarity_rejects_self_loops():
    for graph in ([(0, 0), (0, 1)], [(0, 1), (1, 2), (2, 0), (1, 1)], [(3, 3)]):
        with pytest.raises(errors.SelfLoop):
            brute_outerplanarity(graph)


def test_outerplanarity_budget():
    with pytest.raises(errors.BudgetExceeded):
        brute_outerplanarity(gen_cycle(8))


def test_outerplanarity_beats_fixed_embedding():
    # triangle with a pendant drawn inside: this embedding peels to 2,
    # but redrawing the pendant outside is 1-outerplanar
    from onionpeel import Embedding

    emb = Embedding({0: [1, 3, 2], 1: [2, 0], 2: [0, 1], 3: [0]}, [(0, 1)])
    assert onion_peels(emb).k == 2
    assert brute_outerplanarity(emb) == 1


def test_catalan_values():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_enumerate_square_face():
    w4 = gen_wheel(4)
    outer_idx = w4.faces.index(w4.outer_faces[0])
    tris = list(enumerate_face_triangulations(w4, outer_idx))
    assert len(tris) == 2
    chords = {tuple(sorted(set(t.edges) - set(w4.edges))) for t in tris}
    assert chords == {((0, 2),), ((1, 3),)}
    assert all(is_triangulation(t) for t in tris)


def test_enumerate_triangle_face_is_identity():
    k4 = gen_wheel(3)
    tris = list(enumerate_face_triangulations(k4, 0))
    assert tris == [k4]


def test_enumerate_skips_conflicting_chords():
    k4me = gen_k4_minus_edge()
    outer_idx = k4me.faces.index(k4me.outer_faces[0])
    tris = list(enumerate_face_triangulations(k4me, outer_idx))
    assert len(tris) == 1
    assert tris[0].edge_count == 6


def test_enumerate_octagon_of_counterexample():
    g2 = gen_counterexample(2)
    outer_idx = g2.faces.index(g2.outer_faces[0])
    count = 0
    for tri in enumerate_face_triangulations(g2, outer_idx):
        count += 1
        assert is_triangulation(tri)
    assert count == catalan(6) == 132


def test_enumerate_requires_simple_face():
    bow = Embedding(
        {0: [1, 2], 1: [2, 0], 2: [0, 1, 3, 4], 3: [4, 2], 4: [2, 3]}, [(0, 1)]
    )
    with pytest.raises(ValueError):
        list(enumerate_face_triangulations(bow, bow.faces.index(bow.outer_faces[0])))


def test_enumerate_budget():
    # the wheel's 17-gon rim has Catalan(15) = 9,694,845 triangulations
    w17 = gen_wheel(17)
    assert catalan(15) > MAX_CHORD_SETS
    with pytest.raises(errors.BudgetExceeded):
        list(enumerate_face_triangulations(w17, w17.outer_faces[0]))
    with pytest.raises(errors.BudgetExceeded):
        next(_face_fillings(w17))


def test_three_connectivity_checker():
    for emb, expected in [
        (gen_wheel(3), True),
        (gen_k4_minus_edge(), False),
        (gen_cycle(5), False),
    ]:
        assert is_three_connected(emb) is expected
        assert is_three_connected(emb.edges) is expected
        assert is_three_connected([(v, u) for u, v in emb.edges]) is expected
    # two disjoint K4s: each side 3-connected, the whole not connected
    k4 = list(itertools.combinations(range(4), 2))
    assert not is_three_connected(k4 + [(u + 4, v + 4) for u, v in k4])
    # two K4s sharing the edge 0-1: with either end removed, the other is
    # the first vertex searched from and the only articulation point
    assert not is_three_connected(k4 + [(0, 4), (0, 5), (1, 4), (1, 5), (4, 5)])


def smallest_cut(adj):
    """Reference: the size of the smallest vertex set of at most 2 whose
    removal disconnects the graph, by a component search after removing
    every such set; None if there is none."""
    for r in (0, 1, 2):
        for cut in itertools.combinations(adj, r):
            rest = {v: [w for w in ns if w not in cut] for v, ns in adj.items() if v not in cut}
            if len(set(_components(rest).values())) > 1:
                return r
    return None


def exhaustive_three_connected(graph):
    """Reference: the component search after every 1- and 2-vertex removal."""
    adj = _adjacency(graph)
    return len(adj) >= 4 and smallest_cut(adj) is None


def random_connectivity_graphs(count, seed):
    """Seeded graphs on 4-11 vertices: G(n, p), and two G(n, p) glued at a pair.

    p is drawn from [0.15, 1) per graph, so disconnected draws and cut
    vertices occur; gluing two dense halves at two shared vertices gives
    graphs whose only small cut is a pair.
    """
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(4, 11)
        p = rng.uniform(0.15, 1.0)
        edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < p}
        if rng.random() < 0.3 and n >= 6:
            cut = rng.randint(3, n - 3)
            sides = (range(0, cut + 2), range(cut, n))
            edges = {
                e
                for side in sides
                for e in itertools.combinations(side, 2)
                if rng.random() < max(p, 0.7)
            }
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))
    return graphs


def test_three_connectivity_matches_exhaustive_search_on_random_graphs():
    kinds = {0: 0, 1: 0, 2: 0, None: 0}  # disconnected, cut vertex, cut pair, none
    for i, edges in enumerate(random_connectivity_graphs(400, seed=3)):
        assert is_three_connected(edges) == exhaustive_three_connected(edges), i
        adj = _adjacency(edges)
        if len(adj) >= 4:
            kinds[smallest_cut(adj)] += 1
    assert min(kinds.values()) >= 20, kinds


def test_three_connectivity_matches_exhaustive_search_on_corpus_and_gadgets(corpus):
    found = {}
    for label, emb in corpus:
        found[label] = is_three_connected(emb)
        assert found[label] == exhaustive_three_connected(emb), label
        assert is_three_connected(emb.edges) == found[label], label
    # theorem 1's gadgets: K4 minus an edge and K4 for k = 1, G_k for k >= 2
    gadgets = ["k4me", "wheel3"] + [f"counter{k}" for k in range(2, 7)]
    assert [found[label] for label in gadgets] == [False] + [True] * 6


def test_theorem1_k1():
    report = certify_theorem1(1)
    assert report.passed
    assert report.triangulation_count == 1
    assert report.min_outerplanarity == 2


def test_theorem1_k2():
    report = certify_theorem1(2)
    assert report.passed and report.three_connected
    assert report.triangulation_count == 132
    assert report.min_outerplanarity == 3
    assert "3-connected" in report.assumption


def test_theorem1_k3():
    report = certify_theorem1(3)
    assert report.passed and report.three_connected
    assert report.triangulation_count == 132
    assert report.min_outerplanarity == 4


@pytest.mark.parametrize("k", [4, 5, 6])
def test_theorem1_up_to_cli_cap(k):
    report = certify_theorem1(k)
    assert report.passed and report.three_connected
    assert report.triangulation_count == 132
    assert report.min_outerplanarity == k + 1


def test_face_fillings_skip_present_chords_and_reject_bad_gadgets():
    # K4 minus an edge, missing 1-3 or 0-2: the one filling adds the missing edge
    for emb, filling in [
        (gen_k4_minus_edge(), ((1, 2, 3), (0, 1, 3))),
        (Embedding({0: [1, 3], 1: [2, 3, 0], 2: [3, 1], 3: [0, 1, 2]}, [(1, 2)]),
         ((0, 1, 2), (0, 2, 3))),
    ]:
        assert list(_face_fillings(emb)) == [filling]
    bow = Embedding(
        {0: [1, 2], 1: [2, 0], 2: [0, 1, 3, 4], 3: [4, 2], 4: [2, 3]}, [(0, 1)]
    )
    # K4 minus an edge beside a triangle: one simple long face, but 5 faces
    # where a 7-vertex triangulation has 10
    beside = Embedding(
        {0: [1, 2, 3], 1: [2, 0], 2: [3, 0, 1], 3: [0, 2],
         4: [5, 6], 5: [6, 4], 6: [4, 5]},
        [(0, 1), (4, 5)],
    )
    for graph in (bow, gen_cycle(5), beside):
        with pytest.raises(errors.InvariantViolation):
            list(_face_fillings(graph))


def test_oracle_sandwich_small(small_corpus):
    for label, emb in small_corpus:
        if emb.edge_count <= 9:
            assert brute_branchwidth(emb) <= decompose_pipeline(emb).width, label
        if emb.vertex_count <= 7:
            assert brute_outerplanarity(emb) <= onion_peels(emb).k, label


def traced_planar_systems(comp, adj):
    """Face walks of every planar rotation system of a component with an
    edge, mirror images included."""
    n_edges = sum(len(adj[v] & set(comp)) for v in comp) // 2
    orders = []
    for v in comp:
        ns = sorted(adj[v])
        if len(ns) <= 2:
            orders.append((tuple(ns),))
        else:
            orders.append(tuple((ns[0],) + p for p in itertools.permutations(ns[1:])))
    for combo in itertools.product(*orders):
        walks, _ = _trace(dict(zip(comp, combo)))
        if len(comp) - n_edges + len(walks) == 2:
            yield walks


def traced_component_outerplanarity(comp, adj):
    """Reference: trace the faces of every rotation system, mirror images
    included, and peel each planar one from every face by radial search."""
    if len(comp) == 1:
        return 1
    best = None
    for walks in traced_planar_systems(comp, adj):
        face_sets = [{d[0] for d in walk} for walk in walks]
        for i in range(len(walks)):
            k = len(radial_layers(face_sets, [i], comp))
            if best is None or k < best:
                best = k
    if best is None:
        raise errors.NotPlanar(f"component {comp[:4]}... has no planar rotation system")
    return best


def outcome(fn, comp, adj):
    try:
        return fn(comp, adj)
    except errors.NotPlanar:
        return "not planar"


def assert_components_match_traced_reference(adj, label):
    for comp in _abstract_components(adj):
        fast = outcome(_component_outerplanarity, comp, adj)
        assert fast == outcome(traced_component_outerplanarity, comp, adj), (label, comp)


def adjacency(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def rotation_systems(adj):
    return math.prod(math.factorial(max(len(ns) - 1, 0)) for ns in adj.values())


def random_small_graphs(count, seed):
    """Seeded graphs on 2-7 vertices, isolated vertices kept.

    Most are G(n, p) with p drawn from [0.3, 1) per graph, so sparse
    disconnected graphs and dense ones occur; 40% of those on 6-7 vertices
    are a relabelled K3,3 plus G(n, p/5), so non-planar inputs occur too.
    A draw with more than 1500 rotation systems is redrawn, to bound the
    reference's run time.
    """
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(2, 7)
        p = rng.uniform(0.3, 1.0)
        edges = set()
        if n >= 6 and rng.random() < 0.4:
            p /= 5
            side = rng.sample(range(n), 6)
            edges = {(min(a, b), max(a, b)) for a in side[:3] for b in side[3:]}
        edges |= {e for e in itertools.combinations(range(n), 2) if rng.random() < p}
        adj = adjacency(n, edges)
        if rotation_systems(adj) <= 1500:
            graphs.append(adj)
    return graphs


def test_component_outerplanarity_matches_traced_reference_on_random_graphs():
    graphs = random_small_graphs(400, seed=5)
    kinds = {"disconnected": 0, "not planar": 0, "2-outerplanar": 0}
    for i, adj in enumerate(graphs):
        assert_components_match_traced_reference(adj, i)
        comps = _abstract_components(adj)
        found = [outcome(_component_outerplanarity, c, adj) for c in comps]
        kinds["disconnected"] += len(comps) > 1
        kinds["not planar"] += "not planar" in found
        kinds["2-outerplanar"] += 2 in found
    assert min(kinds.values()) >= 20, kinds


def test_component_outerplanarity_matches_traced_reference_on_corpus(corpus):
    # the oracle reads only the edge set, so each distinct one is run once
    graphs = {
        emb.edges: (label, emb)
        for label, emb in reversed(corpus)
        if emb.vertex_count <= OracleBudget().max_vertices
    }
    assert len(graphs) == 20
    for label, emb in graphs.values():
        adj = {v: set(emb.rotation(v)) for v in emb.vertices}
        assert_components_match_traced_reference(adj, label)


def test_component_outerplanarity_matches_traced_reference_on_kuratowski_graphs():
    k5 = adjacency(5, itertools.combinations(range(5), 2))
    k33 = adjacency(6, [(a, b) for a in range(3) for b in range(3, 6)])
    for label, adj in [("K5", k5), ("K3,3", k33)]:
        assert outcome(_component_outerplanarity, list(adj), adj) == "not planar"
        assert_components_match_traced_reference(adj, label)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_min_peels_over_faces_matches_radial_layers(k):
    """The mask route gives the built triangulations' faces and peel counts.

    Both routes enumerate the 132 triangulations in the same order; each
    mask list is the reference embedding's faces as vertex masks, and its
    peel count is the radial peel count minimized over outer faces.
    """
    gadget = gen_counterexample(k)
    long_face = next(f for f in gadget.faces if len(f) != 3)
    tris = list(enumerate_face_triangulations(gadget, long_face))
    masks = list(_triangulation_masks(gadget))
    assert len(tris) == len(masks) == 132
    bit = {v: 1 << i for i, v in enumerate(gadget.vertices)}
    for tri, tri_masks in zip(tris, masks):
        assert sorted(tri_masks) == sorted(
            sum(bit[v] for v in f.vertex_set) for f in tri.faces
        )
        face_sets = [f.vertex_set for f in tri.faces]
        expected = min(
            len(radial_layers(face_sets, [i], tri.vertices))
            for i in range(len(face_sets))
        )
        assert _min_peels(tri_masks, len(bit)) == expected


def test_min_peels_reports_unreachable_vertices():
    with pytest.raises(errors.InvariantViolation):
        _min_peels([0b000111, 0b111000], 6)


# -- the closing vertex: one trace per choice of the other vertices' orders ---


def planar_systems_up_to_mirror(comp, adj):
    """A vertex of degree >= 3 makes every system differ from its mirror."""
    if len(comp) == 1:
        return 0
    found = sum(1 for _ in traced_planar_systems(comp, adj))
    return found // 2 if max(len(adj[v]) for v in comp) >= 3 else found


def renamed(adj, name):
    return {name(v): {name(w) for w in ns} for v, ns in adj.items()}


def relabelled(adj, seed):
    labels = list(adj)
    random.Random(seed).shuffle(labels)
    return renamed(adj, dict(zip(adj, labels)).get)


def closing_vertex_cases():
    """Named graphs; the comments name the closing vertex x (the most
    orders, ties to the first) before relabelling."""
    def star(n):
        return adjacency(n + 1, [(0, i) for i in range(1, n + 1)])

    def wheel(n):
        return adjacency(n + 1, [(0, i) for i in range(1, n + 1)]
                         + [(i, i % n + 1) for i in range(1, n + 1)])

    def cycle(n):
        return adjacency(n, [(i, (i + 1) % n) for i in range(n)])

    k4 = adjacency(4, itertools.combinations(range(4), 2))
    path = adjacency(3, [(0, 1), (1, 2)])
    return [
        ("path", adjacency(5, [(i, i + 1) for i in range(4)])),  # x = 0, degree 1
        ("edge", adjacency(2, [(0, 1)])),  # x = 0, degree 1, one dart each way
        ("star3", star(3)),  # every vertex has one order: x = 0, mirror-fixed
        ("star3 centre last", renamed(star(3), lambda v: 3 - v)),  # x = 0, a leaf
        ("star4", star(4)),  # x = 0, mirror-fixed, 3 orders
        ("star5", star(5)),  # x = 0, mirror-fixed, 12 orders
        ("cycle3", cycle(3)),  # x = 0, degree 2
        ("cycle6", cycle(6)),
        ("wheel5", wheel(5)),  # x = 0, the hub, mirror-fixed, 12 orders
        ("wheel5 hub last", renamed(wheel(5), lambda v: (v - 1) % 6)),  # x = the hub
        ("K4", k4),  # 0 is mirror-fixed; 1, 2 and 3 tie at 2 orders: x = 1
        ("K2,3", adjacency(5, [(a, b) for a in range(2) for b in range(2, 5)])),  # x = 1
        ("K4 and a pendant", {**k4, 0: k4[0] | {4}, 4: {0}}),  # x = 0, mirror-fixed
        ("disconnected", {**path, **renamed(k4, lambda v: v + 3)}),
        ("disconnected, isolated", {**path, 3: set(), **renamed(k4, lambda v: v + 4)}),
    ]


def test_component_outerplanarity_matches_reference_on_closing_vertex_cases():
    for label, adj in closing_vertex_cases():
        for seed in range(4):
            graph = adj if seed == 0 else relabelled(adj, seed)
            assert_components_match_traced_reference(graph, (label, seed))
            expected = max(outcome(traced_component_outerplanarity, c, graph)
                           for c in _abstract_components(graph))
            edges = [(u, v) for u in graph for v in graph[u] if u < v]
            if len(graph) == len({v for e in edges for v in e}):
                assert brute_outerplanarity(edges) == expected, (label, seed)


def test_min_peels_runs_once_per_planar_system_up_to_mirror(monkeypatch):
    calls = []

    def counted(masks, n):
        calls.append(n)
        return _min_peels(masks, n)

    monkeypatch.setattr(oracles, "_min_peels", counted)
    graphs = [adj for _, adj in closing_vertex_cases()] + random_small_graphs(400, seed=8)
    planar = 0
    for adj in graphs:
        for comp in _abstract_components(adj):
            calls.clear()
            outcome(_component_outerplanarity, comp, adj)
            assert len(calls) == planar_systems_up_to_mirror(comp, adj), comp
            planar += len(calls)
    assert planar > 400


def test_not_planar_text_names_the_component():
    k5 = list(itertools.combinations(range(5), 2))
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    for edges in (k5, k33):
        with pytest.raises(errors.NotPlanar) as caught:
            brute_outerplanarity(edges)
        assert str(caught.value) == (
            "no rotation system of component [0, 1, 2, 3]... achieves genus 0"
        )
