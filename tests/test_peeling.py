import random

import pytest

from onionpeel import (
    Embedding,
    RootedForest,
    build_branch_tree,
    build_rooted_forest,
    errors,
    gen_counterexample,
    gen_cycle,
    gen_nested_triangles,
    gen_path,
    gen_random_kouter,
    gen_wheel,
    onion_peels,
    saturate_inward_neighbors,
    validate_forest,
)
from onionpeel.embedding import _components, _trace
from onionpeel.oracles import _min_peels, _triangulation_masks
from test_branchdecomp import deep_disks
from test_oracles import enumerate_face_triangulations, radial_layers


def remove_vertices(emb, remove):
    """Reference deletion of outer-region vertices, remarking the outer region.

    Every removed vertex must lie on the outer region (``ValueError``
    otherwise).  The old outer region merges with every face incident to a
    removed vertex: a surviving face is outer iff one of its darts bounded
    such a face.  The result may be disconnected or empty.
    """
    gone = set(remove)
    if not gone <= emb.outer_vertices:
        raise ValueError(f"not on the outer region: {sorted(gone - emb.outer_vertices)}")
    dissolving = {i for i, f in enumerate(emb.faces) if f.is_outer or f.vertex_set & gone}
    rotations = {
        v: [w for w in emb.rotation(v) if w not in gone]
        for v in emb.vertices
        if v not in gone
    }
    walks, _ = _trace(rotations)
    comp_of = _components(rotations)
    per_comp = {}
    for w in walks:
        if any(emb.face_index_of_dart(d) in dissolving for d in w):
            per_comp.setdefault(comp_of[w[0][0]], []).append(w[0])
    edged = {comp_of[v] for v, ns in rotations.items() if ns}
    assert set(per_comp) == edged and all(len(ds) == 1 for ds in per_comp.values())
    return Embedding(rotations, [ds[0] for ds in per_comp.values()])


def removal_peels(emb):
    """Reference peel: delete the outer-region vertices until none remain."""
    layers = []
    current = emb
    while current.vertex_count:
        layers.append(current.outer_vertices)
        current = remove_vertices(current, current.outer_vertices)
    return tuple(layers)


def delete_nonbridge_edges(emb, count, rng):
    """Delete up to ``count`` random edges, never disconnecting the graph.

    An edge is a bridge iff both its darts bound the same face walk.  The
    outer region stays the walk holding a surviving dart of the old one.
    """
    for _ in range(count):
        candidates = [
            (u, v) for u, v in emb.edges
            if emb.face_index_of_dart((u, v)) != emb.face_index_of_dart((v, u))
        ]
        if not candidates:
            break
        u, v = rng.choice(candidates)
        rot = emb.rotations_dict()
        rot[u].remove(v)
        rot[v].remove(u)
        outer = next(
            d for f in emb.outer_faces for d in f.darts if d not in ((u, v), (v, u))
        )
        emb = Embedding(rot, [outer])
    return emb


def side_by_side(*embs):
    """Disjoint union, each component drawn in the shared outer region."""
    rot, outer, offset = {}, [], 0
    for emb in embs:
        for v in emb.vertices:
            rot[v + offset] = [w + offset for w in emb.rotation(v)]
        outer += [(a + offset, b + offset) for a, b in emb.outer_darts]
        offset += max(emb.vertices) + 1
    return Embedding(rot, outer)


def check_depth_bounds_peel(emb, forest):
    """A valid outer-rooted forest puts each depth-d vertex in peel <= d + 1.

    So a forest of height h witnesses at most h + 1 peels.
    """
    validate_forest(emb, forest)
    index = onion_peels(emb).index_of()
    for v, d in forest.depth.items():
        assert index[v] <= d + 1, (v, d, index[v])


def with_pendant(emb, face, v):
    """Attach a new degree-1 vertex to ``v`` inside ``face``."""
    p = max(emb.vertices) + 1
    darts = face.darts
    j = face.vertices.index(v)
    before = darts[j - 1][0]
    rot = emb.rotations_dict()
    rot[v].insert(rot[v].index(before) + 1, p)
    rot[p] = [v]
    return Embedding(rot, emb.outer_darts), p


def test_peels_triangle():
    peels = onion_peels(gen_cycle(3))
    assert peels.k == 1 and peels.layers == (frozenset({0, 1, 2}),)


def test_peels_k4():
    peels = onion_peels(gen_wheel(3))
    assert peels.layers == (frozenset({0, 1, 2}), frozenset({3}))


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
def test_peels_nested_triangles(i):
    peels = onion_peels(gen_nested_triangles(i))
    assert peels.k == i
    assert all(len(layer) == 3 for layer in peels.layers)


def test_peels_match_iterated_removal(corpus):
    for label, emb in corpus:
        assert removal_peels(emb) == onion_peels(emb).layers, label


def test_peels_match_removal_on_edge_deleted_embeddings():
    rng = random.Random(20131845)
    for trial in range(200):
        k, w = rng.randint(1, 4), rng.randint(3, 8)
        base = gen_random_kouter(k, w, rng.randint(1, 10**6))
        emb = delete_nonbridge_edges(base, rng.randint(1, base.edge_count // 2), rng)
        assert removal_peels(emb) == onion_peels(emb).layers, (trial, k, w)


def test_peels_match_removal_on_side_by_side_components():
    parts = [gen_nested_triangles(3), gen_wheel(5), gen_path(4),
             gen_random_kouter(2, 4, 7), gen_cycle(3)]
    for i in range(len(parts)):
        for j in range(len(parts)):
            emb = side_by_side(parts[i], parts[j])
            assert not emb.is_connected
            assert removal_peels(emb) == onion_peels(emb).layers, (i, j)
    emb = side_by_side(*parts)
    assert onion_peels(emb).k == 3
    assert removal_peels(emb) == onion_peels(emb).layers


def test_peels_match_removal_with_isolated_vertices():
    lone = Embedding({4: [], 9: []}, [])
    assert onion_peels(lone).layers == removal_peels(lone) == (frozenset({4, 9}),)
    assert onion_peels(Embedding({}, [])).layers == ()
    k4 = gen_wheel(3)
    rot = {v: k4.rotation(v) for v in k4.vertices}
    emb = Embedding({**rot, 10: [], 11: []}, k4.outer_darts)
    assert onion_peels(emb).layers == removal_peels(emb)
    assert onion_peels(emb).layers == (frozenset({0, 1, 2, 10, 11}), frozenset({3}))


def test_peels_match_removal_when_a_vertex_isolates_mid_peel():
    nested = gen_nested_triangles(3)
    inner = next(f for f in nested.inner_faces if not f.vertex_set & onion_peels(nested).layers[1])
    emb, p = with_pendant(nested, inner, inner.vertices[0])
    layers = onion_peels(emb).layers
    assert layers == removal_peels(emb)
    assert layers[3] == frozenset({p})
    after = remove_vertices(remove_vertices(remove_vertices(emb, layers[0]), layers[1]), layers[2])
    assert after.vertex_count == 1 and after.degree(p) == 0


def test_min_peels_over_faces_matches_rebuilt_embeddings():
    # the theorem-1 mask route against iterated removal on the built triangulations
    gadget = gen_counterexample(2)
    long_face = next(f for f in gadget.faces if len(f) != 3)
    tris = list(enumerate_face_triangulations(gadget, long_face))
    masks = list(_triangulation_masks(gadget))
    assert len(tris) == len(masks) == 132
    for tri, tri_masks in list(zip(tris, masks))[::11]:
        rot = {v: tri.rotation(v) for v in tri.vertices}
        by_removal = min(
            len(removal_peels(Embedding(rot, [f.darts[0]]))) for f in tri.faces
        )
        assert _min_peels(tri_masks, gadget.vertex_count) == by_removal


def reference_radial_peels(emb):
    """The face-set route: each walk's vertex set, searched from the outer walks."""
    return radial_layers([f.vertex_set for f in emb.faces], emb._outer_ids, emb.vertices)


def test_walk_map_peels_match_the_face_set_route_and_removal(corpus):
    parts = [gen_nested_triangles(3), gen_wheel(5), gen_path(4), gen_cycle(3)]
    disconnected = [
        ("side-by-side", side_by_side(*parts)),
        ("isolated", Embedding({4: [], 9: []}, [])),
        ("k4+isolated", Embedding({**gen_wheel(3).rotations_dict(), 10: [], 11: []},
                                  gen_wheel(3).outer_darts)),
    ]
    for label, emb in [*corpus, *deep_disks(), *disconnected]:
        layers = onion_peels(emb).layers
        assert layers == reference_radial_peels(emb) == removal_peels(emb), label


def test_radial_peel_reports_unreachable_vertices():
    # a walk map that sends every dart to the outer walk strands the inner peels
    emb = gen_nested_triangles(3)
    inner = sorted(set(emb.vertices) - emb.outer_vertices)
    emb._walk_of_dart = dict.fromkeys(emb._walk_of_dart, emb._outer_ids[0])
    with pytest.raises(errors.InvariantViolation) as exc:
        onion_peels(emb)
    assert str(exc.value) == f"radial search never reached vertices {inner[:5]}"
    with pytest.raises(errors.InvariantViolation):
        radial_layers([{0, 1, 2}, {3, 4, 5}], [0], [0, 1, 2, 3, 4, 5])


def test_peels_partition_vertices(corpus):
    for label, emb in corpus:
        peels = onion_peels(emb)
        seen = [v for layer in peels.layers for v in layer]
        assert sorted(seen) == list(emb.vertices), label
        assert all(layer for layer in peels.layers), label


def inward_witnesses(emb):
    """Per vertex of peel i > 1, its incident faces holding a peel i-1 vertex."""
    index = onion_peels(emb).index_of()
    return {
        v: [
            fi for fi, f in enumerate(emb.faces)
            if v in f.vertex_set and any(index[w] == i - 1 for w in f.vertex_set)
        ]
        for v, i in index.items()
        if i > 1
    }


def test_check_inward_face_k4():
    report = inward_witnesses(gen_wheel(3))
    assert set(report) == {3}
    # all three incident triangles of the hub touch the rim
    assert len(report[3]) == 3


def test_check_inward_face_nested():
    report = inward_witnesses(gen_nested_triangles(2))
    assert set(report) == {0, 1, 2}
    assert all(report[v] for v in report)


def test_check_inward_face_outerplanar_is_empty():
    assert inward_witnesses(gen_cycle(5)) == {}


def test_check_inward_face_all_corpus(corpus):
    """Every vertex of peel i > 1 has an incident face touching peel i - 1."""
    for label, emb in corpus:
        peels = onion_peels(emb)
        report = inward_witnesses(emb)
        deep = {v for layer in peels.layers[1:] for v in layer}
        assert set(report) == deep, label
        assert all(report.values()), label


def test_saturate_triangle_noop():
    t = gen_cycle(3)
    assert saturate_inward_neighbors(t) == t


def test_saturate_square_adds_min_chord():
    sat = saturate_inward_neighbors(gen_cycle(4))
    assert set(sat.edges) - set(gen_cycle(4).edges) == {(0, 2)}


def test_saturate_octahedron_noop():
    t2 = gen_nested_triangles(2)
    assert saturate_inward_neighbors(t2) == t2


def test_saturate_gives_inward_neighbors(corpus):
    for label, emb in corpus:
        peels = onion_peels(emb)
        sat = saturate_inward_neighbors(emb)
        index = peels.index_of()
        for v, i in index.items():
            if i == 1:
                continue
            assert any(index[w] == i - 1 for w in sat.rotation(v)), (label, v)
        assert onion_peels(sat).k <= peels.k, label
        assert sat.outer_vertices == emb.outer_vertices, label


def test_saturate_nonsimple_inner_face():
    # two squares sharing the cut vertex 6; the middle face repeats 6,
    # so the fan anchors targets at first occurrences on a non-simple walk
    from onionpeel import Embedding

    emb = Embedding(
        {6: [1, 3, 5, 2], 1: [0, 6], 0: [2, 1], 2: [6, 0],
         3: [4, 6], 4: [5, 3], 5: [6, 4]},
        [(6, 1)],
    )
    assert any(not f.is_simple for f in emb.inner_faces)
    sat = saturate_inward_neighbors(emb)
    assert set(sat.edges) - set(emb.edges) == {(0, 3), (0, 4), (0, 5), (0, 6), (4, 6)}
    assert onion_peels(sat).k == 2


def test_forest_triangle_roots_only():
    f = build_rooted_forest(gen_cycle(3))
    assert f.roots == frozenset({0, 1, 2}) and f.height == 0 and not f.parent


def test_forest_k4_tiebreak():
    f = build_rooted_forest(gen_wheel(3))
    assert f.roots == frozenset({0, 1, 2})
    assert dict(f.parent) == {3: 0}
    assert f.height == 1


def test_forest_nested3_height():
    sat = saturate_inward_neighbors(gen_nested_triangles(3))
    assert build_rooted_forest(sat).height == 2


def test_forest_depth_is_bfs_distance(small_corpus):
    for label, emb in small_corpus:
        sat = saturate_inward_neighbors(emb)
        forest = build_rooted_forest(sat)
        # independent BFS distance from the outer vertex set
        dist = {v: 0 for v in sat.outer_vertices}
        frontier = sorted(dist)
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in sat.rotation(u):
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = sorted(nxt)
        assert dict(forest.depth) == dist, label


def test_forest_height_bound_corpus(corpus):
    for label, emb in corpus:
        k = onion_peels(emb).k
        sat = saturate_inward_neighbors(emb)
        forest = build_rooted_forest(sat)
        assert forest.height <= k - 1, label
        check_depth_bounds_peel(sat, forest)


def test_forest_peels_k4():
    k4 = gen_wheel(3)
    forest = build_rooted_forest(k4)
    check_depth_bounds_peel(k4, forest)
    assert (onion_peels(k4).k, forest.height) == (2, 1)


def test_nonspanning_forest_rejected():
    k4 = gen_wheel(3)
    bogus = RootedForest(parent={}, depth={0: 0, 1: 0, 2: 0}, roots=frozenset({0, 1, 2}))
    with pytest.raises(errors.UnreachableVertex):
        validate_forest(k4, bogus)


def test_forest_with_extra_vertices_names_them():
    emb = gen_nested_triangles(2)
    forest = build_rooted_forest(emb)
    for extra, named in (
        ({99: 0}, "[99]"),
        ({"a": 0}, "['a']"),
        ({"a": 0, 99: 0, 7.5: 0, -3: 1, (1, 2): 0, 1000: 2}, "['a', 99, 7.5, -3, (1, 2)]"),
    ):
        bad = RootedForest(
            parent=forest.parent, depth={**forest.depth, **extra}, roots=forest.roots | {99}
        )
        for check in (validate_forest, build_branch_tree):
            with pytest.raises(errors.InvariantViolation) as exc:
                check(emb, bad)
            assert str(exc.value) == f"forest covers vertices outside the embedding: {named}"
        assert validation_outcome(ref_validate_forest, emb, bad) == (
            errors.InvariantViolation, str(exc.value)
        )
    # a vertex missing still takes precedence, with today's text
    short = dict(forest.depth)
    del short[0]
    bad = RootedForest(parent=forest.parent, depth={**short, 99: 0}, roots=forest.roots)
    with pytest.raises(errors.UnreachableVertex, match=r"^forest does not span: missing \[0\]$"):
        validate_forest(emb, bad)


def test_forest_roots_are_all_outer_vertices(corpus):
    for label, emb in corpus:
        forest = build_rooted_forest(saturate_inward_neighbors(emb))
        assert forest.roots == emb.outer_vertices, label


def test_counterexample_peel_sizes():
    g = gen_counterexample(2)
    peels = onion_peels(g)
    assert peels.k == 2
    assert len(peels.layers[0]) == 8  # the outer octagon
    assert len(peels.layers[1]) == 16


def ref_validate_forest(emb, forest):
    """The root-path-climbing check: every vertex walks its whole root path."""
    verts = set(emb.vertices)
    covered = set(forest.depth)
    if not verts <= covered:
        raise errors.UnreachableVertex(
            f"forest does not span: missing {sorted(verts - covered)[:5]}"
        )
    extra = [v for v in forest.depth if v not in verts]
    if extra:
        raise errors.InvariantViolation(
            f"forest covers vertices outside the embedding: {extra[:5]}"
        )
    outer = emb.outer_vertices
    for r in forest.roots:
        if r not in outer:
            raise errors.InvariantViolation(f"root {r} is not an outer vertex")
    for v, p in forest.parent.items():
        if not emb.has_edge(v, p):
            raise errors.InvariantViolation(f"forest edge ({v},{p}) not in embedding")
        if forest.depth[v] != forest.depth[p] + 1:
            raise errors.InvariantViolation(f"depth({v}) != depth({p}) + 1")
    for v in verts:
        if (v in forest.roots) == (v in forest.parent):
            raise errors.InvariantViolation(f"vertex {v}: exactly one of root/parented")
        seen = {v}
        x = v
        while x in forest.parent:
            x = forest.parent[x]
            if x in seen:
                raise errors.InvariantViolation(f"parent cycle through {v}")
            seen.add(x)
        if x not in forest.roots:
            raise errors.UnreachableVertex(f"vertex {v} has no root path")
        if len(outer & seen) != 1:
            raise errors.InvariantViolation(
                f"tree of {v} contains {len(outer & seen)} outer vertices"
            )


def subtree(forest, v):
    """v and every vertex whose root path passes through v."""
    return [w for w in forest.depth if v in forest.root_path(w)]


def mutate_forest(emb, forest, rng, kind):
    """A copy of ``forest`` with one defect of the given kind."""
    parent, depth, roots = dict(forest.parent), dict(forest.depth), set(forest.roots)
    if not parent and kind not in ("rootless", "outer-child", "extra"):
        return None
    v = rng.choice(sorted(parent or depth))
    if kind == "inner-root":  # a parented vertex cut loose and made a root
        del parent[v]
        roots.add(v)
    elif kind == "rootless":  # a root that is no longer one
        roots.discard(rng.choice(sorted(roots)))
    elif kind == "orphan":  # a vertex with neither parent nor root status
        del parent[v]
    elif kind == "both":  # a root that also has a parent
        roots.add(v)
    elif kind == "depth":
        depth[v] += rng.choice((-1, 1))
    elif kind == "unspanned":
        del depth[v]
    elif kind == "extra":  # a root that is not a vertex of the embedding
        x = max(depth) + 1 + rng.randrange(3)
        depth[x] = 0
        roots.add(x)
    elif kind == "non-edge":  # a parent one level up but not adjacent
        level = [w for w in depth if depth[w] == depth[v] - 1 and not emb.has_edge(v, w)]
        if not level:
            return None
        parent[v] = rng.choice(level)
    elif kind == "outer-child":  # an outer root hung below another outer root
        r = rng.choice(sorted(roots))
        others = [w for w in emb.rotation(r) if w in roots]
        if not others:
            return None
        for w in subtree(forest, r):
            depth[w] += 1
        parent[r] = rng.choice(others)
        roots.discard(r)
    return RootedForest(parent=parent, depth=depth, roots=frozenset(roots))


def validation_outcome(check, emb, forest):
    try:
        check(emb, forest)
    except errors.OnionPeelError as exc:
        return type(exc), str(exc)
    return None


def test_validate_forest_matches_the_root_path_route(corpus):
    rng = random.Random(5)
    kinds = ("inner-root", "rootless", "orphan", "both", "depth",
             "unspanned", "non-edge", "outer-child", "extra")
    instances = [emb for _, emb in corpus if emb.vertex_count <= 40]
    instances += [gen_nested_triangles(12), gen_random_kouter(5, 7, 2)]
    seen = {}
    for emb in instances:
        sat = saturate_inward_neighbors(emb)
        forest = build_rooted_forest(sat)
        assert validation_outcome(validate_forest, sat, forest) is None
        for kind in kinds:
            for _ in range(2):
                bad = mutate_forest(sat, forest, rng, kind)
                if bad is None:
                    continue
                want = validation_outcome(ref_validate_forest, sat, bad)
                assert want is not None, kind
                assert validation_outcome(validate_forest, sat, bad) == want, kind
                seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == set(kinds), seen


class CountingParents(dict):
    """A parent map that counts its lookups."""

    lookups = 0

    def __getitem__(self, v):
        CountingParents.lookups += 1
        return super().__getitem__(v)

    def get(self, v, default=None):
        CountingParents.lookups += 1
        return super().get(v, default)

    def __contains__(self, v):
        CountingParents.lookups += 1
        return super().__contains__(v)


def test_validate_forest_is_linear_in_the_vertices():
    # nested triangles 300 deep have height 299: a per-vertex climb of the
    # root path makes about n * h / 2 = 135,000 parent lookups
    emb = gen_nested_triangles(300)
    forest = build_rooted_forest(emb)
    counted = RootedForest(
        parent=CountingParents(forest.parent), depth=forest.depth, roots=forest.roots
    )
    CountingParents.lookups = 0
    validate_forest(emb, counted)
    assert CountingParents.lookups <= 3 * emb.vertex_count
