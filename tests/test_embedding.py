import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionpeel import (
    Embedding,
    decompose_pipeline,
    errors,
    format_epg,
    gen_cycle,
    gen_k4_minus_edge,
    gen_nested_triangles,
    gen_path,
    gen_random_kouter,
    gen_wheel,
    is_triangulated_disk,
    is_triangulation,
    onion_peels,
    parse_epg,
    to_full_triangulation,
    to_triangulated_disk,
)
from onionpeel import embedding
from onionpeel.embedding import _components, _FaceBuilder, _trace
from test_peeling import remove_vertices, side_by_side
from test_triangulate import differential_inputs

TRIANGLE = {0: [1, 2], 1: [2, 0], 2: [0, 1]}


def triangle():
    return Embedding(TRIANGLE, [(0, 1)])


def link_in_face(emb, face, u, v):
    """Add the edge (u, v) inside a simple ``face`` by one builder link."""
    b = _FaceBuilder(emb)
    b.link(*(next(d for d in face.darts if d[1] == x) for x in (u, v)))
    return b.embedding()


def test_triangle_build():
    emb = triangle()
    assert emb.vertex_count == 3 and emb.edge_count == 3
    assert len(emb.inner_faces) + 1 == 2  # faces, the outer region counted once
    assert sorted(len(f) for f in emb.faces) == [3, 3]
    assert sum(f.is_outer for f in emb.faces) == 1


def test_dart_conventions():
    darts = set(triangle().darts)
    for u, v in darts:
        assert (v, u) in darts and u != v


def test_self_loop_rejected():
    with pytest.raises(errors.SelfLoop):
        Embedding({0: [0, 1], 1: [0]}, [(0, 1)])


def test_parallel_edge_rejected():
    with pytest.raises(errors.ParallelEdge):
        Embedding({0: [1, 1, 2], 1: [0, 2], 2: [0, 1]}, [(0, 1)])


def test_asymmetric_adjacency_rejected():
    with pytest.raises(errors.AsymmetricAdjacency):
        Embedding({0: [1, 2], 1: [0], 2: [0, 1]}, [(0, 1)])
    with pytest.raises(errors.AsymmetricAdjacency):
        Embedding({0: [1, 7], 1: [0]}, [(0, 1)])


def test_euler_violation_rejected():
    # octahedron with two rotation entries swapped at one vertex: genus 1
    rot = gen_nested_triangles(2).rotations_dict()
    rot[0] = [rot[0][1], rot[0][0]] + rot[0][2:]
    with pytest.raises(errors.EulerViolation):
        Embedding(rot, [(3, 4)])


def test_nested_component_rejected():
    rot = {0: [1, 2], 1: [2, 0], 2: [0, 1], 3: [4, 5], 4: [5, 3], 5: [3, 4]}
    with pytest.raises(errors.NestedComponent):
        Embedding(rot, [(0, 1)])  # second component has no outer designation
    with pytest.raises(errors.NestedComponent):
        Embedding(TRIANGLE, [(0, 1), (1, 0)])  # two walks of one component
    with pytest.raises(errors.BadParameter):
        Embedding(TRIANGLE, [(0, 7)])  # no such dart


def test_nested_triangles_counts_revalidated():
    emb = gen_nested_triangles(3)
    revalidated = Embedding(
        {v: emb.rotation(v) for v in emb.vertices}, emb.outer_darts
    )
    assert revalidated == emb
    assert revalidated.vertex_count == 9
    assert revalidated.edge_count == 21
    assert len(revalidated.inner_faces) + 1 == 14


def test_trace_triangle_and_square():
    assert sorted(len(f) for f in triangle().faces) == [3, 3]
    assert sorted(len(f) for f in gen_cycle(4).faces) == [4, 4]


def test_trace_k4_faces_frozen():
    # unique sphere embedding of K4, enumerated by hand
    walks = {f.darts for f in gen_wheel(3).faces}
    assert walks == {
        ((0, 1), (1, 2), (2, 0)),
        ((0, 2), (2, 3), (3, 0)),
        ((0, 3), (3, 1), (1, 0)),
        ((1, 3), (3, 2), (2, 1)),
    }


def ref_trace(rot):
    """Face walks by a per-dart rotation lookup, each turned to its minimal dart."""
    succ_index = {v: {w: i for i, w in enumerate(ns)} for v, ns in rot.items()}
    walk_of, walks = {}, []
    for start in sorted((v, w) for v, ns in rot.items() for w in ns):
        if start in walk_of:
            continue
        walk, d = [], start
        while True:
            walk.append(d)
            walk_of[d] = len(walks)
            u, v = d
            ns = rot[v]
            d = (v, ns[(succ_index[v][u] + 1) % len(ns)])
            if d == start:
                break
        i = walk.index(min(walk))
        walks.append(tuple(walk[i:] + walk[:i]))
    return walks, walk_of


def test_trace_matches_the_rotation_lookup_route(corpus):
    for label, emb in differential_inputs(corpus):
        rot = emb.rotations_dict()
        assert _trace(rot) == ref_trace(rot), label
        shifted = {v: ns[1:] + ns[:1] for v, ns in rot.items()}
        assert _trace(shifted) == ref_trace(rot), label


def test_trace_is_permutation_decomposition(small_corpus):
    for label, emb in small_corpus:
        seen = [d for f in emb.faces for d in f.darts]
        assert sorted(seen) == list(emb.darts), label
        for f in emb.faces:
            for i, (u, v) in enumerate(f.darts):
                rot = emb.rotation(v)
                succ = rot[(rot.index(u) + 1) % len(rot)]
                assert f.darts[(i + 1) % len(f)] == (v, succ), label


def test_add_edge_in_inner_face():
    c4 = gen_cycle(4)
    inner = next(f for f in c4.faces if not f.is_outer)
    split = link_in_face(c4, inner, 0, 2)
    assert sorted(len(f) for f in split.inner_faces) == [3, 3]
    assert len(split.faces) == len(c4.faces) + 1


def test_add_edge_in_outer_face_keeps_dart_side():
    c4 = gen_cycle(4)
    # the part that starts with the new dart (u, v) keeps the outer mark,
    # so linking 2 to 0 keeps the canonical outer dart (0, 1) outer
    split = link_in_face(c4, c4.outer_faces[0], 2, 0)
    assert len(split.outer_faces) == 1
    assert split.outer_faces[0].vertex_set == {0, 1, 2}
    assert split.outer_darts == ((0, 1),)
    flipped = link_in_face(c4, c4.outer_faces[0], 0, 2)
    assert flipped.outer_faces[0].vertex_set == {0, 2, 3}


def test_add_edge_six_cycle_quads():
    c6 = gen_cycle(6)
    inner = next(f for f in c6.faces if not f.is_outer)
    split = link_in_face(c6, inner, 1, 4)
    assert sorted(len(f) for f in split.inner_faces) == [4, 4]


def test_remove_vertices_k4():
    k4 = gen_wheel(3)
    rest = remove_vertices(k4, {0, 1, 2})
    assert rest.vertices == (3,)
    assert rest.outer_vertices == {3}


def test_remove_vertices_remarks_outer():
    t2 = gen_nested_triangles(2)
    assert remove_vertices(t2, {3, 4, 5}) == gen_nested_triangles(1)


def test_remove_interior_vertex_rejected():
    with pytest.raises(ValueError):
        remove_vertices(gen_wheel(3), {3})


def test_remove_all_vertices_gives_empty():
    emb = triangle()
    empty = remove_vertices(emb, {0, 1, 2})
    assert empty.vertex_count == 0 and empty.faces == ()


def test_remove_keeps_exactly_surviving_darts(small_corpus):
    for label, emb in small_corpus:
        layer = emb.outer_vertices
        if layer == set(emb.vertices):
            continue
        rest = remove_vertices(emb, layer)
        survivors = {
            d for d in emb.darts if d[0] not in layer and d[1] not in layer
        }
        assert set(rest.darts) == survivors, label


def test_remove_can_disconnect():
    bow = Embedding(
        {0: [1, 2], 1: [2, 0], 2: [0, 1, 3, 4], 3: [4, 2], 4: [2, 3]}, [(0, 1)]
    )
    rest = remove_vertices(bow, {2})
    assert len(rest.components) == 2
    assert rest.edges == ((0, 1), (3, 4))


def test_disk_and_triangulation_predicates():
    k4me = gen_k4_minus_edge()
    assert is_triangulated_disk(k4me) and not is_triangulation(k4me)
    k4 = gen_wheel(3)
    assert is_triangulated_disk(k4) and is_triangulation(k4)
    c5 = gen_cycle(5)
    assert not is_triangulated_disk(c5) and not is_triangulation(c5)
    assert not is_triangulated_disk(gen_path(4))


def ref_is_triangulation(emb):
    """At least 3 vertices, connected, and every walk of 3 darts."""
    return (
        emb.vertex_count >= 3
        and len(emb.components) == 1
        and all(len(f) == 3 for f in emb.faces)
    )


def random_planar_embeddings(count, seed):
    """Seeded embeddings from random rotation systems on 1-7 vertices.

    Each draw takes a random simple graph, a random cyclic order at every
    vertex and a random outer dart per edged component; a draw that is
    not a sphere embedding fails the constructor's Euler check and is
    drawn again.  Some draws are disconnected, edgeless or trees.
    """
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.randint(1, 7)
        pairs = list(itertools.combinations(range(n), 2))
        rot = {v: [] for v in range(n)}
        for u, v in rng.sample(pairs, rng.randint(0, min(len(pairs), 15))):
            rot[u].append(v)
            rot[v].append(u)
        for ns in rot.values():
            rng.shuffle(ns)
        comps = {}
        for v, c in _components(rot).items():
            comps.setdefault(c, []).append(v)
        outer = [(v, rot[v][0]) for v in (rng.choice(vs) for vs in comps.values()) if rot[v]]
        try:
            found.append(Embedding(rot, outer))
        except errors.EulerViolation:
            continue
    return found


def reanchored(emb, rng):
    """``emb`` with the outer face moved to a random walk, if connected."""
    if len(emb.components) != 1 or not emb.edge_count:
        return emb
    return Embedding(emb.rotations_dict(), [rng.choice(emb.faces).darts[0]])


def test_is_triangulation_is_the_old_walk_scan(corpus):
    rng = random.Random(26)
    inputs = [emb for _, emb in differential_inputs(corpus)]
    inputs += random_planar_embeddings(300, seed=26)
    inputs += [to_full_triangulation(emb)[0] for _, emb in corpus[::4]]
    inputs += [to_triangulated_disk(emb)[0] for _, emb in corpus[::4]]
    inputs += [reanchored(emb, rng) for emb in inputs[-60:]]
    inputs += [
        Embedding({}, []),
        Embedding({0: []}, []),
        Embedding({0: [1], 1: [0]}, [(0, 1)]),
        Embedding({0: [], 1: [], 2: []}, []),
        side_by_side(gen_wheel(3), gen_wheel(3)),
    ]
    kinds = Counter()
    for emb in inputs:
        want = ref_is_triangulation(emb)
        assert is_triangulation(emb) == want, repr(emb)
        disk = is_triangulated_disk(emb)
        kinds["triangulation" if want else "long-outer disk" if disk else "other"] += 1
        kinds["under 3 vertices"] += emb.vertex_count < 3
        kinds["disconnected"] += len(emb.components) > 1
    assert min(kinds.values()) >= 5, kinds


def test_embedding_repr_counts_vertices_edges_and_walks():
    assert repr(gen_wheel(3)) == "Embedding(4 vertices, 6 edges, 4 face walks)"
    assert repr(gen_path(3)) == "Embedding(3 vertices, 2 edges, 1 face walks)"
    assert repr(Embedding({}, [])) == "Embedding(0 vertices, 0 edges, 0 face walks)"


def test_euler_and_walk_sum_invariants(corpus):
    for label, emb in corpus:
        assert sum(len(f) for f in emb.faces) == 2 * emb.edge_count, label
        c = len(emb.components)
        f = len(emb.inner_faces) + 1  # faces, the outer region counted once
        assert emb.vertex_count - emb.edge_count + f == 1 + c, label


def test_face_records_are_built_only_on_request(monkeypatch):
    built = []
    record = embedding.FaceWalk
    monkeypatch.setattr(embedding, "FaceWalk", lambda *a: built.append(a) or record(*a))
    disk, _ = to_triangulated_disk(gen_random_kouter(8, 14, 16))
    assert is_triangulated_disk(disk) and disk.vertex_count == 112
    text = format_epg(disk)
    built.clear()
    onion_peels(parse_epg(text))
    decompose_pipeline(parse_epg(text))
    to_full_triangulation(gen_path(40))
    assert built == []
    emb = parse_epg(text)
    faces = emb.faces
    assert len(built) == len(faces) == len(emb._walks)
    assert emb.faces is faces and len(built) == len(faces)
    walks, _ = ref_trace(emb.rotations_dict())
    assert [f.darts for f in faces] == walks
    assert [f for f in faces if f.is_outer] == list(emb.outer_faces)
    assert {f.darts[0] for f in emb.outer_faces} == set(emb.outer_darts)


def test_isolated_vertices_are_outer():
    emb = Embedding({**TRIANGLE, 7: []}, [(0, 1)])
    assert 7 in emb.outer_vertices
    assert emb.degree(7) == 0


def test_embedding_equality_ignores_rotation_start():
    a = Embedding(TRIANGLE, [(0, 1)])
    b = Embedding({0: [2, 1], 1: [0, 2], 2: [1, 0]}, [(1, 2)])
    # same cyclic orders, outer dart on the same walk
    assert a == b and hash(a) == hash(b)


@settings(max_examples=40, derandomize=True)
@given(
    k=st.integers(1, 3),
    w=st.integers(3, 6),
    seed=st.integers(0, 10**6),
)
def test_random_embeddings_valid_and_bounded(k, w, seed):
    emb = gen_random_kouter(k, w, seed)
    assert emb.vertex_count == k * w
    assert sum(len(f) for f in emb.faces) == 2 * emb.edge_count


def test_package_all_names_every_public_attribute():
    import types

    import onionpeel

    # submodules such as onionpeel.cli appear once some caller imports them
    public = {
        name for name in dir(onionpeel)
        if not name.startswith("_")
        and not isinstance(getattr(onionpeel, name), types.ModuleType)
    }
    assert public <= set(onionpeel.__all__)
    assert len(set(onionpeel.__all__)) == len(onionpeel.__all__)
    # a stale __all__ entry makes the star import raise
    namespace = {}
    exec("from onionpeel import *", namespace)
    assert set(onionpeel.__all__) <= set(namespace)
