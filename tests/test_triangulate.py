import heapq
import random
from collections import Counter
from itertools import chain

import pytest

from onionpeel import (
    Embedding,
    build_rooted_forest,
    decompose_pipeline,
    errors,
    gen_counterexample,
    gen_cycle,
    gen_k4_minus_edge,
    gen_nested_triangles,
    gen_path,
    gen_random_kouter,
    gen_wheel,
    is_triangulated_disk,
    is_triangulation,
    onion_peels,
    saturate_inward_neighbors,
    to_full_triangulation,
    to_triangulated_disk,
    validate_forest,
)
from onionpeel import embedding, triangulate
from onionpeel.embedding import _FaceBuilder, _successors
from onionpeel.peeling import _radial_peels, _saturate
from onionpeel.triangulate import _CUTS, _connect, _cut_corners
from test_branchdecomp import deep_disks, relabel
from test_oracles import successor_walk
from test_peeling import delete_nonbridge_edges, side_by_side


def two_triangles():
    return Embedding(
        {0: [1, 2], 1: [2, 0], 2: [0, 1], 3: [4, 5], 4: [5, 3], 5: [3, 4]},
        [(0, 1), (3, 4)],
    )


def bowtie():
    return Embedding(
        {0: [1, 2], 1: [2, 0], 2: [0, 1, 3, 4], 3: [4, 2], 4: [2, 3]}, [(0, 1)]
    )


def stage_alone(emb, stage):
    """Run one conversion stage by itself; return its result and edges."""
    b = _FaceBuilder(emb)
    if stage == "connect":
        edges = _connect(b)
    else:
        edges = _cut_corners(b, *next(cut for name, *cut in _CUTS if name == stage))
    return b.embedding(), edges


def traced(emb, stage):
    """The edges one stage adds inside the whole disk conversion."""
    _, trace = to_triangulated_disk(emb)
    return [(u, v) for u, v, s in trace.added_edges if s == stage]


def test_connect_two_triangles():
    joined, edges = stage_alone(two_triangles(), "connect")
    assert joined.is_connected and edges == [(0, 3)]
    assert set(joined.edges) - set(two_triangles().edges) == {(0, 3)}
    assert joined.outer_vertices == two_triangles().outer_vertices
    assert traced(two_triangles(), "connect") == [(0, 3)]


def test_connect_connected_noop():
    k4 = gen_wheel(3)
    assert stage_alone(k4, "connect") == (k4, [])
    assert traced(k4, "connect") == []


def test_connect_absorbs_isolated_vertex():
    emb = Embedding({0: [1, 2], 1: [2, 0], 2: [0, 1], 7: []}, [(0, 1)])
    joined, edges = stage_alone(emb, "connect")
    assert joined.is_connected and joined.has_edge(0, 7) and edges == [(0, 7)]
    assert 7 in joined.outer_vertices
    assert traced(emb, "connect") == [(0, 7)]


def test_outer_repair_bowtie():
    fixed, edges = stage_alone(bowtie(), "outer-cut")
    walk = fixed.outer_faces[0]
    assert walk.is_simple
    assert edges == [(1, 3)]
    assert set(fixed.edges) - set(bowtie().edges) == {(1, 3)}
    assert fixed.outer_vertices == bowtie().outer_vertices
    assert traced(bowtie(), "outer-cut") == [(1, 3)]


def test_outer_repair_path_becomes_triangle():
    fixed, edges = stage_alone(gen_path(3), "outer-cut")
    assert fixed.edges == ((0, 1), (0, 2), (1, 2))
    assert fixed.outer_faces[0].is_simple
    assert traced(gen_path(3), "outer-cut") == [(0, 2)]


def test_outer_repair_simple_noop():
    c5 = gen_cycle(5)
    assert stage_alone(c5, "outer-cut") == (c5, [])
    assert traced(c5, "outer-cut") == []


def test_inner_repair_pendant_inside_square():
    sq = Embedding(
        {0: [1, 4, 3], 1: [2, 0], 2: [3, 1], 3: [0, 2], 4: [0]}, [(0, 1)]
    )
    assert any(not f.is_simple for f in sq.inner_faces)
    fixed, edges = stage_alone(sq, "inner-cut")
    assert all(f.is_simple for f in fixed.inner_faces)
    assert edges == [(3, 4)]
    assert set(fixed.edges) - set(sq.edges) == {(3, 4)}
    # in the conversion, saturation splits the face first at (0, 2)
    _, trace = to_triangulated_disk(sq)
    assert trace.added_edges == (
        (0, 2, "saturate"), (2, 4, "inner-cut"), (1, 4, "ear"),
    )


def test_inner_repair_disk_noop():
    disk = gen_k4_minus_edge()
    assert stage_alone(disk, "inner-cut") == (disk, [])
    assert traced(disk, "inner-cut") == []


def test_ears_square():
    c4 = gen_cycle(4)
    done, edges = stage_alone(c4, "ear")
    assert all(len(f) == 3 for f in done.inner_faces)
    assert done.edge_count == 5 and len(edges) == 1
    # in the conversion, saturation fans the square first
    assert traced(c4, "saturate") == [(0, 2)] and traced(c4, "ear") == []


def test_ears_avoid_existing_chord():
    # the 5-cycle with the chord (0, 2) drawn in its outer face
    withchord = Embedding(
        {0: [1, 4, 2], 1: [0, 2], 2: [0, 3, 1], 3: [2, 4], 4: [0, 3]}, [(0, 1)]
    )
    done, edges = stage_alone(withchord, "ear")
    assert all(len(f) == 3 for f in done.inner_faces)
    assert set(edges) == {(1, 3), (1, 4), (2, 4)}
    assert set(done.edges) - set(withchord.edges) == {(1, 3), (1, 4), (2, 4)}
    assert is_triangulated_disk(done)
    # saturation fans only (0, 3): the chord (0, 2) already joins 0 and 2
    _, trace = to_triangulated_disk(withchord)
    assert trace.added_edges == ((0, 3, "saturate"), (1, 4, "ear"), (2, 4, "ear"))


def test_ears_triangulated_noop():
    disk = gen_k4_minus_edge()
    assert stage_alone(disk, "ear") == (disk, [])
    assert traced(disk, "ear") == []


def test_disk_four_cycle_is_k4_minus_edge():
    disk, trace = to_triangulated_disk(gen_cycle(4))
    assert disk.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))
    assert onion_peels(disk).k == 1
    assert trace.added_edges == ((0, 2, "saturate"),)


def test_disk_already_disk_noop():
    t3 = gen_nested_triangles(3)
    disk, trace = to_triangulated_disk(t3)
    assert disk == t3 and trace.added_edges == ()


def test_disk_two_triangles():
    disk, trace = to_triangulated_disk(two_triangles())
    assert is_triangulated_disk(disk)
    assert onion_peels(disk).k == 1
    stages = [s for _, _, s in trace.added_edges]
    assert stages[0] == "connect"


def test_disk_too_small():
    with pytest.raises(errors.TooSmall, match="need at least 3 vertices, got 2"):
        to_triangulated_disk(gen_path(2))
    with pytest.raises(errors.TooSmall, match="need at least 3 vertices, got 2"):
        to_full_triangulation(gen_path(2))


def test_disk_corpus_contract(corpus):
    for label, emb in corpus:
        disk, trace = to_triangulated_disk(emb)
        assert is_triangulated_disk(disk), label
        assert disk.outer_vertices == emb.outer_vertices, label
        assert onion_peels(disk).k <= onion_peels(emb).k, label
        redo, retrace = to_triangulated_disk(disk)
        assert redo == disk and retrace.added_edges == (), label


def test_disk_trace_replay(small_corpus):
    stages = {"saturate", "connect", "outer-cut", "inner-cut", "ear", "apex"}
    for label, emb in small_corpus:
        for convert in (to_triangulated_disk, to_full_triangulation):
            out, trace = convert(emb)
            assert {s for _, _, s in trace.added_edges} <= stages, label
            added = [(min(u, v), max(u, v)) for u, v, _ in trace.added_edges]
            input_edges = set(emb.edges)
            assert len(set(added)) == len(added) and not input_edges & set(added), label
            assert set(out.edges) == input_edges | set(added), label
            rerun, retrace = convert(emb)
            assert rerun == out, label
            assert retrace.added_edges == trace.added_edges, label


def test_forest_survives_disk_conversion(corpus):
    # every chord added after saturation joins two vertices of one saturated
    # face, whose anchor (smallest (peel, id)) is already adjacent to both
    for label, emb in differential_inputs(corpus):
        forest = build_rooted_forest(saturate_inward_neighbors(emb))
        disk, _ = to_triangulated_disk(emb)
        assert build_rooted_forest(disk) == forest, label
        validate_forest(disk, forest)


def test_triangulate_four_cycle_is_k4():
    tri, trace = to_full_triangulation(gen_cycle(4))
    assert tri.edge_count == 6 and is_triangulation(tri)
    assert onion_peels(tri).k == 2
    assert trace.added_edges == ((0, 2, "saturate"), (1, 3, "apex"))


def test_triangulate_triangle_noop():
    t = gen_cycle(3)
    tri, trace = to_full_triangulation(t)
    assert tri == t and trace.added_edges == ()
    assert onion_peels(tri).k == 1


def test_triangulate_counterexample_hits_k_plus_one():
    g = gen_counterexample(2)
    tri, _ = to_full_triangulation(g)
    assert is_triangulation(tri)
    assert onion_peels(tri).k == 3


def test_triangulate_corpus_contract(corpus):
    for label, emb in corpus:
        tri, trace = to_full_triangulation(emb)
        assert is_triangulation(tri), label
        assert onion_peels(tri).k <= onion_peels(emb).k + 1, label
        added = {(u, v) for u, v, _ in trace.added_edges}
        assert set(tri.edges) == set(emb.edges) | added, label
        assert len(added) == len(trace.added_edges), label


def test_stages_only_add_edges(corpus):
    for label, emb in corpus:
        disk, trace = to_triangulated_disk(emb)
        assert disk.vertices == emb.vertices, label
        assert set(emb.edges) <= set(disk.edges), label
        stage_names = {s for _, _, s in trace.added_edges}
        assert stage_names <= {"saturate", "connect", "outer-cut", "inner-cut", "ear"}, label


def test_full_triangulation_validates_once_per_public_call(monkeypatch):
    # one builder, one rotation read-off and one trace per call beyond the
    # parse, whatever the input size; a disk input gets one builder, for the
    # fan, and a triangulation none
    calls = Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    init = _FaceBuilder.__init__
    inputs = {
        "path60": gen_path(60), "path240": gen_path(240),
        "disk": gen_k4_minus_edge(), "tri": gen_nested_triangles(36),
    }
    monkeypatch.setattr(_FaceBuilder, "__init__", counted("builders", init))
    for name in ("_read_rotations", "_checked_trace"):
        monkeypatch.setattr(embedding, name, counted(name, getattr(embedding, name)))
    counts = {}
    for label, emb in inputs.items():
        calls.clear()
        out, trace = to_full_triangulation(emb)
        assert is_triangulation(out), label
        counts[label] = dict(calls)
    once = {"builders": 1, "_read_rotations": 1, "_checked_trace": 1}
    assert counts == {"path60": once, "path240": once, "disk": once, "tri": {}}


def test_disk_conversion_returns_a_disk_input_unbuilt(monkeypatch):
    builds = []
    init = Embedding.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    disks = [gen_nested_triangles(4), gen_counterexample(2)]
    monkeypatch.setattr(Embedding, "__init__", counting)
    for emb in disks:
        out, trace = to_triangulated_disk(emb)
        assert trace.added_edges == () and out == emb
    assert builds == []


def test_disk_conversion_skips_the_builder_for_a_disk(monkeypatch):
    emb = gen_nested_triangles(36)

    def refuse(*args):
        raise AssertionError("a face builder was made for a triangulated disk")

    monkeypatch.setattr(triangulate, "_FaceBuilder", refuse)
    out, trace = to_triangulated_disk(emb)
    assert out is emb and trace.added_edges == ()


def builder_returning(monkeypatch, wrong=None, fan=None):
    """Make the conversion's face builders hand back ``wrong`` (if given)
    as their embedding, and fan with ``fan`` (if given)."""

    class Faulty(_FaceBuilder):
        def embedding(self, outer_darts=None):
            return wrong if wrong is not None else super().embedding(outer_darts)

    if fan is not None:
        Faulty.fan = fan
    monkeypatch.setattr(triangulate, "_FaceBuilder", Faulty)


# (wrong disk for a 5-cycle's conversion, the certificate's text)
DISK_FAULTS = (
    (gen_cycle(5), "disk pipeline did not produce a disk"),  # no edge added
    (gen_wheel(4), "disk pipeline changed the outer vertex set"),  # rim 0..3
    (gen_wheel(5), "disk pipeline raised the peel count 1 -> 2"),  # same rim, a hub
)


@pytest.mark.parametrize("convert", [to_triangulated_disk, to_full_triangulation])
@pytest.mark.parametrize("wrong, text", DISK_FAULTS)
def test_disk_certificates_fire(convert, wrong, text, monkeypatch):
    # the disk stages leave a builder over the wrong disk: the disk path
    # builds it, the full path checks its state and fans it
    monkeypatch.setattr(triangulate, "_disk_stages", lambda emb: (_FaceBuilder(wrong), []))
    with pytest.raises(errors.InvariantViolation) as exc:
        convert(gen_cycle(5))
    assert type(exc.value) is errors.InvariantViolation and str(exc.value) == text


# a 9-cycle along a Hamiltonian cycle of gen_nested_triangles(3), whose
# 9 vertices all lie on the faces of the cycle's darts there
HAMILTON = [0, 1, 2, 3, 5, 6, 7, 8, 4]
NESTED3_CYCLE = Embedding(
    {v: [HAMILTON[i - 1], HAMILTON[(i + 1) % 9]] for i, v in enumerate(HAMILTON)}, [(0, 1)]
)


# (fault, which returns the input, a non-triangulation with k = 1, the
# certificate's text); setattr and builder_returning return None, and a
# disk input gets one builder, for the fan
APEX_FAULTS = (
    (lambda m: m.setattr(triangulate, "_apex", lambda b, cycle: None) or gen_k4_minus_edge(),
     "no outer vertex with two outer neighbors"),
    (lambda m: builder_returning(m, fan=lambda self, walk, pos: []) or gen_k4_minus_edge(),
     "apex step did not produce a triangulation"),
    (lambda m: builder_returning(m, gen_nested_triangles(3)) or NESTED3_CYCLE,
     "apex step raised the peel count 1 -> 3"),
)


@pytest.mark.parametrize("fault, text", APEX_FAULTS)
def test_apex_certificates_fire(fault, text, monkeypatch):
    emb = fault(monkeypatch)
    assert onion_peels(emb).k == 1 and not is_triangulation(emb)
    with pytest.raises(errors.InvariantViolation) as exc:
        to_full_triangulation(emb)
    assert type(exc.value) is errors.InvariantViolation and str(exc.value) == text


def test_fan_face_peel_equals_the_disk_peel(corpus):
    # the full path peels its disk as the output from the faces that hold
    # a dart of the disk's outer walk
    rng = random.Random(28)
    inputs = [
        *differential_inputs(corpus),
        *deep_disks(),
        *((f"tree{i}", random_tree(rng.randint(3, 200), i)) for i in range(20)),
        *((f"kring{i}", sparse_kring(rng.randint(2, 5), rng.randint(4, 15), i))
          for i in range(20)),
    ]
    for label, emb in inputs:
        disk, _ = to_triangulated_disk(emb)
        tri, _ = to_full_triangulation(emb)
        start = {tri._walk_of_dart[d] for d in disk._walks[disk._outer_ids[0]]}
        assert _radial_peels(tri, start).layers == onion_peels(disk).layers, label
    assert len(inputs) > 400


def many_components(kind, n):
    """A triangle plus n isolated vertices, or n disjoint triangles."""
    tri = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    if kind == "isolated":
        return Embedding({**tri, **{v: [] for v in range(3, 3 + n)}}, [(0, 1)])
    return Embedding(
        {3 * i + v: [3 * i + w for w in ns] for i in range(n) for v, ns in tri.items()},
        [(3 * i, 3 * i + 1) for i in range(n)],
    )


@pytest.mark.parametrize("kind, n", [("isolated", 4000), ("triangles", 300)])
def test_many_components_convert_to_a_disk(kind, n):
    emb = many_components(kind, n)
    disk, trace = to_triangulated_disk(emb)
    assert is_triangulated_disk(disk)
    assert disk.outer_vertices == emb.outer_vertices
    added = [(u, v) for u, v, _ in trace.added_edges]
    assert len(set(added)) == len(added) == disk.edge_count - emb.edge_count
    assert set(added) == set(disk.edges) - set(emb.edges)


def test_joins_relabel_only_the_shorter_side(corpus, monkeypatch):
    link = _FaceBuilder.link
    joins = []

    def checked(b, corner_u, corner_v):
        before = dict(b.wid)
        sides = [b.size.get(b.wid.get(c), 0) for c in (corner_u, corner_v)]
        ids = link(b, corner_u, corner_v)
        if len(ids) == 1:
            moved = sum(b.wid[d] != i for d, i in before.items())
            assert moved <= min(sides)
            joins.append(moved)
        return ids

    monkeypatch.setattr(_FaceBuilder, "link", checked)
    inputs = [emb for label, emb in differential_inputs(corpus) if not emb.is_connected]
    for emb in [*inputs, many_components("isolated", 400), many_components("triangles", 100)]:
        to_triangulated_disk(emb)
    assert len(joins) > 500 and max(joins) > 0


# -- reference: the conversion with one validated rebuild per added edge ------


def ref_chord(rotations, walk, pos_u, pos_v):
    """Add an edge between the corners at two positions of one face walk.

    The corner at position j is entered from the origin t of the walk dart
    before it; the new neighbor goes right after t in the rotation.
    """
    m = len(walk.darts)
    u, v = walk.darts[pos_u][0], walk.darts[pos_v][0]
    t_u, t_v = walk.darts[(pos_u - 1) % m][0], walk.darts[(pos_v - 1) % m][0]
    rotations[u].insert(rotations[u].index(t_u) + 1, v)
    rotations[v].insert(rotations[v].index(t_v) + 1, u)
    return (u, v)


def fan_order(walk, anchor_pos, adjacent):
    """Positions of fan targets on a walk's darts, in walk order from the anchor.

    Targets are distinct vertices other than the anchor vertex for which
    ``adjacent(vertex)`` is false (the edge is missing), each anchored
    at its first occurrence on the walk.  The returned positions are
    sorted by walk offset from the anchor, the order insertions must
    follow for the fan to stay inside the face.
    """
    m = len(walk)
    w = walk[anchor_pos][0]
    first_pos = {}
    for pos, d in enumerate(walk):
        if d[0] != w and d[0] not in first_pos:
            first_pos[d[0]] = pos
    out = [pos for v, pos in first_pos.items() if not adjacent(v)]
    out.sort(key=lambda pos: (pos - anchor_pos) % m)
    return out


def ref_saturate(emb):
    index = onion_peels(emb).index_of()
    rotations = emb.rotations_dict()
    adjacency = {v: set(ns) for v, ns in rotations.items()}
    for f in emb.faces:
        if f.is_outer:
            continue
        verts = f.vertices
        anchor = min(range(len(verts)), key=lambda p: (index[verts[p]], verts[p]))
        w = verts[anchor]
        for pos in fan_order(f.darts, anchor, lambda v: v in adjacency[w]):
            _, v = ref_chord(rotations, f, anchor, pos)
            adjacency[w].add(v)
            adjacency[v].add(w)
    return Embedding(rotations, emb.outer_darts)


def ref_connect(emb):
    added = []
    while len(emb.components) > 1:
        outer = emb.outer_vertices
        u, v = sorted(min(c & outer) for c in emb.components)[:2]
        rotations = emb.rotations_dict()
        drop = set()
        for x, y in ((u, v), (v, u)):
            walk = next((f for f in emb.outer_faces if x in f.vertex_set), None)
            if walk is None:  # isolated vertex
                rotations[x] = [y]
            else:
                t = walk.darts[walk.vertices.index(x) - 1][0]
                rotations[x].insert(rotations[x].index(t) + 1, y)
                drop.add(walk.darts[0])
        outer_darts = [d for d in emb.outer_darts if d not in drop] + [(u, v)]
        emb = Embedding(rotations, outer_darts)
        added.append((u, v))
    return emb, added


def ref_cut_position(emb, walk):
    counts = {}
    for v in walk.vertices:
        counts[v] = counts.get(v, 0) + 1
    m = len(walk)
    for j in range(m):
        a, v, b = walk.darts[(j - 1) % m][0], walk.darts[j][0], walk.darts[j][1]
        if counts[v] >= 2 and a != b and not emb.has_edge(a, b):
            return j
    raise errors.RepairStuck("no cut position")


def ref_cut(emb, pick, position):
    """Cut corners off the first picked face until none is picked."""
    added = []
    while True:
        walk = next((f for f in emb.faces if pick(f)), None)
        if walk is None:
            return emb, added
        j = position(emb, walk)
        m = len(walk)
        rotations = emb.rotations_dict()
        a, b = ref_chord(rotations, walk, (j - 1) % m, (j + 1) % m)
        outer = emb.outer_darts
        if walk.is_outer:  # the pocket around j turns inner
            outer = [d for d in outer if d != walk.darts[0]] + [(a, b)]
        emb = Embedding(rotations, outer)
        added.append((min(a, b), max(a, b)))


def ref_ear_position(emb, walk):
    m = len(walk)
    return next(
        j for j in range(m)
        if not emb.has_edge(walk.darts[(j - 1) % m][0], walk.darts[j][1])
    )


def ref_disk(emb):
    sat = ref_saturate(emb)
    added = [(u, v, "saturate") for u, v in sorted(set(sat.edges) - set(emb.edges))]
    current, step = ref_connect(sat)
    added += [(u, v, "connect") for u, v in step]
    for stage, pick, position in (
        ("outer-cut", lambda f: f.is_outer and not f.is_simple, ref_cut_position),
        ("inner-cut", lambda f: not f.is_outer and not f.is_simple, ref_cut_position),
        ("ear", lambda f: not f.is_outer and len(f) >= 4, ref_ear_position),
    ):
        current, step = ref_cut(current, pick, position)
        added += [(u, v, stage) for u, v in step]
    return current, tuple(added)


def ref_full(emb):
    disk, added = ref_disk(emb)
    walk = disk.outer_faces[0]
    cycle = walk.vertices
    if len(cycle) == 3:
        return disk, added
    r = min(v for v in cycle if len(set(disk.rotation(v)) & set(cycle)) == 2)
    pos_r = cycle.index(r)
    rotations = disk.rotations_dict()
    fan = [
        ref_chord(rotations, walk, pos_r, pos)
        for pos in fan_order(walk.darts, pos_r, lambda v: disk.has_edge(r, v))
    ]
    added += tuple((min(u, v), max(u, v), "apex") for u, v in fan)
    return Embedding(rotations, [walk.darts[(pos_r + 1) % len(cycle)]]), added


def differential_inputs(corpus):
    yield from corpus
    rng = random.Random(20131846)
    for trial in range(200):
        k, w = rng.randint(1, 4), rng.randint(3, 8)
        base = gen_random_kouter(k, w, rng.randint(1, 10**6))
        count = rng.randint(1, base.edge_count // 2)
        yield f"deleted{trial}", delete_nonbridge_edges(base, count, rng)
    parts = side_parts()
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            yield f"side{i}_{j}", side_by_side(a, b)
    yield "side_all", side_by_side(*parts)
    tri = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    yield "isolated", Embedding({**tri, 7: []}, [(0, 1)])
    yield "isolated_first", Embedding({
        0: [], **{v + 4: [w + 4 for w in ns] for v, ns in tri.items()}}, [(4, 5)])
    yield "three_isolated", Embedding({0: [], 1: [], 2: []}, [])
    yield from interleaved_inputs()
    # single edges: the only inputs here whose walks have two darts
    yield "edge_isolated", Embedding({0: [1], 1: [0], 2: []}, [(0, 1)])
    yield "two_edges", side_by_side(gen_path(2), gen_path(2))


def side_parts():
    return [gen_nested_triangles(3), gen_wheel(5), gen_path(4),
            gen_random_kouter(2, 4, 7), gen_cycle(3)]


def interleaved_inputs():
    """Seeded relabellings of multi-component inputs.

    ``side_by_side`` gives each component a contiguous id block, so the
    components' order by smallest id is their block order; relabelled,
    their ids interleave, and the smallest vertex is sometimes isolated.
    """
    dot = Embedding({0: []}, [])
    mix = side_by_side(dot, gen_cycle(3), dot, gen_path(4), dot, gen_wheel(4),
                       gen_cycle(3), dot)
    rng = random.Random(24)
    for name, emb in (("side_all", side_by_side(*side_parts())), ("mix", mix)):
        for trial in range(8):
            yield f"interleaved_{name}{trial}", relabel(emb, rng)


def test_interleaved_inputs_reorder_components(corpus, monkeypatch):
    smallest_isolated = set()
    for label, emb in interleaved_inputs():
        spans = sorted((min(c), max(c)) for c in emb.components)
        assert any(hi > lo for (_, hi), (lo, _) in zip(spans, spans[1:])), label
        smallest_isolated.add(emb.degree(0) == 0)
    assert smallest_isolated == {False, True}
    # both cases of _connect's hub dart: a join's new dart (hub, v) is, or
    # is not, the minimum over the merged outer walk
    link, new_minimal = _FaceBuilder.link, set()

    def checked(b, corner_u, corner_v):
        ids = link(b, corner_u, corner_v)
        hub_v = (corner_u[1], corner_v[1])
        new_minimal.add(min(b.darts(hub_v)) == hub_v)
        return ids

    for _, emb in differential_inputs(corpus):
        if not emb.is_connected:
            b = _FaceBuilder(emb)
            _saturate(b, emb)
            with monkeypatch.context() as m:
                m.setattr(_FaceBuilder, "link", checked)
                _connect(b)
    assert new_minimal == {False, True}


def test_conversion_matches_per_edge_rebuild(corpus):
    stages = set()
    for label, emb in differential_inputs(corpus):
        assert saturate_inward_neighbors(emb) == ref_saturate(emb), label
        disk, trace = to_triangulated_disk(emb)
        assert (disk, trace.added_edges) == ref_disk(emb), label
        tri, trace = to_full_triangulation(emb)
        assert (tri, trace.added_edges) == ref_full(emb), label
        stages.update(s for _, _, s in trace.added_edges)
    assert stages == {"saturate", "connect", "outer-cut", "inner-cut", "ear", "apex"}


# -- the face builder's pointer structure, checked after every link -----------


def assert_same_embedding(got, ref, label=None):
    """Equal values, with the same walks, successors, components and outer ids."""
    assert got == ref and got.faces == ref.faces and got._succ == ref._succ, label
    assert (got._comp_of, got._outer_ids) == (ref._comp_of, ref._outer_ids), label


def check_builder(b):
    """Each walk id traces exactly one face of the rebuilt embedding."""
    darts_of = {}
    for d, i in b.wid.items():
        darts_of.setdefault(i, []).append(d)
    assert set(darts_of) == set(b.size) == set(b.dart)
    rot = b.rotations()
    outer = [darts_of[i][0] for i in b.outer]
    emb = Embedding(dict(rot), outer)  # plain rotations: _coerce and _successors
    # the read-off carries b.nxt, which the constructor traces in place of
    # its own map; the value is the same (and is dropped before the next link)
    assert_same_embedding(Embedding(rot, outer), emb)
    assert len(emb.faces) == len(b.size)
    # the rotations read off the successors give back exactly those successors
    assert _successors(rot) == b.nxt
    assert all((b.nbr[v] is None) == (not ns) for v, ns in rot.items())
    if b._prv is not None:  # kept the inverse of the successors since the first pred
        assert b._prv == {s: d for d, s in b.nxt.items()}
    for i, darts in darts_of.items():
        walk = successor_walk(b.nxt, darts[0])
        face = emb.faces[emb.face_index_of_dart(darts[0])]
        assert sorted(walk) == sorted(darts) == sorted(face.darts)
        assert b.size[i] == len(face)
        assert b.wid[b.dart[i]] == i
        assert (i in b.outer) == face.is_outer


def held_copies(b, dart):
    """The distinct tuple objects equal to ``dart`` in the builder's successor
    map (keys and values), its inverse, its walk ids and its walks' darts."""
    held = [b.nxt, b.nxt.values(), b.wid, b.dart.values()]
    if b._prv is not None:
        held += [b._prv, b._prv.values()]
    return {id(d) for d in chain.from_iterable(held) if d == dart}


def test_face_builder_invariants_after_every_link(corpus, monkeypatch):
    link = _FaceBuilder.link
    splits = []

    def checked(b, corner_u, corner_v):
        before = dict(b.wid)
        # an isolated vertex (no walk) lies in the outer region
        outer = [b.wid.get(c) in b.outer | {None} for c in (corner_u, corner_v)]
        ids = link(b, corner_u, corner_v)
        u, v = corner_u[1], corner_v[1]
        assert len(held_copies(b, (u, v))) == len(held_copies(b, (v, u))) == 1
        if len(ids) == 2:
            assert [i in b.outer for i in ids] == [outer[0], False]
            moved = sum(b.wid[d] != i for d, i in before.items())
            assert moved <= min(b.size[i] for i in ids)
            splits.append(moved)
        else:
            assert (ids[0] in b.outer) == any(outer)
        check_builder(b)
        return ids

    monkeypatch.setattr(_FaceBuilder, "link", checked)
    inputs = [
        *differential_inputs(corpus),
        ("path60", gen_path(60)),
        ("isolated30", many_components("isolated", 30)),
        ("triangles10", many_components("triangles", 10)),
    ]
    for label, emb in inputs:
        check_builder(_FaceBuilder(emb))
        to_full_triangulation(emb)
    assert len(splits) > 1000


@pytest.mark.parametrize("family, n", [(gen_path, 2000), (gen_cycle, 4000)])
def test_long_face_converts_to_a_triangulation(family, n):
    emb = family(n)
    tri, trace = to_full_triangulation(emb)
    assert is_triangulation(tri)
    assert tri.edge_count == 3 * n - 6
    added = [(u, v) for u, v, _ in trace.added_edges]
    assert len(set(added)) == len(added)
    assert not set(added) & set(emb.edges)
    assert set(tri.edges) == set(emb.edges) | set(added)
    assert onion_peels(tri).k <= onion_peels(emb).k + 1


def test_long_face_pipeline():
    emb = gen_cycle(4000)
    cert = decompose_pipeline(emb)
    edges = set(cert.tree.assignment)
    assert cert.peel_count == cert.disk_peel_count == 1
    assert cert.width <= 2
    assert set(emb.edges) <= edges and len(edges) == 2 * 4000 - 3


# -- corner cutting: the resumable scan against the rescanning loop -----------


def ref_cut_corners(b, outer, repeated_only, stuck):
    """Reference: the corner-cutting loop that rescans every popped walk
    from its minimal dart, found as the minimum over the walk, and counts
    its vertices afresh, quadratic when walks repeat vertices."""

    def wanted(b, i):
        if (i in b.outer) != outer or b.size[i] < 4:
            return False
        return not repeated_only or len({x for x, _ in b.darts(b.dart[i])}) < b.size[i]

    def first(i):
        return min(b.darts(b.dart[i]))

    heap = [(first(i), i) for i in b.size if wanted(b, i)]
    heapq.heapify(heap)
    added = []
    while heap:
        start, i = heapq.heappop(heap)
        d = start
        counts = Counter(x for x, _ in b.darts(d)) if repeated_only else None
        before = b.pred(d)
        corner = b.pred(before)
        for _ in range(b.size[i]):
            (v, c), a = d, before[0]
            if a != c and (a, c) not in b.nxt and (not repeated_only or counts[v] > 1):
                break
            corner, before, d = before, d, b.nxt[d]
        else:
            raise stuck(b, start)
        for j in b.link(corner, d):
            if wanted(b, j):
                heapq.heappush(heap, (first(j), j))
        added.append((min(a, c), max(a, c)))
    return added


def random_tree(n, seed):
    """Each vertex hangs from a uniformly random earlier one, at a random
    position of its rotation."""
    rng = random.Random(seed)
    rot = {0: []}
    for v in range(1, n):
        p = rng.randrange(v)
        rot[p].insert(rng.randrange(len(rot[p]) + 1), v)
        rot[v] = [p]
    return Embedding(rot, [(0, rot[0][0])])


def sparse_kring(k, w, seed, keep=0.1):
    """gen_random_kouter(k, w, seed) less each edge off a BFS tree with
    probability 1 - keep; one outer edge is kept, and its dart names the
    outer region."""
    base = gen_random_kouter(k, w, seed)
    rng = random.Random(seed)
    outer = base.outer_faces[0].darts[0]
    order = [min(base.vertices)]
    tree, seen = {(min(outer), max(outer))}, set(order)
    for x in order:
        for y in base.rotation(x):
            if y not in seen:
                seen.add(y)
                order.append(y)
                tree.add((min(x, y), max(x, y)))
    drop = {e for e in base.edges if e not in tree and rng.random() >= keep}
    rot = {
        v: [y for y in base.rotation(v) if (min(v, y), max(v, y)) not in drop]
        for v in base.vertices
    }
    return Embedding(rot, [outer])


def cutting_inputs():
    for seed in range(30):
        yield f"tree{seed}", random_tree(random.Random(seed).randint(3, 200), seed)
    rng = random.Random(1846)
    for trial in range(40):
        k, w = rng.randint(1, 4), rng.randint(3, 12)
        base = gen_random_kouter(k, w, rng.randint(1, 10**6))
        yield f"deleted{trial}", delete_nonbridge_edges(
            base, rng.randint(1, base.edge_count // 2), rng
        )
    for seed in range(10):
        yield f"sparse{seed}", sparse_kring(3, 20 + 10 * seed, seed, keep=seed / 10)


def test_cut_corners_matches_rescanning_reference(monkeypatch):
    cases = list(cutting_inputs())
    fast = [to_full_triangulation(emb) for _, emb in cases]
    monkeypatch.setattr(triangulate, "_cut_corners", ref_cut_corners)
    cuts = 0
    for (label, emb), (tri, trace) in zip(cases, fast):
        assert (tri, trace) == to_full_triangulation(emb), label
        cuts += sum(s.endswith("cut") or s == "ear" for _, _, s in trace.added_edges)
    assert cuts > 3000


class EveryEdge(dict):
    """A successor map that claims every edge, so no flankers are non-adjacent."""

    def __contains__(self, key):
        return True


@pytest.mark.parametrize("stage, emb, error, text", [
    ("outer-cut", gen_path(5), errors.RepairStuck,
     "every occurrence of every repeated outer vertex has adjacent flankers"),
    ("inner-cut",
     Embedding({0: [1, 3], 1: [2, 0], 2: [3, 4, 1], 3: [0, 2], 4: [2]}, [(0, 1)]),
     errors.RepairStuck,
     "every occurrence of every repeated inner-face vertex has adjacent flankers"),
    ("ear", gen_cycle(5), errors.InvariantViolation,
     "no ear available on inner face (0, 4, 3, 2, 1)"),
], ids=["outer-cut", "inner-cut", "ear"])
def test_each_cut_stage_raises_its_stuck_error(stage, emb, error, text):
    b = _FaceBuilder(emb)
    b.nxt = EveryEdge(b.nxt)
    with pytest.raises(errors.OnionPeelError) as info:
        _cut_corners(b, *next(cut for name, *cut in _CUTS if name == stage))
    assert (type(info.value), str(info.value)) == (error, text)


class CountingDict(dict):
    reads = 0

    def __getitem__(self, key):
        CountingDict.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("label", ["tree", "sparse-3-ring", "hub"])
def test_cut_corners_reads_each_successor_a_bounded_number_of_times(label, monkeypatch):
    emb = {
        "tree": lambda: random_tree(2000, 3),
        "sparse-3-ring": lambda: sparse_kring(3, 667, 7),
        "hub": lambda: many_components("isolated", 4000),
    }[label]()
    init, embedding = _FaceBuilder.__init__, _FaceBuilder.embedding

    def counting(b, source):
        init(b, source)
        b.nxt = CountingDict(b.nxt)

    def uncounted(b, *args):
        # the validated build reads b.nxt too, but that is the embedding's work
        reads = CountingDict.reads
        try:
            return embedding(b, *args)
        finally:
            CountingDict.reads = reads

    monkeypatch.setattr(_FaceBuilder, "__init__", counting)
    monkeypatch.setattr(_FaceBuilder, "embedding", uncounted)
    monkeypatch.setattr(CountingDict, "reads", 0)
    tri, _ = to_full_triangulation(emb)
    darts = 2 * tri.edge_count
    # the rescanning loop reads 169x (tree) and 27x (3-ring) the darts here
    assert 0 < CountingDict.reads <= 6 * darts, (CountingDict.reads, darts)
