"""The ``Embedding`` constructor's error contract and value semantics.

The reference checks below count Euler's formula component by component
and read ids through ``int``.  On rotation maps with one or two defects,
the constructor must raise the same exception class with the same
message as the reference.
"""

import dataclasses
import random

import pytest

from onionpeel import (
    Embedding,
    decompose_pipeline,
    format_epg,
    gen_cycle,
    gen_random_kouter,
    onion_peels,
    parse_epg,
    to_full_triangulation,
    to_triangulated_disk,
)
from onionpeel import embedding
from onionpeel.embedding import _FaceBuilder, _components, _successors
from onionpeel.errors import (
    AsymmetricAdjacency,
    BadParameter,
    EulerViolation,
    InvariantViolation,
    NestedComponent,
    OnionPeelError,
    ParallelEdge,
    SelfLoop,
)
from onionpeel.peeling import _saturate
from onionpeel.triangulate import _CUTS, _connect, _cut_corners
from test_branchdecomp import deep_disks
from test_embedding import TRIANGLE, ref_trace
from test_triangulate import assert_same_embedding, differential_inputs, many_components


def ref_validate_structure(rot):
    adj = {v: set(ns) for v, ns in rot.items()}
    for v, ns in rot.items():
        if v in adj[v]:
            raise SelfLoop(f"vertex {v} lists itself as a neighbor")
        if len(adj[v]) != len(ns):
            raise ParallelEdge(f"vertex {v} lists a neighbor twice")
        for w in ns:
            if w not in rot:
                raise AsymmetricAdjacency(f"{v} lists unknown vertex {w}")
            if v not in adj[w]:
                raise AsymmetricAdjacency(f"{v} lists {w} but {w} does not list {v}")


def ref_check_euler(rot, walks, comp_of):
    n_verts, n_darts, n_walks = {}, {}, {}
    for v, ns in rot.items():
        c = comp_of[v]
        n_verts[c] = n_verts.get(c, 0) + 1
        n_darts[c] = n_darts.get(c, 0) + len(ns)
    for w in walks:
        c = comp_of[w[0][0]]
        n_walks[c] = n_walks.get(c, 0) + 1
    for c, dv in n_darts.items():
        if dv == 0:
            continue
        v, e, f = n_verts[c], dv // 2, n_walks.get(c, 0)
        if v - e + f != 2:
            raise EulerViolation(
                f"component of vertex {c}: V-E+F = {v}-{e}+{f} != 2 "
                "(not a sphere embedding)"
            )


def ref_resolve_outer(rot, walks, walk_of, comp_of, outer_darts):
    chosen = {}
    for d in outer_darts:
        d = (int(d[0]), int(d[1]))
        if d not in walk_of:
            raise BadParameter(f"outer dart {d} is not a dart of the graph")
        c = comp_of[d[0]]
        w = walk_of[d]
        if c in chosen and chosen[c] != w:
            raise NestedComponent(
                f"component of vertex {d[0]} has two distinct outer "
                "face designations"
            )
        chosen[c] = w
    edged = {comp_of[v] for v, ns in rot.items() if ns}
    missing = edged - set(chosen)
    if missing:
        v = min(missing)
        raise NestedComponent(f"component of vertex {v} has no outer face designation")
    return tuple(sorted(walks[w][0] for w in chosen.values()))


def outcome(build, rotations, outer):
    """``(class, message)`` of the error ``build`` raises, or None."""
    try:
        build(rotations, outer)
    except OnionPeelError as exc:
        return type(exc), str(exc)
    return None


def ref_build(rotations, outer):
    rot = {int(v): tuple(map(int, ns)) for v, ns in rotations.items()}
    ref_validate_structure(rot)
    walks, walk_of = ref_trace(rot)
    comp_of = _components(rot)
    ref_check_euler(rot, walks, comp_of)
    ref_resolve_outer(rot, walks, walk_of, comp_of, outer)


# -- one-defect mutations of (rotations, outer darts) -------------------------
# Each mutates in place, or returns False when the input has no place for
# its defect.


def self_loop(emb, rot, outer, rng):
    v = rng.choice(sorted(rot))
    rot[v].insert(rng.randint(0, len(rot[v])), v)


def repeated_neighbour(emb, rot, outer, rng):
    edged = [v for v in sorted(rot) if rot[v]]
    if not edged:
        return False
    v = rng.choice(edged)
    rot[v].insert(rng.randint(0, len(rot[v])), rng.choice(rot[v]))


def unknown_vertex(emb, rot, outer, rng):
    v = rng.choice(sorted(rot))
    rot[v].insert(rng.randint(0, len(rot[v])), max(rot) + 1 + rng.randrange(3))


def one_sided(emb, rot, outer, rng):
    v = rng.choice(sorted(rot))
    others = [w for w in sorted(rot) if w != v and w not in rot[v]]
    if others and (not rot[v] or rng.random() < 0.5):
        rot[v].insert(rng.randint(0, len(rot[v])), rng.choice(others))
    elif rot[v]:
        rot[v].remove(rng.choice(rot[v]))
    else:
        return False


def swapped_entries(emb, rot, outer, rng):
    high = [v for v in sorted(rot) if len(rot[v]) >= 3]
    if not high:
        return False
    v = rng.choice(high)
    i, j = rng.sample(range(len(rot[v])), 2)
    rot[v][i], rot[v][j] = rot[v][j], rot[v][i]


def non_dart_outer(emb, rot, outer, rng):
    u = rng.choice(sorted(rot))
    w = rng.choice([w for w in [*rot, max(rot) + 1] if w not in rot[u]])
    outer.insert(rng.randint(0, len(outer)), (u, w))


def two_designations(emb, rot, outer, rng):
    darts = emb.darts
    walk = {d: emb.face_index_of_dart(d) for d in outer if d in darts}
    comp = {v: i for i, c in enumerate(emb.components) for v in c}
    other = [e for e in darts for d in walk
             if comp[e[0]] == comp[d[0]] and emb.face_index_of_dart(e) != walk[d]]
    if not other:
        return False
    outer.insert(rng.randint(0, len(outer)), rng.choice(other))


def missing_designation(emb, rot, outer, rng):
    if not outer:
        return False
    outer.pop(rng.randrange(len(outer)))


MUTATIONS = (self_loop, repeated_neighbour, unknown_vertex, one_sided,
             swapped_entries, non_dart_outer, two_designations, missing_designation)


def mutants(inputs, rng):
    """(label, rotations, outer darts) with one defect, and with two."""
    for label, emb in inputs:
        for first in MUTATIONS:
            for names in ((first,), (first, rng.choice(MUTATIONS))):
                rot, outer = emb.rotations_dict(), list(emb.outer_darts)
                if all(f(emb, rot, outer, rng) is not False for f in names):
                    yield f"{label}:{'+'.join(f.__name__ for f in names)}", rot, outer


# a phrase of each message the constructor can raise -> its class
MESSAGES = {
    "lists itself": SelfLoop,
    "lists a neighbor twice": ParallelEdge,
    "lists unknown vertex": AsymmetricAdjacency,
    "does not list": AsymmetricAdjacency,
    "V-E+F": EulerViolation,
    "is not a dart of the graph": BadParameter,
    "two distinct outer face designations": NestedComponent,
    "no outer face designation": NestedComponent,
}


def test_mutated_rotations_raise_the_reference_error(corpus):
    seen = set()
    for label, rot, outer in mutants(differential_inputs(corpus), random.Random(14)):
        expected = outcome(ref_build, rot, outer)
        assert outcome(Embedding, rot, outer) == expected, label
        if expected is not None:
            cls, message = expected
            seen.update(p for p, c in MESSAGES.items() if c is cls and p in message)
    assert seen == set(MESSAGES)


# the mutations that break the rotation system itself
STRUCTURAL = (self_loop, repeated_neighbour, unknown_vertex, one_sided, swapped_entries)


def test_stacked_structure_defects_raise_the_first_reference_error(corpus):
    # The constructor proves the structure valid while tracing and runs the
    # structure check only when that proof fails; with several defects the
    # check must still name the first one in its own order.
    rng = random.Random(16)
    seen = set()
    for label, emb in differential_inputs(corpus):
        names = rng.sample(STRUCTURAL, rng.randint(2, 3))
        rot, outer = emb.rotations_dict(), list(emb.outer_darts)
        if not all(f(emb, rot, outer, rng) is not False for f in names):
            continue
        label = f"{label}:{'+'.join(f.__name__ for f in names)}"
        expected = outcome(ref_build, rot, outer)  # structure errors come first
        assert outcome(Embedding, rot, outer) == expected, label
        if expected is not None:
            cls, message = expected
            seen.update(p for p, c in MESSAGES.items() if c is cls and p in message)
    assert seen >= {"lists itself", "lists a neighbor twice", "lists unknown vertex",
                    "does not list"}


def test_euler_violation_names_the_first_failing_component():
    # two octahedra side by side; swapped entries make a component non-planar
    octahedron = {0: [1, 2, 3, 4], 1: [0, 4, 5, 2], 2: [0, 1, 5, 3],
                  3: [0, 2, 5, 4], 4: [0, 3, 5, 1], 5: [1, 4, 3, 2]}
    both = {**octahedron, **{v + 6: [w + 6 for w in ns] for v, ns in octahedron.items()}}
    Embedding(both, [(0, 1), (6, 7)])
    for swapped in ([8], [3], [3, 8], [8, 3]):
        rot = {v: list(ns) for v, ns in both.items()}
        for v in swapped:
            rot[v][0], rot[v][1] = rot[v][1], rot[v][0]
        expected = outcome(ref_build, rot, [(0, 1), (6, 7)])
        assert expected is not None and expected[0] is EulerViolation
        assert outcome(Embedding, rot, [(0, 1), (6, 7)]) == expected, swapped


# -- vertex ids must be integers ----------------------------------------------


class Index:
    """An integer-like id that is not an int: it has ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("rotations, bad", [
    ({0: [1, 2], 1: [2, 0], 2.9: [0, 1]}, "2.9"),
    ({0: [1, "2"], 1: ["2", 0], "2": [0, 1]}, "'2'"),
    ({0: [1, 2], 1: [2, 0], 2: [0, 1], 1.5: []}, "1.5"),
    ({0: [True, 2], True: [2, 0], 2: [0, True]}, "True"),
    ({0: [1, 2.0], 1: [2.0, 0], 2: [0, 1]}, "2.0"),
])
def test_non_integer_vertex_ids_are_rejected(rotations, bad):
    with pytest.raises(BadParameter, match=f"vertex id {bad} is not an integer"):
        Embedding(rotations, [(0, 1)])


@pytest.mark.parametrize("dart, message", [
    ((0, 1.99), "vertex id 1.99 is not an integer"),
    ((0, 1, 5), r"outer dart \(0, 1, 5\) is not a pair"),
    ("01", "vertex id '0' is not an integer"),
    (0, "outer dart 0 is not a pair"),
    ((0, False), "vertex id False is not an integer"),
])
def test_outer_darts_must_be_pairs_of_integers(dart, message):
    with pytest.raises(BadParameter, match=message):
        Embedding(TRIANGLE, [dart])


def test_index_types_are_accepted_as_plain_ints():
    i = [Index(v) for v in range(3)]
    emb = Embedding({i[0]: [i[1], i[2]], i[1]: [2, 0], 2: [i[0], 1]}, [(i[0], i[1])])
    assert emb == Embedding(TRIANGLE, [(0, 1)])
    assert {type(v) for v in emb.vertices} == {int}
    assert {type(w) for v in emb.vertices for w in emb.rotation(v)} == {int}
    assert {type(v) for d in emb.outer_darts for v in d} == {int}


# -- value semantics ----------------------------------------------------------


def variants(emb):
    """The same embedding from shifted rotations and from a reversed dict."""
    rot = emb.rotations_dict()
    shifted = {v: ns[1:] + ns[:1] for v, ns in rot.items()}
    reordered = dict(reversed(list(rot.items())))
    return [Embedding(shifted, emb.outer_darts), Embedding(reordered, emb.outer_darts)]


def test_equal_embeddings_hash_equal_in_any_order_of_use(corpus):
    for label, emb in corpus[::7]:
        a, b = variants(emb)
        hash(a)  # one side hashed first, the other not at all yet
        assert a == b and b == a and hash(a) == hash(b), label
        c, d = variants(emb)
        assert hash(d) == hash(c) and c == d == emb, label
        assert len({a, b, c, d, emb}) == 1, label
    assert gen_cycle(4) != gen_cycle(5)


def test_face_walks_are_frozen():
    face = gen_cycle(4).faces[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        face.darts = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        face.is_outer = not face.is_outer


def test_conversion_leaves_its_input_unchanged(corpus):
    for label, emb in corpus:
        faces = emb.faces
        full = to_full_triangulation(emb)[0]
        assert emb.faces == faces, label
        rebuilt = Embedding(emb.rotations_dict(), emb.outer_darts)
        assert rebuilt == emb and rebuilt.faces == faces, label
        # the kept successor map is the one a fresh trace builds, so a second
        # builder starts from the same state and converts alike
        assert emb._succ == _successors(emb._rot), label
        assert to_full_triangulation(emb)[0] == full, label
        assert _FaceBuilder(emb).nxt == emb._succ, label


# -- the face builder's successor map, handed to the constructor ---------------


def handed_and_reference(b, outer=None):
    """The builder's own build, which traces ``b.nxt``, and the reference
    build from plain rotation lists, with the builder's outer darts."""
    outer = [b.first(i) for i in b.outer] if outer is None else outer
    ref = Embedding({v: list(ns) for v, ns in b.rotations().items()}, outer)
    return b.embedding(outer), ref


def test_handed_successor_map_builds_the_reference_after_every_stage(corpus):
    inputs = [
        *corpus,
        *deep_disks(),
        ("isolated30", many_components("isolated", 30)),
        ("triangles10", many_components("triangles", 10)),
    ]
    for label, emb in inputs:
        if emb.vertex_count < 3:
            continue
        b = _FaceBuilder(emb)
        stages = [lambda: _saturate(b, emb), lambda: _connect(b)]
        stages += [lambda cut=cut: _cut_corners(b, *cut) for _, *cut in _CUTS]
        for i, stage in enumerate(stages):
            stage()
            # each build is dropped before the next stage links b again
            assert_same_embedding(*handed_and_reference(b), (label, i))
        disk = to_triangulated_disk(emb)[0]
        walk = disk.outer_faces[0].darts
        if len(walk) > 3:  # the apex step: fan the first vertex, outer dart after it
            b = _FaceBuilder(disk)
            b.fan(walk, 0)
            assert_same_embedding(*handed_and_reference(b, [walk[1]]), (label, "apex"))


def corrupted_builders():
    """(defect, expected error, builder) with one defect in the successor map."""
    emb = gen_random_kouter(2, 5, 3)
    x = max(emb.vertices, key=emb.degree)
    for defect, error in [
        ("foreign origin", InvariantViolation),
        ("split rotation", InvariantViolation),
        ("missing dart", InvariantViolation),
        ("missing reverse dart", AsymmetricAdjacency),
        ("shared successor", InvariantViolation),
    ]:
        b = _FaceBuilder(emb)
        a = b.nbr[x]
        ns = b.rotations()[x]  # from a, so ns[0] == a
        nxt = b.nxt
        if defect == "foreign origin":
            nxt[(a, x)] = (a, ns[1])
        elif defect == "split rotation":  # a -> ns[1] -> a, and the rest
            nxt[(ns[1], x)], nxt[(ns[-1], x)] = (x, a), (x, ns[2])
        elif defect == "missing dart":
            del nxt[(ns[1], x)]
        elif defect == "missing reverse dart":  # x skips ns[1], which lists x
            nxt[(a, x)] = nxt.pop((ns[1], x))
        else:  # the dart before a takes a's successor: no cycle closes at a
            nxt[(ns[-1], x)] = nxt[(a, x)]
        yield defect, error, b


def test_corrupted_successor_maps_raise_named_errors():
    seen = set()
    for defect, error, b in corrupted_builders():
        with pytest.raises(error):
            b.embedding()
        seen.add(defect)
    assert len(seen) == 5


def test_builder_builds_derive_no_successor_map_and_no_canonical_rotations(corpus, monkeypatch):
    calls = []
    for name in ("_successors", "_coerce"):
        real = getattr(embedding, name)
        monkeypatch.setattr(embedding, name, lambda *a, real=real, name=name: (
            calls.append(name), real(*a))[1])
    texts = [format_epg(emb) for _, emb in corpus[::5]]
    for text in texts:
        emb = parse_epg(text)  # int tuples: no type pass
        onion_peels(emb)
        assert "rot" not in emb._memo
        disk, _ = to_triangulated_disk(emb)
        decompose_pipeline(emb)
        assert "rot" not in emb._memo and "rot" not in disk._memo
        to_full_triangulation(emb)
    assert calls.count("_coerce") == 0
    # the first builds of each input, by parse_epg, derive their own map
    assert calls.count("_successors") == len(texts)


def test_has_edge_agrees_with_a_rotation_scan(corpus):
    pairs = 0
    for label, emb in corpus:
        rot = emb.rotations_dict()
        ids = [*rot, min(rot) - 1, max(rot) + 1]
        for u in ids:
            for v in ids:
                assert emb.has_edge(u, v) == (u in rot and v in rot[u]), (label, u, v)
                pairs += 1
    assert pairs > 40000
