import itertools

import pytest

from onionpeel import (
    OracleBudget,
    brute_branchwidth,
    brute_outerplanarity,
    catalan,
    certify_theorem1,
    decompose_pipeline,
    enumerate_face_triangulations,
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
    from onionpeel import Embedding

    bow = Embedding(
        {0: [1, 2], 1: [2, 0], 2: [0, 1, 3, 4], 3: [4, 2], 4: [2, 3]}, [(0, 1)]
    )
    with pytest.raises(errors.FaceNotSimple):
        list(enumerate_face_triangulations(bow, bow.faces.index(bow.outer_faces[0])))


def test_enumerate_budget():
    g2 = gen_counterexample(2)
    outer_idx = g2.faces.index(g2.outer_faces[0])
    with pytest.raises(errors.BudgetExceeded):
        list(
            enumerate_face_triangulations(
                g2, outer_idx, OracleBudget(max_chord_sets=100)
            )
        )


def test_three_connectivity_checker():
    assert is_three_connected(gen_wheel(3))
    assert not is_three_connected(gen_k4_minus_edge())
    assert not is_three_connected(gen_cycle(5))


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


def test_oracle_sandwich_small(small_corpus):
    for label, emb in small_corpus:
        if emb.edge_count <= 9:
            assert brute_branchwidth(emb) <= decompose_pipeline(emb).width, label
        if emb.vertex_count <= 7:
            assert brute_outerplanarity(emb) <= onion_peels(emb).k, label
