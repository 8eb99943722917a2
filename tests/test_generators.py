import pytest

from onionpeel import (
    errors,
    format_epg,
    gen_counterexample,
    gen_cycle,
    gen_k4_minus_edge,
    gen_nested_triangles,
    gen_path,
    gen_random_kouter,
    gen_wheel,
    is_three_connected,
    is_triangulated_disk,
    is_triangulation,
    onion_peels,
)


@pytest.mark.parametrize("i", range(1, 7))
def test_nested_triangles_shape(i):
    emb = gen_nested_triangles(i)
    assert emb.vertex_count == 3 * i
    assert emb.edge_count == (3 if i == 1 else 9 * i - 6)
    assert onion_peels(emb).k == i
    if i >= 2:
        assert is_triangulation(emb)


@pytest.mark.parametrize("i", [2, 3])
def test_nested_triangles_three_connected(i):
    assert is_three_connected(gen_nested_triangles(i))


@pytest.mark.parametrize("k", range(2, 7))
def test_counterexample_shape(k):
    emb = gen_counterexample(k)
    assert emb.vertex_count == 12 * k
    assert is_triangulated_disk(emb)
    assert onion_peels(emb).k == k
    assert len(emb.outer_faces[0]) == 8


def test_counterexample_three_connected():
    assert is_three_connected(gen_counterexample(2))


def test_k4_minus_edge():
    emb = gen_k4_minus_edge()
    assert onion_peels(emb).k == 1
    assert is_triangulated_disk(emb)
    assert emb.edge_count == 5


def test_small_families():
    assert onion_peels(gen_cycle(4)).k == 1
    assert onion_peels(gen_wheel(5)).k == 2
    assert onion_peels(gen_path(5)).k == 1
    assert gen_wheel(3).edge_count == 6  # K4


def test_bad_parameters():
    with pytest.raises(errors.BadParameter):
        gen_nested_triangles(0)
    with pytest.raises(errors.BadParameter):
        gen_counterexample(1)
    with pytest.raises(errors.BadParameter):
        gen_cycle(2)
    with pytest.raises(errors.BadParameter):
        gen_path(1)
    with pytest.raises(errors.BadParameter):
        gen_random_kouter(0, 5, 1)
    with pytest.raises(errors.BadParameter):
        gen_random_kouter(2, 2, 1)


def test_random_kouter_deterministic():
    a = format_epg(gen_random_kouter(3, 4, 7))
    b = format_epg(gen_random_kouter(3, 4, 7))
    assert a == b
    assert format_epg(gen_random_kouter(3, 4, 8)) != a


def test_random_kouter_peel_bound():
    for k in range(1, 5):
        for w in range(3, 8):
            for s in range(1, 6):
                emb = gen_random_kouter(k, w, s)
                assert emb.vertex_count == k * w
                assert onion_peels(emb).k <= k, (k, w, s)


def test_random_single_ring_is_cycle():
    emb = gen_random_kouter(1, 5, 123)
    assert emb.edges == gen_cycle(5).edges
    assert onion_peels(emb).k == 1

