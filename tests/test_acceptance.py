"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
Criterion 2 certifies the lower bound exhaustively for k=1, 2 and 3.
"""

import time
from contextlib import contextmanager

from conftest import corpus_specs
from onionpeel import (
    brute_branchwidth,
    brute_outerplanarity,
    build_branch_tree,
    build_rooted_forest,
    certify_theorem1,
    decompose_pipeline,
    gen_counterexample,
    is_triangulated_disk,
    is_triangulation,
    onion_peels,
    parse_epg,
    saturate_inward_neighbors,
    to_full_triangulation,
    to_triangulated_disk,
    treewidth_bound,
    verify_forest_bound,
)
from test_cli import run_cli


@contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n} ({description}): FAIL")
        raise
    print(f"\nACCEPTANCE {n} ({description}): PASS")


def test_criterion_1_four_cycle():
    with criterion(1, "4-cycle triangulates only to K4, peels 1 -> 2"):
        t0 = time.monotonic()
        code, epg, _ = run_cli(["gen", "cycle", "4"])
        assert code == 0
        assert brute_outerplanarity(parse_epg(epg)) == 1
        code, tri_epg, _ = run_cli(["triangulate"], stdin_text=epg)
        assert code == 0
        tri = parse_epg(tri_epg)
        assert tri.edge_count == 6 and is_triangulation(tri)  # K4 exactly
        assert brute_outerplanarity(tri) == 2
        assert onion_peels(tri).k == 2
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_theorem1_desk_scale():
    with criterion(2, "lower bound certified for k=1,2; equality spot-check k<=6"):
        t0 = time.monotonic()
        r1 = certify_theorem1(1)
        assert r1.passed and r1.min_outerplanarity == 2
        r2 = certify_theorem1(2)
        assert r2.passed and r2.three_connected
        assert r2.triangulation_count == 132
        assert r2.min_outerplanarity == 3
        assert time.monotonic() - t0 < 60.0
        for k in range(2, 7):
            tri, _ = to_full_triangulation(gen_counterexample(k))
            assert onion_peels(tri).k == k + 1, k


def test_criterion_2_theorem1_k3_slow():
    with criterion(2, "lower bound certified exhaustively for k=3"):
        r3 = certify_theorem1(3)
        assert r3.passed and r3.min_outerplanarity == 4


def test_criterion_3_disk_conversion(corpus):
    with criterion(3, "disk conversion: disk, same outer set, peels preserved"):
        t0 = time.monotonic()
        for label, emb in corpus:
            disk, _ = to_triangulated_disk(emb)
            assert is_triangulated_disk(disk), label
            assert disk.outer_vertices == emb.outer_vertices, label
            assert onion_peels(disk).k <= onion_peels(emb).k, label
        assert time.monotonic() - t0 < 30.0


def test_criterion_4_full_triangulation(corpus):
    with criterion(4, "full triangulation: triangulation, peels grow by <= 1"):
        for label, emb in corpus:
            tri, _ = to_full_triangulation(emb)
            assert is_triangulation(tri), label
            assert onion_peels(tri).k <= onion_peels(emb).k + 1, label


def test_criterion_5_forest_height(corpus):
    with criterion(5, "saturated BFS forest has height <= k-1 and certifies"):
        for label, emb in corpus:
            k = onion_peels(emb).k
            sat = saturate_inward_neighbors(emb)
            forest = build_rooted_forest(sat)
            assert forest.height <= k - 1, label
            cert = verify_forest_bound(sat, forest)
            assert cert.peel_count <= cert.height + 1, label


def test_criterion_6_branch_decomposition(corpus):
    with criterion(6, "branch decomposition: width <= 2k, degree <= 3, dual tree"):
        for label, emb in corpus:
            k = onion_peels(emb).k
            disk, _ = to_triangulated_disk(emb)
            forest = build_rooted_forest(disk)
            bd = build_branch_tree(disk, forest)  # verifies acyclic+connected
            kinds = [n.kind for n in bd.nodes]
            assert kinds.count("arc") == kinds.count("face") - 1, label
            degree: dict[int, int] = {}
            for a, b in bd.arcs:
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
            assert max(degree.values()) <= 3, label
            assert bd.width <= 2 * k, label


def test_criterion_7_oracle_sandwich(corpus):
    with criterion(7, "oracle sandwich: bw <= construction width; exact peels"):
        t0 = time.monotonic()
        for label, emb in corpus:
            if emb.edge_count <= 9:
                cert = decompose_pipeline(emb)
                bw = brute_branchwidth(emb)
                assert bw <= cert.width <= 2 * onion_peels(emb).k, label
            if emb.vertex_count <= 7:
                assert brute_outerplanarity(emb) <= onion_peels(emb).k, label
        assert time.monotonic() - t0 < 300.0


def test_criterion_8_treewidth_numbers():
    with criterion(8, "treewidth_bound(2k) = 3k-1 for k = 1..10"):
        for k in range(1, 11):
            assert treewidth_bound(2 * k) == 3 * k - 1


def _gen_argv(fn_name: str, args: tuple) -> list[str]:
    if fn_name == "gen_k4_minus_edge":
        return ["gen", "k4_minus_edge"]
    if fn_name == "gen_random_kouter":
        k, w, s = args
        return ["gen", "random_kouter", str(k), "--width", str(w), "--seed", str(s)]
    family = fn_name.removeprefix("gen_")
    return ["gen", family, str(args[0])]


def test_criterion_9_cli_determinism(corpus, tmp_path):
    with criterion(9, "byte-identical CLI reruns across the full corpus"):
        specs = corpus_specs()
        instances = []
        for (label, fn, args), (_, emb) in zip(specs, corpus):
            argv = _gen_argv(fn.__name__, args)
            a = run_cli(argv)
            b = run_cli(argv)
            assert a[0] == b[0] == 0 and a[1] == b[1], label
            instances.append((label, a[1], emb))
        for label, epg, emb in instances:
            for argv in (["peel"], ["forest"], ["disk"], ["triangulate"], ["bd"], ["pipeline"]):
                a = run_cli(argv, stdin_text=epg)
                b = run_cli(argv, stdin_text=epg)
                assert a[0] == b[0] == 0, (label, argv, a[2])
                assert a[1] == b[1], (label, argv)
            epg_file = tmp_path / "g.epg"
            artifact = tmp_path / "peel.json"
            epg_file.write_text(epg)
            artifact.write_text(run_cli(["peel"], stdin_text=epg)[1])
            argv = ["verify", "--in", str(epg_file), "--json", str(artifact)]
            a = run_cli(argv)
            b = run_cli(argv)
            assert a == b and a[0] == 0, label
            if emb.edge_count <= 9:
                a = run_cli(["oracle", "bw"], stdin_text=epg)
                b = run_cli(["oracle", "bw"], stdin_text=epg)
                assert a[:2] == b[:2] and a[0] == 0, label
            if emb.vertex_count <= 7:
                a = run_cli(["oracle", "outerplanarity"], stdin_text=epg)
                b = run_cli(["oracle", "outerplanarity"], stdin_text=epg)
                assert a[:2] == b[:2] and a[0] == 0, label
        # out-of-budget failures are deterministic too
        big = next(epg for label, epg, emb in instances if emb.edge_count > 9)
        a = run_cli(["oracle", "bw"], stdin_text=big)
        b = run_cli(["oracle", "bw"], stdin_text=big)
        assert a == b and a[0] == 1
        a = run_cli(["oracle", "theorem1", "1"])
        b = run_cli(["oracle", "theorem1", "1"])
        assert a[:2] == b[:2] and a[0] == 0
