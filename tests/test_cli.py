import contextlib
import io
import json
import random
import sys
import time

from onionpeel import (
    Embedding,
    branchdecomp,
    format_epg,
    gen_counterexample,
    gen_cycle,
    gen_wheel,
    treewidth_bound,
)
from onionpeel.cli import _arc_cuts, _preorder, cli_main


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_gen_matches_library():
    code, out, _ = run_cli(["gen", "cycle", "4"])
    assert code == 0
    assert out == format_epg(gen_cycle(4))


def test_gen_requires_parameter():
    code, _, err = run_cli(["gen", "cycle"])
    assert code == 1 and "BadParameter" in err
    code, out, _ = run_cli(["gen", "k4_minus_edge"])
    assert code == 0 and out.startswith("epg 1")


def test_peel_json():
    epg = format_epg(gen_wheel(3))
    code, out, _ = run_cli(["peel"], stdin_text=epg)
    assert code == 0
    assert json.loads(out) == {"k": 2, "layers": [[0, 1, 2], [3]]}


def test_forest_json():
    code, out, _ = run_cli(["forest"], stdin_text=format_epg(gen_wheel(3)))
    data = json.loads(out)
    assert data["height"] == 1
    assert data["roots"] == [0, 1, 2]
    assert data["parents"] == [[3, 0]]


def test_disk_and_triangulate_files(tmp_path):
    epg = format_epg(gen_cycle(4))
    out_epg = tmp_path / "disk.epg"
    out_json = tmp_path / "trace.json"
    code, out, err = run_cli(
        ["disk", "--out", str(out_epg), "--json", str(out_json)], stdin_text=epg
    )
    assert code == 0 and out == ""
    assert "ms" in err  # timings on stderr only
    trace = json.loads(out_json.read_text())
    assert trace == {"added": [[0, 2, "saturate"]], "k_in": 1, "k_out": 1}
    assert out_epg.read_text().startswith("epg 1")

    code, out, _ = run_cli(
        ["triangulate", "--json", str(out_json), "--out", str(out_epg)],
        stdin_text=epg,
    )
    assert code == 0
    trace = json.loads(out_json.read_text())
    assert trace["k_in"] == 1 and trace["k_out"] == 2
    assert ["1", "3", "apex"] == [str(x) for x in trace["added"][-1]]


def test_bd_json_schema():
    code, out, _ = run_cli(["bd"], stdin_text=format_epg(gen_cycle(4)))
    data = json.loads(out)
    assert set(data) == {"nodes", "arcs", "assignment", "width", "bounds"}
    kinds = {n["kind"] for n in data["nodes"]}
    assert kinds <= {"face", "arc", "edge"}
    assert data["width"] <= data["bounds"]["2h"]
    assert set(data["assignment"]) == {"0-1", "0-2", "0-3", "1-2", "2-3"}


def test_pipeline_report():
    code, out, err = run_cli(["pipeline"], stdin_text=format_epg(gen_counterexample(2)))
    assert code == 0
    data = json.loads(out)
    assert set(data) == {
        "command",
        "input_digest",
        "k_in",
        "k_out",
        "forest_height",
        "bd_width",
        "tw_bound",
    }
    assert data["k_in"] == 2 and data["bd_width"] <= 4 and data["tw_bound"] <= 5
    assert "ms" in err


def test_oracle_commands():
    code, out, _ = run_cli(["oracle", "outerplanarity"], stdin_text=format_epg(gen_cycle(4)))
    assert code == 0 and json.loads(out)["k"] == 1
    code, out, _ = run_cli(["oracle", "bw"], stdin_text=format_epg(gen_wheel(3)))
    assert code == 0 and json.loads(out)["branchwidth"] == 3
    code, out, _ = run_cli(["oracle", "theorem1", "1"])
    assert code == 0 and json.loads(out)["passed"] is True


def test_oracle_budget_flags():
    code, _, err = run_cli(["oracle", "bw"], stdin_text=format_epg(gen_cycle(10)))
    assert code == 1 and "BudgetExceeded" in err
    code, out, _ = run_cli(
        ["oracle", "bw", "--budget-edges", "10"], stdin_text=format_epg(gen_cycle(10))
    )
    assert code == 0 and json.loads(out)["branchwidth"] == 2


def test_theorem1_k3_needs_slow_flag():
    # the --slow gate is gone: k up to the cap runs, k above it fails fast
    code, out, _ = run_cli(["oracle", "theorem1", "6"])
    assert code == 0 and json.loads(out)["min_outerplanarity"] == 7
    t0 = time.monotonic()
    code, _, err = run_cli(["oracle", "theorem1", "7"])
    assert time.monotonic() - t0 < 0.5
    assert code == 1 and "BadParameter" in err and "k <= 6" in err
    code, _, err = run_cli(["oracle", "theorem1", "3", "--slow"])
    assert code == 2 and "--slow" in err
    # the chord-set budget is a library constant, no longer a flag
    for argv in (["oracle", "theorem1", "2"], ["verify", "--json", "a.json"]):
        code, _, err = run_cli(argv + ["--budget-chords", "100"])
        assert code == 2 and "--budget-chords" in err


def test_bd_certifies_its_tree(monkeypatch):
    # a tree whose cuts escape their forest separators is not handed out
    monkeypatch.setattr(branchdecomp, "_separator", lambda forest, v1, v2: set())
    code, _, err = run_cli(["bd"], stdin_text=format_epg(gen_wheel(3)))
    assert code == 1 and "BoundViolated" in err


def test_malformed_epg_names_error():
    code, _, err = run_cli(["peel"], stdin_text="epg 1\nv 0: 1\nv 1:\nouter 0 1\n")
    assert code == 1
    assert "AsymmetricAdjacency" in err


def test_usage_error_exit_2():
    code, _, _ = run_cli([])
    assert code == 2
    code, _, _ = run_cli(["gen", "nosuchfamily", "3"])
    assert code == 2
    # the oracle budgets belong to `oracle` and `verify` only
    code, _, _ = run_cli(["peel", "--budget-edges", "3"], stdin_text=format_epg(gen_cycle(4)))
    assert code == 2


def test_verify_accepts_own_artifacts(tmp_path):
    epg_path = tmp_path / "g.epg"
    code, epg, _ = run_cli(["gen", "counterexample", "2"])
    epg_path.write_text(epg)

    for argv, name in [
        (["peel"], "peel.json"),
        (["forest"], "forest.json"),
        (["bd"], "bd.json"),
        (["pipeline"], "pipeline.json"),
    ]:
        code, out, _ = run_cli(argv, stdin_text=epg)
        assert code == 0
        artifact = tmp_path / name
        artifact.write_text(out)
        code, _, err = run_cli(
            ["verify", "--in", str(epg_path), "--json", str(artifact)]
        )
        assert code == 0, (name, err)

    out_epg = tmp_path / "disk.epg"
    trace = tmp_path / "trace.json"
    code, _, _ = run_cli(
        ["disk", "--out", str(out_epg), "--json", str(trace)], stdin_text=epg
    )
    assert code == 0
    code, _, err = run_cli(
        ["verify", "--in", str(epg_path), "--json", str(trace), "--out", str(out_epg)]
    )
    assert code == 0, err


def assert_verify_rejects(tmp_path, epg, argv, tamper):
    """Emit ``argv``'s artifact for ``epg``, tamper with it, expect exit 1."""
    epg_path = tmp_path / "g.epg"
    epg_path.write_text(epg)
    code, out, _ = run_cli(argv, stdin_text=epg)
    assert code == 0
    data = json.loads(out)
    tamper(data)
    artifact = tmp_path / "tampered.json"
    artifact.write_text(json.dumps(data))
    code, _, err = run_cli(["verify", "--in", str(epg_path), "--json", str(artifact)])
    assert code == 1 and "InvariantViolation" in err, (argv, data, err)


def test_verify_rejects_tampered_artifact(tmp_path):
    epg = format_epg(gen_cycle(4))
    for argv, tamper in [
        (["peel"], lambda d: d.update(k=5)),
        (["forest"], lambda d: d["depth"].append([9, 1])),
        (["pipeline"], lambda d: d.update(forest_height=d["forest_height"] + 1)),
    ]:
        assert_verify_rejects(tmp_path, epg, argv, tamper)


def test_verify_compares_whole_report(tmp_path):
    wheel = format_epg(gen_wheel(3))
    for argv, tamper in [
        (["oracle", "bw"], lambda d: d.update(edges=999)),
        (["oracle", "outerplanarity"], lambda d: d.update(vertices=d["vertices"] + 1)),
        (["oracle", "theorem1", "2"], lambda d: d.update(triangulations=1)),
        (["oracle", "theorem1", "2"], lambda d: d.update(three_connected=False)),
        (["oracle", "theorem1", "2"], lambda d: d.update(assumption="none")),
        (["peel"], lambda d: d.update(extra=1)),
    ]:
        assert_verify_rejects(tmp_path, wheel, argv, tamper)


def test_verify_rejects_malformed_artifacts(tmp_path):
    epg_path = tmp_path / "g.epg"
    code, epg, _ = run_cli(["gen", "cycle", "4"])
    epg_path.write_text(epg)
    artifact = tmp_path / "bad.json"
    for bad in [
        {"layers": 5},
        {"added": [[0]], "k_in": 1, "k_out": 1},
        {"layers": [[0, 1, 2, 3]], "k": True},
        {"parents": [[1, 0]], "height": 1, "roots": [0], "depth": [[0]]},
        {"nodes": [{"id": 0, "kind": "edge"}], "arcs": [[0, 7]],
         "assignment": {}, "width": 0, "bounds": {"tw": 0}},
        {"nodes": [{"id": 0, "kind": "edge"}], "arcs": [],
         "assignment": {"0+1": 0}, "width": 0, "bounds": {"tw": 0}},
        {"bd_width": "2"},
        {"oracle": "nosuch"},
        {"oracle": "bw"},
        "layers",
        [1, 2],
    ]:
        artifact.write_text(json.dumps(bad))
        code, _, err = run_cli(["verify", "--in", str(epg_path), "--json", str(artifact)])
        assert code == 1 and "FormatError" in err, (bad, err)


def test_verify_accepts_bd_with_negative_vertex_ids(tmp_path):
    tri = gen_cycle(3)
    shifted = Embedding(
        {v - 1: [w - 1 for w in tri.rotation(v)] for v in tri.vertices},
        [(a - 1, b - 1) for a, b in tri.outer_darts],
    )
    epg_path, artifact = tmp_path / "g.epg", tmp_path / "bd.json"
    epg_path.write_text(format_epg(shifted))
    code, _, err = run_cli(["bd", "--in", str(epg_path), "--json", str(artifact)])
    assert code == 0, err
    assert "-1-0" in json.loads(artifact.read_text())["assignment"]
    code, _, err = run_cli(["verify", "--in", str(epg_path), "--json", str(artifact)])
    assert code == 0, err


def test_verify_rejects_a_non_canonical_bd_key(tmp_path):
    # "00-1" names edge 0-1, but bd writes that edge's key as "0-1" only
    epg_path, artifact = tmp_path / "g.epg", tmp_path / "bd.json"
    epg_path.write_text(format_epg(gen_wheel(3)))
    data = json.loads(run_cli(["bd", "--in", str(epg_path)])[1])
    data["assignment"]["00-1"] = data["assignment"]["0-1"]
    artifact.write_text(json.dumps(data))
    code, _, err = run_cli(["verify", "--in", str(epg_path), "--json", str(artifact)])
    assert code == 1 and "FormatError" in err, err


def test_undecodable_epg_input_is_a_format_error(tmp_path):
    bad = tmp_path / "bad.epg"
    bad.write_bytes(b"\xffepg 1\n")
    code, _, err = run_cli(["peel", "--in", str(bad)])
    assert code == 1 and "FormatError" in err, err


def verify_bytes(tmp_path, content: bytes):
    """``verify`` of an artifact file holding ``content``, against a 4-cycle."""
    epg_path, artifact = tmp_path / "g.epg", tmp_path / "a.json"
    epg_path.write_text(format_epg(gen_cycle(4)))
    artifact.write_bytes(content)
    return run_cli(["verify", "--in", str(epg_path), "--json", str(artifact)])


def test_undecodable_artifact_is_a_format_error(tmp_path):
    code, _, err = verify_bytes(tmp_path, b"\xff{}")
    assert code == 1 and "FormatError" in err, err


def test_too_deep_artifact_is_a_format_error(tmp_path):
    code, _, err = verify_bytes(tmp_path, b"[" * 200_000)
    assert code == 1 and "FormatError" in err, err


def test_undecodable_claimed_output_is_a_format_error(tmp_path):
    epg_path, trace, out = tmp_path / "g.epg", tmp_path / "trace.json", tmp_path / "k4.epg"
    epg_path.write_text(format_epg(gen_cycle(4)))
    argv = ["--in", str(epg_path), "--json", str(trace), "--out", str(out)]
    assert run_cli(["triangulate"] + argv)[0] == 0
    assert run_cli(["verify"] + argv)[0] == 0
    out.write_bytes(b"\xff" + out.read_bytes())
    code, _, err = run_cli(["verify"] + argv)
    assert code == 1 and "FormatError" in err, err


def test_verify_oracle_artifact(tmp_path):
    epg_path = tmp_path / "g.epg"
    code, epg, _ = run_cli(["gen", "wheel", "3"])
    epg_path.write_text(epg)
    code, out, _ = run_cli(["oracle", "bw"], stdin_text=epg)
    artifact = tmp_path / "bw.json"
    artifact.write_text(out)
    code, _, err = run_cli(["verify", "--in", str(epg_path), "--json", str(artifact)])
    assert code == 0, err


def test_verify_gates_theorem1_artifacts_like_oracle(tmp_path):
    epg_path = tmp_path / "g.epg"
    epg_path.write_text(format_epg(gen_cycle(4)))
    artifact = tmp_path / "t1.json"
    code, out, _ = run_cli(["oracle", "theorem1", "2"])
    artifact.write_text(out)
    code, _, err = run_cli(["verify", "--in", str(epg_path), "--json", str(artifact)])
    assert code == 0, err
    # theorem 1 reads no input graph, so empty stdin is no error
    code, _, err = run_cli(["verify", "--json", str(artifact)], stdin_text="")
    assert code == 0, err
    artifact.write_text(json.dumps(
        {"oracle": "theorem1", "k": 12, "min_outerplanarity": 13, "passed": True}
    ))
    t0 = time.monotonic()
    code, _, err = run_cli(["verify", "--in", str(epg_path), "--json", str(artifact)])
    assert time.monotonic() - t0 < 0.5
    assert code == 1 and "BadParameter" in err
    assert "k=12 exceeds the command-line cap k <= 6" in err


def test_gen_pipe_disk_pipe_verify(tmp_path):
    code, epg, _ = run_cli(["gen", "random_kouter", "3", "--width", "5", "--seed", "11"])
    assert code == 0
    src = tmp_path / "g.epg"
    src.write_text(epg)
    trace = tmp_path / "t.json"
    code, disk_epg, _ = run_cli(["disk", "--json", str(trace)], stdin_text=epg)
    assert code == 0 and disk_epg.startswith("epg 1")
    code, _, err = run_cli(["verify", "--in", str(src), "--json", str(trace)])
    assert code == 0, err


def test_dot_flag(tmp_path):
    dot = tmp_path / "g.dot"
    code, _, _ = run_cli(["gen", "wheel", "4", "--out", str(tmp_path / "g.epg"), "--dot", str(dot)])
    assert code == 0
    assert dot.read_text().startswith("graph embedding {")


def test_rerun_determinism_sample():
    epg = format_epg(gen_counterexample(3))
    for argv in [
        ["peel"],
        ["forest"],
        ["disk"],
        ["triangulate"],
        ["bd"],
        ["pipeline"],
    ]:
        a = run_cli(argv, stdin_text=epg)
        b = run_cli(argv, stdin_text=epg)
        assert a[0] == b[0] == 0 and a[1] == b[1], argv


def ref_arc_cuts(artifact):
    """Per arc, by the leaf-bipartition definition: one DFS per arc for its
    side, and a vertex crosses the arc iff it has an edge on each side."""
    adj = {n["id"]: [] for n in artifact["nodes"]}
    for a, b in artifact["arcs"]:
        adj[a].append(b)
        adj[b].append(a)
    assignment = {
        tuple(int(t) for t in key.split("-")): leaf
        for key, leaf in artifact["assignment"].items()
    }
    cuts = []
    for a, b in artifact["arcs"]:
        side = {a}
        stack = [a]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if {x, y} == {a, b} or y in side:
                    continue
                side.add(y)
                stack.append(y)
        side_edges = {e for e, leaf in assignment.items() if leaf in side}
        other_edges = set(assignment) - side_edges
        crossing = {
            w
            for u, v in side_edges
            for w in (u, v)
            if any(w in e for e in other_edges)
        }
        cuts.append(len(crossing))
    return cuts


def arc_cuts(artifact):
    """The cuts ``verify`` computes for a bd artifact, per arc."""
    adj = {n["id"]: [] for n in artifact["nodes"]}
    for a, b in artifact["arcs"]:
        adj[a].append(b)
        adj[b].append(a)
    order, parent = _preorder(adj, min(adj))
    assignment = {
        tuple(int(t) for t in key.split("-")): leaf
        for key, leaf in artifact["assignment"].items()
    }
    return _arc_cuts(order, parent, [tuple(a) for a in artifact["arcs"]], assignment)


def with_assignment(bd, assignment):
    """``bd`` with its leaves reassigned, each edge node relabelled to match."""
    edge_of = {leaf: [int(t) for t in key.split("-")] for key, leaf in assignment.items()}
    nodes = [
        {**n, "edge": edge_of[n["id"]]} if n["id"] in edge_of else n
        for n in bd["nodes"]
    ]
    return {**bd, "nodes": nodes, "assignment": assignment}


def test_verify_bd_cuts_match_per_arc_definition(tmp_path, small_corpus):
    epg_path = tmp_path / "g.epg"
    artifact = tmp_path / "bd.json"

    def verify(data):
        artifact.write_text(json.dumps(data))
        return run_cli(["verify", "--in", str(epg_path), "--json", str(artifact)])

    rng = random.Random(7)
    for label, emb in small_corpus:
        epg = format_epg(emb)
        epg_path.write_text(epg)
        code, out, _ = run_cli(["bd"], stdin_text=epg)
        assert code == 0, label
        bd = json.loads(out)
        variants = [bd]
        for _ in range(3):
            edges, leaves = list(bd["assignment"]), list(bd["assignment"].values())
            rng.shuffle(leaves)
            variants.append(with_assignment(bd, dict(zip(edges, leaves))))
        for data in variants:
            cuts = ref_arc_cuts(data)
            assert arc_cuts(data) == cuts, label
            width = max(cuts, default=0)
            bounds = {**data["bounds"], "tw": treewidth_bound(width)}
            data = {**data, "width": width, "bounds": bounds}
            code, _, err = verify(data)
            assert code == 0, (label, err)
            code, _, err = verify({**data, "width": width + 1})
            assert code == 1 and "width mismatch" in err, (label, err)


def test_verify_checks_bd_labels_and_bounds(tmp_path, small_corpus):
    epg_path = tmp_path / "g.epg"
    artifact = tmp_path / "bd.json"

    def verify(epg, data):
        epg_path.write_text(epg)
        artifact.write_text(json.dumps(data))
        return run_cli(["verify", "--in", str(epg_path), "--json", str(artifact)])

    def relabel(kind, key, value):
        def tamper(data):
            for node in data["nodes"]:
                if node["kind"] == kind:
                    node[key] = value
        return tamper

    def swap_arc_edges(data):
        a, b = [n for n in data["nodes"] if n["kind"] == "arc"][:2]
        a["edge"], b["edge"] = b["edge"], a["edge"]

    epg = format_epg(gen_counterexample(2))
    for tamper, error in [
        (lambda d: d["bounds"].update({"2h": 999}), "InvariantViolation"),
        (relabel("edge", "edge", [7, 7]), "InvariantViolation"),
        (relabel("arc", "edge", [7, 7]), "InvariantViolation"),
        (swap_arc_edges, "InvariantViolation"),
        (relabel("face", "kind", "x"), "FormatError"),
        (relabel("face", "face", [0]), "FormatError"),
        (lambda d: d.update(extra=1), "FormatError"),
    ]:
        data = json.loads(run_cli(["bd"], stdin_text=epg)[1])
        tamper(data)
        code, _, err = verify(epg, data)
        assert code == 1 and error in err, (data, err)

    for label, emb in small_corpus:
        epg = format_epg(emb)
        code, out, _ = run_cli(["bd"], stdin_text=epg)
        assert code == 0, label
        code, _, err = verify(epg, json.loads(out))
        assert code == 0, (label, err)
