"""What ``verify`` reports on bd artifacts, pinned.

``golden_verify_digests.json`` holds, per instance of the corpus and the
deep disks and per variant of its ``bd`` artifact, the sha256 of
``verify``'s exit code and the first line of its stderr.  The variants are
the artifact as emitted and four fixed tamperings of it (``TAMPERS``), so
a change to any check, its order or its message shows up here as a changed
digest.  Regenerate the file (only after a deliberate change to what
``verify`` reports) with ``PYTHONPATH=src python tests/test_golden_verify.py``.
"""

import hashlib
import json
import pathlib
import random
import tempfile

from onionpeel import format_epg, treewidth_bound
from test_cli import ref_bisect_arc_cuts, run_cli, with_assignment
from test_golden import instances

GOLDEN = pathlib.Path(__file__).with_name("golden_verify_digests.json")


def widened(bd, label):
    return {**bd, "width": bd["width"] + 1}


def shuffled(bd, label):
    """``bd`` with its leaves shuffled (seeded by ``label``), width and tw recomputed."""
    edges, leaves = list(bd["assignment"]), list(bd["assignment"].values())
    random.Random(f"shuffle/{label}").shuffle(leaves)
    data = with_assignment(bd, dict(zip(edges, leaves)))
    width = max(ref_bisect_arc_cuts(data), default=0)
    return {**data, "width": width, "bounds": {**data["bounds"], "tw": treewidth_bound(width)}}


def changed_2h(bd, label):
    return {**bd, "bounds": {**bd["bounds"], "2h": bd["bounds"]["2h"] + 2}}


def swapped_arc_edges(bd, label):
    """``bd`` with the edges of its first two arc nodes swapped (unchanged without two)."""
    nodes = [dict(n) for n in bd["nodes"]]
    arc_nodes = [n for n in nodes if n["kind"] == "arc"][:2]
    if len(arc_nodes) == 2:
        a, b = arc_nodes
        a["edge"], b["edge"] = b["edge"], a["edge"]
    return {**bd, "nodes": nodes}


#: variant name -> artifact (and instance label) -> the variant's artifact
TAMPERS = {
    "bd": lambda bd, label: bd,
    "width+1": widened,
    "shuffled": shuffled,
    "2h": changed_2h,
    "swap": swapped_arc_edges,
}


def verify_digests() -> dict[str, str]:
    """``"<variant>/<label>"`` -> sha256 of ``verify``'s exit code and first stderr line."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        epg_path, artifact = pathlib.Path(tmp) / "g.epg", pathlib.Path(tmp) / "bd.json"
        for label, emb in instances():
            epg = format_epg(emb)
            epg_path.write_text(epg)
            code, out, err = run_cli(["bd"], stdin_text=epg)
            assert code == 0, (label, err)
            bd = json.loads(out)
            for variant, tamper in TAMPERS.items():
                artifact.write_text(json.dumps(tamper(bd, label)))
                code, _, err = run_cli(["verify", "--in", str(epg_path), "--json", str(artifact)])
                first = err.splitlines()[0] if err else ""
                digests[f"{variant}/{label}"] = hashlib.sha256(f"{code}\n{first}".encode()).hexdigest()
    return digests


def test_verify_outcomes_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == len(TAMPERS) * len(instances())
    digests = verify_digests()
    changed = sorted(k for k in golden if digests.get(k) != golden[k])
    assert not changed, changed[:10]
    assert digests.keys() == golden.keys()


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(verify_digests(), indent=1, sort_keys=True) + "\n")
