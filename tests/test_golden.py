"""Byte identity of the CLI's ``bd`` and ``pipeline`` reports.

``golden_digests.json`` holds the sha256 of every ``bd --json`` and
``pipeline --json`` file on the corpus and the deep disks.  Any change to
node order, arc order, cuts or bounds shows up here as a changed digest.
Regenerate the file (only after a deliberate output change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import pathlib
import tempfile

from conftest import corpus_specs
from onionpeel import format_epg
from test_branchdecomp import deep_disks
from test_cli import run_cli

GOLDEN = pathlib.Path(__file__).with_name("golden_digests.json")


def instances():
    corpus = [(label, fn(*args)) for label, fn, args in corpus_specs()]
    return corpus + deep_disks()


def cli_digests() -> dict[str, str]:
    """``"<command>/<label>"`` -> sha256 of the command's ``--json`` file."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "report.json"
        for label, emb in instances():
            epg = format_epg(emb)
            for command in ("bd", "pipeline"):
                code, stdout, err = run_cli([command, "--json", str(out)], stdin_text=epg)
                assert (code, stdout) == (0, ""), (command, label, err)
                digests[f"{command}/{label}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def test_bd_and_pipeline_json_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 2 * (len(corpus_specs()) + len(deep_disks()))
    digests = cli_digests()
    changed = sorted(k for k in golden if digests.get(k) != golden[k])
    assert not changed, changed[:10]
    assert digests.keys() == golden.keys()


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(cli_digests(), indent=1, sort_keys=True) + "\n")
