"""Byte identity of the CLI's conversion, peel and forest outputs.

``golden_conversion_digests.json`` holds the sha256 of the ``--out`` EPG,
``--json`` trace and ``--dot`` files of ``disk`` and ``triangulate``, and
of the ``--json`` files of ``peel`` and ``forest``, on the corpus and the
deep disks.  ``--dot`` lists the faces by index, so a change to face
numbering shows up here as well as a change to any added edge.
Regenerate the file (only after a deliberate output change) with
``PYTHONPATH=src python tests/test_golden_conversion.py``.
"""

import hashlib
import json
import pathlib
import tempfile

from onionpeel import format_epg
from test_cli import run_cli
from test_golden import instances

GOLDEN = pathlib.Path(__file__).with_name("golden_conversion_digests.json")

# command -> the output flags it writes in one run
OUTPUTS = {
    "disk": ("--out", "--json", "--dot"),
    "triangulate": ("--out", "--json", "--dot"),
    "peel": ("--json",),
    "forest": ("--json",),
}


def cli_digests() -> dict[str, str]:
    """``"<command>/<flag>/<label>"`` -> sha256 of that output file."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, emb in instances():
            epg = format_epg(emb)
            for command, flags in OUTPUTS.items():
                paths = {flag: pathlib.Path(tmp) / flag.strip("-") for flag in flags}
                argv = [command] + [arg for flag in flags for arg in (flag, str(paths[flag]))]
                code, stdout, err = run_cli(argv, stdin_text=epg)
                assert (code, stdout) == (0, ""), (command, label, err)
                for flag, path in paths.items():
                    key = f"{command}/{flag.strip('-')}/{label}"
                    digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_conversion_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == sum(map(len, OUTPUTS.values())) * len(instances())
    digests = cli_digests()
    changed = sorted(k for k in golden if digests.get(k) != golden[k])
    assert not changed, changed[:10]
    assert digests.keys() == golden.keys()


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(cli_digests(), indent=1, sort_keys=True) + "\n")
