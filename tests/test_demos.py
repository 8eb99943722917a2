import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_readme_python_blocks_run():
    # the documented API: a removed or renamed public name fails here
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), {})


def test_readme_cli_block_runs(tmp_path):
    # the CLI block's commands, in order, in an empty directory: a command
    # that reads a file no earlier one writes fails here
    block = re.search(r"^## CLI\n.*?^```\n(.*?)^```", (ROOT / "README.md").read_text(),
                      re.DOTALL | re.MULTILINE).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = f'onionpeel() {{ {shlex.quote(sys.executable)} -m onionpeel "$@"; }}\n{block}'
    done = subprocess.run(
        ["bash", "-o", "pipefail", "-e", "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
