"""Every Python example in README.md runs as written.

Each fenced ```python block runs in its own interpreter from the repository
root, with ``src`` on the import path, so a renamed export or a changed
signature that the README still shows fails here.  A block states what it
claims with ``assert``, which fails the run, not as a comment on a printed
value, which no exit code checks.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


def test_readme_examples_assert_their_claims():
    # `print(x)  # True` would pass printing False; an assert would not.
    assert not [line for block in BLOCKS for line in block.splitlines()
                if re.search(r"print\(.*#\s*(True|False)\b", line)]
    assert all("assert " in block for block in BLOCKS)


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", BLOCKS[index]], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
