"""Smoke tests: every demo script runs to completion against the source tree,
and README's python blocks still run and print what their comments say."""
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_readme_python_blocks_print_their_stated_values():
    """The ```python blocks of README.md, run in order in one namespace: each
    print gives the value its comment states (is_bent True, the regularity,
    the unit -i, S = 1 + 2e with |S|^2 = 3, and a dual that is not bent)."""
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    expected = [
        "True\nweakly_regular_not_regular\n-i\nTrue\n",
        "1 + 2e 3\nFalse\n",
    ]
    assert len(blocks) == len(expected)
    namespace = {}
    for block, want in zip(blocks, expected):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exec(block, namespace)
        assert out.getvalue() == want
