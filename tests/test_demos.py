"""Every script under demos/ runs to completion and prints something,
and every Python snippet of README.md runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chronotext

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    src = str(Path(chronotext.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=demo.parent,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_readme_snippets_run():
    """Each ```python block of README.md runs; a `print(...)` line ending
    in a `# value` comment prints that value."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    for block in blocks:
        expected = {n: m.group(1) for n, line in enumerate(block.splitlines(), 1)
                    if (m := re.match(r"\s*print\(.*\)\s*#\s*(.*?)\s*$", line))}
        printed = {}

        def record(*args):
            printed[sys._getframe(1).f_lineno] = " ".join(map(str, args))
        exec(compile(block, "README.md", "exec"), {"print": record})
        assert {n: printed.get(n) for n in expected} == expected
