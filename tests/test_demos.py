"""Each demo script, and each ``python`` block of README.md, runs to the end
against the current package."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text("utf-8"), re.M | re.S)


def _run(args: list[str]) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          cwd=ROOT, timeout=120)


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(path):
    r = _run([str(path)])
    assert r.returncode == 0, r.stderr.decode()
    assert r.stderr == b""
    assert r.stdout


def test_readme_has_its_two_python_examples():
    assert len(README_BLOCKS) == 2


@pytest.mark.parametrize("code", README_BLOCKS,
                         ids=[f"block{i}" for i in range(1, len(README_BLOCKS) + 1)])
def test_readme_example_runs(code):
    r = _run(["-c", code])
    assert r.returncode == 0, r.stderr.decode()
    assert r.stderr == b""
