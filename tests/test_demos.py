"""Each demo script runs to the end against the current package."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(path):
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(path)], capture_output=True, env=env,
                       cwd=ROOT, timeout=120)
    assert r.returncode == 0, r.stderr.decode()
    assert r.stderr == b""
    assert r.stdout
