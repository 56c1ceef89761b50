"""Each demo script, each ``python`` block of README.md and each ``pseudospec``
command of its ``sh`` blocks runs to the end against the current package."""

import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from pseudospec.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]*.py"))
README = (ROOT / "README.md").read_text("utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
# the argv of each `pseudospec ...` line, continuation lines joined, comments dropped
README_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```$", README, re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("pseudospec ")
]


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


def test_readme_has_its_five_cli_examples():
    assert [argv[0] for argv in README_COMMANDS] == [
        "spectrum", "sweep", "metric", "reduce", "verify"]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_cli_example_runs(argv, capsys):
    assert main(argv) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    if argv[0] == "sweep":  # its comment: lambda* = sqrt(2)
        threshold = json.loads(out)["threshold"]
        assert threshold["param"] == "lambda"
        assert abs(threshold["value"] - math.sqrt(2)) <= 2e-9
