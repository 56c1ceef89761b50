"""Golden-bytes gate for the CLI.

Runs ``pseudospec.cli.main(argv)`` over a fixed list of invocations and
compares the exit code, the stdout bytes and the JSON error line on stderr
with ``golden/cli.json``.  The fixture pins numpy's LAPACK build (numpy
2.4.6, scipy-openblas 0.3.31).  The blocked LAPACK routines sum in an order
that depends on the BLAS thread count, which moves the last digits of the
``converge`` cases (up to 6e-13 relative), so every case runs in one child
process with one BLAS thread, the benchmark's setting, whatever the
environment of the test run says.  Regenerate the fixture with
``PYTHONPATH=src python tests/test_golden.py`` only when an output change
is intended, and review the change with ``tests/golden_diff.py``.

The sampled-potential cases read CSV files from ``golden/`` by a relative
path, run from that directory, so the recorded ``file`` parameter does not
depend on the checkout: ``cos16.csv`` is cos x on the 16-point periodic
grid of [-pi, pi] (written ``%.17g``), ``sin16.csv`` is the odd sin x on
the same grid, ``cos15.csv`` drops the last row of ``cos16.csv`` and
``cos16_off.csv`` moves its V[3] by 1e-10 relative, even only to the
evenness gate of sampled values.
"""

import functools
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import golden_diff
from pseudospec.cli import _build_parser, main

HERE = pathlib.Path(__file__).resolve().parent
FIXTURE = HERE / "golden" / "cli.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_RASHBA = ["--model", "rashba", "--lambda", "0.5", "--kx", "1", "--ky", "0.25"]
_SCALAR = ["--model", "scalar_const", "--v0", "0.5", "--kx", "1"]
_COSINE = ["--model", "scalar_grid", "--potential", "cosine", "--g", "1", "--grid-n", "32"]
_GAUSS = ["--model", "scalar_grid", "--potential", "gaussian", "--g", "0.5",
          "--width", "0.5", "--grid-n", "24", "--scheme", "central2"]
_SAMPLES = ["--model", "scalar_grid", "--potential", "samples", "--file", "cos16.csv",
            "--grid-n", "16"]
_OFF_EVEN = ["--model", "scalar_grid", "--potential", "samples", "--file", "cos16_off.csv",
             "--grid-n", "16"]

_VALID = [
    ["spectrum", *_RASHBA],
    ["spectrum", *_SCALAR, "--m0", "1.5", "--c", "0.75", "--hbar", "1.25"],
    ["spectrum", "--model", "scalar_const", "--v0", "2", "--kx", "0"],
    ["spectrum", *_COSINE],
    ["spectrum", *_GAUSS, "--bc", "dirichlet", "--grid-n", "25"],
    ["metric", *_RASHBA, "--method", "all"],
    ["metric", *_SCALAR, "--method", "all"],
    ["metric", *_RASHBA, "--method", "paper", "--method", "spectral", "--normalize"],
    ["metric", *_SCALAR, "--method", "paper"],
    ["verify", *_RASHBA],
    ["verify", "--model", "rashba", "--lambda", "1.2", "--kx", "0.5"],
    ["verify", *_SCALAR],
    ["verify", *_COSINE],
    ["verify", *_GAUSS],
    ["reduce", *_COSINE, "--form", "product_exact"],
    ["reduce", *_COSINE, "--form", "analytic_U"],
    ["sweep", *_RASHBA, "--sweep-param", "lambda", "--sweep-min", "0",
     "--sweep-max", "2", "--sweep-steps", "5"],
    ["sweep", *_RASHBA, "--sweep-param", "lambda", "--sweep-min", "0",
     "--sweep-max", "0.8", "--sweep-steps", "3"],
    ["sweep", *_SCALAR, "--sweep-param", "v0", "--sweep-min", "0",
     "--sweep-max", "3", "--sweep-steps", "4"],
    ["sweep", "--model", "scalar_grid", "--potential", "cosine", "--grid-n", "16",
     "--sweep-param", "g", "--sweep-min", "5", "--sweep-max", "20", "--sweep-steps", "4"],
    ["sweep", "--model", "scalar_grid", "--potential", "cosine", "--grid-n", "16",
     "--sweep-param", "g", "--sweep-min", "0", "--sweep-max", "1", "--sweep-steps", "3"],
    ["evolve", *_RASHBA, "--t", "0.5", "--t", "2"],
    ["evolve", *_SCALAR, "--t", "0.5", "--t", "2", "--normalize"],
    ["converge", "--model", "scalar_grid", "--potential", "cosine", "--g", "0.5",
     "--scheme", "central2", "--N", "8", "--N", "16", "--track-level", "1"],
    ["converge", "--model", "scalar_grid", "--v0", "0.5", "--N", "8", "--N", "16"],
    ["spectrum", *_SAMPLES],
    ["reduce", *_SAMPLES, "--form", "product_exact"],
    ["verify", *_SAMPLES],
    ["sweep", *_GAUSS, "--sweep-param", "width", "--sweep-min", "0.3",
     "--sweep-max", "0.9", "--sweep-steps", "3"],
    ["spectrum", *_COSINE, "--m0", "0"],
    ["spectrum", *_OFF_EVEN],
    ["reduce", *_OFF_EVEN],
    ["verify", *_OFF_EVEN],
    # degenerate levels of c^2 P^2 split at first order: the threshold is g = 0
    ["sweep", *_GAUSS, "--sweep-param", "g", "--sweep-min", "0", "--sweep-max", "3",
     "--sweep-steps", "4"],
    ["sweep", *_GAUSS, "--scheme", "fourier", "--sweep-param", "g", "--sweep-min", "0",
     "--sweep-max", "3", "--sweep-steps", "4"],
]

_ERRORS = [
    ["metric", *_COSINE],
    ["reduce", *_RASHBA],
    ["evolve", *_COSINE],
    ["converge", *_SCALAR, "--N", "8"],
    ["metric", *_SCALAR, "--method", "diagonal"],
    ["sweep", *_RASHBA, "--sweep-param", "v0", "--sweep-min", "0",
     "--sweep-max", "1", "--sweep-steps", "3"],
    ["sweep", *_COSINE, "--sweep-param", "mode", "--sweep-min", "0",
     "--sweep-max", "1", "--sweep-steps", "3"],
    ["sweep", *_SAMPLES, "--sweep-param", "g", "--sweep-min", "0", "--sweep-max", "1",
     "--sweep-steps", "2"],
    ["metric", "--model", "rashba", "--lambda", "2", "--kx", "1"],
    ["metric", "--model", "rashba", "--method", "paper", "--lambda", "1.5", "--kx", "1"],
    ["spectrum", "--model", "scalar_grid", "--potential", "samples", "--file", "sin16.csv",
     "--grid-n", "16"],
    ["reduce", *_SAMPLES, "--form", "analytic_U"],
    ["verify", "--model", "scalar_grid", "--potential", "samples", "--file", "cos15.csv",
     "--grid-n", "16"],
    ["spectrum", "--model", "scalar_grid", "--potential", "samples"],
    ["spectrum", "--model", "scalar_grid", "--potential", "samples", "--file", "missing.csv",
     "--grid-n", "16"],
    ["spectrum", *_COSINE, "--bc", "dirichlet", "--grid-n", "25", "--scheme", "fourier"],
    ["reduce", *_COSINE, "--bc", "dirichlet", "--grid-n", "24"],
    ["spectrum", *_COSINE, "--mode", "0"],
    ["converge", "--model", "scalar_grid", "--potential", "gaussian", "--width", "0",
     "--N", "8"],
    ["converge", "--model", "scalar_grid", "--v0", "0.5", "--N", "8", "--grid-n", "16"],
    ["sweep", *_GAUSS, "--sweep-param", "width", "--sweep-min", "-1", "--sweep-max", "1",
     "--sweep-steps", "3"],
    ["spectrum", *_COSINE, "--tol", "1e-17"],
    ["spectrum", "--model", "scalar_grid", "--potential", "cosine", "--g", "1",
     "--grid-n", "513"],
    ["converge", "--model", "scalar_grid", "--potential", "cosine", "--g", "1",
     "--scheme", "central2", "--N", "256"],
    ["spectrum", *_COSINE[:6], "--grid-n", "16", "--c", "10", "--hbar", "1e308"],
    ["reduce", *_COSINE[:6], "--grid-n", "16", "--form", "analytic_U", "--c", "1e200",
     "--hbar", "1e200"],
]

CASES = [argv + ["--format", fmt] for argv in _VALID for fmt in ("json", "csv")] + _ERRORS


def run_main(argv: list[str]) -> dict:
    """Exit code, stdout and the stderr error line of one in-process run."""
    out, err = io.BytesIO(), io.BytesIO()
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8", write_through=True)
    try:
        code = main(argv)
    finally:
        sys.stdout.detach()
        sys.stderr.detach()
        sys.stdout, sys.stderr = saved
    errors = [line for line in err.getvalue().decode().splitlines()
              if line.startswith('{"error"')]
    return {"argv": argv, "exit": code, "stdout": out.getvalue().decode(),
            "error": errors[0] if errors else None}


@functools.cache
def _load() -> dict:
    return {tuple(c["argv"]): c for c in json.loads(FIXTURE.read_text("utf-8"))}


def run_pinned() -> list[dict]:
    """Every case, run in one child process with one BLAS thread."""
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, __file__, "--print"],
                       capture_output=True, env=env, cwd=FIXTURE.parent, timeout=600)
    assert r.returncode == 0, r.stderr.decode()
    return json.loads(r.stdout)


@functools.cache
def _pinned() -> dict:
    return {tuple(c["argv"]): c for c in run_pinned()}


def test_fixture_covers_every_case():
    assert set(_load()) == {tuple(argv) for argv in CASES}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    assert _pinned()[tuple(argv)] == _load()[tuple(argv)]


def test_fixture_diff_bounds_numbers_and_pins_text():
    cases = json.loads(FIXTURE.read_text("utf-8"))
    assert golden_diff.compare(cases, cases) == (
        [f"0 of {len(cases)} cases changed; all within the bounds"], True)
    record = cases[0]
    parts = golden_diff._NUMBER.split(record["stdout"])
    i = next(i for i in range(1, len(parts), 2) if abs(float(parts[i])) > 0.1)
    for factor, ok in ((1 + 1e-13, True), (1 + 1e-9, False)):
        moved = parts[:i] + [repr(float(parts[i]) * factor)] + parts[i + 1:]
        assert moved != parts
        assert golden_diff.compare([record], [dict(record, stdout="".join(moved))])[1] is ok
    for key, value in (("exit", 3), ("stdout", record["stdout"].replace("all_real", "mixed"))):
        assert golden_diff.compare([record], [dict(record, **{key: value})])[1] is False


def test_fixture_diff_shows_a_changed_error_line(tmp_path, capsys):
    case = next(c for c in json.loads(FIXTURE.read_text("utf-8")) if c["error"])
    changed = dict(case, error=case["error"].replace('"message": "', '"message": "new '))
    assert changed["error"] != case["error"]
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, cases in zip(paths, ([case], [changed])):
        path.write_text(json.dumps(cases), "utf-8")
    assert golden_diff.main([str(path) for path in paths]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  FAULT error differs",
        f"    old: {case['error']}",
        f"    new: {changed['error']}",
        "1 of 1 cases changed; NOT within the bounds",
    ]


def test_fixture_diff_lists_added_and_removed_cases(tmp_path, capsys):
    first, second, third = json.loads(FIXTURE.read_text("utf-8"))[:3]
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, cases in zip(paths, ([first, second], [first, third])):
        path.write_text(json.dumps(cases), "utf-8")
    assert golden_diff.main([str(path) for path in paths]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"removed: {' '.join(second['argv'])}",
        "  FAULT case removed",
        f"added: {' '.join(third['argv'])}",
        "0 of 2 cases changed; NOT within the bounds",
    ]
    # an added case alone is reported, not a fault
    assert golden_diff.compare([first], [first, third]) == (
        [f"added: {' '.join(third['argv'])}", "0 of 1 cases changed; all within the bounds"],
        True)


def test_cached_parser_keeps_no_state_between_calls(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURE.parent)
    assert _build_parser() is _build_parser()
    assert run_main(["sweep", "--model", "rashba"])["exit"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    argv = ["sweep", *_RASHBA, "--sweep-param", "lambda", "--sweep-min", "0",
            "--sweep-max", "2", "--sweep-steps", "5", "--format", "json"]
    assert run_main(argv) == _load()[tuple(argv)]


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        print(json.dumps([run_main(argv) for argv in CASES]))
    else:
        FIXTURE.write_text(json.dumps(run_pinned(), indent=1) + "\n", "utf-8")
