"""Golden-bytes gate for the CLI.

Runs ``pseudospec.cli.main(argv)`` in-process over a fixed list of
invocations and compares the exit code, the stdout bytes and the JSON
error line on stderr with ``golden/cli.json``.  The fixture pins the
numpy/scipy/LAPACK build it was generated with; regenerate it with
``PYTHONPATH=src python tests/test_golden.py`` only when an output change
is intended.

The sampled-potential cases read CSV files from ``golden/`` by a relative
path, run from that directory, so the recorded ``file`` parameter does not
depend on the checkout: ``cos16.csv`` is cos x on the 16-point periodic
grid of [-pi, pi] (written ``%.17g``), ``sin16.csv`` is the odd sin x on
the same grid and ``cos15.csv`` drops the last row of ``cos16.csv``.
"""

import functools
import io
import json
import os
import pathlib
import sys

import pytest

from pseudospec.cli import main

FIXTURE = pathlib.Path(__file__).resolve().parent / "golden" / "cli.json"

_RASHBA = ["--model", "rashba", "--lambda", "0.5", "--kx", "1", "--ky", "0.25"]
_SCALAR = ["--model", "scalar_const", "--v0", "0.5", "--kx", "1"]
_COSINE = ["--model", "scalar_grid", "--potential", "cosine", "--g", "1", "--grid-n", "32"]
_GAUSS = ["--model", "scalar_grid", "--potential", "gaussian", "--g", "0.5",
          "--width", "0.5", "--grid-n", "24", "--scheme", "central2"]
_SAMPLES = ["--model", "scalar_grid", "--potential", "samples", "--file", "cos16.csv",
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
    ["sweep", *_GAUSS, "--sweep-param", "width", "--sweep-min", "-1", "--sweep-max", "1",
     "--sweep-steps", "3"],
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


def test_fixture_covers_every_case():
    assert set(_load()) == {tuple(argv) for argv in CASES}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv, monkeypatch):
    monkeypatch.chdir(FIXTURE.parent)
    assert run_main(argv) == _load()[tuple(argv)]


if __name__ == "__main__":
    os.chdir(FIXTURE.parent)
    FIXTURE.write_text(
        json.dumps([run_main(argv) for argv in CASES], indent=1) + "\n", "utf-8"
    )
