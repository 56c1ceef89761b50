"""Self-tests of the benchmark's tracer and output checks.

Run from the repository root: ``python3 -m pytest bench``.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..", "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from run import tail  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from worker import run_command  # noqa: E402

import pseudospec  # noqa: E402
from pseudospec import cli, grid, linalg, metric  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 0.5
        traced_leaf()

    def outer():
        traced_middle()
        clock.now += 3.0

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "middle", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    assert tracer.self_times() == [3.0, 1.5, 2.0, 2.0]


@pytest.fixture
def patched():
    tracer = Tracer()
    undo = tracer.patch()
    try:
        yield tracer
    finally:
        Tracer.unpatch(undo)


def _parents(tracer, layer):
    return [tracer.spans[s[3]][0] if s[3] >= 0 else None
            for s in tracer.spans if s[0] == layer]


def test_patch_replaces_every_binding(patched):
    traced = linalg.eigendecompose
    assert traced.__wrapped__.__module__ == "pseudospec.linalg"
    for module in (pseudospec, cli, grid, metric):
        assert module.eigendecompose is traced


def test_patch_catches_calls_through_cli_grid_and_metric(patched):
    h = np.array([[1.0, 0.5], [0.2, -1.0]], dtype=complex)
    metric.spectral_metric(h)
    assert _parents(patched, "linalg.eigendecompose") == ["metric.spectral"]

    patched.spans.clear()
    spec = grid.PotentialSpec.cosine(0.5)
    grid.convergence_study(spec, pseudospec.PhysParams(), [8, 10], scheme="central2")
    assert _parents(patched, "linalg.eigendecompose") == ["grid.converge"] * 3
    assert set(_parents(patched, "grid.build")) == {"grid.converge", "grid.build"}

    patched.spans.clear()
    code, _, out, _ = run_command(["spectrum", "--model", "scalar_grid", "--potential",
                                   "cosine", "--g", "0.5", "--grid-n", "8"])
    assert code == 0 and out
    assert _parents(patched, "linalg.eigendecompose") == ["cli"]
    assert _parents(patched, "records.emit") == ["cli"]


def test_unpatch_restores_originals():
    original = cli.eigendecompose
    tracer = Tracer()
    Tracer.unpatch(tracer.patch())
    assert cli.eigendecompose is original and grid.eigendecompose is original


def test_bisect_share_counts_solves_beyond_grid_points():
    tracer = Tracer(clock=FakeClock())
    solve = tracer.wrap("linalg.eigendecompose", lambda a: None)
    for cmd, solves in ((0, 5), (1, 3)):
        tracer.cmd = cmd
        for _ in range(solves):
            solve(np.eye(4))
    out = layer_metrics(tracer, sweeps={0: 3}, passes=1)
    assert out["cli.sweep.bisect_share"][0] == pytest.approx(2 / 5)
    assert out["linalg.eigendecompose.calls"][0] == 8
    assert out["linalg.eigendecompose.work_n3"][0] == 8 * 64


def _block_cmd(command: str, fmt: str) -> workloads.Cmd:
    return workloads._block_command(random.Random(7), command, "rashba", fmt, "real", 0)


def _corrupt_first_eigenvalue(out: bytes, fmt: str) -> bytes:
    if fmt == "json":
        rec = json.loads(out)
        rec["eigenvalues"][0]["re"] *= 1 + 1e-6
        return json.dumps(rec).encode()
    lines = out.decode().splitlines()
    i = lines.index("index,re,im") + 1
    idx, re, im = lines[i].split(",")
    lines[i] = f"{idx},{float(re) * (1 + 1e-6)!r},{im}"
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_corrupted_spectrum_record_fails_its_check(fmt):
    cmd = _block_cmd("spectrum", fmt)
    code, _, out, err = run_command(cmd.argv)
    assert checks.check(cmd, code, out, err) == []
    bad = _corrupt_first_eigenvalue(out, fmt)
    assert any("closed form" in c for c in checks.check(cmd, code, bad, err))


def test_corrupted_reduce_record_fails_its_check():
    cmd = workloads.Cmd(
        ["reduce", "--model", "scalar_grid", "--potential", "gaussian", "--g", "0.8",
         "--grid-n", "16", "--form", "product_exact"],
        "grid.reduce", {"exit": 0, "n": 16, "form": "product_exact"})
    code, _, out, err = run_command(cmd.argv)
    assert checks.check(cmd, code, out, err) == []
    rec = json.loads(out)
    rec["reduction"]["mapped_eigenvalues"][3]["im"] += 1e-3
    assert checks.check(cmd, code, json.dumps(rec).encode(), err)


@pytest.mark.parametrize("errors, ok", [
    ([3.3e-2, 3.0e-3, 5.06e-13, 5.34e-13], True),  # converged to solver noise
    ([3.4e-3, 1.03, 2.2e-3, 5.3e-4], False),  # another level tracked at N=48
    ([1e-3, 1e-3, 1e-4, 1e-5], False),
])
def test_central2_errors_must_fall_until_solver_noise(errors, ok):
    ns = [32, 48, 64, 128]
    cmd = workloads.Cmd(["converge"], "grid.converge",
                        {"exit": 0, "ns": ns, "scheme": "central2"})
    rec = {"study": {"ref_n": 512, "rows": [{"n": n, "error": e} for n, e in zip(ns, errors)]}}
    fails = []
    checks._grid_converge(cmd, rec, fails)
    assert (fails == []) == ok


def test_wrong_exit_code_fails_its_check():
    cmd = _block_cmd("verify", "json")
    code, _, out, err = run_command(cmd.argv)
    assert code == 0 and checks.check(cmd, code, out, err) == []
    assert checks.check(cmd, 4, b"", b'{"error": {"type": "ComplexSpectrum"}}\n')


def test_tail_needs_ten_samples_beyond():
    assert tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0, 10)
    assert tail([float(i) for i in range(1, 361)]) == (95.0, 342.0, 18)
    assert tail([float(i) for i in range(1, 21)]) == (50.0, 10.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layers = layer_metrics(Tracer(), sweeps={}, passes=1)
    reported = set(layers) | {"trace.overhead_s", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
