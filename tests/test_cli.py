import contextlib
import io
import json
import math
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudospec import grid as gridmod
from pseudospec.cli import (
    COMMANDS,
    EXIT_REGIME,
    EXIT_USAGE,
    MAX_SWEEP_STEPS,
    RunConfig,
    _build_parser,
    main,
    run,
    run_converge,
    run_evolve,
    run_metric,
    run_reduce,
    run_spectrum,
    run_sweep,
    run_verify,
)
from pseudospec.metric import classify_spectrum
from pseudospec.records import emit


def cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "pseudospec.cli", *args],
        capture_output=True,
        env=env,
    )


def rashba_cfg(command="spectrum", **overrides):
    params = {"m0": 1.0, "c": 1.0, "hbar": 1.0, "lambda": 0.5, "kx": 1.0, "ky": 0.0}
    params.update(overrides.pop("params", {}))
    return RunConfig(command=command, model="rashba", params=params, **overrides)


# ------------------------------------------------------------- run_* API


def test_run_spectrum_rashba():
    rec = run_spectrum(rashba_cfg())
    assert rec.classification == "all_real"
    vals = sorted(ev["re"] for ev in rec.eigenvalues)
    assert vals[1] == pytest.approx(math.sqrt(1.75), abs=1e-10)
    ana = rec.analytic_eigenvalues
    assert ana[0]["re"] == pytest.approx(-math.sqrt(1.75))


def test_run_spectrum_scalar_broken():
    cfg = RunConfig(
        command="spectrum", model="scalar_const", params={"v0": 2.0, "kx": 0.0}
    )
    rec = run_spectrum(cfg)
    assert rec.classification == "conjugate_pairs"
    ims = sorted(ev["im"] for ev in rec.eigenvalues)
    assert ims[1] == pytest.approx(math.sqrt(3.0), abs=1e-10)


def test_run_spectrum_rest_energy():
    cfg = rashba_cfg(params={"lambda": 0.0, "kx": 0.0})
    rec = run_spectrum(cfg)
    assert sorted(ev["re"] for ev in rec.eigenvalues) == pytest.approx([-1.0, 1.0])
    assert rec.classification == "all_real"


def test_run_spectrum_rejects_nonfinite_params():
    with pytest.raises(ValueError):
        run_spectrum(rashba_cfg(params={"kx": float("nan")}))


def test_run_metric_all_methods():
    cfg = rashba_cfg("metric", methods=("spectral", "paper", "diagonal"))
    rec = run_metric(cfg)
    reports = rec.metric_reports
    assert set(reports) == {"spectral", "paper", "diagonal"}
    assert reports["spectral"].verdict == "valid_metric"
    assert reports["spectral"].min_eig == pytest.approx(0.7629649340546224, abs=1e-9)
    assert reports["diagonal"].relation_residual <= 1e-14
    # printed form adjudicated: relation holds, positivity sits at zero
    assert reports["paper"].relation_residual <= 1e-12
    assert abs(reports["paper"].min_eig) <= 1e-12


def test_run_metric_single_method_field():
    rec = run_metric(rashba_cfg("metric", methods=("spectral",)))
    assert rec.metric_report is not None and rec.metric_reports is None


def test_run_metric_diagonal_rejected_for_scalar():
    cfg = RunConfig(
        command="metric",
        model="scalar_const",
        params={"v0": 0.5, "kx": 1.0},
        methods=("diagonal",),
    )
    with pytest.raises(ValueError):
        run_metric(cfg)


def test_run_sweep_rashba_threshold():
    cfg = rashba_cfg(
        "sweep",
        sweep_param="lambda",
        sweep_min=0.0,
        sweep_max=2.0,
        sweep_steps=9,
    )
    rec = run_sweep(cfg)
    assert rec.threshold is not None
    assert rec.threshold["value"] == pytest.approx(math.sqrt(2), rel=1e-6)
    kinds = [p["classification"] for p in rec.sweep["points"]]
    assert kinds[0] == "all_real" and kinds[-1] == "conjugate_pairs"


def test_run_sweep_no_threshold_in_range():
    cfg = rashba_cfg(
        "sweep", sweep_param="lambda", sweep_min=0.0, sweep_max=0.8, sweep_steps=5
    )
    rec = run_sweep(cfg)
    assert rec.sweep is not None and rec.threshold is None


_UNIT = st.floats(0.5, 2.0)
_K = st.floats(-5.0, 5.0)


@settings(max_examples=150, deadline=None)
@given(m0=_UNIT, c=_UNIT, hbar=_UNIT, kx=_K, ky=_K, steps=st.integers(2, 9),
       model=st.sampled_from(["rashba", "scalar_const"]))
def test_sweep_bisects_the_closed_form_threshold(m0, c, hbar, kx, ky, steps, model):
    k_sq = kx * kx + (ky * ky if model == "rashba" else 0.0)
    assume(k_sq >= 0.04)
    # lambda* = sqrt(c^2 + m0^2 c^4 / (hbar^2 k^2)), V0* = sqrt(hbar^2 c^2 kx^2 + m0^2 c^4)
    if model == "rashba":
        param, star = "lambda", math.sqrt(c * c + (m0 * c * c) ** 2 / (hbar * hbar * k_sq))
    else:
        param, star = "v0", math.sqrt((hbar * c * kx) ** 2 + (m0 * c * c) ** 2)
    params = {"m0": m0, "c": c, "hbar": hbar, "kx": kx}
    if model == "rashba":
        params["ky"] = ky
    cfg = RunConfig(command="sweep", model=model, params=params,
                    sweep_param=param, sweep_min=0.0, sweep_max=2 * star, sweep_steps=steps)
    threshold = run_sweep(cfg).threshold
    assert threshold is not None and threshold["param"] == param
    assert abs(threshold["value"] - star) <= 1e-8 * max(1.0, star)


def test_run_sweep_validation():
    with pytest.raises(ValueError):
        run_sweep(rashba_cfg("sweep", sweep_param="v0", sweep_min=0, sweep_max=1, sweep_steps=3))
    with pytest.raises(ValueError):
        run_sweep(rashba_cfg("sweep", sweep_param="lambda", sweep_min=1, sweep_max=0, sweep_steps=3))


def test_run_sweep_grid_cosine_amplitude():
    cfg = RunConfig(
        command="sweep",
        model="scalar_grid",
        params={"mode": 1},
        grid={"potential": "cosine", "grid_n": 32},
        sweep_param="g",
        sweep_min=5.0,
        sweep_max=20.0,
        sweep_steps=4,
    )
    rec = run_sweep(cfg)
    assert rec.threshold is not None
    assert 5.0 < rec.threshold["value"] < 20.0


def test_run_reduce_constant():
    cfg = RunConfig(
        command="reduce",
        model="scalar_grid",
        params={"v0": 0.5},
        grid={"potential": "constant", "grid_n": 32},
    )
    rec = run_reduce(cfg)
    assert rec.reduction["identity_mismatch"] <= 1e-10
    assert rec.reduction["reduced_classification"] == "all_real"
    assert len(rec.reduction["reduced_eigenvalues"]) == 32
    assert len(rec.eigenvalues) == 64


def test_run_reduce_free_case_all_real():
    cfg = RunConfig(
        command="reduce", model="scalar_grid", params={"v0": 0.0},
        grid={"potential": "constant", "grid_n": 32},
    )
    rec = run_reduce(cfg)
    assert rec.classification == "all_real"
    assert rec.reduction["identity_mismatch"] <= 1e-10


def test_run_verify_block_models():
    for cfg in (
        rashba_cfg("verify"),
        RunConfig(command="verify", model="scalar_const", params={"v0": 0.5, "kx": 1.0}),
    ):
        rec = run_verify(cfg)
        assert rec.all_passed is True
        names = [c["name"] for c in rec.checks]
        assert "spectrum_matches_closed_form" in names
        assert "printed_metric_relation" in names


def test_run_verify_grid():
    cfg = RunConfig(
        command="verify",
        model="scalar_grid",
        params={"g": 1.0, "mode": 1},
        grid={"potential": "cosine", "grid_n": 32},
    )
    rec = run_verify(cfg)
    assert rec.all_passed is True


def test_run_evolve_rows():
    cfg = rashba_cfg("evolve", times=(0.1, 1.0, 10.0))
    rec = run_evolve(cfg)
    assert [row["t"] for row in rec.evolution] == [0.1, 1.0, 10.0]
    for row in rec.evolution:
        assert row["pseudo_unitarity_residual"] <= 1e-8
    # the plain propagator is not unitary away from the Hermitian limit
    assert rec.evolution[1]["naive_unitarity_defect"] > 1e-3


def test_run_converge():
    cfg = RunConfig(
        command="converge",
        model="scalar_grid",
        params={"v0": 0.5},
        grid={"potential": "constant"},
        ns=(16, 32),
    )
    rec = run_converge(cfg)
    assert rec.study["ref_n"] == 128
    assert all(row["error"] <= 1e-10 for row in rec.study["rows"])


def test_converge_records_no_grid_size(capsys):
    # a Dirichlet grid has an odd number of points, so no default 64 may show
    assert main(["converge", "--model", "scalar_grid", "--bc", "dirichlet", "--scheme",
                 "central2", "--N", "9", "--N", "17"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert "grid_n" not in record["params"]
    assert [row["n"] for row in record["study"]["rows"]] == [9, 17]


# ------------------------------------------------------------ subprocess


def test_cli_byte_determinism_json_and_csv(tmp_path):
    args = ["spectrum", "--model", "rashba", "--lambda", "0.5", "--kx", "1"]
    runs = [cli(*args).stdout for _ in range(2)]
    assert runs[0] == runs[1] and runs[0]
    csv_runs = [cli(*args, "--format", "csv").stdout for _ in range(2)]
    assert csv_runs[0] == csv_runs[1]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    cli(*args, "--out", str(out_a))
    cli(*args, "--out", str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("args", [
    ["spectrum", "--model", "rashba", "--lambda", "0.5", "--kx", "1"],
    ["reduce", "--model", "scalar_grid", "--potential", "cosine", "--g", "1", "--grid-n", "16"],
], ids=["spectrum", "reduce"])
def test_cli_out_file_holds_exactly_the_stdout_bytes(args, fmt, tmp_path):
    out = tmp_path / "record"
    written = cli(*args, "--format", fmt, "--out", str(out))
    printed = cli(*args, "--format", fmt)
    assert written.returncode == printed.returncode == 0
    assert out.read_bytes() == printed.stdout and printed.stdout
    assert written.stdout == b""
    for run_ in (written, printed):
        assert len(run_.stderr.splitlines()) == 1
        assert run_.stderr.startswith(b"# runtime_ms=")


def test_cli_spectrum_payload():
    r = cli("spectrum", "--model", "scalar_const", "--v0", "2", "--kx", "0")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["classification"] == "conjugate_pairs"
    assert data["schema_version"] == "1"
    assert data["runtime_ms"] == 0


def test_cli_exit_code_regime_violation():
    r = cli("metric", "--model", "rashba", "--lambda", "2", "--kx", "1")
    assert r.returncode == EXIT_REGIME
    err = json.loads(r.stderr.splitlines()[0])
    assert err["error"]["type"] == "ComplexSpectrum"


def test_cli_exit_code_usage():
    r = cli("sweep", "--model", "rashba", "--sweep-param", "v0",
            "--sweep-min", "0", "--sweep-max", "1", "--sweep-steps", "3")
    assert r.returncode == EXIT_USAGE
    r2 = cli("spectrum", "--model", "rashba", "--badflag")
    assert r2.returncode == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--kx", "abc"], "argument --kx: invalid float value: 'abc'"),
        (["spectrum", "--model", "rashba", "--badflag"], "unrecognized arguments: --badflag"),
        (["sweep", "--model", "rashba"], "the following arguments are required: "
         "--sweep-param, --sweep-min, --sweep-max, --sweep-steps"),
        (["spectrum", "--model", "nope"], "argument --model: invalid choice: 'nope' "
         "(choose from 'rashba', 'scalar_const', 'scalar_grid')"),
        ([], "the following arguments are required: command"),
    ],
)
def test_cli_usage_errors_write_the_json_line(argv, message, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        json.dumps({"error": {"type": "ValueError", "message": message}})
    ]


@pytest.mark.parametrize("argv", [["--help"], ["spectrum", "--help"]])
def test_cli_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: pseudospec" in capsys.readouterr().out


def test_no_command_imports_scipy():
    code = """if True:
        import sys
        from pseudospec.cli import main
        grid = ["--model", "scalar_grid", "--potential", "cosine", "--grid-n", "8"]
        for argv in (
            ["spectrum", "--model", "rashba", "--kx", "1"],
            ["metric", "--model", "scalar_const", "--kx", "1", "--method", "all"],
            ["verify", "--model", "rashba", "--lambda", "0.5", "--kx", "1"],
            ["verify", *grid],
            ["reduce", *grid],
            ["sweep", *grid, "--sweep-param", "g", "--sweep-min", "0",
             "--sweep-max", "1", "--sweep-steps", "2"],
            ["evolve", "--model", "rashba", "--kx", "1", "--t", "2"],
            ["converge", "--model", "scalar_grid", "--v0", "0.5", "--N", "8"],
        ):
            assert main(argv) == 0, argv
        loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert loaded == [], loaded
    """
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("t", ["1e2", "1e4", "1e8", "1e15"])
def test_evolve_keeps_the_eta_product_at_long_times(t, capsys):
    # scaling and squaring drifted to 1.2e-8 at t = 1e8 and 0.13 at 1e15
    assert main(["evolve", "--model", "rashba", "--lambda", "0.5", "--kx", "1",
                 "--t", t]) == 0
    (row,) = json.loads(capsys.readouterr().out)["evolution"]
    assert row["pseudo_unitarity_residual"] <= 1e-12


def test_evolve_overflow_writes_only_the_json_line():
    # in a subprocess, so a numpy warning would reach stderr
    r = cli("evolve", "--model", "rashba", "--lambda", "0.5", "--kx", "1", "--t", "1e200")
    assert r.returncode == EXIT_USAGE
    assert r.stdout == b""
    (line,) = r.stderr.decode().splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "OverflowError"
    assert "overflows" in error["message"]


_INF16 = str(pathlib.Path(__file__).parent / "golden" / "inf16.csv")  # cos16.csv, V = inf at +-2.75
_GAUSS16 = ["--model", "scalar_grid", "--potential", "gaussian", "--grid-n", "16"]
_RASHBA1 = ["--model", "rashba", "--lambda", "0.5", "--kx", "1"]
_LAMBDA_SWEEP = ["sweep", *_RASHBA1, "--sweep-param", "lambda", "--sweep-steps", "3"]


@pytest.mark.parametrize("argv, message", [
    # the norm of the real solve of A overflows; nothing falls back to build U
    (["reduce", *_GAUSS16, "--g", "1e300", "--width", "0.5"],
     "residual norm inf against matrix norm inf is not finite"),
    # A's own certificate, as in spectrum: ||A||_F overflows
    (["verify", *_GAUSS16, "--g", "1", "--width", "0.5", "--c", "1e154"],
     "residual norm 1.067e+140 against matrix norm inf is not finite"),
    (["spectrum", *_GAUSS16, "--g", "1", "--width", "1e-300"],
     "potential is not finite on the grid: V(0) = nan"),
    (["spectrum", *_GAUSS16, "--g", "1", "--width", "0.5", "--grid-L", "5e-324"],
     "matrix entries must be finite"),
    (["verify", *_RASHBA1, "--hbar", "5e-324"], "matrix entries must be finite"),
    ([*_LAMBDA_SWEEP, "--sweep-min", "0", "--sweep-max", "inf"], "matrix entries must be finite"),
    ([*_LAMBDA_SWEEP, "--sweep-min", "-1e308", "--sweep-max", "1e308"],
     "matrix entries must be finite"),
    (["spectrum", "--model", "scalar_grid", "--potential", "samples", "--file", _INF16,
      "--grid-n", "16"], "potential is not finite on the grid: V(-2.74889) = inf"),
], ids=["reduce huge g", "verify huge c", "tiny width", "tiny grid-L", "tiny hbar",
        "sweep to inf", "sweep past max float", "inf samples"])
def test_non_finite_intermediates_write_only_the_json_line(argv, message, capsys):
    # numpy warns at the invalid value or the division by zero behind each one
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_USAGE
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        json.dumps({"error": {"type": "ValueError", "message": message}})
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--model", "rashba", "--kx", "1", "--potential", "cosine",
         "--grid-n", "8", "--scheme", "central2"],
        ["metric", "--model", "scalar_const", "--kx", "1", "--file", "nothere.csv"],
        ["verify", "--model", "rashba", "--grid-L", "2"],
        ["evolve", "--model", "scalar_const", "--bc", "dirichlet"],
        ["sweep", "--model", "rashba", "--grid-n", "8", "--sweep-param", "lambda",
         "--sweep-min", "0", "--sweep-max", "1", "--sweep-steps", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_refuses_grid_flags_on_a_2x2_model(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err.splitlines()[0])["error"]
    assert error["type"] == "ValueError"
    assert "reads no grid flags" in error["message"]


@pytest.mark.parametrize(
    "argv, name, reads",
    [
        (["verify", "--model", "scalar_const", "--v0", "0.5", "--kx", "1", "--ky", "3"],
         "ky", "('m0', 'c', 'hbar', 'v0', 'kx')"),
        (["spectrum", "--model", "rashba", "--v0", "9"],
         "v0", "('m0', 'c', 'hbar', 'lambda', 'kx', 'ky')"),
        (["spectrum", "--model", "scalar_grid", "--potential", "cosine", "--width", "2"],
         "width", "('m0', 'c', 'hbar', 'g', 'mode')"),
        (["reduce", "--model", "scalar_grid", "--potential", "samples", "--file",
          "missing.csv", "--g", "1"], "g", "('m0', 'c', 'hbar')"),
        (["converge", "--model", "scalar_grid", "--N", "8", "--g", "1"],
         "g", "('m0', 'c', 'hbar', 'v0')"),
    ],
)
def test_cli_refuses_parameters_the_model_does_not_read(argv, name, reads, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err.splitlines()[0])["error"]
    assert error["type"] == "ValueError"
    assert f"does not read parameter {name!r}; it reads {reads}" in error["message"]


def test_cli_odd_potential_exit_two(tmp_path):
    import numpy as np

    from pseudospec.grid import make_grid

    g = make_grid(math.pi, 16)
    path = tmp_path / "odd.csv"
    lines = ["x,V"] + [
        f"{float(x):.17g},{float(v):.17g}" for x, v in zip(g.points, np.sin(g.points))
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    r = cli("spectrum", "--model", "scalar_grid", "--potential", "samples",
            "--file", str(path), "--grid-n", "16")
    assert r.returncode == EXIT_USAGE
    assert json.loads(r.stderr.splitlines()[0])["error"]["type"] == "OddPotential"


def test_the_environment_sets_no_tolerance():
    import os

    argv = ("spectrum", "--model", "rashba", "--kx", "1")
    plain = cli(*argv, env={k: v for k, v in os.environ.items() if k != "PSEUDOSPEC_TOL"})
    with_env = cli(*argv, env=dict(os.environ, PSEUDOSPEC_TOL="1e-6"))
    assert plain.returncode == with_env.returncode == 0
    assert with_env.stdout == plain.stdout
    assert json.loads(with_env.stdout)["params"]["tol"] == 1e-10


def test_cli_main_returns_zero(capsys):
    code = main(["spectrum", "--model", "rashba", "--lambda", "0.5", "--kx", "1"])
    assert code == 0


def test_emitted_record_roundtrip_matches_api():
    rec = run_spectrum(rashba_cfg())
    payload = emit(rec, "json")
    assert json.loads(payload)["classification"] == "all_real"


def test_cli_negative_values_in_scientific_notation(capsys):
    code = main(["spectrum", "--model", "rashba", "--kx", "1", "--ky", "-7.04e-05",
                 "--lambda", "-5E-1"])
    assert code == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert params["ky"] == -7.04e-05 and params["lambda"] == -0.5


@pytest.mark.parametrize(
    "flag",
    ["nan", "inf", "0", "-1",
     # at tol >= 1 the realness test calls an imaginary eigenvalue real
     "1", "2", "1e300"],
)
def test_cli_rejects_bad_tolerance(flag, capsys):
    argv = ["spectrum", "--model", "rashba", "--kx", "1", "--tol", flag]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[0])["error"]["type"] == "ValueError"


@pytest.mark.parametrize("steps", ["10001", str(10**9)])
def test_sweep_steps_past_the_ceiling_are_refused_before_any_allocation(steps, capsys):
    argv = ["sweep", "--model", "rashba", "--lambda", "0.5", "--kx", "1", "--sweep-param",
            "lambda", "--sweep-min", "0", "--sweep-max", "1", "--sweep-steps", steps]
    with mock.patch.object(np, "linspace", side_effect=AssertionError("allocated")):
        assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [json.dumps({"error": {
        "type": "ValueError",
        "message": f"sweep needs --sweep-param, --sweep-min/max and "
                   f"2 <= --sweep-steps <= {MAX_SWEEP_STEPS}"}})]


@pytest.mark.parametrize("command", ["reduce", "verify"])
@pytest.mark.parametrize("potential", [
    ["--potential", "constant", "--v0", "0"], ["--potential", "cosine", "--g", "1e-9"],
], ids=["constant 0", "cosine 1e-9"])
def test_grid_pair_commands_meet_a_tolerance_near_rounding(command, potential, capsys):
    # A's pairs meet 1e-15 against A, H and U on these grids, and no other
    # eigenvectors are certified
    assert main([command, "--model", "scalar_grid", *potential, "--grid-n", "16",
                 "--tol", "1e-15"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record.get("all_passed", True)


_C_HBAR = ["--model", "scalar_grid", "--potential", "cosine", "--g", "1", "--c", "10",
           "--hbar", "1e308"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "--model", "scalar_const", "--v0", "0.5", "--kx", "1", "--c", "1e154"],
     "m0 c^2 squared overflows in the radicand of scalar_energy: m0 c^2 = 1e+308"),
    (["spectrum", "--model", "rashba", "--m0", "1e200", "--kx", "1"],
     "m0 c^2 squared overflows in the radicand of rashba_energy: m0 c^2 = 1e+200"),
    (["metric", "--model", "rashba", "--lambda", "0.5", "--kx", "1", "--c", "1e155"],
     "c squared overflows in the rest energy m0 c^2: c = 1e+155"),
    *(([*command, *_C_HBAR, "--grid-n", "16"], "c hbar overflows: c = 10, hbar = 1e+308")
      for command in (["spectrum"], ["reduce"], ["reduce", "--form", "analytic_U"],
                      ["verify"])),
    (["sweep", *_C_HBAR, "--grid-n", "16", "--sweep-param", "g", "--sweep-min", "0",
      "--sweep-max", "1", "--sweep-steps", "2"], "c hbar overflows: c = 10, hbar = 1e+308"),
    (["converge", *_C_HBAR, "--N", "16"], "c hbar overflows: c = 10, hbar = 1e+308"),
    (["reduce", "--form", "analytic_U", *_C_HBAR[:6], "--c", "1e200", "--hbar", "1e200",
      "--grid-n", "16"], "c hbar overflows: c = 1e+200, hbar = 1e+200"),
    (["reduce", "--form", "analytic_U", *_C_HBAR[:6], "--c", "1e100", "--hbar", "1e100",
      "--grid-n", "16"], "c hbar squared overflows in the analytic_U term c^2 hbar^2 D^2: "
                         "c hbar = 1e+200"),
    (["spectrum", "--model", "scalar_const", "--v0", "0.5", "--kx", "1", "--c", "10",
      "--hbar", "1e308"], "c hbar overflows: c = 10, hbar = 1e+308"),
    (["spectrum", "--model", "rashba", "--kx", "1", "--c", "10", "--hbar", "1e308"],
     "rashba off-diagonal entry overflows: c = 10, lambda = 0, hbar = 1e+308, kx = 1, ky = 0"),
    (["verify", "--model", "scalar_const", "--v0", "0.5", "--kx", "1e-300", "--c", "10",
      "--hbar", "1e308"], "c hbar overflows: c = 10, hbar = 1e+308"),
], ids=["scalar radicand", "rashba radicand", "rest energy", "c hbar spectrum",
        "c hbar reduce", "c hbar analytic_U", "c hbar verify", "c hbar sweep",
        "c hbar converge", "c hbar analytic_U 1e200", "c hbar squared analytic_U",
        "c hbar scalar_const", "rashba off-diagonal", "c hbar before kx scalar_const"])
def test_a_closed_form_overflow_names_its_quantity(argv, message, capsys):
    # a Python float's x**2 raised OverflowError (34, 'Numerical result out of range');
    # c^2 is finite at c = 10 but c hbar is inf, and a block or Y = -c hbar D held inf
    # (times 0 on a grid), which only the check of finite entries saw
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        json.dumps({"error": {"type": "OverflowError", "message": message}})
    ]


@pytest.mark.parametrize(
    "argv, code, error",
    [
        # the printed closed-form metric is singular at E^2 = (m0 c^2)^2
        (["verify", "--model", "rashba", "--lambda", "0", "--kx", "0"], 0, None),
        (["verify", "--model", "scalar_const", "--v0", "0", "--kx", "0"], 0, None),
        # a non-finite result cannot be serialized
        (["metric", "--model", "scalar_const", "--kx", "1e200"], EXIT_USAGE, "ValueError"),
        # the closed form overflows a Python float
        (["spectrum", "--model", "rashba", "--m0", "1e200", "--kx", "1"], EXIT_USAGE,
         "OverflowError"),
        # ||H||_F overflows, so the eigen residual cannot be certified
        (["spectrum", "--model", "scalar_grid", "--potential", "cosine", "--g", "1e154",
          "--grid-n", "8"], EXIT_USAGE, "ValueError"),
        (["spectrum", "--model", "scalar_grid", "--potential", "cosine", "--g", "1e308",
          "--grid-n", "8"], EXIT_USAGE, "ValueError"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # stderr holds the JSON line only
def test_cli_exit_code_contract_at_singular_and_huge_inputs(argv, code, error, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith('{"error"')]
    if error is None:
        assert errors == []
        record = json.loads(captured.out)
        assert record["all_passed"] is True
        assert not any(c["name"].startswith("printed_metric") for c in record["checks"])
    else:
        assert captured.out == ""
        assert len(errors) == 1
        assert json.loads(errors[0])["error"]["type"] == error


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["reduce", "--form", "product_exact"],
    ],
    ids=lambda argv: argv[0],
)
def test_grid_command_reads_sampled_potential_once(argv, monkeypatch, capsys):
    from pseudospec.grid import PotentialSpec

    path = pathlib.Path(__file__).parent / "golden" / "cos16.csv"  # cos x, N=16
    read = PotentialSpec.from_csv
    paths = []

    def counted(p):
        paths.append(p)
        return read(p)

    monkeypatch.setattr(PotentialSpec, "from_csv", staticmethod(counted))
    code = main([*argv, "--model", "scalar_grid", "--potential", "samples",
                 "--file", str(path), "--grid-n", "16"])
    assert code == 0
    assert paths == [str(path)]
    assert json.loads(capsys.readouterr().out)["params"]["file"] == str(path)


def test_verify_passes_on_samples_even_only_to_the_gate(capsys):
    # cos16.csv with V[3] moved by 1e-10 relative: the grid code solves and
    # checks the even part of the V that passed the gate, so no parity check
    # contradicts the gate
    path = pathlib.Path(__file__).parent / "golden" / "cos16_off.csv"
    code = main(["verify", "--model", "scalar_grid", "--potential", "samples",
                 "--file", str(path), "--grid-n", "16"])
    record = json.loads(capsys.readouterr().out)
    assert code == 0 and record["all_passed"] is True
    checks = {c["name"]: c["value"] for c in record["checks"]}
    assert checks["grid_parity_pseudo_hermiticity"] == 0.0


_FAMILY_FLAGS = {
    "constant": ["--v0", "0.5"],
    "cosine": ["--g", "0.5"],
    "gaussian": ["--g", "0.5"],
    "samples": ["--file", str(pathlib.Path(__file__).parent / "golden" / "cos16.csv")],
}
_FAMILY_SWEEPS = {"constant": ("v0",), "cosine": ("g",), "gaussian": ("g", "width"),
                  "samples": ()}


@pytest.mark.parametrize("param", ["v0", "g", "width", "mode"])
@pytest.mark.parametrize("family", list(_FAMILY_FLAGS))
def test_grid_sweep_takes_the_potential_familys_float_parameters(family, param, capsys):
    code = main(["sweep", "--model", "scalar_grid", "--potential", family,
                 *_FAMILY_FLAGS[family], "--grid-n", "16", "--sweep-param", param,
                 "--sweep-min", "0.1", "--sweep-max", "0.5", "--sweep-steps", "2"])
    captured = capsys.readouterr()
    if param in _FAMILY_SWEEPS[family]:
        assert code == 0
        first, last = json.loads(captured.out)["sweep"]["points"]
        assert first["eigenvalues"] != last["eigenvalues"]
    else:
        assert code == EXIT_USAGE and captured.out == ""
        error = json.loads(captured.err.splitlines()[0])["error"]
        assert error["message"] == (f"cannot sweep {param!r} for model 'scalar_grid'; "
                                    f"choose from {_FAMILY_SWEEPS[family]}")


@pytest.mark.parametrize("name", ["cos16.csv", "missing.csv"])
def test_converge_refuses_sampled_potential_before_reading_it(name, capsys):
    path = pathlib.Path(__file__).parent / "golden" / name
    code = main(["converge", "--model", "scalar_grid", "--potential", "samples",
                 "--file", str(path), "--grid-n", "16", "--N", "16"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    error = json.loads(captured.err.splitlines()[0])["error"]
    assert error["type"] == "ValueError"
    assert "reference grid has 4x the largest --N points" in error["message"]


# ------------------------------------------------- per-command flags and models

_SWEEP_FLAGS = ["--sweep-param", "lambda", "--sweep-min", "0", "--sweep-max", "1",
                "--sweep-steps", "2"]
_COMMANDS = ("spectrum", "metric", "verify", "reduce", "sweep", "evolve", "converge")
# flag, its value words, the RunConfig field it sets, the commands that take it
_OWN_FLAGS = [
    ("--sweep-param", ["lambda"], "sweep_param", ("sweep",)),
    ("--sweep-min", ["0"], "sweep_min", ("sweep",)),
    ("--sweep-max", ["1"], "sweep_max", ("sweep",)),
    ("--sweep-steps", ["2"], "sweep_steps", ("sweep",)),
    ("--method", ["all"], "methods", ("metric",)),
    ("--normalize", [], "normalize", ("metric", "evolve")),
    ("--t", ["2"], "times", ("evolve",)),
    ("--form", ["product_exact"], "form", ("reduce",)),
    ("--N", ["8"], "ns", ("converge",)),
    ("--track-level", ["1"], "track_level", ("converge",)),
]


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("flag, value, dest, owners", _OWN_FLAGS,
                         ids=[flag for flag, *_ in _OWN_FLAGS])
def test_each_command_takes_only_its_own_flags(flag, value, dest, owners, command, capsys):
    # '--t' and '--form' are also prefixes of '--tol' and '--format'
    argv = [command, *(_SWEEP_FLAGS if command == "sweep" else []), flag, *value]
    if command in owners:
        assert dest in vars(_build_parser().parse_args(argv))
        return
    assert main([*argv, "--model", "rashba"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"unrecognized arguments: {' '.join([flag, *value])}"
    assert captured.err.splitlines() == [
        json.dumps({"error": {"type": "ValueError", "message": message}})
    ]


_MODEL_FLAGS = {
    "rashba": ["--lambda", "0.5", "--kx", "1"],
    "scalar_const": ["--v0", "0.5", "--kx", "1"],
    "scalar_grid": ["--potential", "cosine", "--g", "0.5"],
}
_SWEPT = {"rashba": "lambda", "scalar_const": "v0", "scalar_grid": "g"}
_BLOCK_MODELS = "('rashba', 'scalar_const')"
_REFUSED = {
    ("metric", "scalar_grid"): _BLOCK_MODELS,
    ("evolve", "scalar_grid"): _BLOCK_MODELS,
    ("reduce", "rashba"): "('scalar_grid',)",
    ("reduce", "scalar_const"): "('scalar_grid',)",
    ("converge", "rashba"): "('scalar_grid',)",
    ("converge", "scalar_const"): "('scalar_grid',)",
}


@pytest.mark.parametrize("model", list(_MODEL_FLAGS))
@pytest.mark.parametrize("command", _COMMANDS)
def test_each_command_refuses_the_models_it_does_not_take(command, model, capsys):
    argv = [command, "--model", model, *_MODEL_FLAGS[model]]
    if model == "scalar_grid" and command != "converge":
        argv += ["--grid-n", "16"]
    if command == "sweep":
        argv += ["--sweep-param", _SWEPT[model], *_SWEEP_FLAGS[2:]]
    if command == "converge":
        argv += ["--N", "8"]
    code = main(argv)
    captured = capsys.readouterr()
    if (command, model) not in _REFUSED:
        assert code == 0, captured.err
        assert "supports models" not in captured.err
        return
    assert code == EXIT_USAGE and captured.out == ""
    message = (f"command {command!r} supports models {_REFUSED[command, model]}, "
               f"got {model!r}")
    assert captured.err.splitlines() == [
        json.dumps({"error": {"type": "ValueError", "message": message}})
    ]


# ------------------------------------------------------- oversized grid inputs

_COSINE_GRID = ["--model", "scalar_grid", "--potential", "cosine", "--g", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", *_COSINE_GRID, "--grid-n", "30000"],
         "grid of 30000 points exceeds limit 1024"),
        (["reduce", *_COSINE_GRID, "--grid-n", "1025"], "grid of 1025 points exceeds limit 1024"),
        (["sweep", *_COSINE_GRID, "--grid-n", "1025", "--sweep-param", "g", "--sweep-min", "0",
          "--sweep-max", "1", "--sweep-steps", "2"], "grid of 1025 points exceeds limit 1024"),
        # the reference grid, 4x the largest N, past MAX_DIM as a 2N operator
        (["converge", *_COSINE_GRID, "--N", "8", "--N", "300"],
         "dimension 2400 exceeds limit 1024"),
        (["converge", *_COSINE_GRID, "--N", "64", "--N", "256"],
         "dimension 2048 exceeds limit 1024"),
        # a dirichlet reference grid is rounded up to odd: 4 x 256 + 1
        (["converge", *_COSINE_GRID, "--bc", "dirichlet", "--scheme", "central2", "--N", "256"],
         "dimension 2050 exceeds limit 1024"),
    ],
    ids=["spectrum", "reduce", "sweep", "converge", "converge-2n", "converge-dirichlet"],
)
def test_oversized_grids_are_refused_before_any_matrix(argv, message, monkeypatch, capsys):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a derivative matrix was built")

    monkeypatch.setattr(gridmod, "derivative_matrix", refuse)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        json.dumps({"error": {"type": "DimensionMismatch", "message": message}})
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", *_COSINE_GRID, "--grid-n", "1024"], "dimension 2048 exceeds limit 1024"),
        (["reduce", *_COSINE_GRID, "--grid-n", "1024"], "dimension 2048 exceeds limit 1024"),
        (["reduce", *_COSINE_GRID, "--grid-n", "1024", "--form", "analytic_U"],
         "dimension 2048 exceeds limit 1024"),
        (["verify", *_COSINE_GRID, "--grid-n", "600"], "dimension 1200 exceeds limit 1024"),
        (["converge", *_COSINE_GRID, "--N", "256"], "dimension 2048 exceeds limit 1024"),
    ],
    ids=["spectrum", "reduce", "reduce-analytic_U", "verify", "converge"],
)
def test_grids_past_half_the_limit_are_refused_before_h_or_u(argv, message, monkeypatch,
                                                              capsys):
    # within the point limit, but their 2N x 2N operator is past MAX_DIM
    def refuse(*_args, **_kwargs):
        raise AssertionError("a block of H, M or U was built, or a solve ran")

    for name in ("_coupling", "_root_matrix", "eigendecompose"):
        monkeypatch.setattr(gridmod, name, refuse)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        json.dumps({"error": {"type": "DimensionMismatch", "message": message}})
    ]


def test_reduce_refuses_a_2n_past_the_limit_before_any_2n_array(capsys):
    # D of 1024 points is 8 MB; one real 2048 x 2048 array would be 32 MB
    tracemalloc.start()
    try:
        assert main(["reduce", *_COSINE_GRID, "--grid-n", "1024"]) == EXIT_USAGE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "dimension 2048 exceeds limit 1024" in capsys.readouterr().err
    assert peak < 2048 * 2048 * 8


def test_converge_refuses_a_negative_track_level_before_any_solve(monkeypatch, capsys):
    calls = []
    original = gridmod.eigendecompose

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(gridmod, "eigendecompose", counted)
    code = main(["converge", "--model", "scalar_grid", "--potential", "cosine", "--g", "0.5",
                 "--N", "8", "--N", "16", "--track-level", "-1"])
    captured = capsys.readouterr()
    assert calls == []
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.splitlines() == [json.dumps(
        {"error": {"type": "ValueError", "message": "track level must be >= 0, got -1"}}
    )]


@pytest.mark.parametrize("flags, message", [
    (["--bc", "dirichlet", "--N", "33", "--N", "64", "--N", "127"],
     "dirichlet grids need odd N (center point at 0)"),
    (["--N", "4", "--N", "128"], "need at least 8 points, got 4"),
], ids=["even-dirichlet", "too-few-points"])
def test_converge_refuses_a_bad_n_before_the_reference_solve(flags, message, monkeypatch,
                                                              capsys):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a grid was solved")

    monkeypatch.setattr(gridmod, "eigendecompose", refuse)
    code = main(["converge", *_COSINE_GRID, "--scheme", "central2", *flags])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.splitlines() == [
        json.dumps({"error": {"type": "AsymmetricGrid", "message": message}})
    ]


# ------------------------------------------------------------------ file errors

_SAMPLES = ["--model", "scalar_grid", "--potential", "samples", "--grid-n", "8", "--file"]


@pytest.mark.parametrize("case", ["directory", "short row", "unwritable out"])
def test_file_errors_exit_2_with_one_json_line(case, tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("x,V\n1\n", encoding="utf-8")
    out = tmp_path / "missing" / "x.json"
    argv, error_type, message = {
        "directory": (["spectrum", *_SAMPLES, str(tmp_path)], "IsADirectoryError",
                      f"[Errno 21] Is a directory: '{tmp_path}'"),
        "short row": (["spectrum", *_SAMPLES, str(short)], "ValueError",
                      f"{short}: line 2: expected x,V, got ['1']"),
        "unwritable out": (["spectrum", "--model", "rashba", "--lambda", "0.5", "--kx", "1",
                            "--out", str(out)], "FileNotFoundError",
                           f"[Errno 2] No such file or directory: '{out}'"),
    }[case]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""  # and no '# runtime_ms' line
    assert captured.err.splitlines() == [
        json.dumps({"error": {"type": error_type, "message": message}})
    ]
    assert not out.exists()


def test_run_refuses_an_unknown_potential_with_the_model_check():
    cfg = RunConfig(command="spectrum", model="scalar_grid", grid={"potential": "foo"})
    with pytest.raises(ValueError, match=r"^unknown potential 'foo'$"):
        run(cfg)


def test_run_refuses_unknown_grid_flags_with_the_model_check():
    cfg = RunConfig(command="spectrum", model="scalar_grid", grid={"grid_m": 16, "bc_": 1})
    with pytest.raises(ValueError, match=r"^unknown grid flags \('bc_', 'grid_m'\)$"):
        run(cfg)


@pytest.mark.parametrize("cfg, message", [
    (RunConfig(command="spectrum", model="scalar_grid",
               params={"g": 0.5, "mode": 2.5}, grid={"potential": "cosine"}),
     "mode must be an integer, got 2.5"),
    (RunConfig(command="spectrum", model="scalar_grid", grid={"grid_n": 16.0}),
     "grid_n must be an integer, got 16.0"),
    (RunConfig(command="spectrum", model="scalar_grid", grid={"grid_n": True}),
     "grid_n must be an integer, got True"),
    (RunConfig(command="sweep", model="scalar_grid", params={"g": 0.5},
               grid={"potential": "cosine", "grid_n": 16}, sweep_param="g",
               sweep_min=0.0, sweep_max=1.0, sweep_steps=3.0),
     "sweep_steps must be an integer, got 3.0"),
    (RunConfig(command="converge", model="scalar_grid", ns=(8, 16), track_level=0.5),
     "track_level must be an integer, got 0.5"),
    (RunConfig(command="converge", model="scalar_grid", ns=(8.0, 16.0)),
     "N must be an integer, got 8.0"),
], ids=["mode", "grid_n", "grid_n-bool", "sweep_steps", "track_level", "ns"])
def test_run_refuses_a_non_integer_count_before_any_grid(cfg, message, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a block of H or U was built")

    monkeypatch.setattr(gridmod, "_coupling", refuse)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(cfg)


@pytest.mark.parametrize("cfg, message", [
    (RunConfig(command="spectrum", model="rashba", params={"kx": "1"}),
     "kx must be a real number, got '1'"),
    (RunConfig(command="spectrum", model="rashba", params={"lambda": True}),
     "lambda must be a real number, got True"),
    (RunConfig(command="spectrum", model="scalar_grid", params={"v0": None}),
     "v0 must be a real number, got None"),
    (RunConfig(command="spectrum", model="scalar_grid", grid={"grid_l": "3"}),
     "grid_l must be a real number, got '3'"),
    (RunConfig(command="spectrum", model="rashba", tol="1e-10"),
     "tol must be a real number, got '1e-10'"),
    (RunConfig(command="sweep", model="rashba", sweep_param="lambda", sweep_min="0",
               sweep_max=1.0, sweep_steps=3), "sweep_min must be a real number, got '0'"),
    (RunConfig(command="evolve", model="rashba", times=(1.0, "2")),
     "t must be a real number, got '2'"),
    (RunConfig(command="spectrum", model="scalar_grid", params={"g": 0.5, "mode": "2"},
               grid={"potential": "cosine"}), "mode must be an integer, got '2'"),
], ids=["str", "bool", "None", "grid_l", "tol", "sweep_min", "time", "mode-str"])
def test_run_refuses_a_value_that_is_not_a_real_number(cfg, message, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a block of H or U was built")

    monkeypatch.setattr(gridmod, "_coupling", refuse)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(cfg)


@pytest.mark.parametrize("tol", [0.0, 1.0, 2.0, math.nan])
@pytest.mark.parametrize("cfg", [
    RunConfig(command="spectrum", model="scalar_grid"),
    RunConfig(command="sweep", model="scalar_grid", params={"g": 0.5},
              grid={"potential": "cosine", "grid_n": 16}, sweep_param="g",
              sweep_min=0.0, sweep_max=1.0, sweep_steps=3),
    RunConfig(command="converge", model="scalar_grid", ns=(8, 16)),
], ids=["spectrum", "sweep", "converge"])
def test_run_refuses_a_bad_tolerance_before_any_grid(cfg, tol, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(gridmod, "make_grid", refuse)
    with pytest.raises(ValueError, match=rf"^tolerance must satisfy 0 < tol < 1, got {tol}$"):
        run(replace(cfg, tol=tol))


def test_reduce_verify_and_sweep_classify_the_reduced_spectrum_at_tol(monkeypatch, capsys):
    # at g = 1e-9 the largest |Im eps| of the reduced values is 2.4e-10: paired at
    # tol = 1e-10, real at 1e-8
    faint = ["--model", "scalar_grid", "--potential", "gaussian", "--g", "1e-9",
             "--width", "0.5", "--grid-n", "64"]
    assert main(["reduce", *faint]) == 0
    reduction = json.loads(capsys.readouterr().out)["reduction"]
    assert reduction["reduced_classification"] == "conjugate_pairs"
    assert main(["sweep", *faint, "--sweep-param", "g", "--sweep-min", "1e-9",
                 "--sweep-max", "2e-9", "--sweep-steps", "2"]) == 0
    points = json.loads(capsys.readouterr().out)["sweep"]["points"]
    assert [point["classification"] for point in points] == ["conjugate_pairs"] * 2
    kinds = []

    def recorded(values, tol):
        kinds.append(classify_spectrum(values, tol))
        return kinds[-1]

    monkeypatch.setattr("pseudospec.cli.classify_spectrum", recorded)
    assert main(["verify", *faint]) == 0
    record = json.loads(capsys.readouterr().out)
    assert kinds == ["conjugate_pairs"]
    assert record["all_passed"] is True


def test_run_takes_numpy_reals():
    cfg = RunConfig(command="spectrum", model="rashba", tol=np.float64(1e-10),
                    params={"lambda": np.float32(0.5), "kx": np.int64(1)})
    assert run(cfg).classification == "all_real"


def test_run_takes_numpy_integer_counts():
    cfg = RunConfig(command="converge", model="scalar_grid", params={"mode": np.int64(1)},
                    grid={"potential": "cosine"}, ns=(np.int32(8), np.int64(16)),
                    track_level=np.int64(0))
    assert [row["n"] for row in run(cfg).study["rows"]] == [8, 16]


# ----------------------------------------------------------- CLI contract fuzz

_HOSTILE = ("0", "-1", "nan", "inf", "1e300", "1e154", "1e-300", "5e-324", "abc")


def _values(*valid):
    # one value in ten is hostile, so that most draws reach the solvers
    return st.integers(0, 9).flatmap(lambda i: st.sampled_from(valid if i else _HOSTILE))


_GAUSSIAN = ["--potential", "gaussian"]
_LAMBDA_STEPS = ["--sweep-param", "lambda", "--sweep-steps", "3"]
# Per flag, a hostile value that passes the parser and reaches a refusal or a
# non-finite intermediate, with the model and the flags it needs to get there.
# Left to _values, each needs one value of nine, in one draw of ten, on a
# matching command, model and potential: the 150 draws below reached none.
_ROUTES = {
    "--g": ("1e300", "scalar_grid", _GAUSSIAN),
    "--c": ("1e154", "scalar_grid", _GAUSSIAN),
    "--width": ("1e-300", "scalar_grid", _GAUSSIAN),
    "--grid-L": ("5e-324", "scalar_grid", _GAUSSIAN),
    "--hbar": ("5e-324", "rashba", []),
    "--sweep-max": ("inf", "rashba", ["--sweep-min", "0", *_LAMBDA_STEPS]),
    "--sweep-min": ("-1e308", "rashba", ["--sweep-max", "1e308", *_LAMBDA_STEPS]),
    "--file": (_INF16, "scalar_grid", ["--potential", "samples"]),
}

_FUZZ_VALUES = {
    **dict.fromkeys(("--m0", "--c", "--hbar", "--lambda", "--kx", "--ky", "--v0", "--g",
                     "--width", "--grid-L", "--t", "--sweep-min", "--sweep-max"),
                    _values("0.5", "1", "2")),
    "--tol": _values("1e-10", "1e-8"),
    "--format": _values("json", "csv"),
    "--mode": _values("1", "2"),
    "--grid-n": _values("8", "9", "16", "17", "1025", "30000"),
    "--bc": _values("periodic", "dirichlet"),
    "--scheme": _values("central2", "fourier"),
    "--potential": _values(*gridmod.FAMILIES),
    "--file": st.sampled_from([str(pathlib.Path(__file__).parent / "golden" / name)
                               for name in ("cos16.csv", "inf16.csv", "missing.csv", "")]),
    "--sweep-param": _values("lambda", "v0", "g", "width", "mode"),
    "--sweep-steps": _values("1", "2", "6"),
    "--method": _values("spectral", "paper", "diagonal", "all"),
    "--normalize": st.none(),
    "--form": _values(gridmod.PRODUCT_EXACT, gridmod.ANALYTIC_U),
    "--N": _values("8", "9", "16", "17", "32"),
    "--track-level": _values("0", "1"),
}
_PHYS = ("--m0", "--c", "--hbar", "--tol", "--format")
_FUZZ_READS = {
    "rashba": (*_PHYS, "--lambda", "--kx", "--ky"),
    "scalar_const": (*_PHYS, "--v0", "--kx"),
    "scalar_grid": (*_PHYS, "--grid-L", "--grid-n", "--bc", "--scheme", "--potential", "--g",
                    "--mode", "--width", "--file"),
}
_COMMON_FLAGS = sorted({flag for reads in _FUZZ_READS.values() for flag in reads})


@st.composite
def _hostile_argv(draw):
    # nearly always the command's own flags, some that the model reads, now and
    # then one that it does not read; a third of the draws take one flag's route
    route = draw(st.sampled_from(list(_ROUTES))) if draw(st.integers(0, 2)) == 0 else None
    if route is None:
        command = draw(st.sampled_from(list(COMMANDS)))
        model = draw(_values(*COMMANDS[command].models))
        fixed = []
    else:
        value, model, needs = _ROUTES[route]
        command = "sweep" if _LAMBDA_STEPS[0] in needs else draw(st.sampled_from(
            [name for name, command in COMMANDS.items() if model in command.models]))
        fixed = [route, value, *needs]
    flags = [flag for flag, _ in COMMANDS[command].flags if draw(st.integers(0, 9))]
    reads = _FUZZ_READS.get(model, _PHYS)
    flags += draw(st.lists(st.sampled_from(reads), max_size=len(reads), unique=True))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(_COMMON_FLAGS)))
    argv = [command, "--model", model, *fixed]
    for flag in flags:
        if flag in fixed[::2]:
            continue
        value = draw(_FUZZ_VALUES[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_hostile_argv())
def test_cli_contract_holds_on_hostile_argv(argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
         contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, EXIT_USAGE, 3, EXIT_REGIME), argv
    assert caught == [] and "Warning" not in err.getvalue(), argv
    if code == 0:
        assert lines and lines[-1].startswith("# runtime_ms="), argv
    else:
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}, argv
