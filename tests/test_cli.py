import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudospec.cli import (
    EXIT_REGIME,
    EXIT_USAGE,
    RunConfig,
    main,
    run_converge,
    run_evolve,
    run_metric,
    run_reduce,
    run_spectrum,
    run_sweep,
    run_verify,
)
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


def test_cli_env_tol_override():
    import os

    env = dict(os.environ, PSEUDOSPEC_TOL="1e-6")
    r = cli("spectrum", "--model", "rashba", "--kx", "1", env=env)
    assert json.loads(r.stdout)["params"]["tol"] == 1e-6


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
    "flag, env",
    [("nan", None), ("inf", None), ("0", None), ("-1", None), (None, "abc"), (None, "nan")],
)
def test_cli_rejects_bad_tolerance(flag, env, monkeypatch, capsys):
    argv = ["spectrum", "--model", "rashba", "--kx", "1"]
    if flag is not None:
        argv += ["--tol", flag]
    if env is None:
        monkeypatch.delenv("PSEUDOSPEC_TOL", raising=False)
    else:
        monkeypatch.setenv("PSEUDOSPEC_TOL", env)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[0])["error"]["type"] == "ValueError"


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
