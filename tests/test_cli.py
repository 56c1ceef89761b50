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
    cfg = RunConfig(command="sweep", model=model,
                    params={"m0": m0, "c": c, "hbar": hbar, "kx": kx, "ky": ky},
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
        potential="cosine",
        grid_n=32,
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
        potential="constant",
        grid_n=32,
    )
    rec = run_reduce(cfg)
    assert rec.reduction["identity_mismatch"] <= 1e-10
    assert rec.reduction["reduced_classification"] == "all_real"
    assert len(rec.reduction["reduced_eigenvalues"]) == 32
    assert len(rec.eigenvalues) == 64


def test_run_reduce_free_case_all_real():
    cfg = RunConfig(
        command="reduce", model="scalar_grid", params={"v0": 0.0},
        potential="constant", grid_n=32,
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
        potential="cosine",
        grid_n=32,
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
        potential="constant",
        ns=(16, 32),
    )
    rec = run_converge(cfg)
    assert rec.study["ref_n"] == 128
    assert all(row["error"] <= 1e-10 for row in rec.study["rows"])


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
    ],
)
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
