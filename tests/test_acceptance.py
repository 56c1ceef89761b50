"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite stays under two minutes on a laptop.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from conftest import spectrum_gap

from pseudospec.cli import RunConfig, run_metric, run_sweep
from pseudospec.errors import OddPotential
from pseudospec.grid import (
    CENTRAL2,
    FOURIER,
    PotentialSpec,
    assemble_dirac_blocks,
    build_dirac_grid,
    build_reduced,
    convergence_study,
    derivative_matrix,
    grid_parity_residual,
    make_grid,
    reduction_identity_mismatch,
)
from pseudospec.linalg import eigendecompose, frob_norm
from pseudospec.metric import (
    ALL_REAL,
    CONJUGATE_PAIRS,
    check_metric,
    classify_spectrum,
    evolve,
    spectral_metric,
)
from pseudospec.models import (
    Momentum2,
    PhysParams,
    build_rashba,
    build_scalar_const,
    eta_diag_rashba,
    rashba_energy,
    scalar_energy,
)

PP = PhysParams()

TEST_POTENTIALS = (
    PotentialSpec.constant(0.5),
    PotentialSpec.cosine(1.0, 1),
    PotentialSpec.gaussian(1.0, 0.5),
)


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def sorted_pair(pair):
    return np.array(sorted(pair, key=lambda z: (z.real, z.imag)), dtype=complex)


def unbroken_rashba_draws(rng, count):
    draws = []
    while len(draws) < count:
        lam = rng.uniform(-0.9, 0.9)
        k = Momentum2(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(rashba_energy(k, PP, lam)[0]) > 0.3:
            draws.append((lam, k))
    return draws


def unbroken_scalar_draws(rng, count):
    draws = []
    while len(draws) < count:
        kx = rng.uniform(-4, 4)
        v0 = rng.uniform(-0.85, 0.85) * math.sqrt(1.0 + kx * kx)
        e = scalar_energy(kx, PP, v0)[0]
        if e.imag == 0 and abs(e) > 0.3 and abs(e * e - 1.0) > 0.05:
            draws.append((kx, v0))
    return draws


def test_criterion_01_rashba_closed_form_spectrum():
    theta = 0.3
    worst = 0.0
    for lam in np.linspace(0.0, 0.9, 20):
        for kmag in np.linspace(0.0, 5.0, 20):
            k = Momentum2(kmag * math.cos(theta), kmag * math.sin(theta))
            numeric = eigendecompose(build_rashba(k, PP, lam)).values
            worst = max(worst, spectrum_gap(numeric, rashba_energy(k, PP, lam)))
    assert worst <= 1e-10
    report(1, f"model-I spectra match closed form on 20x20 grid (worst {worst:.2e})")


def test_criterion_02_scalar_closed_form_spectrum_with_broken_regime():
    worst = 0.0
    broken_points = 0
    for v0 in np.linspace(0.0, 3.0, 20):
        for kx in np.linspace(0.0, 5.0, 20):
            numeric = eigendecompose(build_scalar_const(kx, PP, v0)).values
            analytic = sorted_pair(scalar_energy(kx, PP, v0))
            worst = max(worst, spectrum_gap(numeric, analytic))
            if analytic[0].imag != 0.0:
                broken_points += 1
                assert abs(analytic[0].real) <= 1e-15
    assert worst <= 1e-10
    assert broken_points > 0
    report(
        2,
        f"model-II spectra match closed form incl. {broken_points} broken points "
        f"(worst {worst:.2e})",
    )


def test_criterion_03_spectral_metric_validity():
    rng = np.random.default_rng(103)
    for lam, k in unbroken_rashba_draws(rng, 50):
        h = build_rashba(k, PP, lam)
        eta = spectral_metric(h)
        rep = check_metric(h, eta, 1e-10)
        assert rep.relation_residual <= 1e-10 and rep.min_eig > 0
    for kx, v0 in unbroken_scalar_draws(rng, 50):
        h = build_scalar_const(kx, PP, v0)
        eta = spectral_metric(h)
        rep = check_metric(h, eta, 1e-10)
        assert rep.relation_residual <= 1e-10 and rep.min_eig > 0
    for _ in range(5):
        k = Momentum2(rng.uniform(-4, 4), rng.uniform(-4, 4))
        h1 = build_rashba(k, PP, 0.0)
        assert frob_norm(spectral_metric(h1, normalize=True) - np.eye(2)) <= 1e-12
        h2 = build_scalar_const(rng.uniform(-4, 4), PP, 0.0)
        assert frob_norm(spectral_metric(h2, normalize=True) - np.eye(2)) <= 1e-12
    report(3, "spectral metric valid on 50 unbroken draws per model; Hermitian limit gives identity")


def test_criterion_04_diagonal_metric_residual():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        lam = rng.uniform(-0.99, 0.99)
        k = Momentum2(rng.uniform(-5, 5), rng.uniform(-5, 5))
        h = build_rashba(k, PP, lam)
        rep = check_metric(h, eta_diag_rashba(PP, lam), 1e-14)
        assert rep.relation_residual <= 1e-14
        worst = max(worst, rep.relation_residual)
    report(4, f"diag(c+lam, c-lam) relation residual <= 1e-14 on 100 draws (worst {worst:.2e})")


def test_criterion_05_printed_metric_adjudication():
    rng = np.random.default_rng(105)
    table = []
    for lam, k in unbroken_rashba_draws(rng, 10):
        cfg = RunConfig(
            command="metric",
            model="rashba",
            params={"lambda": lam, "kx": k.kx, "ky": k.ky},
            methods=("spectral", "paper"),
        )
        rec = run_metric(cfg)
        reports = rec.metric_reports
        assert reports["spectral"].verdict == "valid_metric"
        assert np.isfinite(reports["paper"].relation_residual)
        table.append(("rashba", reports["paper"].verdict))
    for kx, v0 in unbroken_scalar_draws(rng, 10):
        cfg = RunConfig(
            command="metric",
            model="scalar_const",
            params={"v0": v0, "kx": kx},
            methods=("spectral", "paper"),
        )
        rec = run_metric(cfg)
        reports = rec.metric_reports
        assert reports["spectral"].verdict == "valid_metric"
        assert np.isfinite(reports["paper"].relation_residual)
        table.append(("scalar", reports["paper"].verdict))
    verdicts = {v for _, v in table}
    report(5, f"printed metrics adjudicated at 20 draws; verdicts seen: {sorted(verdicts)}")


def test_criterion_06_exact_reduction_identity():
    worst = 0.0
    for spec in TEST_POTENTIALS:
        for n in (32, 64, 128):
            g = make_grid(math.pi, n)
            de = eigendecompose(build_dirac_grid(spec, g, PP, FOURIER))
            re_ = eigendecompose(build_reduced(spec, g, PP, FOURIER))
            mismatch = reduction_identity_mismatch(de.values, re_.values, PP)
            assert mismatch <= 1e-8
            worst = max(worst, mismatch)
    report(6, f"Dirac vs mapped reduced spectra agree for 3 potentials x 3 sizes (worst {worst:.2e})")


def test_criterion_07_conjugate_closure_and_odd_gate():
    kinds = set()
    for spec in TEST_POTENTIALS:
        for n in (32, 64, 128):
            g = make_grid(math.pi, n)
            vals = eigendecompose(build_reduced(spec, g, PP, FOURIER)).values
            kind = classify_spectrum(vals, 1e-8)
            assert kind in (ALL_REAL, CONJUGATE_PAIRS)
            kinds.add(kind)
    assert CONJUGATE_PAIRS in kinds  # the gaussian draws genuinely break reality
    g = make_grid(math.pi, 32)
    odd = PotentialSpec.samples(g.points, np.sin(g.points))
    with pytest.raises(OddPotential):
        build_dirac_grid(odd, g, PP, FOURIER)
    report(7, f"reduced spectra never mixed (kinds {sorted(kinds)}); odd potential rejected")


def test_criterion_08_grid_parity_pseudo_hermiticity():
    for spec in TEST_POTENTIALS:
        g = make_grid(math.pi, 64)
        op = build_dirac_grid(spec, g, PP, FOURIER)
        resid = grid_parity_residual(op, g)
        assert resid <= 1e-12
    g = make_grid(math.pi, 64)
    h_odd = assemble_dirac_blocks(
        derivative_matrix(g, FOURIER), np.sin(g.points), PP
    )
    odd_resid = grid_parity_residual(h_odd, g)
    assert odd_resid >= 1e-3
    report(8, f"parity conjugation reproduces the adjoint for even V; odd control residual {odd_resid:.2e}")


def test_criterion_09_convergence_orders():
    st = convergence_study(
        PotentialSpec.cosine(1.0, 1), PP, [32, 64, 128], scheme=CENTRAL2, track_level=1
    )
    errs = [err for _, err in st.rows]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert 3.2 <= r1 <= 4.8 and 3.2 <= r2 <= 4.8
    stf = convergence_study(
        PotentialSpec.cosine(1.0, 1), PP, [32, 64], scheme=FOURIER, track_level=1
    )
    fourier_err = dict(stf.rows)[64]
    assert fourier_err <= 1e-8
    report(
        9,
        f"central2 error ratios {r1:.2f}/{r2:.2f} in [3.2, 4.8]; fourier error at N=64 is {fourier_err:.2e}",
    )


def test_criterion_10_reality_thresholds():
    rec = run_sweep(
        RunConfig(
            command="sweep",
            model="rashba",
            params={"kx": 1.0, "ky": 0.0},
            sweep_param="lambda",
            sweep_min=0.0,
            sweep_max=2.0,
            sweep_steps=21,
        )
    )
    lam_star = rec.threshold["value"]
    assert lam_star == pytest.approx(math.sqrt(2), rel=1e-6)
    rec2 = run_sweep(
        RunConfig(
            command="sweep",
            model="scalar_const",
            params={"kx": 1.0},
            sweep_param="v0",
            sweep_min=0.0,
            sweep_max=3.0,
            sweep_steps=21,
        )
    )
    v0_star = rec2.threshold["value"]
    assert v0_star == pytest.approx(math.sqrt(2), rel=1e-6)
    report(10, f"searched thresholds lambda*={lam_star:.8f}, v0*={v0_star:.8f} match sqrt(2)")


def test_criterion_11_pseudo_unitarity():
    rng = np.random.default_rng(111)
    cases = [
        build_rashba(k, PP, lam) for lam, k in unbroken_rashba_draws(rng, 10)
    ] + [
        build_scalar_const(kx, PP, v0) for kx, v0 in unbroken_scalar_draws(rng, 10)
    ]
    worst = 0.0
    for h in cases:
        eta = spectral_metric(h)
        scale = frob_norm(eta)
        for t in (0.1, 1.0, 10.0):
            u = evolve(h, t, PP)
            resid = frob_norm(u.conj().T @ eta @ u - eta) / scale
            assert resid <= 1e-8
            worst = max(worst, resid)
    report(11, f"propagators conserve the eta inner product on 20 draws x 3 times (worst {worst:.2e})")


def test_criterion_12_cli_byte_determinism(tmp_path):
    def run_bytes(args):
        r = subprocess.run(
            [sys.executable, "-m", "pseudospec.cli", *args], capture_output=True
        )
        assert r.returncode == 0
        return r.stdout

    cases = [
        ["spectrum", "--model", "rashba", "--lambda", "0.5", "--kx", "1"],
        ["spectrum", "--model", "rashba", "--lambda", "0.5", "--kx", "1", "--format", "csv"],
        ["sweep", "--model", "scalar_const", "--kx", "1", "--sweep-param", "v0",
         "--sweep-min", "0", "--sweep-max", "3", "--sweep-steps", "7"],
        ["metric", "--model", "rashba", "--lambda", "0.5", "--kx", "1",
         "--method", "all", "--format", "csv"],
        ["reduce", "--model", "scalar_grid", "--potential", "cosine", "--g", "1",
         "--grid-n", "32"],
    ]
    for args in cases:
        first, second = run_bytes(args), run_bytes(args)
        assert first == second and first
        assert json.loads(first) if "--format" not in args else True
    report(12, f"{len(cases)} CLI invocations byte-identical across repeated runs (JSON and CSV)")
