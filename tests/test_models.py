import numpy as np
import pytest
from conftest import spectrum_gap

from pseudospec.errors import (
    ExceptionalPoint,
    NotPositiveDefinite,
    SingularDenominator,
)
from pseudospec.linalg import adjoint, eigendecompose, frob_distance, frob_norm
from pseudospec.models import (
    Momentum2,
    PhysParams,
    build_rashba,
    build_scalar_const,
    eta_diag_rashba,
    eta_paper_rashba,
    eta_paper_scalar,
    parity_matrix,
    rashba_adjoint_spinors,
    rashba_energy,
    rashba_parity_residuals,
    scalar_adjoint_spinors,
    scalar_energy,
    scalar_parity_residual,
)

PP = PhysParams()


def sorted_pair(pair):
    return np.array(sorted(pair, key=lambda z: (z.real, z.imag)), dtype=complex)


# ---------------------------------------------------------------- model I


def test_build_rashba_rest_frame():
    h = build_rashba(Momentum2(0, 0), PP, 0.0)
    assert np.array_equal(h, np.diag([1.0, -1.0]).astype(complex))


def test_build_rashba_unit_kx():
    h = build_rashba(Momentum2(1, 0), PP, 0.5)
    assert np.allclose(h, [[1.0, 0.5], [1.5, -1.0]], atol=1e-15)


def test_build_rashba_unit_ky():
    h = build_rashba(Momentum2(0, 1), PP, 0.5)
    assert np.allclose(h, [[1.0, -0.5j], [1.5j, -1.0]], atol=1e-15)


def test_rashba_energy_matches_numerics():
    e_plus, e_minus = rashba_energy(Momentum2(1, 0), PP, 0.5)
    assert e_plus == pytest.approx(np.sqrt(1.75))
    assert e_minus == pytest.approx(-np.sqrt(1.75))
    es = eigendecompose(build_rashba(Momentum2(1, 0), PP, 0.5))
    assert spectrum_gap(es.values, (e_plus, e_minus)) < 1e-12


def test_rashba_energy_hermitian_limit():
    for k in (Momentum2(0.3, -1.2), Momentum2(2.0, 0.0)):
        e_plus, _ = rashba_energy(k, PP, 0.0)
        assert e_plus == pytest.approx(np.sqrt(1 + k.k_sq))


def test_rashba_energy_broken_regime():
    e_plus, e_minus = rashba_energy(Momentum2(1, 0), PP, 2.0)
    assert e_plus == pytest.approx(1.4142135623730951j)
    assert e_minus == pytest.approx(-1.4142135623730951j)


def test_rashba_reality_follows_radicand_sign():
    rng = np.random.default_rng(10)
    for _ in range(50):
        lam = rng.uniform(-3, 3)
        k = Momentum2(rng.uniform(-4, 4), rng.uniform(-4, 4))
        radicand = 1.0 + (1.0 - lam**2) * k.k_sq
        e_plus, _ = rashba_energy(k, PP, lam)
        if radicand >= 0:
            assert e_plus.imag == 0.0
        else:
            assert e_plus.real == 0.0 and e_plus.imag > 0


def test_rashba_numeric_analytic_agreement_including_broken():
    rng = np.random.default_rng(11)
    for _ in range(40):
        lam = rng.uniform(-2.5, 2.5)
        k = Momentum2(rng.uniform(-4, 4), rng.uniform(-4, 4))
        es = eigendecompose(build_rashba(k, PP, lam))
        assert spectrum_gap(es.values, rashba_energy(k, PP, lam)) < 1e-10


def test_rashba_eigenvalues_in_plus_minus_pairs():
    rng = np.random.default_rng(12)
    for _ in range(30):
        lam = rng.uniform(-2, 2)
        k = Momentum2(rng.uniform(-4, 4), rng.uniform(-4, 4))
        vals = eigendecompose(build_rashba(k, PP, lam)).values
        assert abs(vals[0] + vals[1]) <= 1e-12 * max(1.0, abs(vals[1]))


def test_rashba_spinors_rest_frame():
    sp = rashba_adjoint_spinors(Momentum2(0, 0), PP, 0.7)
    assert np.allclose(sp.u1, [1.0, 0.0])
    assert np.allclose(sp.u2, [0.0, 1.0])


def test_rashba_spinors_frozen_values():
    sp = rashba_adjoint_spinors(Momentum2(1, 0), PP, 0.5)
    e = np.sqrt(1.75)
    assert sp.energy == pytest.approx(e)
    # oracle: (c - lam) p+ / (E + m c^2) and -(c + lam) p- / (E + m c^2)
    assert sp.u1[1] == pytest.approx(0.5 / (e + 1), abs=1e-15)
    assert sp.u1[1] == pytest.approx(0.21525043702152624, abs=1e-12)
    assert sp.u2[0] == pytest.approx(-1.5 / (e + 1), abs=1e-15)
    assert sp.u2[0] == pytest.approx(-0.6457513110645907, abs=1e-12)


def test_rashba_spinors_are_adjoint_eigenvectors():
    rng = np.random.default_rng(13)
    for _ in range(20):
        lam = rng.uniform(-0.95, 0.95)
        k = Momentum2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        sp = rashba_adjoint_spinors(k, PP, lam)
        hd = adjoint(build_rashba(k, PP, lam))
        assert np.linalg.norm(hd @ sp.u1 - sp.energy * sp.u1) <= 1e-10
        assert np.linalg.norm(hd @ sp.u2 + sp.energy * sp.u2) <= 1e-10


def test_rashba_spinors_degenerate_point_raises():
    with pytest.raises(ExceptionalPoint):
        rashba_adjoint_spinors(Momentum2(0, 0), PhysParams(m0=0.0), 0.5)


# ---------------------------------------------------------------- model II


def test_build_scalar_const_examples():
    assert np.array_equal(
        build_scalar_const(0.0, PP, 0.0), np.diag([1.0, -1.0]).astype(complex)
    )
    assert np.allclose(build_scalar_const(1.0, PP, 0.5), [[1.0, 1.5], [0.5, -1.0]])
    assert np.allclose(build_scalar_const(0.0, PP, 2.0), [[1.0, 2.0], [-2.0, -1.0]])


def test_scalar_energy_examples():
    e_plus, _ = scalar_energy(1.0, PP, 0.5)
    assert e_plus == pytest.approx(np.sqrt(1.75))
    es = eigendecompose(build_scalar_const(1.0, PP, 0.5))
    assert spectrum_gap(es.values, scalar_energy(1.0, PP, 0.5)) < 1e-12
    assert scalar_energy(2.0, PP, 0.0)[0] == pytest.approx(np.sqrt(5.0))
    assert scalar_energy(0.0, PP, 2.0)[0] == pytest.approx(1.7320508075688772j)


def test_scalar_numeric_analytic_agreement_everywhere():
    rng = np.random.default_rng(14)
    for _ in range(40):
        kx = rng.uniform(-4, 4)
        v0 = rng.uniform(-3, 3)
        es = eigendecompose(build_scalar_const(kx, PP, v0))
        assert spectrum_gap(es.values, scalar_energy(kx, PP, v0)) < 1e-10


def test_scalar_reality_follows_radicand_sign():
    rng = np.random.default_rng(15)
    for _ in range(50):
        kx = rng.uniform(-3, 3)
        v0 = rng.uniform(-3, 3)
        e_plus, _ = scalar_energy(kx, PP, v0)
        if kx * kx + 1.0 >= v0 * v0:
            assert e_plus.imag == 0.0
        else:
            assert e_plus.real == 0.0


def test_scalar_spinors():
    sp = scalar_adjoint_spinors(0.0, PP, 0.0)
    assert np.allclose(sp.u1, [1.0, 0.0]) and np.allclose(sp.u2, [0.0, 1.0])
    sp = scalar_adjoint_spinors(1.0, PP, 0.5)
    e = np.sqrt(1.75)
    assert sp.u1[1] == pytest.approx(1.5 / (e + 1), abs=1e-15)
    assert sp.u1[1] == pytest.approx(0.6457513110645907, abs=1e-12)
    assert sp.u2[0] == pytest.approx(-0.5 / (e + 1), abs=1e-15)
    rng = np.random.default_rng(16)
    for _ in range(20):
        kx = rng.uniform(-3, 3)
        cap = np.sqrt(1.0 + kx * kx)
        v0 = rng.uniform(-0.9, 0.9) * cap
        sp = scalar_adjoint_spinors(kx, PP, v0)
        hd = adjoint(build_scalar_const(kx, PP, v0))
        assert np.linalg.norm(hd @ sp.u1 - sp.energy * sp.u1) <= 1e-10
        assert np.linalg.norm(hd @ sp.u2 + sp.energy * sp.u2) <= 1e-10


# ------------------------------------------------------- printed metrics


def test_eta_paper_rashba_spot_value():
    eta = eta_paper_rashba(Momentum2(1, 0), PP, 0.5)
    e = np.sqrt(1.75)
    assert eta[0, 1] == pytest.approx(2 * (e + 0.5) / 0.75, abs=1e-12)
    assert eta[0, 1] == pytest.approx(4.861001748086121, abs=1e-9)


def test_eta_paper_rashba_singular_at_rest():
    with pytest.raises(SingularDenominator):
        eta_paper_rashba(Momentum2(0, 0), PP, 0.5)


def test_eta_paper_rashba_hermitian_at_zero_coupling():
    eta = eta_paper_rashba(Momentum2(0.7, 1.1), PP, 0.0)
    assert frob_distance(eta, adjoint(eta)) <= 1e-12 * frob_norm(eta)


def test_eta_paper_scalar_values():
    eta = eta_paper_scalar(1.0, PP, 0.5)
    e = np.sqrt(1.75)
    assert eta[0, 1] == pytest.approx((2 * e - 1) / 0.75, abs=1e-12)
    assert eta[0, 1] == pytest.approx(2.1943350814194544, abs=1e-9)
    # potential off: real symmetric
    eta0 = eta_paper_scalar(1.3, PP, 0.0)
    assert np.max(np.abs(eta0.imag)) == 0.0
    assert eta0[0, 1] == eta0[1, 0]
    with pytest.raises(SingularDenominator):
        eta_paper_scalar(0.0, PP, 0.0)


# -------------------------------------------------------- diagonal metric


def test_eta_diag_rashba_values():
    assert np.array_equal(eta_diag_rashba(PP, 0.0), np.eye(2).astype(complex))
    eta = eta_diag_rashba(PP, 0.5)
    assert np.array_equal(eta, np.diag([1.5, 0.5]).astype(complex))
    assert np.linalg.eigvalsh(eta_diag_rashba(PP, 0.9).real).min() == pytest.approx(0.1)
    with pytest.raises(NotPositiveDefinite):
        eta_diag_rashba(PP, 1.0)
    with pytest.raises(NotPositiveDefinite):
        eta_diag_rashba(PP, -1.3)


def test_eta_diag_rashba_relation_exact():
    h = build_rashba(Momentum2(1, 0), PP, 0.5)
    eta = eta_diag_rashba(PP, 0.5)
    resid = frob_distance(eta @ h, adjoint(h) @ eta)
    assert resid <= 1e-14 * frob_norm(h)


# ------------------------------------------------------------ parity ops


def test_parity_matrix_values():
    assert np.array_equal(parity_matrix(1), np.diag([1.0, -1.0]).astype(complex))
    p = parity_matrix(2)
    assert np.allclose(p @ p, np.eye(4), atol=1e-14)


def test_rashba_parity_diagnostics():
    res = rashba_parity_residuals(Momentum2(1, 0), PP, 0.5)
    # conjugation by beta reproduces H(-k) exactly, not the adjoint
    assert res["parity_vs_reflected_k"] == 0.0
    assert res["parity_vs_adjoint"] > 0.1
    # with momentum reversal the defect is the 2*lam*p off-diagonal:
    # ||[[0, -2 lam p-], [2 lam p+, 0]]||_F / ||H||_F = sqrt(2)/sqrt(4.5) = 2/3
    assert res["parity_with_reversal_vs_adjoint"] == pytest.approx(2 / 3, abs=1e-14)
    res0 = rashba_parity_residuals(Momentum2(1, 0), PP, 0.0)
    # Hermitian limit: reversal-parity closes the adjoint relation, the
    # fixed-k conjugation still only yields H(-k)
    assert res0["parity_with_reversal_vs_adjoint"] <= 1e-14
    assert res0["parity_vs_adjoint"] == pytest.approx(np.sqrt(2), abs=1e-14)


def test_scalar_parity_with_momentum_reversal_exact():
    rng = np.random.default_rng(17)
    for _ in range(10):
        assert scalar_parity_residual(
            rng.uniform(-3, 3), PP, rng.uniform(-2, 2)
        ) <= 1e-14


def test_phys_params_validation():
    with pytest.raises(ValueError):
        PhysParams(m0=-1.0)
    with pytest.raises(ValueError):
        PhysParams(c=0.0)
    with pytest.raises(ValueError):
        PhysParams(hbar=-2.0)
