import numpy as np
import pytest

from pseudospec.errors import (
    ComplexSpectrum,
    DimensionMismatch,
    ExceptionalPoint,
    NotHermitian,
)
from pseudospec.linalg import (
    adjoint,
    eigendecompose,
    frob_distance,
    frob_norm,
    min_eig_hermitian_part,
)
from pseudospec.metric import (
    ALL_REAL,
    CONJUGATE_PAIRS,
    MIXED,
    check_metric,
    classify_spectrum,
    eta_inner,
    evolve,
    make_metric,
    spectral_metric,
)
from pseudospec.models import (
    Momentum2,
    PhysParams,
    build_rashba,
    build_scalar_const,
    eta_diag_rashba,
    eta_paper_rashba,
    eta_paper_scalar,
    rashba_adjoint_spinors,
    scalar_adjoint_spinors,
)

PP = PhysParams()
K10 = Momentum2(1, 0)


def spinor_outer_sum(spinors):
    return np.outer(spinors.u1, spinors.u1.conj()) + np.outer(
        spinors.u2, spinors.u2.conj()
    )


def test_spectral_metric_hermitian_limit_is_identity():
    h = build_rashba(Momentum2(0.7, -0.4), PP, 0.0)
    eta = spectral_metric(h, normalize=True)
    assert frob_distance(eta, np.eye(2)) <= 1e-12


def test_spectral_metric_matches_spinor_sum_rashba():
    h = build_rashba(K10, PP, 0.5)
    eta = spectral_metric(h, normalize=False)
    oracle = spinor_outer_sum(rashba_adjoint_spinors(K10, PP, 0.5))
    assert frob_distance(eta, oracle) <= 1e-12
    assert eta[0, 0].real == pytest.approx(1.4169947557416376, abs=1e-9)
    assert eta[0, 1].real == pytest.approx(-0.4305008740430604, abs=1e-9)
    assert eta[1, 1].real == pytest.approx(1.0463327506379598, abs=1e-9)
    report = check_metric(h, eta)
    assert report.verdict == "valid_metric"
    assert report.relation_residual <= 1e-12
    assert report.min_eig == pytest.approx(0.7629649340546224, abs=1e-9)


def test_spectral_metric_matches_spinor_sum_scalar():
    h = build_scalar_const(1.0, PP, 0.5)
    eta = spectral_metric(h, normalize=False)
    oracle = spinor_outer_sum(scalar_adjoint_spinors(1.0, PP, 0.5))
    assert frob_distance(eta, oracle) <= 1e-12


def test_spectral_metric_rejects_broken_regime():
    with pytest.raises(ComplexSpectrum):
        spectral_metric(build_rashba(K10, PP, 2.0))


def test_spectral_metric_rejects_near_exceptional_point():
    with pytest.raises(ExceptionalPoint):
        spectral_metric(np.array([[0.0, 1.0], [1e-18, 0.0]]))


def test_spectral_metric_any_positive_weights_work():
    # the relation and positive definiteness survive arbitrary positive
    # weights in the outer-product sum
    rng = np.random.default_rng(20)
    h = build_rashba(Momentum2(0.8, 0.5), PP, 0.6)
    es = eigendecompose(adjoint(h))
    for _ in range(5):
        w = rng.uniform(0.1, 10.0, size=2)
        eta = es.vectors @ np.diag(w) @ es.vectors.conj().T
        rep = check_metric(h, eta)
        assert rep.verdict == "valid_metric"


def test_check_metric_identity_on_hermitian():
    h = np.array([[2.0, 1j], [-1j, 0.5]])
    rep = check_metric(h, np.eye(2))
    assert rep.verdict == "valid_metric"
    assert rep.relation_residual <= 1e-15
    assert rep.min_eig == pytest.approx(1.0)


def test_check_metric_diagonal_metric():
    h = build_rashba(K10, PP, 0.5)
    rep = check_metric(h, eta_diag_rashba(PP, 0.5), 1e-14)
    assert rep.verdict == "valid_metric"
    assert rep.relation_residual <= 1e-14


def test_check_metric_adjudicates_printed_forms():
    # Model-I printed candidate: satisfies the relation but is exactly
    # singular, so it is not positive definite (min_eig is 0 up to
    # rounding and the verdict sits on the boundary).
    h = build_rashba(K10, PP, 0.5)
    rep = check_metric(h, eta_paper_rashba(K10, PP, 0.5))
    assert rep.relation_residual <= 1e-12
    assert abs(rep.min_eig) <= 1e-12
    assert rep.hermiticity_residual <= 1e-12
    # Model-II printed candidate: positive definite but the relation fails
    # by a large margin.
    h2 = build_scalar_const(1.0, PP, 0.5)
    rep2 = check_metric(h2, eta_paper_scalar(1.0, PP, 0.5))
    assert rep2.verdict == "relation_violated"
    assert rep2.relation_residual > 1e-3
    assert rep2.min_eig > 0


def test_check_metric_never_raises_on_bad_metric():
    h = build_rashba(K10, PP, 0.5)
    rep = check_metric(h, np.diag([1.0, -2.0]))
    assert rep.verdict in ("indefinite", "relation_violated")


def test_check_metric_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        check_metric(np.eye(2), np.eye(3))


def test_make_metric_enforces_hermiticity():
    with pytest.raises(NotHermitian, match="metric candidate not Hermitian"):
        make_metric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    m = make_metric(np.diag([2.0, 3.0]))
    assert m.dtype == np.complex128
    assert frob_distance(m, np.diag([2.0, 3.0])) == 0.0


def test_metric_non_uniqueness():
    h = build_rashba(K10, PP, 0.5)
    eta1 = eta_diag_rashba(PP, 0.5)
    eta2 = spectral_metric(h)
    for eta in (eta1, eta2):
        assert check_metric(h, eta).verdict == "valid_metric"
    n1 = eta1 / np.trace(eta1).real
    n2 = eta2 / np.trace(eta2).real
    assert frob_distance(n1, n2) > 1e-6


def test_eta_inner_identity_is_standard_product():
    rng = np.random.default_rng(21)
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    g = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert eta_inner(f, g, np.eye(3)) == pytest.approx(np.vdot(f, g))


def test_eta_inner_hermitian_quadratic_form_is_real():
    rng = np.random.default_rng(22)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    eta = a + a.conj().T
    for _ in range(10):
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        val = eta_inner(f, f, eta)
        assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))


def test_eta_inner_norm_positive_for_pd_metric():
    rng = np.random.default_rng(23)
    h = build_scalar_const(0.8, PP, 0.4)
    eta = spectral_metric(h)
    assert min_eig_hermitian_part(eta) > 0
    for _ in range(100):
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert eta_inner(f, f, eta).real > 0


def test_eta_inner_orthogonality_of_nondegenerate_eigenvectors():
    h = build_rashba(K10, PP, 0.5)
    eta = spectral_metric(h)
    es = eigendecompose(h)
    assert abs(eta_inner(es.vectors[:, 0], es.vectors[:, 1], eta)) <= 1e-10
    # also under the diagonal metric: any valid metric works
    assert abs(eta_inner(es.vectors[:, 0], es.vectors[:, 1], eta_diag_rashba(PP, 0.5))) <= 1e-10


def test_eta_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        eta_inner(np.ones(2), np.ones(3), np.eye(2))


def test_classify_all_real():
    assert classify_spectrum([1.0, -1.0]) == ALL_REAL


def test_classify_conjugate_pairs_with_real_selfpair():
    assert classify_spectrum([2 + 3j, 2 - 3j, 0.5]) == CONJUGATE_PAIRS


def test_classify_mixed():
    assert classify_spectrum([1j, 2j]) == MIXED
    assert classify_spectrum([1.0, 0.3 + 1j]) == MIXED


def test_classify_conjugation_invariance():
    rng = np.random.default_rng(24)
    for _ in range(20):
        vals = rng.normal(size=6) + 1j * rng.normal(size=6)
        vals[rng.integers(0, 6)] = vals[0].conjugate()
        kind = classify_spectrum(vals, 1e-8)
        assert classify_spectrum(np.conj(vals), 1e-8) == kind


def test_evolve_basics():
    h = build_rashba(K10, PP, 0.5)
    assert frob_distance(evolve(h, 0.0, PP), np.eye(2)) <= 1e-14
    h0 = build_rashba(Momentum2(0.9, 0.2), PP, 0.0)
    u = evolve(h0, 2.0, PP)
    assert frob_distance(u.conj().T @ u, np.eye(2)) <= 1e-10


def test_evolve_takes_2x2_blocks_only():
    with pytest.raises(DimensionMismatch):
        evolve(np.eye(4), 1.0, PP)


def test_evolve_pseudo_unitarity():
    h = build_rashba(K10, PP, 0.5)
    eta = spectral_metric(h)
    scale = frob_norm(eta)
    for t in (0.1, 1.0, 10.0):
        u = evolve(h, t, PP)
        assert frob_distance(u.conj().T @ eta @ u, eta) <= 1e-8 * scale
