import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("values", [
    [math.inf],
    [1.0, -math.inf],
    [math.nan, 1.0],
    [complex(1, math.inf), complex(1, -math.inf)],
    [complex(math.nan, 1), complex(math.nan, -1)],
    [2 + 3j, 2 - 3j, complex(0.5, math.nan)],
])
def test_classify_refuses_non_finite_values(values):
    # an inf spectrum read all_real, and a NaN one mixed, with no error
    with pytest.raises(ValueError, match="spectrum values must be finite, got .*(inf|nan)"):
        classify_spectrum(values)


def test_classify_conjugation_invariance():
    rng = np.random.default_rng(24)
    for _ in range(20):
        vals = rng.normal(size=6) + 1j * rng.normal(size=6)
        vals[rng.integers(0, 6)] = vals[0].conjugate()
        kind = classify_spectrum(vals, 1e-8)
        assert classify_spectrum(np.conj(vals), 1e-8) == kind


def _classify_by_loop(values, tol=1e-8):
    """classify_spectrum's conjugate pairing as a pure-Python greedy loop.

    The reference for the pairing: values sorted by (Re, |Im|),
    each unmatched one paired with the nearest unmatched conjugate, ties to
    the lowest index (the ascending iteration over a set of small ints).
    """
    vals = np.asarray(values, dtype=np.complex128).ravel()
    is_real = np.abs(vals.imag) <= tol * np.maximum(1.0, np.abs(vals))
    if np.all(is_real):
        return ALL_REAL
    order = sorted(range(len(vals)), key=lambda i: (vals[i].real, abs(vals[i].imag)))
    unmatched = set(order)
    for i in order:
        if i not in unmatched:
            continue
        unmatched.discard(i)
        if is_real[i]:
            continue
        best_j, best_d = -1, np.inf
        for j in sorted(unmatched):
            d = abs(vals[i] - np.conj(vals[j]))
            if d < best_d:
                best_j, best_d = j, d
        if best_j < 0 or not best_d <= tol * max(1.0, abs(vals[i])):
            return MIXED
        unmatched.discard(best_j)
    return CONJUGATE_PAIRS


# Eighths are exact in binary, so distances tie exactly; the small
# imaginary parts straddle the default tol's reality cut.
_EIGHTHS = st.integers(-6, 6).map(lambda k: k / 8)
_NEAR_REAL = st.sampled_from([0.0, 5e-9, -5e-9, 1e-8, -1e-8, 1.5e-8, -1.5e-8, 3e-8])
_VALUE = st.one_of(
    st.builds(complex, _EIGHTHS, _EIGHTHS),
    st.builds(complex, _EIGHTHS, _NEAR_REAL),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_VALUE, max_size=20), st.lists(_VALUE, max_size=6), st.randoms(),
       st.sampled_from([1e-8, 3 / 32, 1 / 8, 1 / 4]))
# -1 + 1j sits at 1/8 from the conjugates of both -7/8 - 1j and -1 - 9/8j;
# taking the lower index leaves -1 - 9/8j without a partner
@example([], [-1 + 1j, -0.875 - 1j, -1 - 1.125j, -0.875 + 1j], None, 3 / 32)
# 0.25 + 5e-9j is real, and paired with itself before 0.5 + 1e-8j is visited
@example([], [-0.625 - 0.25j, -0.375 - 0.375j, -0.375 + 0.25j, 0.5 + 1e-8j, 0.25 + 5e-9j],
         None, 1 / 4)
def test_classify_pairs_as_the_greedy_loop(paired, loose, rnd, tol):
    values = paired + [v.conjugate() for v in paired] + loose
    if rnd is not None:
        rnd.shuffle(values)
    expected = _classify_by_loop(values, tol)
    assert classify_spectrum(values, tol) == expected


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
