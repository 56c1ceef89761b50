import numpy as np
import pytest
from conftest import spectrum_gap
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudospec.errors import ConvergenceFailure, DimensionMismatch, NotHermitian
from pseudospec.linalg import (
    adjoint,
    eigendecompose,
    frob_distance,
    frob_norm,
    mat_exp,
    min_eig_hermitian_part,
)
from pseudospec.metric import make_metric


def two_by_two_traceless_eigs(m):
    # Oracle for [[a, b], [c, -a]]: eigenvalues +-sqrt(a^2 + bc).
    a, b, c = m[0][0], m[0][1], m[1][0]
    root = np.sqrt(complex(a * a + b * c))
    return np.array(sorted([root, -root], key=lambda z: (z.real, z.imag)))


def test_adjoint_real_antisymmetric():
    out = adjoint([[0, 1], [-1, 0]])
    assert np.array_equal(out, np.array([[0, -1], [1, 0]], dtype=complex))


def test_adjoint_conjugates_1x1():
    assert adjoint([[1j]])[0, 0] == -1j


def test_adjoint_is_involution():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert np.array_equal(adjoint(adjoint(a)), a)


def test_adjoint_reverses_products():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert frob_distance(adjoint(a @ b), adjoint(b) @ adjoint(a)) <= 1e-12


def test_eigendecompose_diagonal():
    es = eigendecompose(np.diag([3.0, 1.0]))
    assert np.allclose(es.values, [1.0, 3.0], atol=1e-14)


def test_eigendecompose_model_block_real_case():
    # traceless block with the same spectrum as the spin-orbit model at
    # coupling 0.5, unit momentum: +-sqrt(1.75)
    m = [[1.0, 0.75], [1.0, -1.0]]
    es = eigendecompose(m)
    expected = two_by_two_traceless_eigs(m)
    assert np.max(np.abs(es.values - expected)) < 1e-12
    assert abs(expected[1] - 1.3228756555322954) < 1e-12


def test_eigendecompose_imaginary_pair():
    # The traceless oracle gives +-0.5i for this matrix (coupling 1.5, not
    # 2: the lambda=2 block is [[1, -1], [3, -1]] with +-sqrt(2)i).
    m = [[1.0, -0.5], [2.5, -1.0]]
    es = eigendecompose(m)
    expected = two_by_two_traceless_eigs(m)
    assert spectrum_gap(es.values, expected) < 1e-12
    assert abs(expected[1] - 0.5j) < 1e-14

    es2 = eigendecompose([[1.0, -1.0], [3.0, -1.0]])
    expected2 = [-1.4142135623730951j, 1.4142135623730951j]
    assert spectrum_gap(es2.values, expected2) < 1e-10


def test_eigendecompose_residual_certificate():
    rng = np.random.default_rng(3)
    for n in (4, 16, 48):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        es = eigendecompose(a)
        scale = max(1.0, frob_norm(a))
        worst = np.linalg.norm(a @ es.vectors - es.vectors * es.values, axis=0).max()
        assert worst <= es.residual * scale + 1e-30
        assert es.residual <= 1e-10


def test_eigendecompose_sorted_by_re_then_im():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    vals = eigendecompose(a).values
    keys = [(v.real, v.imag) for v in vals]
    assert keys == sorted(keys)


def test_eigendecompose_hermitian_values_nearly_real():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    h = 0.5 * (a + a.conj().T)
    es = eigendecompose(h)
    assert np.max(np.abs(es.values.imag)) <= 1e-12 * max(1.0, frob_norm(h))


def test_eigendecompose_unreachable_tolerance_raises():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    with pytest.raises(ConvergenceFailure):
        eigendecompose(a, tol=1e-30)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_eigendecompose_rejects_bad_tolerance(tol):
    # NaN would otherwise pass the residual certificate silently
    with pytest.raises(ValueError):
        eigendecompose(np.eye(2), tol=tol)


def test_eigendecompose_dimension_cap():
    with pytest.raises(DimensionMismatch):
        eigendecompose(np.eye(1025))


def test_min_eig_identity():
    assert min_eig_hermitian_part(np.eye(4)) == pytest.approx(1.0)


def test_min_eig_diagonal_metric():
    # diag(c + lam, c - lam) at c=1, lam=0.5; oracle is the diagonal itself
    assert min_eig_hermitian_part(np.diag([1.5, 0.5])) == pytest.approx(0.5)


def test_min_eig_spectral_metric_block():
    # Frozen from the closed-form 2x2 eigenvalue oracle:
    # mean +- sqrt(((a-d)/2)^2 + b^2) for [[a, b], [b, d]].
    a, b, d = 1.4169947557416376, -0.4305008740430604, 1.0463327506379598
    mean = 0.5 * (a + d)
    disc = np.sqrt((0.5 * (a - d)) ** 2 + b * b)
    m = np.array([[a, b], [b, d]])
    assert min_eig_hermitian_part(m) == pytest.approx(mean - disc, abs=1e-12)
    assert min_eig_hermitian_part(m) == pytest.approx(0.7629649340, abs=1e-9)


def test_min_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        make_metric([[0.0, 1.0], [0.0, 0.0]])


def test_mat_exp_zero_and_diagonal():
    assert frob_distance(mat_exp(np.zeros((2, 2))), np.eye(2)) < 1e-14
    out = mat_exp(np.diag([1j * np.pi, 0.0]))
    assert frob_distance(out, np.diag([-1.0, 1.0])) < 1e-13


def test_mat_exp_group_inverse():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a *= 2.0 / max(1.0, np.linalg.norm(a, 2))
        assert frob_distance(mat_exp(a) @ mat_exp(-a), np.eye(2)) <= 1e-10


def test_mat_exp_commutes_with_adjoint():
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert frob_distance(mat_exp(adjoint(a)), adjoint(mat_exp(a))) <= 1e-10


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 4)])
def test_mat_exp_takes_2x2_only(shape):
    with pytest.raises(DimensionMismatch):
        mat_exp(np.zeros(shape))


_PART = st.floats(-3.5, 3.5)  # |entry| <= 3.5 * sqrt(2) < 5
_ENTRY = st.builds(complex, _PART, _PART)
_UNIT = st.sampled_from([1, -1, 1j, -1j])
_SMALL_INT = st.integers(-3, 3)


@st.composite
def _any_2x2(draw):
    return np.array([[draw(_ENTRY), draw(_ENTRY)], [draw(_ENTRY), draw(_ENTRY)]])


@st.composite
def _near_jordan(draw):
    """mu I + u [[pq, q^2], [eps - p^2, -pq]]: s^2 = u^2 q^2 eps, exactly 0 at eps = 0.

    Small integers, a unit u and a Gaussian-integer mu keep every entry,
    mu and A - mu I exact, so eps = 0 gives a nilpotent A - mu I.
    """
    p, q = draw(_SMALL_INT), draw(_SMALL_INT.filter(bool))
    mu = complex(draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
    eps = draw(st.one_of(st.just(0.0), st.floats(1e-13, 1e-11), st.floats(-1e-11, -1e-13)))
    return mu * np.eye(2) + draw(_UNIT) * np.array([[p * q, q * q], [eps - p * p, -p * q]])


_EXPONENT = st.one_of(_any_2x2(), _near_jordan())


@settings(max_examples=300, deadline=None)
@given(a=_EXPONENT)
def test_mat_exp_closed_form_identities(a):
    e, e_inv = mat_exp(a), mat_exp(-a)
    scale = frob_norm(e) * frob_norm(e_inv)
    assert frob_distance(e @ e_inv, np.eye(2)) <= 1e-14 * scale
    assert frob_distance(mat_exp(adjoint(a)), adjoint(e)) <= 1e-15 * frob_norm(e)
    det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
    assert abs(det - np.exp(np.trace(a))) <= 1e-14 * frob_norm(e) ** 2


@settings(max_examples=100, deadline=None)
@given(p=_SMALL_INT, q=_SMALL_INT, u=_UNIT, b=_ENTRY)
def test_mat_exp_of_a_nilpotent_block_is_exactly_identity_plus_block(p, q, u, b):
    for n in (np.array([[0, b], [0, 0]]), np.array([[0, 0], [b, 0]]),
              u * np.array([[p * q, q * q], [-p * p, -p * q]])):
        assert np.array_equal(mat_exp(n), np.eye(2) + n)


@settings(max_examples=300, deadline=None)
@given(a=_EXPONENT)
def test_mat_exp_matches_scipy_expm(a):
    scipy_linalg = pytest.importorskip("scipy.linalg")  # test-only reference
    ref = scipy_linalg.expm(a)
    assert frob_distance(mat_exp(a), ref) <= 1e-13 * frob_norm(ref)


def test_frob_distance_basics():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4))
    assert frob_distance(a, a) == 0.0
    assert frob_distance(np.eye(2), np.zeros((2, 2))) == pytest.approx(np.sqrt(2))
    b = rng.normal(size=(4, 4))
    assert frob_distance(a, b) == frob_distance(b, a)


def test_frob_distance_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        frob_distance(np.eye(2), np.eye(3))
