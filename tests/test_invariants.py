"""Physics invariants over random parameters (hypothesis).

The 2x2 blocks are drawn over (m0, c, hbar, lambda or V0, k): their
spectra pair as +-E, and below the reality threshold the spectral metric
satisfies eta H = H^dag eta and is positive definite.  The grid operators
are drawn over small grids (N <= 32, both schemes, both boundary kinds)
and the four potential families, sampled values included: the derivative
reflects odd bit for bit, the Dirac spectrum pairs as +-E, and it equals
the spectrum mapped from the N x N reduced operator.  ``solve_dirac``
returns a spectrum closed under negation and conjugation bit for bit,
certified against the 2N operator (its certificate is the dense
||Hv - Ev|| / max(1, ||H||_F) to rounding), from one real N x N solve, and
``solve_reduced`` the reduced spectrum, closed under conjugation bit for
bit and certified against the complex reduced operator.  That solve is of
A = R+ R, where R+- are the real blocks in the reflection basis, and the
identity R R+ R = -R- it rests on holds bit for bit.  ``solve_pair``
solves A once: its Dirac values are ``solve_dirac``'s bit for bit, and
they match the complex 2N solve to rounding x ||H||_F wherever that is
well conditioned, and its witness, the eigenvalues of the real part of
Q^dag U Q for the N x N U, meets A's eps to rounding x ||U||_F wherever U
is, with an imaginary part of rounding x ||U||_F.  Its ``analytic_U``
values come from a real solve too, closed under conjugation bit for bit.  Over
gaussian and cosine shapes on grids of N <= 64, ``first_order_split``
finds a split level only where the reduced spectrum at g = 1e-9 is already
not all real, so a sweep that reports its threshold at g = 0 agrees with
what a threshold search from 0 would find.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import certified_solve, dense_residual, spectrum_gap
from pseudospec import grid as gridmod
from pseudospec.grid import (
    CENTRAL2,
    DIRICHLET,
    FOURIER,
    PERIODIC,
    PotentialSpec,
    build_dirac_grid,
    build_reduced,
    derivative_matrix,
    first_order_split,
    make_grid,
    reduction_identity_mismatch,
    reflection_permutation,
    solve_dirac,
    solve_pair,
    solve_reduced,
)
from pseudospec.cli import BISECT_RTOL
from pseudospec.linalg import DEFAULT_TOL, eigendecompose, frob_norm
from pseudospec.metric import (
    ALL_REAL,
    VALID_METRIC,
    check_metric,
    classify_spectrum,
    spectral_metric,
)
from pseudospec.models import Momentum2, PhysParams, build_rashba, build_scalar_const

_UNIT = st.floats(0.5, 2.0)
_K = st.floats(-5.0, 5.0)


@st.composite
def _blocks(draw, frac):
    """A 2x2 block whose coupling is frac times its reality threshold."""
    pp = PhysParams(m0=draw(st.floats(0.0, 2.0)), c=draw(_UNIT), hbar=draw(_UNIT))
    ratio = draw(frac)
    kx, ky = draw(_K), draw(_K)
    if draw(st.booleans()):
        k = Momentum2(kx, ky)
        # lambda* = sqrt(c^2 + m0^2 c^4 / (hbar^2 k^2)), infinite at k = 0
        k_sq = max(k.k_sq, 1e-6)
        star = math.sqrt(pp.c**2 + pp.rest_energy**2 / (pp.hbar**2 * k_sq))
        return build_rashba(k, pp, ratio * star)
    # V0* = sqrt(hbar^2 c^2 kx^2 + m0^2 c^4)
    star = math.sqrt((pp.hbar * pp.c * kx) ** 2 + pp.rest_energy**2)
    return build_scalar_const(kx, pp, ratio * star)


@settings(max_examples=200, deadline=None)
@given(_blocks(st.floats(0.0, 3.0)))
def test_block_spectrum_pairs_as_plus_minus_e(h):
    values = eigendecompose(h).values
    assert abs(values[0] + values[1]) <= 1e-12 * max(1.0, abs(values[1]))


@settings(max_examples=200, deadline=None)
@given(_blocks(st.floats(0.0, 0.9)))
def test_block_spectral_metric_holds_below_threshold(h):
    # E = 0 is an exceptional point, not a regime with a metric
    assume(abs(eigendecompose(h).values[1]) > 1e-3)
    report = check_metric(h, spectral_metric(h))
    assert report.relation_residual <= 1e-10
    assert report.min_eig > 0
    assert report.verdict == VALID_METRIC


@st.composite
def _grids(draw, n_max):
    """(grid, scheme): central2 periodic or dirichlet, or fourier, N = 8..n_max."""
    scheme, bc = draw(st.sampled_from([(CENTRAL2, PERIODIC), (CENTRAL2, DIRICHLET),
                                       (FOURIER, PERIODIC)]))
    n = draw(st.integers(8, n_max))
    if bc == DIRICHLET and n % 2 == 0:
        n += 1 if n < n_max else -1
    return make_grid(draw(st.floats(1.0, 5.0)), n, bc), scheme


@st.composite
def _grid_cases(draw, m0=st.floats(0.0, 2.0)):
    """(potential, grid, physical parameters, scheme) on a small grid."""
    grid, scheme = draw(_grids(32))
    n = grid.n_points
    amplitude = draw(st.floats(-2.0, 2.0))
    family = draw(st.sampled_from(["constant", "cosine", "gaussian", "samples"]))
    if family == "constant":
        spec = PotentialSpec.constant(amplitude)
    elif family == "cosine":
        spec = PotentialSpec.cosine(amplitude, draw(st.integers(1, 3)))
    elif family == "gaussian":
        spec = PotentialSpec.gaussian(amplitude, draw(st.floats(0.2, 2.0)))
    else:
        raw = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        even = amplitude * 0.5 * (raw + raw[reflection_permutation(grid)])
        spec = PotentialSpec.samples(grid.points, even)
    pp = PhysParams(m0=draw(m0), c=draw(_UNIT), hbar=draw(_UNIT))
    return spec, grid, pp, scheme


def _first_order_errors(es, a) -> np.ndarray:
    """rounding x ||A||_F x 1/|y^H x| for each eigenvalue of one solve.

    The columns x of ``es.vectors`` have unit norm, and the rows of their
    inverse are the left eigenvectors y^H scaled to y^H x = 1, so the row
    norms are the eigenvalue condition numbers.  An exceptional point makes
    them blow up (Trefethen & Embree, Spectra and Pseudospectra, 2005).
    """
    try:
        kappa = np.linalg.norm(np.linalg.inv(es.vectors), axis=1)
    except np.linalg.LinAlgError:
        return np.full(len(es.values), np.inf)
    return np.finfo(float).eps * np.linalg.norm(a) * kappa


def _well_conditioned(h, dirac, u, reduced, pp) -> bool:
    """Whether both solves of a grid case promise eigenvalues to 1e-9.

    The reduced values enter through E = sqrt(eps + (m0 c^2)^2), which
    scales an error of eps by 1 / 2|E|.
    """
    mapped = np.abs(np.sqrt(reduced.values + pp.rest_energy**2))
    with np.errstate(divide="ignore"):
        reduced_errors = _first_order_errors(reduced, u) / (2 * mapped)
    return max(_first_order_errors(dirac, h).max(), reduced_errors.max()) <= 1e-9


# An exceptional point away from E = 0: two levels meet at E = +-0.125 with
# condition number 1.3e8, and the 2N solve is off by 2.2e-8 there.
_NEAR_EP = (PotentialSpec.cosine(1.0, 1), make_grid(1.0, 8, PERIODIC),
            PhysParams(m0=0.5, c=0.5, hbar=0.5), CENTRAL2)


@settings(max_examples=100, deadline=None)
@given(_grid_cases())
@example(_NEAR_EP)
def test_grid_invariants(case):
    spec, grid, pp, scheme = case
    d = derivative_matrix(grid, scheme)
    perm = reflection_permutation(grid)
    assert np.array_equal(d[np.ix_(perm, perm)], -d)
    h, u = build_dirac_grid(spec, grid, pp, scheme), build_reduced(spec, grid, pp, scheme)
    dirac, reduced = eigendecompose(h), eigendecompose(u)
    # near an exceptional point (E = 0 with V0 = m0 c^2 on the p = 0 mode, or
    # two levels meeting elsewhere) the computed values are off by about
    # sqrt(rounding) = 1e-8, and near E = 0 the map amplifies eps's error
    assume(_well_conditioned(h, dirac, u, reduced, pp))
    assert spectrum_gap(dirac.values, -dirac.values) <= 1e-8
    assert reduction_identity_mismatch(dirac.values, reduced.values, pp) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(_grid_cases())
def test_the_real_blocks_reflect_into_each_other(case):
    # R+- = K +- V are the real blocks Q^dag (cP +- V) Q; R R+ R = -R- bit for
    # bit makes R+ R- = -A^2, with A = R+ R the matrix both real routes solve
    spec, grid, pp, scheme = case
    perm = reflection_permutation(grid)
    d, v = gridmod._gated(spec, grid, scheme)
    y = -(pp.c * pp.hbar) * d
    # the gate's V is exactly even, and R Y R = -Y by construction of D
    assert np.array_equal(v, v[perm])
    assert np.array_equal(y[np.ix_(perm, perm)], -y)
    k = -0.5 * (y[perm] - y[:, perm])
    plus, minus = k + np.diag(v), k - np.diag(v)
    assert np.array_equal(plus[np.ix_(perm, perm)], -minus)
    assert np.array_equal(gridmod._root_matrix(y, v, perm, np.empty_like(y)), plus[:, perm])
    n = grid.n_points
    q = 0.5 * ((1 + 1j) * np.eye(n) + (1 - 1j) * np.eye(n)[perm])
    for block, sign in ((plus, 1), (minus, -1)):
        rotated = q.conj().T @ (1j * y + sign * np.diag(v)) @ q
        assert np.abs(rotated - block).max() <= 1e-14 * max(1.0, np.abs(block).max())


@settings(max_examples=100, deadline=None)
@given(_grid_cases())
@example((PotentialSpec.cosine(1.0, 1), make_grid(math.pi, 32, PERIODIC),
          PhysParams(m0=0.0), FOURIER))
# an exact zero eigenvalue of A at m0 = 0, where s + m0 c^2 = 0
@example((PotentialSpec.constant(0.0), make_grid(3.6752967764632216, 11, DIRICHLET),
          PhysParams(m0=0.0, c=1.964846077550007, hbar=1.5549686171721004), CENTRAL2))
def test_solve_dirac_takes_the_real_route(case):
    spec, grid, pp, scheme = case
    values, solved, vectors, blockwise = certified_solve(solve_dirac, spec, grid, pp, scheme)
    h, u = build_dirac_grid(spec, grid, pp, scheme), build_reduced(spec, grid, pp, scheme)
    dense = dense_residual(h, vectors, values)
    assert dense <= DEFAULT_TOL
    # the blockwise, real certificate is the dense one to rounding
    assert abs(blockwise - dense) <= 1e-15
    # every drawn potential is exactly even, m0 = 0 included: one real solve of A
    assert solved == [(u.shape, np.float64)]
    ordered = np.sort_complex(values)
    assert np.array_equal(ordered, np.sort_complex(-values))
    assert np.array_equal(ordered, np.sort_complex(values.conj()))
    dirac, reduced = eigendecompose(h), eigendecompose(u)
    if _well_conditioned(h, dirac, u, reduced, pp):
        assert spectrum_gap(values, dirac.values) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(_grid_cases())
def test_solve_reduced_takes_the_real_route(case):
    spec, grid, pp, scheme = case
    values, solved, vectors, blockwise = certified_solve(solve_reduced, spec, grid, pp, scheme)
    u = build_reduced(spec, grid, pp, scheme)
    # every drawn potential is exactly even, so the blocks are exactly real
    assert solved == [(u.shape, np.float64)]
    # certified against U applied by its blocks, the dense U to rounding
    dense = dense_residual(u, vectors, values)
    assert dense <= DEFAULT_TOL
    assert abs(blockwise - dense) <= 1e-15
    ordered = np.sort_complex(values)
    assert np.array_equal(ordered, np.sort_complex(values.conj()))
    reduced = eigendecompose(u)
    if _first_order_errors(reduced, u).max() <= 1e-9:
        assert spectrum_gap(values, reduced.values) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(_grid_cases())
@example(_NEAR_EP)
def test_solve_pair_matches_the_complex_2n_solve(case):
    spec, grid, pp, scheme = case
    with mock.patch.object(gridmod, "eigendecompose", wraps=eigendecompose) as solves, \
         mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as witnessed:
        _, _, u, dirac, reduced, mismatch = solve_pair(spec, grid, pp, scheme)
    # every drawn potential is exactly even: one real N solve of A, whose
    # pairs give the Dirac values and eps, and the values alone of the real
    # part of Q^dag U Q for the N x N U
    n = grid.n_points
    assert [(c.args[0].shape, c.args[0].dtype) for c in solves.call_args_list] == [
        ((n, n), np.float64)]
    assert np.array_equal(dirac, solve_dirac(spec, grid, pp, scheme))
    assert u.tobytes() == build_reduced(spec, grid, pp, scheme).tobytes()
    (call,) = witnessed.call_args_list
    witness, imag = gridmod._rotated(u, reflection_permutation(grid))
    assert call.args[0].dtype == np.float64
    assert call.args[0].tobytes() == witness.tobytes()
    # the witness is held to A's eps in eps space, relative to ||U||_F, where
    # both carry rounding x ||U||_F away from exceptional points of U, and
    # the imaginary part of Q^dag U Q, rounding too, counts as a gap
    u_scale = max(1.0, frob_norm(u))
    assert imag <= 1e-14 * u_scale
    assert mismatch == max(gridmod._nearest_gap(np.linalg.eigvals(witness), reduced,
                                                frob_norm(u)), imag / u_scale)
    if _first_order_errors(eigendecompose(u), u).max() <= 1e-13 * u_scale:
        assert mismatch <= 1e-12
    h = build_dirac_grid(spec, grid, pp, scheme)
    dense = eigendecompose(h)
    scale = max(1.0, frob_norm(h))
    # away from exceptional points of H, where every solve promises rounding x ||H||_F
    if _first_order_errors(dense, h).max() <= 1e-13 * scale:
        assert spectrum_gap(dirac / scale, dense.values / scale) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(_grid_cases())
def test_solve_pair_solves_analytic_u_in_real_arithmetic(case):
    # the analytic U's values come from the real part of Q^dag U Q, closed
    # under conjugation bit for bit, and match zgeev of U to rounding x
    # ||U||_F wherever that solve is well conditioned
    spec, grid, pp, scheme = case
    assume(spec.family != "samples")  # no closed-form V'
    with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as solves:
        _, _, u, _, reduced, _ = solve_pair(spec, grid, pp, scheme, gridmod.ANALYTIC_U)
    assert all(c.args[0].dtype == np.float64 for c in solves.call_args_list)
    ordered = np.sort_complex(reduced)
    assert np.array_equal(ordered, np.sort_complex(reduced.conj()))
    dense = eigendecompose(u)
    scale = max(1.0, frob_norm(u))
    if _first_order_errors(dense, u).max() <= 1e-13 * scale:
        assert spectrum_gap(reduced / scale, dense.values / scale) <= 1e-12


@st.composite
def _g_sweeps(draw):
    """(potential, grid, physical parameters, scheme) of a grid g sweep, N = 8..64."""
    grid, scheme = draw(_grids(64))
    if draw(st.booleans()):
        spec = PotentialSpec.cosine(1.0, draw(st.integers(1, 3)))
    else:
        spec = PotentialSpec.gaussian(1.0, draw(st.floats(0.2, 2.0)))
    pp = PhysParams(m0=draw(st.floats(0.0, 2.0)), c=draw(_UNIT), hbar=draw(_UNIT))
    return spec, grid, pp, scheme


# Cosine mode 1 on central2 dirichlet N = 15: its first-order split is what
# makes a threshold search from g = 0 end at its floor (4.77e-10 over [0, 1]).
_COS_DIRICHLET = (PotentialSpec.cosine(1.0, 1), make_grid(math.pi, 15, DIRICHLET),
                  PhysParams(), CENTRAL2)
# Cosine mode 1 on the periodic ring couples no +-k pair: beta is rounding,
# about 1e-14 x c hbar ||S||_F, and the rule must not fire.
_COS_PERIODIC = (PotentialSpec.cosine(1.0, 1), make_grid(math.pi, 64, PERIODIC),
                 PhysParams(), FOURIER)


@settings(max_examples=100, deadline=None)
@given(_g_sweeps())
@example(_COS_DIRICHLET)
@example(_COS_PERIODIC)
def test_a_first_order_split_shows_at_the_bisection_stop_width(case):
    # where the rule reports a threshold of 0, the reduced spectrum at
    # g = 1e-9 is already not all real, so a threshold search from 0 would
    # end within its stop width of 0
    spec, grid, pp, scheme = case
    split = first_order_split(spec, grid, pp, scheme, DEFAULT_TOL, BISECT_RTOL)
    values = solve_reduced(replace(spec, g=BISECT_RTOL), grid, pp, scheme)
    if len(split):
        assert classify_spectrum(values, DEFAULT_TOL) != ALL_REAL
    assert np.all(np.diff(split) > 0)


@pytest.mark.parametrize("case, fires", [(_COS_DIRICHLET, True), (_COS_PERIODIC, False)])
def test_the_first_order_rule_fires_where_a_level_splits(case, fires):
    assert (len(first_order_split(*case, DEFAULT_TOL, BISECT_RTOL)) > 0) is fires
