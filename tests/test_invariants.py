"""Physics invariants over random parameters (hypothesis).

The 2x2 blocks are drawn over (m0, c, hbar, lambda or V0, k): their
spectra pair as +-E, and below the reality threshold the spectral metric
satisfies eta H = H^dag eta and is positive definite.  The grid operators
are drawn over small grids (N <= 32, both schemes, both boundary kinds)
and the four potential families, sampled values included: the derivative
reflects odd bit for bit, the Dirac spectrum pairs as +-E, and it equals
the spectrum mapped from the N x N reduced operator.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import spectrum_gap
from pseudospec.grid import (
    CENTRAL2,
    DIRICHLET,
    FOURIER,
    PERIODIC,
    PotentialSpec,
    build_dirac_grid,
    build_reduced,
    derivative_matrix,
    make_grid,
    reduction_identity_mismatch,
    reflection_permutation,
)
from pseudospec.linalg import eigendecompose
from pseudospec.metric import VALID_METRIC, check_metric, spectral_metric
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
def _grid_cases(draw):
    """(potential, grid, physical parameters, scheme) on a small grid."""
    scheme, bc = draw(st.sampled_from([(CENTRAL2, PERIODIC), (CENTRAL2, DIRICHLET),
                                       (FOURIER, PERIODIC)]))
    n = draw(st.integers(8, 32))
    if bc == DIRICHLET and n % 2 == 0:
        n += 1 if n < 32 else -1
    grid = make_grid(draw(st.floats(1.0, 5.0)), n, bc)
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
    pp = PhysParams(m0=draw(st.floats(0.0, 2.0)), c=draw(_UNIT), hbar=draw(_UNIT))
    return spec, grid, pp, scheme


@settings(max_examples=100, deadline=None)
@given(_grid_cases())
def test_grid_invariants(case):
    spec, grid, pp, scheme = case
    d = derivative_matrix(grid, scheme)
    perm = reflection_permutation(grid)
    assert np.array_equal(d[np.ix_(perm, perm)], -d)
    dirac = eigendecompose(build_dirac_grid(spec, grid, pp, scheme)).values
    # at E = 0 (e.g. V0 = m0 c^2 on the p = 0 mode) H has a Jordan block, and
    # its computed eigenvalues are off by about sqrt(rounding) = 1e-8
    assume(np.min(np.abs(dirac)) > 1e-4)
    reduced = eigendecompose(build_reduced(spec, grid, pp, scheme)).values
    assert spectrum_gap(dirac, -dirac) <= 1e-8
    assert reduction_identity_mismatch(dirac, reduced, pp) <= 1e-8
