import functools
import json
import math
import pathlib
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hyp

from conftest import (certified_solve, dense_residual, reference_pairs, spectrum_gap,
                      sweep_solves)
from pseudospec import grid as gridmod
from pseudospec.cli import BISECT_RTOL, EXIT_SOLVER, SPARE_SOLVES, main
from pseudospec.errors import (
    AsymmetricGrid,
    ConvergenceFailure,
    DimensionMismatch,
    NoAnalyticDerivative,
    OddPotential,
    PseudospecError,
    SampleGridMismatch,
    SchemeBoundaryMismatch,
)
from pseudospec.grid import (
    ANALYTIC_U,
    CENTRAL2,
    DIRICHLET,
    FOURIER,
    PERIODIC,
    PRODUCT_EXACT,
    PotentialSpec,
    assemble_dirac_blocks,
    build_dirac_grid,
    build_reduced,
    convergence_study,
    derivative_matrix,
    grid_parity_residual,
    make_grid,
    reduced_to_dirac_energies,
    reduction_identity_mismatch,
    reflection_conjugation_residual,
    reflection_permutation,
    solve_dirac,
    solve_pair,
    solve_reduced,
)
from pseudospec.linalg import (
    PANEL,
    EigenSystem,
    certify,
    eigendecompose,
    frob_distance,
    frob_norm,
)
from pseudospec.metric import ALL_REAL, CONJUGATE_PAIRS, classify_spectrum
from pseudospec.models import PhysParams

PP = PhysParams()


def fourier_mode_wavenumbers(n: int, half_length: float) -> np.ndarray:
    # Analytic spectrum of the trigonometric differentiation matrix for
    # even n: i*k with k = pi*j/L for j = -(n/2-1)..(n/2-1), plus a second
    # zero from the sawtooth mode.
    base = np.array(
        [0.0, 0.0]
        + [s * j * math.pi / half_length for j in range(1, n // 2) for s in (1, -1)]
    )
    return base


def dispersion_multiset(ks: np.ndarray, v0: float) -> np.ndarray:
    roots = np.sqrt((1.0 - v0 * v0 + ks * ks).astype(complex))
    vals = np.concatenate([roots, -roots])
    return vals[np.lexsort((vals.imag, vals.real))]


# ------------------------------------------------------------------ grids


def test_make_grid_periodic_points():
    g = make_grid(math.pi, 8)
    expected = -math.pi + np.arange(8) * (2 * math.pi / 8)
    assert np.allclose(g.points, expected, atol=1e-15)
    assert g.points[0] == -math.pi


def test_make_grid_reflection_is_exact_permutation():
    for n, bc in ((12, "periodic"), (9, DIRICHLET), (27, DIRICHLET)):
        g = make_grid(1.7, n, bc)
        perm = reflection_permutation(g)
        if bc == DIRICHLET:
            assert np.array_equal(g.points[perm], -g.points)
        else:
            # the -L endpoint is its own image under the periodic
            # identification -L == +L; every interior point reflects exactly
            assert perm[0] == 0
            assert np.array_equal(g.points[perm][1:], -g.points[1:])
        assert np.array_equal(perm[perm], np.arange(n))


def test_make_grid_dirichlet_center():
    g = make_grid(1.0, 9, DIRICHLET)
    assert g.points[4] == 0.0
    assert np.allclose(g.points, np.arange(-4, 5) * 0.2, atol=1e-15)


def test_make_grid_validation():
    with pytest.raises(AsymmetricGrid):
        make_grid(-1.0, 16)
    with pytest.raises(AsymmetricGrid):
        make_grid(1.0, 4)
    with pytest.raises(AsymmetricGrid):
        make_grid(1.0, 16, DIRICHLET)
    with pytest.raises(AsymmetricGrid):
        make_grid(1.0, 16, "absorbing")


# ------------------------------------------------------- derivative matrix


def test_derivative_annihilates_constants():
    g = make_grid(math.pi, 16)
    for scheme in (CENTRAL2, FOURIER):
        d = derivative_matrix(g, scheme)
        assert np.max(np.abs(d @ np.ones(16))) <= 1e-13


def test_fourier_derivative_exact_on_band_limited():
    g = make_grid(math.pi, 16)
    d = derivative_matrix(g, FOURIER)
    assert np.max(np.abs(d @ np.sin(g.points) - np.cos(g.points))) <= 1e-12
    # odd N works too
    g17 = make_grid(math.pi, 17)
    d17 = derivative_matrix(g17, FOURIER)
    assert np.max(np.abs(d17 @ np.sin(2 * g17.points) - 2 * np.cos(2 * g17.points))) <= 1e-12
    # non-unit half-length
    g2 = make_grid(2.0, 16)
    d2 = derivative_matrix(g2, FOURIER)
    w = math.pi / 2.0
    assert np.max(np.abs(d2 @ np.sin(w * g2.points) - w * np.cos(w * g2.points))) <= 1e-12


def test_central2_second_order_error_ratio():
    errs = []
    for n in (32, 64):
        g = make_grid(math.pi, n)
        d = derivative_matrix(g, CENTRAL2)
        errs.append(np.max(np.abs(d @ np.sin(g.points) - np.cos(g.points))))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.4)


def test_derivative_antisymmetry_and_reflection_exact():
    for n, bc, scheme in (
        (16, "periodic", FOURIER),
        (17, "periodic", FOURIER),
        (16, "periodic", CENTRAL2),
        (9, DIRICHLET, CENTRAL2),
    ):
        g = make_grid(1.3, n, bc)
        d = derivative_matrix(g, scheme)
        assert np.array_equal(d, -d.T)
        perm = reflection_permutation(g)
        assert np.array_equal(d[np.ix_(perm, perm)], -d)


def test_fourier_requires_periodic():
    g = make_grid(1.0, 9, DIRICHLET)
    with pytest.raises(SchemeBoundaryMismatch):
        derivative_matrix(g, FOURIER)
    with pytest.raises(SchemeBoundaryMismatch):
        derivative_matrix(make_grid(1.0, 8), "upwind")


def _per_kind_reference(half_length, n, bc, scheme):
    # Points, dx, reflection and D written out once per boundary kind; the
    # grid builders derive both kinds from one periodic ring instead.
    m = n + 1 if bc == DIRICHLET else n
    h2 = half_length / m
    dx = 2 * h2
    if bc == DIRICHLET:
        points = (2 * (np.arange(n) + 1) - m) * h2
        d = np.zeros((n, n))
        idx = np.arange(n - 1)
        d[idx, idx + 1] = 1.0 / (2 * dx)
        d[idx + 1, idx] = -1.0 / (2 * dx)
        return points, dx, n - 1 - np.arange(n), d
    points = (2 * np.arange(n) - n) * h2
    c = np.zeros(n)
    if scheme == CENTRAL2:
        c[1] = -1.0 / (2 * dx)
        c[n - 1] = 1.0 / (2 * dx)
    else:
        h = 2 * math.pi / n
        for k in range(1, (n - 1) // 2 + 1):
            t = math.tan(k * h / 2) if n % 2 == 0 else math.sin(k * h / 2)
            c[k] = 0.5 * (-1.0) ** k / t
            c[n - k] = -c[k]
    i = np.arange(n)
    d = c[(i[:, None] - i) % n]
    if scheme == FOURIER:
        d = d * (math.pi / half_length)
    return points, dx, (-np.arange(n)) % n, d


def test_ring_grids_match_the_per_kind_formulas_bit_for_bit():
    def same_bits(a, b):
        return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    for n in [*range(8, 65), 127, 128, 255, 256, 511, 512, 1023, 1024]:
        cases = [("periodic", CENTRAL2), ("periodic", FOURIER)]
        if n % 2:
            cases.append((DIRICHLET, CENTRAL2))
        for half_length in (1e-3, math.pi, 50.0):
            for bc, scheme in cases:
                points, dx, perm, d = _per_kind_reference(half_length, n, bc, scheme)
                g = make_grid(half_length, n, bc)
                got = derivative_matrix(g, scheme)
                assert same_bits(g.points, points)
                assert g.dx == dx
                assert np.array_equal(reflection_permutation(g), perm)
                assert same_bits(got, d), (n, half_length, bc, scheme)
                assert got.flags.c_contiguous


# ------------------------------------------------------------- potentials


def test_potential_families_even_on_grid():
    g = make_grid(math.pi, 32)
    perm = reflection_permutation(g)
    for spec in (
        PotentialSpec.constant(0.5),
        PotentialSpec.cosine(1.0, 1),
        PotentialSpec.cosine(0.7, 3),
        PotentialSpec.gaussian(1.0, 0.5),
    ):
        v = spec.values(g)
        assert np.max(np.abs(v - v[perm])) == 0.0


def test_potential_derivatives():
    g = make_grid(math.pi, 64)
    spec = PotentialSpec.cosine(1.0, 2)
    d = derivative_matrix(g, FOURIER)
    assert np.max(np.abs(spec.derivative_values(g) - d @ spec.values(g))) <= 1e-10
    # width 0.5 keeps the periodic wrap below 3e-9, so the spectral
    # derivative of the samples agrees with the closed form to ~1e-7
    gauss = PotentialSpec.gaussian(0.8, 0.5)
    assert np.max(np.abs(gauss.derivative_values(g) - d @ gauss.values(g))) <= 1e-6
    assert np.max(np.abs(PotentialSpec.constant(2.0).derivative_values(g))) == 0.0


def write_potential_csv(path, xs, vs):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,V\n")
        for x, v in zip(xs, vs):
            fh.write(f"{float(x):.17g},{float(v):.17g}\n")


def test_samples_from_csv_roundtrip(tmp_path):
    g = make_grid(math.pi, 16)
    path = tmp_path / "even.csv"
    write_potential_csv(path, g.points, np.cos(g.points))
    spec = PotentialSpec.from_csv(str(path))
    assert np.max(np.abs(spec.values(g) - np.cos(g.points))) <= 1e-15
    with pytest.raises(NoAnalyticDerivative):
        spec.derivative_values(g)


def test_samples_grid_mismatch(tmp_path):
    g = make_grid(math.pi, 16)
    path = tmp_path / "off.csv"
    write_potential_csv(path, g.points + 1e-6, np.cos(g.points))
    with pytest.raises(SampleGridMismatch):
        PotentialSpec.from_csv(str(path)).values(g)
    short = tmp_path / "short.csv"
    write_potential_csv(short, g.points[:-1], np.cos(g.points[:-1]))
    with pytest.raises(SampleGridMismatch):
        PotentialSpec.from_csv(str(short)).values(g)


def test_a_nan_abscissa_fails_the_sample_grid_gate(tmp_path, capsys):
    # max |x - x_j| is NaN, and NaN > tol is false
    lines = (pathlib.Path(__file__).parent / "golden" / "cos16.csv").read_text().splitlines()
    lines[4] = "nan," + lines[4].split(",")[1]  # the 4th abscissa
    path = tmp_path / "nan_x.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SampleGridMismatch, match="deviate from grid points by nan"):
        PotentialSpec.from_csv(str(path)).values(make_grid(math.pi, 16))
    assert main(["spectrum", "--model", "scalar_grid", "--potential", "samples",
                 "--file", str(path), "--grid-n", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [json.dumps({"error": {
        "type": "SampleGridMismatch",
        "message": "sample abscissae deviate from grid points by nan"}})]


def test_samples_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        PotentialSpec.from_csv(str(path))


def test_samples_short_row_names_the_file_and_line(tmp_path):
    path = tmp_path / "short_row.csv"
    path.write_text("x,V\n0,1\n\n1\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        PotentialSpec.from_csv(str(path))
    assert str(err.value) == f"{path}: line 4: expected x,V, got ['1']"


def test_odd_potential_fails_gate(tmp_path):
    g = make_grid(math.pi, 16)
    path = tmp_path / "odd.csv"
    write_potential_csv(path, g.points, np.sin(g.points))
    spec = PotentialSpec.from_csv(str(path))
    with pytest.raises(OddPotential):
        build_dirac_grid(spec, g, PP, FOURIER)
    with pytest.raises(OddPotential):
        build_reduced(spec, g, PP, FOURIER)


def _inf_mirror_pair():
    g = make_grid(math.pi, 16)
    v = np.cos(g.points)
    v[[1, 15]] = np.inf  # inf - inf makes the evenness defect NaN
    return PotentialSpec.samples(g.points, v)


@pytest.mark.parametrize("spec, message", [
    # exp(-0 / 0) at x = 0
    (PotentialSpec.gaussian(1.0, 1e-300), "potential is not finite on the grid: V(0) = nan"),
    (_inf_mirror_pair(), "potential is not finite on the grid: V(-2.74889) = inf"),
], ids=["gaussian width 1e-300", "samples inf at a mirror pair"])
@pytest.mark.parametrize("build", [build_dirac_grid, build_reduced, solve_dirac, solve_pair])
def test_non_finite_potential_is_refused_before_the_evenness_gate(spec, message, build):
    g = make_grid(math.pi, 16)
    with mock.patch.object(gridmod, "_coupling", side_effect=AssertionError("H was built")), \
         np.errstate(divide="ignore", invalid="ignore"):
        err, solved = _solve_counted(build, spec, g, PP, FOURIER)
    assert type(err) is ValueError and str(err) == message
    assert solved == []


# ------------------------------------------------------------ dirac blocks


def test_dirac_block_structure():
    g = make_grid(math.pi, 16)
    spec = PotentialSpec.cosine(0.9, 1)
    op = build_dirac_grid(spec, g, PP, FOURIER)
    n = 16
    d = derivative_matrix(g, FOURIER)
    v = spec.values(g)
    assert np.array_equal(op[:n, :n], np.eye(n).astype(complex))
    assert np.array_equal(op[n:, n:], -np.eye(n).astype(complex))
    assert np.allclose(op[:n, n:], -1j * d + np.diag(v), atol=0)
    assert np.allclose(op[n:, :n], -1j * d - np.diag(v), atol=0)


def test_free_dirac_dispersion_exact():
    n, L = 32, math.pi
    g = make_grid(L, n)
    op = build_dirac_grid(PotentialSpec.constant(0.0), g, PP, FOURIER)
    es = eigendecompose(op)
    expected = dispersion_multiset(fourier_mode_wavenumbers(n, L), 0.0)
    assert np.max(np.abs(es.values - expected)) <= 1e-10
    assert classify_spectrum(es.values, 1e-8) == ALL_REAL


def test_constant_potential_matches_closed_form_per_mode():
    n, L = 32, math.pi
    g = make_grid(L, n)
    op = build_dirac_grid(PotentialSpec.constant(0.5), g, PP, FOURIER)
    es = eigendecompose(op)
    expected = dispersion_multiset(fourier_mode_wavenumbers(n, L), 0.5)
    assert np.max(np.abs(es.values - expected)) <= 1e-10


def test_grid_parity_pseudo_hermiticity_even_and_odd():
    for g, scheme in ((make_grid(math.pi, 32), FOURIER),
                      (make_grid(math.pi, 33, DIRICHLET), CENTRAL2)):
        op = build_dirac_grid(PotentialSpec.cosine(1.0, 1), g, PP, scheme)
        assert grid_parity_residual(op, g) == 0.0  # exactly even V, exact index work
        # negative control: deliberately odd potential through the raw assembler
        h_odd = assemble_dirac_blocks(derivative_matrix(g, scheme), np.sin(g.points), PP)
        resid = grid_parity_residual(h_odd, g)
        assert resid >= 1e-3
        r = np.eye(g.n_points)[reflection_permutation(g)]
        p_d = np.block([[r, 0 * r], [0 * r, -r]])  # its own inverse
        dense = frob_norm(p_d @ h_odd @ p_d - h_odd.conj().T) / frob_norm(h_odd)
        assert resid == pytest.approx(dense, rel=1e-14)


# --------------------------------------------------------- reduced forms


def test_reduced_constant_forms_agree():
    g = make_grid(math.pi, 32)
    spec = PotentialSpec.constant(0.7)
    pe = build_reduced(spec, g, PP, FOURIER, PRODUCT_EXACT)
    au = build_reduced(spec, g, PP, FOURIER, ANALYTIC_U)
    assert frob_distance(pe, au) <= 1e-10 * max(1.0, frob_norm(pe))


def test_reduced_cosine_forms_differ_by_aliasing_only():
    # The two forms differ as matrices: the grid-multiplication commutator
    # defect has Frobenius norm exactly c*hbar*N/2 for the unit mode-1
    # cosine.  They agree where it matters: acting on resolved functions
    # and on the resolved part of the spectrum.
    n = 64
    g = make_grid(math.pi, n)
    spec = PotentialSpec.cosine(1.0, 1)
    pe = build_reduced(spec, g, PP, FOURIER, PRODUCT_EXACT)
    au = build_reduced(spec, g, PP, FOURIER, ANALYTIC_U)
    assert frob_distance(pe, au) == pytest.approx(n / 2, abs=1e-8)
    rng = np.random.default_rng(30)
    for _ in range(3):
        coeffs = rng.normal(size=17) + 1j * rng.normal(size=17)
        f = np.zeros(n, dtype=complex)
        for m, cm in zip(range(-8, 9), coeffs):
            f += cm * np.exp(1j * m * g.points)
        assert np.linalg.norm((pe - au) @ f) <= 1e-10 * np.linalg.norm(pe @ f)
    lo_pe = np.sort(eigendecompose(pe).values.real)[2:8]
    lo_au = np.sort(eigendecompose(au).values.real)[2:8]
    assert np.max(np.abs(lo_pe - lo_au)) <= 1e-9


def test_reduced_reflection_conjugation():
    g = make_grid(math.pi, 32)
    for spec in (PotentialSpec.cosine(1.0, 1), PotentialSpec.gaussian(1.0, 0.5)):
        for scheme in (FOURIER, CENTRAL2):
            red = build_reduced(spec, g, PP, scheme)
            assert reflection_conjugation_residual(red, g) <= 1e-12


def test_reduced_requires_analytic_derivative_for_analytic_form(tmp_path):
    g = make_grid(math.pi, 16)
    path = tmp_path / "even.csv"
    write_potential_csv(path, g.points, np.cos(g.points))
    spec = PotentialSpec.from_csv(str(path))
    with pytest.raises(NoAnalyticDerivative):
        build_reduced(spec, g, PP, FOURIER, ANALYTIC_U)
    # product form works from samples
    build_reduced(spec, g, PP, FOURIER, PRODUCT_EXACT)


def test_reduced_to_dirac_energy_mapping():
    out = reduced_to_dirac_energies([0.0], PP)
    assert np.allclose(sorted(out.real), [-1.0, 1.0])
    out = reduced_to_dirac_energies([-0.36], PP)
    assert np.max(np.abs(out.imag)) == 0.0
    out = reduced_to_dirac_energies([-2.0], PP)
    assert np.max(np.abs(out.real)) == 0.0


def test_reduction_identity_across_potentials_and_schemes():
    for spec in (
        PotentialSpec.constant(0.5),
        PotentialSpec.cosine(1.0, 1),
        PotentialSpec.gaussian(1.0, 0.5),
    ):
        for scheme in (FOURIER, CENTRAL2):
            for n in (32, 64):
                g = make_grid(math.pi, n)
                de = eigendecompose(build_dirac_grid(spec, g, PP, scheme))
                re_ = eigendecompose(build_reduced(spec, g, PP, scheme))
                assert (
                    reduction_identity_mismatch(de.values, re_.values, PP) <= 1e-8
                )


def test_reduced_spectra_conjugate_closed():
    g = make_grid(math.pi, 64)
    kinds = {}
    for name, spec in (
        ("const", PotentialSpec.constant(0.5)),
        ("cos", PotentialSpec.cosine(1.0, 1)),
        ("gauss", PotentialSpec.gaussian(1.0, 0.5)),
    ):
        vals = eigendecompose(build_reduced(spec, g, PP, FOURIER)).values
        kinds[name] = classify_spectrum(vals, 1e-8)
    assert kinds["const"] == ALL_REAL
    assert kinds["cos"] == ALL_REAL
    assert kinds["gauss"] == CONJUGATE_PAIRS  # reality genuinely broken


def test_strong_cosine_breaks_reality():
    # amplitude located by the sweep tool: mode-1 cosine stays real through
    # g = 10 and is broken by g = 20 on this grid
    g = make_grid(math.pi, 64)
    vals = eigendecompose(
        build_reduced(PotentialSpec.cosine(20.0, 1), g, PP, FOURIER)
    ).values
    assert classify_spectrum(vals, 1e-8) == CONJUGATE_PAIRS


# ----------------------------------------------------------- convergence


def test_convergence_study_constant_fourier_is_exact():
    st = convergence_study(
        PotentialSpec.constant(0.5), PP, [16, 32, 64], scheme=FOURIER
    )
    assert all(err <= 1e-10 for _, err in st.rows)


def test_convergence_study_central2_second_order():
    st = convergence_study(
        PotentialSpec.cosine(1.0, 1), PP, [16, 32, 64], scheme=CENTRAL2, track_level=1
    )
    errs = [err for _, err in st.rows]
    assert 3.2 <= errs[0] / errs[1] <= 4.8
    assert 3.2 <= errs[1] / errs[2] <= 4.8


def test_convergence_study_validates_ns():
    with pytest.raises(ValueError):
        convergence_study(PotentialSpec.constant(0.0), PP, [64, 32])
    with pytest.raises(ValueError):
        convergence_study(PotentialSpec.constant(0.0), PP, [])


def test_identity_mismatch_on_an_all_imaginary_spectrum():
    # V0 above every sqrt(m0^2 c^4 + c^2 p^2): the real parts are rounding
    # noise, so sorting by them scatters each value's partner.
    pp = PhysParams(m0=2.0, c=0.5, hbar=0.5)
    g = make_grid(2.0, 10)
    spec = PotentialSpec.constant(1.0)
    dirac = eigendecompose(build_dirac_grid(spec, g, pp, CENTRAL2)).values
    reduced = eigendecompose(build_reduced(spec, g, pp, CENTRAL2)).values
    assert np.max(np.abs(dirac.real)) < 1e-14
    assert reduction_identity_mismatch(dirac, reduced, pp) <= 1e-12


def test_identity_mismatch_matches_the_value_at_minus_the_rest_energy():
    # det(H - E) = det((E^2 - m0^2 c^4) I - U) for every E, so -m0 c^2 is not
    # singular: a Dirac value there that moves by 1e-9 shows in the mismatch.
    *_, dirac, reduced, mismatch = solve_pair(PotentialSpec.constant(0.0),
                                              make_grid(math.pi, 16), PP)
    assert mismatch <= 1e-14
    at_rest = int(np.argmin(np.abs(dirac + PP.rest_energy)))
    assert abs(dirac[at_rest] + PP.rest_energy) <= 1e-14
    dirac[at_rest] += 1e-9
    assert reduction_identity_mismatch(dirac, reduced, PP) == pytest.approx(1e-9, rel=1e-5)


def test_identity_mismatch_refuses_spectra_of_different_sizes():
    with pytest.raises(ValueError, match=r"^spectrum sizes differ: 3 vs 2$"):
        reduction_identity_mismatch([1.0, -1.0, 2.0], [0.0], PP)


@pytest.mark.parametrize("dirac, reduced, pp, what", [
    ([math.nan, -1.0], [0.0], PP, "Dirac values"),
    ([math.inf, -1.0], [0.0], PP, "Dirac values"),
    ([1.0, complex(-1.0, -math.inf)], [0.0], PP, "Dirac values"),
    ([1.0, -1.0], [math.nan], PP, "reduced values"),
    ([1.0, -1.0], [complex(0.0, math.inf)], PP, "reduced values"),
    # eps + (m0 c^2)^2 overflows: 1.7e308 + 1e308
    ([1.0, -1.0], [1.7e308], PhysParams(m0=1e154), "mapped Dirac energies"),
])
def test_identity_mismatch_refuses_non_finite_values(dirac, reduced, pp, what):
    # max(0.0, nan) keeps 0.0, so each of these read as a perfect match
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=f"^{what} must be finite, got .*(inf|nan)"):
            reduction_identity_mismatch(dirac, reduced, pp)


def _identity_mismatch_by_loop(dirac_values, reduced_values, pp):
    """reduction_identity_mismatch as a loop with its own nearest-unused search.

    The reference for the shared ``take_nearest`` step: both lists sorted by
    (Re, Im), each Dirac value in turn matched to the nearest unused mapped
    value, the lowest index among equals.
    """
    a = np.asarray(dirac_values, dtype=np.complex128).ravel()
    b = reduced_to_dirac_energies(reduced_values, pp)
    a = a[np.lexsort((a.imag, a.real))]
    b = b[np.lexsort((b.imag, b.real))]
    used = np.zeros(len(a), dtype=bool)
    worst = 0.0
    for i in range(len(a)):
        cand = np.flatnonzero(~used)
        j = cand[int(np.argmin(np.abs(b[cand] - a[i])))]
        used[j] = True
        worst = max(worst, abs(a[i] - b[j]) / max(1.0, abs(a[i])))
    return float(worst)


# Eighths are exact in binary, and eps = -2, -1, 0 or 3 maps to exact
# +-1j, 0, +-1 or +-2, so distances tie exactly.  "ulp" moves a value's real
# part by one ulp, which splits a conjugate pair's real parts; the tiny real
# shifts are the rounding noise of an all-imaginary spectrum.
_EIGHTHS = hyp.integers(-24, 24).map(lambda k: k / 8)
_EPS = hyp.builds(complex, _EIGHTHS, _EIGHTHS)
_SHIFT = hyp.one_of(
    hyp.just(0j),
    hyp.just("ulp"),
    hyp.builds(complex, hyp.sampled_from([1e-17, -1e-17, 3e-17, -2e-17]), hyp.just(0.0)),
    hyp.builds(complex, _EIGHTHS, _EIGHTHS),
)


@settings(max_examples=300, deadline=None)
@given(hyp.lists(_EPS, max_size=6), hyp.lists(_EPS, max_size=4),
       hyp.lists(_SHIFT, max_size=8), hyp.randoms())
# all imaginary: eps = -2, -5 map to +-1j, +-2j, and the noise in the real
# parts sorts the Dirac values as -2e-17+2j, -1e-17-1j, 1e-17-2j, 3e-17+1j
# against -2j, -1j, 1j, 2j: the sort order is not the matching
@example([], [-2 + 0j, -5 + 0j], [3e-17 + 0j, -1e-17 + 0j, -2e-17 + 0j, 1e-17 + 0j], None)
# conjugate eps give conjugate Dirac pairs; "ulp" splits their real parts
@example([0.5 + 0.25j], [], ["ulp", 0j], None)
# 0 sits halfway between -1 and 1: taking the lower index leaves 1 to 1
@example([], [0j], [0j, 1 + 0j], None)
def test_identity_mismatch_is_the_greedy_loop(paired, loose, shifts, rnd):
    reduced = paired + [e.conjugate() for e in paired] + loose
    dirac = reduced_to_dirac_energies(reduced, PP).tolist()
    for k, shift in enumerate(shifts[: len(dirac)]):
        if shift == "ulp":
            dirac[k] = complex(np.nextafter(dirac[k].real, np.inf), dirac[k].imag)
        else:
            dirac[k] += shift
    if rnd is not None:
        rnd.shuffle(dirac)
    expected = _identity_mismatch_by_loop(dirac, reduced, PP)
    assert reduction_identity_mismatch(dirac, reduced, PP) == expected


# ------------------------------------------------------ real N x N route


def _solve_counted(solve, *args):
    """solve(*args)'s result, or its error, and the (shape, dtype) of each solve."""
    with mock.patch.object(gridmod, "eigendecompose", wraps=eigendecompose) as solves:
        try:
            out = solve(*args)
        except (PseudospecError, ValueError) as exc:
            out = exc
    return out, [(c.args[0].shape, c.args[0].dtype) for c in solves.call_args_list]


COS = PotentialSpec.cosine(1.0, 1)


def test_solve_dirac_takes_the_real_route_at_a_double_zero_mode():
    # cos x on 32 fourier points: A has a double zero, so E = m0 c^2 and
    # E = -m0 c^2 each come twice, from [x; 0] and [0; x] of one vector x
    g = make_grid(math.pi, 32)
    values, solved, vectors, resid = certified_solve(solve_dirac, COS, g, PP, FOURIER)
    assert solved == [((32, 32), np.float64)]
    assert np.sum(np.abs(values - 1.0) < 1e-12) == 2
    assert np.sum(np.abs(values + 1.0) < 1e-12) == 2
    h = build_dirac_grid(COS, g, PP, FOURIER)
    assert dense_residual(h, vectors, values) <= 1e-14
    assert resid <= 1e-14


def test_solve_dirac_builds_h_once_and_solves_a_once():
    # H is built for the complex route and for the traced benchmark, which sees its build
    g = make_grid(math.pi, 48)
    with mock.patch.object(gridmod, "build_dirac_grid", wraps=build_dirac_grid) as built:
        values, solved, vectors, resid = certified_solve(solve_dirac, COS, g, PP, FOURIER)
    assert built.call_count == 1
    assert solved == [((48, 48), np.float64)]
    assert values.shape == (96,) and vectors.shape == (96, 96) and resid <= 1e-14


@pytest.mark.parametrize("build", [build_dirac_grid, build_reduced])
def test_h_and_u_are_built_through_coupling_once(build):
    # the "H was built" tests patch _coupling; each build must pass through it
    with mock.patch.object(gridmod, "_coupling", wraps=gridmod._coupling) as coupled:
        build(COS, make_grid(math.pi, 16), PP, FOURIER)
    assert coupled.call_count == 1


def _block_factors(d, v, pp):
    """cP + V and cP - V as complex arrays of their own, the way np.block's operands were."""
    cp, vd = (-1j * pp.c_hbar) * d, np.diag(v.astype(complex))
    return cp + vd, cp - vd


def _block_h(d, v, pp):
    plus, minus = _block_factors(d, v, pp)
    m = pp.rest_energy * np.eye(len(v))
    return np.block([[m, plus], [minus, -m]])


_BLOCK_GRIDS = [(make_grid(math.pi, 16), FOURIER), (make_grid(math.pi, 16), CENTRAL2),
                (make_grid(math.pi, 17, DIRICHLET), CENTRAL2)]


@pytest.mark.parametrize("pp", [PP, PhysParams(m0=0.0)], ids=["m0=1", "m0=0"])
@pytest.mark.parametrize("g, scheme", _BLOCK_GRIDS,
                         ids=["periodic-fourier", "periodic-central2", "dirichlet-central2"])
def test_in_place_blocks_have_the_bytes_of_np_block(g, scheme, pp):
    # tobytes, not array_equal, so the sign of every zero counts
    spec = PotentialSpec.gaussian(0.7, 0.5)
    d, v = gridmod._gated(spec, g, scheme)
    reference = _block_h(d, v, pp)
    assert np.signbit(reference.real[reference.real == 0]).any()  # -m I's zeros are -0.0
    assert build_dirac_grid(spec, g, pp, scheme).tobytes() == reference.tobytes()
    plus, minus = _block_factors(d, v, pp)
    assert build_reduced(spec, g, pp, scheme).tobytes() == (plus @ minus).tobytes()


def test_in_place_blocks_keep_the_bytes_of_an_odd_v():
    # assemble_dirac_blocks has no evenness gate
    g = make_grid(math.pi, 16)
    d, v = derivative_matrix(g, CENTRAL2), np.sin(g.points) + 0.25
    assert assemble_dirac_blocks(d, v, PP).tobytes() == _block_h(d, v, PP).tobytes()


def _traced_peak(fn, *args) -> int:
    # tracemalloc sees numpy's arrays, not LAPACK's own work buffers
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scheme", [FOURIER, CENTRAL2])
def test_h_is_assembled_in_place_and_released_before_the_solve(scheme):
    # one 2N x 2N complex H plus D and one N x N real temporary: no np.block
    # operands; then the solve holds Y, not H, so it adds at most one N x N
    # real array to the build's peak
    n = 512
    g = make_grid(math.pi, n)
    build = _traced_peak(build_dirac_grid, COS, g, PP, scheme)
    assert build <= (2 * n) ** 2 * 16 + 2 * n * n * 8
    assert _traced_peak(solve_dirac, COS, g, PP, scheme) <= build + n * n * 8


@pytest.mark.parametrize("scheme", [FOURIER, CENTRAL2])
def test_solve_dirac_holds_no_2n_vectors(scheme):
    # the 2N x 2N complex vectors are never formed: the certificate holds Q X
    # and Q R X for PANEL / 2 of A's vectors and a 2N x PANEL residual block
    # at a time, so past H's build the solve holds at most one N x N complex
    # array more
    g = make_grid(math.pi, 512)

    def traced_peak(build):
        tracemalloc.start()
        try:
            build(COS, g, PP, scheme)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(solve_dirac) <= traced_peak(build_dirac_grid) + 512 * 512 * 16


# A hypothesis draw: on this 11-point central2 box, A = Y + V R has the
# eigenvalue mu = V for a constant V, exactly 0 at V = 0
_BOX11 = make_grid(3.6752967764632216, 11, DIRICHLET)
_MASSLESS = PhysParams(m0=0.0, c=1.964846077550007, hbar=1.5549686171721004)


def _rotated_inputs(spec, g, pp, scheme):
    """(D, V, Y, R as a permutation, A's eigenpairs) of ``_solve_rotated``'s callers."""
    d, v = gridmod._gated(spec, g, scheme)
    y, perm = -pp.c_hbar * d, reflection_permutation(g)
    return d, v, y, perm, gridmod._solve_a(y, v, perm, 1e-10)[1]


def _certified_blocks(*args):
    """_solve_rotated(*args)'s certificate, or its error, and each residual block it measured."""
    blocks, results = [], []

    def recording(residual, *rest):
        results.append(certify(lambda span: blocks.append(residual(span)) or blocks[-1], *rest))
        return results[-1]

    with mock.patch.object(gridmod, "certify", side_effect=recording):
        try:
            gridmod._solve_rotated(*args)
        except (ConvergenceFailure, ValueError) as exc:
            return exc, blocks
    return results[0], blocks


@pytest.mark.parametrize("fault", [0.0, 1e-3], ids=["even v", "v off at one point"])
@pytest.mark.parametrize("spec, g, pp, scheme", [
    # 100 of A's vectors: a panel of PANEL / 2 and a last partial one
    (COS, make_grid(math.pi, 100), PP, FOURIER),
    (PotentialSpec.gaussian(0.7, 0.5), make_grid(math.pi, 100), PP, CENTRAL2),
    (PotentialSpec.gaussian(0.7, 0.5), make_grid(math.pi, 101, DIRICHLET), PP, CENTRAL2),
    (COS, make_grid(math.pi, 32), PhysParams(m0=0.0), FOURIER),
    # A's double zero: E = m0 c^2 and E = -m0 c^2 twice each
    (COS, make_grid(math.pi, 32), PP, FOURIER),
    # beta = 0: E = 0 twice, from [x; 0] and [0; x]
    (PotentialSpec.constant(0.0), _BOX11, _MASSLESS, CENTRAL2),
], ids=["periodic fourier", "periodic central2", "dirichlet central2", "massless",
        "double zero mode", "beta = 0"])
def test_dirac_certificate_measures_every_column(spec, g, pp, scheme, fault):
    # the shared +-E pass yields one residual column for each of H's 2N
    # eigenpairs, and each is the dense H w - E w to rounding; with V off at
    # one point the certificate sees an H whose vectors these are not, so
    # every column's residual is large and its own
    d, v, y, perm, es = _rotated_inputs(spec, g, pp, scheme)
    v = v.copy()
    v[-1] += fault
    resid, blocks = _certified_blocks(y, v, perm, pp.rest_energy, es, 0.5)
    h = gridmod.assemble_dirac_blocks(d, v, pp)
    values, vectors = reference_pairs(solve_dirac, es, g, pp)
    norm = max(1.0, frob_norm(h))
    dense = np.linalg.norm(h @ vectors - vectors * values, axis=0) / norm
    measured = np.concatenate([np.linalg.norm(b, axis=0) for b in blocks]) / norm
    assert len(blocks) == -(-g.n_points // (PANEL // 2))
    assert len(measured) == 2 * g.n_points
    assert np.abs(np.sort(measured) - np.sort(dense)).max() <= 2**-52
    assert abs(resid - dense.max()) <= 2**-52
    if fault:
        assert resid > 1e-8
        err, _ = _certified_blocks(y, v, perm, pp.rest_energy, es, 1e-10)
        assert isinstance(err, ConvergenceFailure)
        assert str(err) == f"eigen residual {resid:.3e} exceeds tolerance 1.000e-10"


@pytest.mark.parametrize("column", [0, 99], ids=["first panel", "last partial panel"])
def test_dirac_certificate_refuses_a_nan_eigenvector(column):
    # a NaN stops the certificate at its panel and is refused, never passed
    g = make_grid(math.pi, 100)
    _, v, y, perm, es = _rotated_inputs(COS, g, PP, FOURIER)
    vectors = es.vectors.copy()
    vectors[7, column] = np.nan
    err, blocks = _certified_blocks(y, v, perm, PP.rest_energy,
                                    EigenSystem(es.values, vectors, es.residual), 1e-10)
    assert isinstance(err, ValueError)
    assert str(err).startswith("residual norm nan against matrix norm")
    assert len(blocks) == 1 + column // (PANEL // 2)


def test_dirac_certificate_holds_a_2n_x_panel_residual_block():
    # the certificate's working set at N = 512: the residual block, Q X and
    # Q R X, and their product with Y are each at most 2N x PANEL complex, and
    # it stays within three such blocks (6 MiB); certifying each vector of
    # the pair by itself, 2N x PANEL slabs of vectors and of H times them,
    # took 9.1 MiB
    n = 512
    _, v, y, perm, es = _rotated_inputs(COS, make_grid(math.pi, n), PP, FOURIER)
    tracemalloc.start()
    try:
        gridmod._solve_rotated(y, v, perm, PP.rest_energy, es, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (2 * n) * PANEL * 16


@pytest.mark.parametrize("pp, spec, g, scheme", [
    # ||R+ R-||_F overflowed on the product route; A's norm is ||H||'s order
    (PP, PotentialSpec.cosine(1e100, 1), make_grid(math.pi, 32), FOURIER),
    # V = 0 on an 8-point central2 ring: R+ R- is symmetric with a double zero,
    # and dgeev returned nearly parallel vectors for it (cond 5e34), which
    # sent the product route to the 2N solve; A = Y is antisymmetric, so normal
    (PhysParams(c=1.656717209063133, hbar=0.805960793635073), PotentialSpec.constant(0.0),
     make_grid(4.090021194496235, 8), CENTRAL2),
], ids=["huge potential", "free central2 ring"])
def test_solve_dirac_takes_the_real_route_where_the_product_fell_back(pp, spec, g, scheme):
    values, solved, vectors, resid = certified_solve(solve_dirac, spec, g, pp, scheme)
    n = g.n_points
    assert solved == [((n, n), np.float64)]
    h = build_dirac_grid(spec, g, pp, scheme)
    norm = frob_norm(h)
    assert dense_residual(h, vectors, values) <= 1e-14 and resid <= 1e-14
    # scaled by ||H||_F: at g = 1e100 both solves put E = 0 at about 1e84
    assert spectrum_gap(values / norm, eigendecompose(h).values / norm) <= 1e-14



@pytest.mark.parametrize("spec, g, pp, scheme", [
    (COS, make_grid(math.pi, 32), PhysParams(m0=0.0), FOURIER),
    # s + m0 c^2 = 0: beta is set to 0 there, so E = 0 has [x; 0] and [0; x]
    (PotentialSpec.constant(0.0), _BOX11, _MASSLESS, CENTRAL2),
    (PotentialSpec.constant(1.6882689716108772e-168), _BOX11, _MASSLESS, CENTRAL2),
], ids=["cosine", "mu = 0", "mu^2 underflows"])
def test_solve_dirac_takes_the_real_route_when_massless(spec, g, pp, scheme):
    # m0 = 0: beta = -mu / s has modulus 1 wherever s != 0
    values, solved, vectors, resid = certified_solve(solve_dirac, spec, g, pp, scheme)
    n = g.n_points
    assert solved == [((n, n), np.float64)]
    h = build_dirac_grid(spec, g, pp, scheme)
    assert dense_residual(h, vectors, values) <= 1e-14 and resid <= 1e-14
    assert spectrum_gap(values, eigendecompose(h).values) <= 1e-12


def test_solve_dirac_matches_the_2n_solve_to_rounding_x_norm():
    # eps of the product R+ R- carried rounding x ||H||^2, a 5.4e-10 gap here
    g = make_grid(math.pi, 256)
    pp = PhysParams(m0=1e-3)
    values = solve_dirac(COS, g, pp, CENTRAL2)
    dense = eigendecompose(build_dirac_grid(COS, g, pp, CENTRAL2)).values
    assert spectrum_gap(values, dense) <= 1e-12


def test_solve_dirac_refuses_beyond_max_dim_with_the_2n_error():
    # refused where H is assembled: no block of H, and no solve
    with mock.patch.object(gridmod, "_coupling", side_effect=AssertionError("H was built")):
        err, solved = _solve_counted(solve_dirac, COS, make_grid(math.pi, 513), PP, FOURIER)
    assert isinstance(err, DimensionMismatch)
    assert str(err) == "dimension 1026 exceeds limit 1024"
    assert solved == []


_F64_16 = ((16, 16), np.float64)


@pytest.mark.parametrize("solve, spec, tol, error, solved", [
    # the certificate of the one real solve fails; nothing falls back
    (solve_dirac, COS, 1e-17, ConvergenceFailure, [_F64_16]),
    (solve_reduced, COS, 1e-17, ConvergenceFailure, [_F64_16]),
    (solve_pair, COS, 1e-17, ConvergenceFailure, [_F64_16]),
    # A is solved, but ||A^2||_F overflows: the reduced side's certificate
    (solve_reduced, PotentialSpec.cosine(1e100, 1), 1e-10, ValueError, [_F64_16]),
    (solve_pair, PotentialSpec.cosine(1e100, 1), 1e-10, ValueError, [_F64_16]),
    # ||H||_F is finite at 1e100 (solve_dirac takes it); here ||A||_F overflows
    (solve_dirac, PotentialSpec.cosine(1e160, 1), 1e-10, ValueError, [_F64_16]),
], ids=["dirac unreachable tolerance", "reduced unreachable tolerance",
        "pair unreachable tolerance", "reduced huge potential", "pair huge potential",
        "dirac huge potential"])
def test_the_real_route_raises_its_own_error(solve, spec, tol, error, solved):
    g = make_grid(math.pi, 16)
    with np.errstate(over="ignore"):
        err, shapes = _solve_counted(functools.partial(solve, tol=tol), spec, g, PP, FOURIER)
    assert type(err) is error
    if error is ConvergenceFailure:
        assert re.fullmatch(r"eigen residual \S+ exceeds tolerance 1\.000e-17", str(err))
    else:
        assert re.fullmatch(r"residual norm \S+ against matrix norm inf is not finite", str(err))
    assert shapes == solved


def _dense_q(g):
    n, perm = g.n_points, reflection_permutation(g)
    return 0.5 * ((1 + 1j) * np.eye(n) + (1 - 1j) * np.eye(n)[perm])


def test_solve_pair_solves_both_sides_in_real_arithmetic():
    # one N x N dgeev of A serves both sides; the witness is the values alone
    # of the real part of Q^dag U Q, for the N x N U built from D and V,
    # compared with A's eps in eps space
    g = make_grid(math.pi, 16)
    perm = reflection_permutation(g)
    with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as vectors, \
         mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as witnessed:
        (d, v, u, dirac, reduced, mismatch), solved = _solve_counted(
            solve_pair, COS, g, PP, FOURIER)
    assert solved == [((16, 16), np.float64)]
    assert [c.args[0].shape for c in vectors.call_args_list] == [(16, 16)]
    assert np.array_equal(d, derivative_matrix(g, FOURIER))
    assert np.array_equal(v, COS.values(g))
    assert u.tobytes() == build_reduced(COS, g, PP, FOURIER).tobytes()
    assert np.array_equal(dirac, solve_dirac(COS, g, PP, FOURIER))
    assert np.array_equal(reduced, solve_reduced(COS, g, PP, FOURIER))
    (call,) = witnessed.call_args_list
    witness, imag = gridmod._rotated(u, perm)
    assert call.args[0].dtype == np.float64 and call.args[0].flags.c_contiguous
    assert call.args[0].tobytes() == witness.tobytes()
    # the real part of Q^dag U Q, with a dense Q; its imaginary part is rounding
    q = _dense_q(g)
    rotated = q.conj().T @ u @ q
    assert np.abs(witness - rotated.real).max() <= 1e-14 * frob_norm(u)
    assert imag == pytest.approx(frob_norm(rotated.imag), rel=1e-6, abs=1e-15 * frob_norm(u))
    values = np.linalg.eigvals(witness)
    assert spectrum_gap(values / frob_norm(u), eigendecompose(u).values / frob_norm(u)) <= 1e-14
    assert mismatch == max(gridmod._nearest_gap(values, reduced, frob_norm(u)),
                           imag / frob_norm(u)) <= 1e-13


def test_rotated_takes_the_even_real_and_odd_imaginary_parts():
    # for U = S + i diag(w) the real part is S's R-even part plus w's R-odd
    # part at (j, perm[j]), and the imaginary part is made of the rest
    g = make_grid(math.pi, 16)
    perm = reflection_permutation(g)
    rows = np.ix_(perm, perm)
    rng = np.random.default_rng(3)
    s, w = rng.normal(size=(16, 16)), rng.normal(size=16)
    re, imag = gridmod._rotated(s + 1j * np.diag(w), perm)
    expected = 0.5 * (s + s[rows])
    expected[np.arange(16), perm] += 0.5 * (w - w[perm])
    assert np.abs(re - expected).max() <= 1e-15
    rest = 0.5 * (np.diag(w + w[perm]) + s[perm] - s[:, perm])
    assert imag == pytest.approx(frob_norm(rest), rel=1e-14)
    # an exactly R-even real part keeps its bits off the entries (j, perm[j]),
    # and an exactly odd w leaves no imaginary part
    even = s + s[rows]
    odd = np.where(w == -w[perm], w, w - w[perm])
    re, imag = gridmod._rotated(even + 1j * np.diag(odd), perm)
    coupled = np.zeros((16, 16), dtype=bool)
    coupled[np.arange(16), perm] = True
    assert re[~coupled].tobytes() == even[~coupled].tobytes() and imag == 0.0
    expected = even[coupled] + odd
    assert np.abs(re[coupled] - expected).max() <= 2.3e-16 * np.abs(expected).max()


def test_solve_pair_takes_a_real_n_solve_for_analytic_u():
    # Q^dag U Q of the analytic U is real but for the rounding of d @ d: its
    # real part is solved by dgeev, and its pairs are certified once, as Q x
    # against U as built, with no certificate against the real matrix
    g = make_grid(math.pi, 16)
    perm = reflection_permutation(g)
    with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig, \
         mock.patch.object(gridmod, "certify", wraps=certify) as certified:
        (_, _, u, dirac, reduced, mismatch), solved = _solve_counted(
            solve_pair, COS, g, PP, FOURIER, ANALYTIC_U)
    assert solved == [_F64_16]  # A, through eigendecompose
    assert [(c.args[0].shape, c.args[0].dtype) for c in eig.call_args_list] == [_F64_16] * 2
    assert eig.call_args_list[1].args[0].tobytes() == gridmod._rotated(u, perm)[0].tobytes()
    assert u.tobytes() == build_reduced(COS, g, PP, FOURIER, ANALYTIC_U).tobytes()
    assert np.array_equal(dirac, solve_dirac(COS, g, PP, FOURIER))
    # the values of a real matrix: closed under conjugation bit for bit
    assert np.array_equal(np.sort_complex(reduced), np.sort_complex(reduced.conj()))
    assert spectrum_gap(reduced / frob_norm(u), eigendecompose(u).values / frob_norm(u)) <= 1e-14
    # H's certificate, then U's: Q x against the dense U, relative to ||U||_F
    assert len(certified.call_args_list) == 2
    residual, count, norm, tol = certified.call_args_list[1].args
    assert (count, norm, tol) == (16, frob_norm(u), 1e-10)
    values, x = gridmod.sorted_eig(gridmod._rotated(u, perm)[0])
    assert np.array_equal(values, reduced)
    qx = _dense_q(g) @ x
    assert np.abs(residual(slice(0, 16)) - (u @ qx - qx * values)).max() <= 1e-14 * norm
    # no witness solve: its gap is to A's eps, the product_exact values
    assert mismatch == gridmod._nearest_gap(reduced, solve_reduced(COS, g, PP, FOURIER),
                                            frob_norm(u))


@pytest.mark.parametrize("spec, flags, n, bc, scheme", [
    (COS, ["--potential", "cosine", "--g", "1"], 32, PERIODIC, FOURIER),
    (PotentialSpec.gaussian(0.5, 0.5), ["--potential", "gaussian", "--g", "0.5", "--width",
                                        "0.5"], 32, PERIODIC, CENTRAL2),
    (PotentialSpec.cosine(0.5, 2), ["--potential", "cosine", "--g", "0.5", "--mode", "2"],
     33, DIRICHLET, CENTRAL2),
], ids=["fourier periodic", "central2 periodic", "central2 dirichlet"])
def test_spectrum_and_reduce_print_one_set_of_dirac_bytes(spec, flags, n, bc, scheme, capsys):
    # both take H's values from the pairs of the one A, not from separate solves
    g = make_grid(math.pi, n, bc)
    assert np.array_equal(solve_pair(spec, g, PP, scheme)[3], solve_dirac(spec, g, PP, scheme))
    printed = []
    for command in ("spectrum", "reduce"):
        assert main([command, "--model", "scalar_grid", *flags, "--grid-n", str(n), "--bc", bc,
                     "--scheme", scheme]) == 0
        printed.append(json.dumps(json.loads(capsys.readouterr().out)["eigenvalues"]))
    assert printed[0] == printed[1]


def _off_by_1e10():
    # cos x with one value moved by 1e-10 relative: even to the samples gate's
    # 1e-8, not exactly
    g = make_grid(math.pi, 16)
    v = np.cos(g.points)
    v[3] *= 1 + 1e-10
    return PotentialSpec.samples(g.points, v), g


@pytest.mark.parametrize("solve, solved", [
    (solve_dirac, [_F64_16]), (solve_reduced, [_F64_16]), (solve_pair, [_F64_16]),
], ids=["dirac", "reduced", "pair"])
def test_samples_even_to_the_gate_take_the_real_route_with_their_even_part(solve, solved):
    spec, g = _off_by_1e10()
    v, perm = spec.values(g), reflection_permutation(g)
    assert not np.array_equal(v, v[perm])
    even = v.copy()
    even[[3, perm[3]]] = (v[3] + v[perm[3]]) / 2
    out, shapes = _solve_counted(solve, spec, g, PP, FOURIER)
    assert shapes == solved  # float64 solves only
    expected = solve(PotentialSpec.samples(g.points, even), g, PP, FOURIER)
    for got, want in zip(out, expected) if solve is solve_pair else [(out, expected)]:
        assert np.array_equal(got, want)
    if solve is solve_pair:
        assert out[-1] <= 1e-12


def test_an_exactly_even_potential_leaves_the_gate_bit_for_bit():
    ring = make_grid(math.pi, 16)
    signed = np.cos(ring.points)
    # 0.0 at one point and -0.0 at its mirror: equal, so each keeps its sign
    signed[3], signed[reflection_permutation(ring)[3]] = 0.0, -0.0
    for spec, g, scheme in (
        (COS, ring, FOURIER),
        (PotentialSpec.gaussian(-0.5, 0.3), make_grid(2.0, 25, DIRICHLET), CENTRAL2),
        (PotentialSpec.constant(0.0), make_grid(math.pi, 15, DIRICHLET), CENTRAL2),
        (PotentialSpec.samples(ring.points, signed), ring, FOURIER),
    ):
        v = spec.values(g)
        assert np.array_equal(v, v[reflection_permutation(g)])
        assert gridmod._gated(spec, g, scheme)[1].tobytes() == v.tobytes()


def test_the_even_part_of_huge_off_even_samples_is_finite_and_exactly_even():
    g = make_grid(math.pi, 16)
    perm = reflection_permutation(g)
    v = np.full(16, 1.5e308)
    v[3] *= 1 + 1e-10  # V + RV would overflow
    _, even = gridmod._gated(PotentialSpec.samples(g.points, v), g, FOURIER)
    assert np.isfinite(even).all()
    assert np.array_equal(even, even[perm])
    assert even[3] == even[perm[3]] == 0.5 * v[3] + 0.5 * v[perm[3]]


def _root_on_the_diagonal(y, v, perm, out):
    # a fault in building A: V added at (j, j) instead of (j, perm[j])
    out[...] = y + np.diag(v)
    return out


def test_a_fault_in_a_fails_the_certificate_against_h():
    # H's values are certified against H applied from Y and v, not against
    # A, so the fault passes A's own certificate and fails H's, in the one
    # real solve of every route to H's values
    g = make_grid(math.pi, 16)
    y, v = -(PP.c * PP.hbar) * derivative_matrix(g, FOURIER), COS.values(g)
    perm = reflection_permutation(g)
    _, pairs = gridmod._solve_a(y, v, perm, 1e-10)
    assert len(gridmod._solve_rotated(y, v, perm, PP.rest_energy, pairs, 1e-10)) == 32
    with mock.patch.object(gridmod, "_root_matrix", _root_on_the_diagonal):
        _, faulty = gridmod._solve_a(y, v, perm, 1e-10)
        with pytest.raises(ConvergenceFailure) as failed:
            gridmod._solve_rotated(y, v, perm, PP.rest_energy, faulty, 1e-10)
        pair, pair_solved = _solve_counted(solve_pair, COS, g, PP, FOURIER)
        dirac, dirac_solved = _solve_counted(solve_dirac, COS, g, PP, FOURIER)
    resid = float(re.fullmatch(r"eigen residual (\S+) exceeds tolerance 1\.000e-10",
                               str(failed.value))[1])
    assert resid > 1e-2
    for err in (pair, dirac):
        assert isinstance(err, ConvergenceFailure) and str(err) == str(failed.value)
    assert pair_solved == dirac_solved == [_F64_16]


def test_u_applied_by_blocks_is_the_product_u():
    g = make_grid(math.pi, 16)
    y, v = -(PP.c * PP.hbar) * derivative_matrix(g, FOURIER), COS.values(g)
    u = build_reduced(COS, g, PP, FOURIER)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(16, 6)) + 1j * rng.normal(size=(16, 6))
    assert np.abs(gridmod._apply_u(y, v, x) - u @ x).max() <= 1e-14 * frob_norm(u)
    # ||A^2||_F, the certificate's norm, is ||U||_F to rounding: U = -Q A^2 Q^dag
    a = gridmod._root_matrix(y, v, reflection_permutation(g), np.empty_like(y))
    assert frob_norm(a @ a) == pytest.approx(frob_norm(u), rel=1e-14)


def test_a_fault_in_a_fails_the_certificate_against_u():
    # the reduced side certifies Q x against U applied from Y and v, not
    # against A^2 of the same A, so the fault fails its one real solve
    g = make_grid(math.pi, 16)
    y, v = -(PP.c * PP.hbar) * derivative_matrix(g, FOURIER), COS.values(g)
    perm = reflection_permutation(g)
    assert len(gridmod._solve_real_reduced(y, v, perm, *gridmod._solve_a(y, v, perm, 1e-10),
                                           1e-10)) == 16
    with mock.patch.object(gridmod, "_root_matrix", _root_on_the_diagonal):
        reduced, solved = _solve_counted(solve_reduced, COS, g, PP, FOURIER)
    assert isinstance(reduced, ConvergenceFailure) and solved == [((16, 16), np.float64)]
    resid = float(re.fullmatch(r"eigen residual (\S+) exceeds tolerance 1\.000e-10",
                               str(reduced))[1])
    assert resid > 1e-2


_COS_ARGV = ["--model", "scalar_grid", "--potential", "cosine", "--g", "1", "--grid-n", "16"]


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_grid_pair_commands_gate_once(command, capsys):
    with mock.patch.object(gridmod, "derivative_matrix", wraps=derivative_matrix) as built:
        assert main([command, *_COS_ARGV]) == 0
    assert built.call_count == 1


@pytest.mark.parametrize("argv", [
    ["verify", *_COS_ARGV],
    ["reduce", *_COS_ARGV],
    ["spectrum", *_COS_ARGV],
    ["sweep", *_COS_ARGV, "--sweep-param", "g", "--sweep-min", "5", "--sweep-max", "20",
     "--sweep-steps", "4"],
], ids=lambda argv: argv[0])
def test_a_fault_in_a_fails_the_command(argv, capsys):
    with mock.patch.object(gridmod, "_root_matrix", _root_on_the_diagonal):
        assert main(argv) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"]["type"] == "ConvergenceFailure"


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_reduce_builds_nothing_2n(command, capsys):
    # no H, and LAPACK sees only real N x N arrays: A, then the witness, the
    # real part of Q^dag U Q for build_reduced's product_exact U
    refuse = mock.Mock(side_effect=AssertionError("H was built"))
    with mock.patch.object(gridmod, "assemble_dirac_blocks", refuse), \
         mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as vectors, \
         mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as values:
        assert main([command, *_COS_ARGV]) == 0
    record = json.loads(capsys.readouterr().out)
    if command == "reduce":
        assert record["reduction"]["identity_mismatch"] <= 1e-13
    else:
        assert record["all_passed"] is True
    refuse.assert_not_called()
    solved = [c.args[0] for c in vectors.call_args_list + values.call_args_list]
    assert [(x.shape, x.dtype) for x in solved] == [_F64_16, _F64_16]
    g = make_grid(math.pi, 16)
    u = build_reduced(COS, g, PP)
    assert solved[1].tobytes() == gridmod._rotated(u, reflection_permutation(g))[0].tobytes()


def test_verify_builds_one_u_and_checks_h_by_blocks(capsys):
    # grid verify builds U once, in solve_pair, and hands that U to its
    # conjugation check; H's parity check reads H's N x N blocks
    assemble, built = gridmod.assemble_reduced, []

    def assemble_once(*args):
        built.append(assemble(*args))
        return built[-1]

    with mock.patch.object(gridmod, "assemble_reduced", assemble_once), \
         mock.patch.object(gridmod, "reflection_conjugation_residual",
                           wraps=reflection_conjugation_residual) as conjugation:
        assert main(["verify", *_COS_ARGV]) == 0
    checks = {c["name"]: c["value"] for c in json.loads(capsys.readouterr().out)["checks"]}
    (u,) = built
    (call,) = conjugation.call_args_list
    assert call.args[0] is u
    g = make_grid(math.pi, 16)
    d, v = gridmod._gated(COS, g, FOURIER)
    assert checks["grid_parity_pseudo_hermiticity"] == grid_parity_residual(
        assemble_dirac_blocks(d, v, PP), g) == 0.0


@pytest.mark.parametrize("n, bc, scheme", [(16, PERIODIC, FOURIER), (24, PERIODIC, CENTRAL2),
                                           (15, DIRICHLET, CENTRAL2)])
@pytest.mark.parametrize("pp", [PP, PhysParams(m0=0.0), PhysParams(m0=2.0, c=0.5, hbar=3.0)])
def test_coupling_parity_residual_is_the_2n_residual(n, bc, scheme, pp):
    g = make_grid(math.pi, n, bc)
    d = derivative_matrix(g, scheme)
    even = gridmod._gated(COS, g, scheme)[1]
    assert gridmod.coupling_parity_residual(d, even, pp, g) == 0.0
    # an odd part: the same defect, and ||H||_F summed by blocks
    v = even + 0.3 * np.sin(g.points)
    blocks = gridmod.coupling_parity_residual(d, v, pp, g)
    assert blocks == pytest.approx(grid_parity_residual(assemble_dirac_blocks(d, v, pp), g),
                                   rel=1e-15)
    assert blocks > 1e-2


@pytest.mark.parametrize("flags", [
    # V0 = m0 c^2 on the p = 0 mode: E = 0 with a Jordan block, where E's
    # rounding is sqrt(rounding); in eps the two sides meet to rounding
    ["--v0", "1", "--grid-n", "8", "--grid-L", "1", "--scheme", "central2"],
    # ||U|| grows as (c hbar k_max)^2, and both sides carry rounding times
    # ||U||: the gap is taken relative to it, not to |eps|
    ["--potential", "gaussian", "--c", "137", "--grid-n", "128"],
    ["--potential", "gaussian", "--hbar", "100", "--grid-n", "384"],
    ["--potential", "gaussian", "--grid-L", "0.01", "--grid-n", "64"],
])
def test_verify_passes_the_identity_in_eps_space(capsys, flags):
    assert main(["verify", "--model", "scalar_grid", *flags]) == 0
    record = json.loads(capsys.readouterr().out)
    (check,) = [c for c in record["checks"] if c["name"] == "reduction_identity_mismatch"]
    assert record["all_passed"] is True and check["value"] <= 1e-13


def test_grid_sweep_takes_one_real_solve_per_point(capsys):
    with mock.patch.object(gridmod, "solve_reduced", wraps=solve_reduced) as points, \
         mock.patch.object(gridmod, "eigendecompose", wraps=eigendecompose) as solves:
        assert main(["sweep", *_COS_ARGV, "--sweep-param", "g", "--sweep-min", "5",
                     "--sweep-max", "20", "--sweep-steps", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["threshold"] is not None
    assert points.call_count > 4  # the grid points and the threshold search
    shapes = [(c.args[0].shape, c.args[0].dtype) for c in solves.call_args_list]
    assert shapes == [((16, 16), np.float64)] * points.call_count


def test_massless_grid_spectrum_takes_one_real_solve(capsys):
    with mock.patch.object(gridmod, "eigendecompose", wraps=eigendecompose) as solves:
        assert main(["spectrum", "--model", "scalar_grid", "--potential", "cosine", "--g", "1",
                     "--grid-n", "32", "--m0", "0"]) == 0
    assert len(json.loads(capsys.readouterr().out)["eigenvalues"]) == 64
    assert [(c.args[0].shape, c.args[0].dtype) for c in solves.call_args_list] == [
        ((32, 32), np.float64)]


@pytest.mark.parametrize("scheme, lowest", [(FOURIER, 0.9999999999996317),
                                             (CENTRAL2, 0.9991970675391472)])
def test_gaussian_sweep_threshold_is_the_sweep_min(scheme, lowest, capsys):
    # Degenerate levels of c^2 P^2 (the +-k pairs of the ring, and the
    # central2 doublers) split at first order in g, so the reduced spectrum
    # is complex for every g > 0: the threshold is --sweep-min itself, found
    # without a search, and the lowest split level is k = 1's.
    argv = ["sweep", "--model", "scalar_grid", "--potential", "gaussian", "--g", "0.5",
            "--width", "0.5", "--grid-n", "128", "--scheme", scheme, "--sweep-param", "g",
            "--sweep-min", "0", "--sweep-max", "3", "--sweep-steps", "11"]
    with mock.patch.object(gridmod, "eigendecompose", wraps=eigendecompose) as solves:
        assert main(argv) == 0
    threshold = json.loads(capsys.readouterr().out)["threshold"]
    assert threshold == {"param": "g", "value": 0.0, "split_levels": 1, "lowest_split": lowest}
    assert solves.call_count == 11  # the grid points, and no threshold search


def test_a_first_bracket_at_zero_without_a_split_is_searched(capsys):
    # cosine mode 1 on the periodic ring couples no +-k pair at first order,
    # so its first bracket, [0, 20], is searched
    argv = ["sweep", "--model", "scalar_grid", "--potential", "cosine", "--grid-n", "16",
            "--sweep-param", "g", "--sweep-min", "0", "--sweep-max", "20", "--sweep-steps", "2"]
    with mock.patch.object(gridmod, "first_order_split",
                           wraps=gridmod.first_order_split) as rule:
        assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert [p["classification"] for p in record["sweep"]["points"]] == [ALL_REAL,
                                                                         CONJUGATE_PAIRS]
    (call,) = rule.call_args_list  # the rule ran on the first bracket and found no split
    assert len(gridmod.first_order_split(*call.args)) == 0
    assert record["threshold"] == {"param": "g", "value": 5.166824743255056}
    # bisection's value, within one stop width
    assert abs(5.166824743255056 - 5.166824741754681) <= BISECT_RTOL * 5.166824741754681


def _g_sweep_solves(capsys, argv: list[str]) -> tuple[int, float]:
    solves, threshold = sweep_solves(
        capsys, ["sweep", "--model", "scalar_grid", *argv, "--sweep-param", "g"])
    return solves, threshold["value"]


@pytest.mark.parametrize("argv, most", [
    # bisection took 29 and 28 solves
    (["--grid-n", "16", "--sweep-min", "4", "--sweep-max", "6", "--sweep-steps", "2"], 14),
    (["--grid-n", "64", "--sweep-min", "12", "--sweep-max", "14", "--sweep-steps", "2"], 14),
    # the golden case, which bisection took 30 solves over
    (["--grid-n", "16", "--sweep-min", "5", "--sweep-max", "20", "--sweep-steps", "4"], 30 + 2),
])
def test_a_grid_threshold_search_takes_few_solves(capsys, argv, most):
    solves, _ = _g_sweep_solves(capsys, ["--potential", "cosine", *argv])
    assert solves <= most


def test_a_threshold_at_the_bracket_floor_costs_at_most_the_spare_solves(capsys):
    # without the first-order rule, the split of cosine dirichlet central2
    # N = 15 at g = 0 leaves the secant no sign change to use: bisection
    # took 30 solves, and the budget holds the search to 30 + SPARE_SOLVES
    with mock.patch.object(gridmod, "first_order_split", return_value=np.array([])):
        solves, threshold = _g_sweep_solves(capsys, [
            "--potential", "cosine", "--grid-n", "15", "--bc", "dirichlet", "--scheme",
            "central2", "--sweep-min", "0", "--sweep-max", "1", "--sweep-steps", "2"])
    assert 0.0 < threshold <= BISECT_RTOL
    assert solves <= 30 + SPARE_SOLVES


_GAUSS_ARGV = ["--model", "scalar_grid", "--potential", "gaussian", "--g", "1.2", "--width",
               "0.5", "--grid-n", "16"]


@pytest.mark.parametrize("argv", [
    ["reduce", *_COS_ARGV, "--form", PRODUCT_EXACT],
    ["reduce", *_COS_ARGV, "--form", ANALYTIC_U],
    ["reduce", *_GAUSS_ARGV, "--scheme", CENTRAL2, "--form", ANALYTIC_U],
    ["verify", *_COS_ARGV],
    ["spectrum", *_COS_ARGV],
    ["sweep", *_COS_ARGV, "--sweep-param", "g", "--sweep-min", "5", "--sweep-max", "20",
     "--sweep-steps", "4"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_grid_commands_hand_lapack_only_real_arrays(argv, capsys):
    with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig, \
         mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as eigvals:
        assert main(argv) == 0
    capsys.readouterr()
    solved = [c.args[0] for c in eig.call_args_list + eigvals.call_args_list]
    assert solved and all(np.asarray(x).dtype == np.float64 for x in solved)


def _with_odd_part(assemble):
    # U plus a real antisymmetric R-odd matrix of 1e-6 ||U||_F: it moves no
    # simple eigenvalue at first order, but it makes Q^dag U Q non-real
    def faulty(d, v, spec, grid, pp, form):
        u = assemble(d, v, spec, grid, pp, form)
        perm = reflection_permutation(grid)
        m = np.random.default_rng(11).normal(size=u.shape)
        m -= m.T
        odd = m - m[np.ix_(perm, perm)]
        return u + odd * (1e-6 * frob_norm(u) / frob_norm(odd))
    return faulty


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_an_r_odd_fault_in_the_witness_u_fails_the_identity(command, capsys):
    # the values of the faulty U meet A's eps to 2.2e-10 of ||U||_F; the norm
    # of the imaginary part of Q^dag U Q is what fails
    with mock.patch.object(gridmod, "assemble_reduced",
                           _with_odd_part(gridmod.assemble_reduced)):
        assert main([command, *_GAUSS_ARGV]) == 0
    record = json.loads(capsys.readouterr().out)
    if command == "reduce":
        mismatch = record["reduction"]["identity_mismatch"]
    else:
        (check,) = [c for c in record["checks"] if c["name"] == "reduction_identity_mismatch"]
        assert check["pass"] is False and record["all_passed"] is False
        mismatch = check["value"]
    assert mismatch >= 5e-7


def _w_on_the_diagonal(u, perm):
    # a fault in the analytic route: w = c hbar V' put at (j, j), not (j, perm[j])
    return np.ascontiguousarray(u.real + np.diag(u.imag.diagonal())), 0.0


def test_a_fault_in_the_analytic_real_matrix_fails_its_certificate(capsys):
    with mock.patch.object(gridmod, "_rotated", _w_on_the_diagonal):
        assert main(["reduce", *_COS_ARGV, "--form", ANALYTIC_U]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ConvergenceFailure"
    resid = float(re.fullmatch(r"eigen residual (\S+) exceeds tolerance 1\.000e-10",
                               error["message"])[1])
    assert resid > 1e-3


def test_analytic_u_spectrum_is_conjugate_closed(capsys):
    # the analytic U's values come from a real matrix, so its complex levels
    # pair exactly; zgeev of the complex U made this spectrum mixed
    assert main(["reduce", *_GAUSS_ARGV, "--form", ANALYTIC_U]) == 0
    reduction = json.loads(capsys.readouterr().out)["reduction"]
    assert reduction["reduced_classification"] == CONJUGATE_PAIRS


@pytest.mark.parametrize("spec, n, bc", [
    (PotentialSpec.gaussian(1.2, 0.5), 16, PERIODIC),
    (PotentialSpec.gaussian(1.2, 0.5), 15, DIRICHLET),
    (COS, 32, PERIODIC),
    (PotentialSpec.cosine(0.5, 2), 33, DIRICHLET),
])
def test_analytic_u_takes_the_odd_part_of_v_prime(spec, n, bc):
    # the ring's point -L is its own mirror, where the gaussian's V' is not 0
    g = make_grid(math.pi, n, bc)
    perm = reflection_permutation(g)
    w = build_reduced(spec, g, PP, CENTRAL2, ANALYTIC_U).imag.diagonal()
    assert np.array_equal(w, -w[perm])
    raw = spec.derivative_values(g)
    assert np.array_equal(w[perm != np.arange(n)], raw[perm != np.arange(n)])
