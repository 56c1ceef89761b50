"""Position-space treatment of the 1+1-D Dirac model with even potentials.

A symmetric one-dimensional grid carries a real antisymmetric derivative
matrix D (second-order central differences, or the trigonometric-
interpolant differentiation matrix of Trefethen, "Spectral Methods in
MATLAB", SIAM 2000, for periodic grids).  With P = -i hbar D and
V = diag(V(x_j)) the 2N x 2N Dirac block is

    H = [[ m0 c^2 I,  cP + V ],
         [ cP - V,  -m0 c^2 I ]]

Eliminating the lower spinor component turns the eigenproblem into an
N x N one: (cP + V)(cP - V) phi = eps phi with eps = E^2 - (m0 c^2)^2.
That product form is an exact Schur-complement identity at the matrix
level, so the Dirac spectrum is recovered exactly as +-sqrt(eps + m^2);
the expanded form -c^2 hbar^2 D^2 + diag(i c hbar V' - V^2) reproduces
the same operator only up to discretization error and lives here as the
``analytic_U`` variant.

Symmetry bookkeeping is exact by construction: the grids are built so
the reflection x -> -x is an index permutation R of the points, the
derivative matrices satisfy R D R = -D bit-for-bit, and conjugation with
diag(R, -R) maps H to its adjoint whenever V is even.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricGrid,
    NoAnalyticDerivative,
    OddPotential,
    SampleGridMismatch,
    SchemeBoundaryMismatch,
)
from .linalg import (
    DEFAULT_TOL,
    adjoint,
    as_cmatrix,
    eigendecompose,
    relative_residual,
    sort_by_re_im,
)
from .models import PhysParams

PERIODIC = "periodic"
DIRICHLET = "dirichlet"
CENTRAL2 = "central2"
FOURIER = "fourier"

MIN_POINTS = 8


@dataclass(frozen=True)
class Grid1D:
    """Symmetric 1-D grid on [-L, L]; reflection is an exact index permutation."""

    half_length: float
    n_points: int
    bc: str
    points: np.ndarray
    dx: float


def make_grid(half_length: float, n_points: int, bc: str = PERIODIC) -> Grid1D:
    """Build a reflection-symmetric grid.

    periodic: x_j = -L + j*dx, j = 0..N-1, dx = 2L/N (the point -L is kept,
    +L identified with it).  dirichlet: odd N interior points of (-L, L)
    with x = 0 at the center, endpoints excluded.
    """
    if not (half_length > 0 and np.isfinite(half_length)):
        raise AsymmetricGrid(f"half-length must be positive, got {half_length}")
    if n_points < MIN_POINTS:
        raise AsymmetricGrid(f"need at least {MIN_POINTS} points, got {n_points}")
    if bc == PERIODIC:
        # (2j - N) * (L/N) equals -L + j*dx but makes x -> -x an exact
        # permutation in floating point.
        h2 = half_length / n_points
        points = (2 * np.arange(n_points) - n_points) * h2
    elif bc == DIRICHLET:
        if n_points % 2 == 0:
            raise AsymmetricGrid("dirichlet grids need odd N (center point at 0)")
        m = n_points + 1
        h2 = half_length / m
        points = (2 * (np.arange(n_points) + 1) - m) * h2
    else:
        raise AsymmetricGrid(f"unknown boundary kind {bc!r}")
    return Grid1D(
        half_length=half_length,
        n_points=n_points,
        bc=bc,
        points=points,
        dx=2 * h2,
    )


def reflection_permutation(grid: Grid1D) -> np.ndarray:
    """Index permutation sigma with x[sigma[j]] == -x[j] exactly."""
    n = grid.n_points
    if grid.bc == PERIODIC:
        return (-np.arange(n)) % n
    return n - 1 - np.arange(n)


def _circulant_column(n: int, entry) -> np.ndarray:
    # First column with c[n-k] = -c[k] enforced exactly, so the circulant
    # is antisymmetric bit-for-bit; the even-n middle entry is 0 by the
    # odd symmetry.
    c = np.zeros(n)
    for k in range(1, (n - 1) // 2 + 1):
        c[k] = entry(k)
        c[n - k] = -c[k]
    return c


def _circulant(c: np.ndarray) -> np.ndarray:
    """The circulant matrix with first column c: entry (i, j) is c[(i - j) % n]."""
    i = np.arange(len(c))
    return c[(i[:, None] - i) % len(c)]


def derivative_matrix(grid: Grid1D, scheme: str = FOURIER) -> np.ndarray:
    """Real antisymmetric first-derivative matrix for the grid.

    central2 is the standard (f_{j+1} - f_{j-1}) / (2 dx) stencil with
    periodic wraparound or homogeneous Dirichlet closure; fourier is the
    exact differentiation of the trigonometric interpolant (periodic
    only).  Both satisfy R D R = -D exactly for the grid's reflection R.
    """
    n = grid.n_points
    if scheme == CENTRAL2:
        if grid.bc == PERIODIC:
            c = np.zeros(n)
            c[1] = -1.0 / (2 * grid.dx)
            c[n - 1] = 1.0 / (2 * grid.dx)
            return _circulant(c)
        d = np.zeros((n, n))
        band = 1.0 / (2 * grid.dx)
        idx = np.arange(n - 1)
        d[idx, idx + 1] = band
        d[idx + 1, idx] = -band
        return d
    if scheme == FOURIER:
        if grid.bc != PERIODIC:
            raise SchemeBoundaryMismatch("fourier differentiation needs a periodic grid")
        h = 2 * math.pi / n
        if n % 2 == 0:
            entry = lambda k: 0.5 * (-1.0) ** k / math.tan(k * h / 2)
        else:
            entry = lambda k: 0.5 * (-1.0) ** k / math.sin(k * h / 2)
        c = _circulant_column(n, entry)
        return _circulant(c) * (math.pi / grid.half_length)
    raise SchemeBoundaryMismatch(f"unknown scheme {scheme!r}")


# Each potential family: its record parameters, in record order, and the
# relative tolerance of its evenness gate.  Analytic values are even to
# rounding; sampled values only to the digits they were written with.
FAMILIES = {
    "constant": (("v0",), 1e-12),
    "cosine": (("g", "mode"), 1e-12),
    "gaussian": (("g", "width"), 1e-12),
    "samples": ((), 1e-8),
}


@dataclass(frozen=True)
class PotentialSpec:
    """Even potential on the grid: an analytic family or sampled values.

    Families: constant(v0); cosine(g, mode) = g*cos(mode*pi*x/L);
    gaussian(g, width) = g*exp(-x^2/(2 width^2)); samples from a
    two-column ``x,V`` CSV whose abscissae must coincide with the grid
    (no interpolation).  The grid builders gate evenness:
    max_j |V(x_j) - V(-x_j)| <= tol * max_j |V(x_j)|, with the family's
    tol from ``FAMILIES``.
    """

    family: str
    v0: float = 0.0
    g: float = 0.0
    mode: int = 1
    width: float = 1.0
    samples_x: np.ndarray | None = field(default=None, repr=False)
    samples_v: np.ndarray | None = field(default=None, repr=False)
    source: str | None = None

    def __post_init__(self):
        # here rather than in the constructors, so dataclasses.replace checks too
        if self.family == "cosine" and self.mode < 1:
            raise ValueError(f"cosine mode must be >= 1, got {self.mode}")
        if self.family == "gaussian" and self.width <= 0:
            raise ValueError(f"gaussian width must be > 0, got {self.width}")

    @classmethod
    def constant(cls, v0: float) -> "PotentialSpec":
        return cls(family="constant", v0=float(v0))

    @classmethod
    def cosine(cls, g: float, mode: int = 1) -> "PotentialSpec":
        return cls(family="cosine", g=float(g), mode=int(mode))

    @classmethod
    def gaussian(cls, g: float, width: float) -> "PotentialSpec":
        return cls(family="gaussian", g=float(g), width=float(width))

    @classmethod
    def samples(cls, x, v, source: str | None = None):
        xa = np.asarray(x, dtype=float)
        va = np.asarray(v, dtype=float)
        if xa.shape != va.shape or xa.ndim != 1:
            raise ValueError("sampled potential needs matching 1-D x and V arrays")
        return cls(family="samples", samples_x=xa, samples_v=va, source=source)

    @classmethod
    def from_csv(cls, path: str) -> "PotentialSpec":
        """Load samples from a UTF-8 ``x,V`` CSV with a header row."""
        xs: list[float] = []
        vs: list[float] = []
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [col.strip() for col in header[:2]] != ["x", "V"]:
                raise ValueError(f"{path}: expected header 'x,V', got {header!r}")
            for row in reader:
                if not row:
                    continue
                xs.append(float(row[0]))
                vs.append(float(row[1]))
        return cls.samples(xs, vs, source=path)

    def values(self, grid: Grid1D) -> np.ndarray:
        x = grid.points
        if self.family == "constant":
            return np.full(grid.n_points, self.v0)
        if self.family == "cosine":
            return self.g * np.cos(self.mode * math.pi * x / grid.half_length)
        if self.family == "gaussian":
            return self.g * np.exp(-(x**2) / (2 * self.width**2))
        if self.family == "samples":
            if len(self.samples_x) != grid.n_points:
                raise SampleGridMismatch(
                    f"{len(self.samples_x)} samples for a {grid.n_points}-point grid"
                )
            gap = float(np.max(np.abs(self.samples_x - x)))
            if gap > 1e-12 * max(1.0, grid.half_length):
                raise SampleGridMismatch(
                    f"sample abscissae deviate from grid points by {gap:.3e}"
                )
            return self.samples_v.copy()
        raise ValueError(f"unknown potential family {self.family!r}")

    def derivative_values(self, grid: Grid1D) -> np.ndarray:
        x = grid.points
        if self.family == "constant":
            return np.zeros(grid.n_points)
        if self.family == "cosine":
            w = self.mode * math.pi / grid.half_length
            return -self.g * w * np.sin(w * x)
        if self.family == "gaussian":
            return self.values(grid) * (-x / self.width**2)
        raise NoAnalyticDerivative(
            f"potential family {self.family!r} has no closed-form derivative"
        )

    def describe(self) -> dict:
        """Parameter table for result records."""
        out: dict = {"potential": self.family}
        for name in FAMILIES[self.family][0]:
            out[name] = getattr(self, name)
        if self.family == "samples":
            out["file"] = self.source or "<arrays>"
        return out


def _gated(spec: PotentialSpec, grid: Grid1D, scheme: str):
    """D and V(x_j) for the grid builders, once V has passed the evenness gate."""
    d = derivative_matrix(grid, scheme)
    v = spec.values(grid)
    defect = float(np.max(np.abs(v - v[reflection_permutation(grid)])))
    if defect > FAMILIES[spec.family][1] * float(np.max(np.abs(v), initial=0.0)):
        raise OddPotential(
            f"potential fails the evenness gate: max |V(x) - V(-x)| = {defect:.3e}"
        )
    return d, v


def _coupling(d: np.ndarray, v: np.ndarray, pp: PhysParams):
    """cP = -i c hbar D and V = diag(V(x_j)), the terms of the blocks cP +- V."""
    return (-1j * pp.c * pp.hbar) * d, np.diag(v.astype(complex))


PRODUCT_EXACT = "product_exact"
ANALYTIC_U = "analytic_U"


def assemble_dirac_blocks(d: np.ndarray, v: np.ndarray, pp: PhysParams) -> np.ndarray:
    """Raw block assembly [[mI, cP+V], [cP-V, -mI]]; no evenness gate."""
    cp, vd = _coupling(d, v, pp)
    m = pp.rest_energy * np.eye(len(v))
    return np.block([[m, cp + vd], [cp - vd, -m]]).astype(np.complex128)


def build_dirac_grid(
    spec: PotentialSpec, grid: Grid1D, pp: PhysParams, scheme: str = FOURIER
) -> np.ndarray:
    """Discretized 2N x 2N Dirac operator for an even potential (gate enforced)."""
    return assemble_dirac_blocks(*_gated(spec, grid, scheme), pp)


def build_reduced(
    spec: PotentialSpec,
    grid: Grid1D,
    pp: PhysParams,
    scheme: str = FOURIER,
    form: str = PRODUCT_EXACT,
) -> np.ndarray:
    """Component-eliminated N x N operator; eps = E^2 - (m0 c^2)^2.

    ``product_exact`` multiplies the blocks (cP+V)(cP-V) and preserves
    the Dirac correspondence exactly on the grid; ``analytic_U`` builds
    -c^2 hbar^2 D^2 + diag(i c hbar V' - V^2) from the closed-form
    derivative and differs by discretization error.
    """
    d, v = _gated(spec, grid, scheme)
    if form == PRODUCT_EXACT:
        cp, vd = _coupling(d, v, pp)
        matrix = (cp + vd) @ (cp - vd)
    elif form == ANALYTIC_U:
        ch = pp.c * pp.hbar
        vprime = spec.derivative_values(grid)
        matrix = -(ch**2) * (d @ d) + np.diag(1j * ch * vprime - v**2)
    else:
        raise ValueError(f"unknown reduced form {form!r}")
    return as_cmatrix(matrix)


def reduced_to_dirac_energies(eps, pp: PhysParams) -> np.ndarray:
    """Map each eps to the pair +-sqrt(eps + (m0 c^2)^2), principal branch."""
    eps = np.asarray(eps, dtype=np.complex128).ravel()
    roots = np.sqrt(eps + pp.rest_energy**2)
    return np.column_stack([roots, -roots]).ravel()


#: Distance from -m0 c^2 within which a value is left out of the match.
SINGULAR_TOL = 1e-8


def reduction_identity_mismatch(dirac_values, reduced_values, pp: PhysParams) -> float:
    """Largest relative gap between the Dirac spectrum and the mapped one.

    Both multisets are sorted by (Re, Im); each Dirac value, in that order,
    is then matched to the nearest unused mapped value.  The search spans
    the whole list, because the sort order is not a matching: conjugate
    pairs can differ in the last ulp of their real parts, and on an all
    imaginary spectrum the real parts are rounding noise, so a value's
    partner can sit anywhere in the other list.  Values within SINGULAR_TOL
    of -m0 c^2, where the component elimination is singular, are skipped.
    """
    a = np.asarray(dirac_values, dtype=np.complex128).ravel()
    b = reduced_to_dirac_energies(reduced_values, pp)
    if len(a) != len(b):
        raise ValueError(f"spectrum sizes differ: {len(a)} vs {len(b)}")
    a = a[sort_by_re_im(a)]
    b = b[sort_by_re_im(b)]
    n = len(a)
    used = np.zeros(n, dtype=bool)
    worst = 0.0
    for i in range(n):
        cand = np.flatnonzero(~used)
        j = cand[int(np.argmin(np.abs(b[cand] - a[i])))]
        used[j] = True
        if (
            abs(a[i] + pp.rest_energy) <= SINGULAR_TOL
            or abs(b[j] + pp.rest_energy) <= SINGULAR_TOL
        ):
            continue
        worst = max(worst, abs(a[i] - b[j]) / max(1.0, abs(a[i])))
    return float(worst)


def grid_parity_residual(matrix: np.ndarray, grid: Grid1D) -> float:
    """||P_D H P_D^-1 - H^dag||_F / max(1, ||H||_F), computed exactly.

    P_D = diag(R, -R) is applied as an index permutation plus sign flips,
    so no rounding enters beyond the entries of H itself.
    """
    h = as_cmatrix(matrix)
    n = grid.n_points
    perm = reflection_permutation(grid)
    pd = np.concatenate([perm, n + perm])
    sign = np.concatenate([np.ones(n), -np.ones(n)])
    conj = sign[:, None] * h[np.ix_(pd, pd)] * sign[None, :]
    return relative_residual(conj - adjoint(h), h)


def reflection_conjugation_residual(matrix: np.ndarray, grid: Grid1D) -> float:
    """||R U R - conj(U)||_F / max(1, ||U||_F) for the reduced operator."""
    u = as_cmatrix(matrix)
    perm = reflection_permutation(grid)
    refl = u[np.ix_(perm, perm)]
    return relative_residual(refl - u.conj(), u)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Eigenvalue errors of a tracked low-|E| level against a fine reference."""

    rows: list[tuple[int, float]]
    ref_n: int
    ref_value: float


#: Relative gap between consecutive |E| that starts a new level.
LEVEL_RTOL = 1e-3
#: Size of the reference grid of a convergence study, in multiples of the largest N.
REF_FACTOR = 4


def _level_value(values: np.ndarray, track_level: int):
    # Cluster the ascending |E| list into degenerate levels and return the
    # first member of the requested one.
    mags = np.sort(np.abs(values))
    level = 0
    for i in range(len(mags)):
        if i > 0 and mags[i] - mags[i - 1] > LEVEL_RTOL * max(1.0, mags[i]):
            level += 1
        if level == track_level:
            return float(mags[i])
    raise ValueError(f"spectrum has fewer than {track_level + 1} levels")


def convergence_study(
    spec: PotentialSpec,
    pp: PhysParams,
    ns: list[int],
    scheme: str = CENTRAL2,
    half_length: float = math.pi,
    bc: str = PERIODIC,
    tol: float = DEFAULT_TOL,
    track_level: int = 0,
) -> ConvergenceStudy:
    """Track one low-|E| Dirac eigenvalue level while refining the grid.

    The reference is the same computation at REF_FACTOR times the
    largest requested N (rounded up to odd for dirichlet grids); each row
    is (N, |e(N) - e(ref)|).  ``track_level`` selects which distinct |E|
    level is followed, counted from the bottom: level 0 is the lowest.
    (Some potentials put an exactly-representable zero mode of the
    eliminated product at the bottom of the spectrum; its error is solver
    noise at every N, so a discretization study should track level 1.)
    """
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("Ns must be a non-empty ascending list")
    ref_n = REF_FACTOR * max(ns)
    if bc == DIRICHLET and ref_n % 2 == 0:
        ref_n += 1

    def tracked(n: int) -> float:
        grid = make_grid(half_length, n, bc)
        es = eigendecompose(build_dirac_grid(spec, grid, pp, scheme), tol)
        return _level_value(es.values, track_level)

    ref_value = tracked(ref_n)
    rows = [(n, abs(tracked(n) - ref_value)) for n in ns]
    return ConvergenceStudy(rows=rows, ref_n=ref_n, ref_value=ref_value)
