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
diag(R, -R) maps H to its adjoint whenever V is even.  The builders gate
V's evenness and then use V's even part, so every grid operator is
exactly even.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AsymmetricGrid,
    DimensionMismatch,
    NoAnalyticDerivative,
    OddPotential,
    SampleGridMismatch,
    SchemeBoundaryMismatch,
)
from .linalg import (
    DEFAULT_TOL,
    MAX_DIM,
    PANEL,
    as_cmatrix,
    certify,
    eigen_residual,
    eigendecompose,
    finite_values,
    frob_norm,
    real_times_complex,
    relative_residual,
    sort_by_re_im,
    sorted_eig,
    take_nearest,
)
from .models import PhysParams, _square

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
    """Build a reflection-symmetric grid from the periodic ring of m points.

    The ring is x_j = -L + j*dx, j = 0..m-1, dx = 2L/m (+L identified with
    -L).  periodic: the whole ring, m = N.  dirichlet: m = N + 1 without the
    wall point -L, so odd N interior points with x = 0 at the center.
    """
    if not (half_length > 0 and np.isfinite(half_length)):
        raise AsymmetricGrid(f"half-length must be positive, got {half_length}")
    if n_points < MIN_POINTS:
        raise AsymmetricGrid(f"need at least {MIN_POINTS} points, got {n_points}")
    if bc not in (PERIODIC, DIRICHLET):
        raise AsymmetricGrid(f"unknown boundary kind {bc!r}")
    if bc == DIRICHLET and n_points % 2 == 0:
        raise AsymmetricGrid("dirichlet grids need odd N (center point at 0)")
    wall = int(bc == DIRICHLET)
    m = n_points + wall
    # (2j - m) * (L/m) equals -L + j*dx but makes x -> -x an exact
    # permutation in floating point.
    h2 = half_length / m
    return Grid1D(
        half_length=half_length,
        n_points=n_points,
        bc=bc,
        points=(2 * np.arange(wall, m) - m) * h2,
        dx=2 * h2,
    )


def reflection_permutation(grid: Grid1D) -> np.ndarray:
    """Index permutation with x[sigma[j]] == -x[j]: the ring's j -> (m - j) mod m."""
    wall = int(grid.bc == DIRICHLET)
    m = grid.n_points + wall
    return (-np.arange(wall, m)) % m - wall


def _circulant_column(n: int, entry) -> np.ndarray:
    # First column with c[n-k] = -c[k] enforced exactly, so the circulant
    # is antisymmetric bit-for-bit; the even-n middle entry is 0 by the
    # odd symmetry.
    c = np.zeros(n)
    for k in range(1, (n - 1) // 2 + 1):
        c[k] = entry(k)
        c[n - k] = -c[k]
    return c


def _circulant(c: np.ndarray, start: int = 0) -> np.ndarray:
    """Rows and columns start.. of the circulant c[(i - j) % n]."""
    i = np.arange(start, len(c))
    return c[(i[:, None] - i) % len(c)]


def derivative_matrix(grid: Grid1D, scheme: str = FOURIER) -> np.ndarray:
    """Real antisymmetric first-derivative matrix for the grid.

    central2 is the standard (f_{j+1} - f_{j-1}) / (2 dx) stencil on the
    grid's ring, without the wall point's row and column on a dirichlet
    grid; fourier is the exact differentiation of the trigonometric
    interpolant (periodic only).  Both satisfy R D R = -D exactly for the
    grid's reflection R.
    """
    n = grid.n_points
    if scheme == CENTRAL2:
        wall = int(grid.bc == DIRICHLET)
        # Only the two nonzeros are set, so every zero is +0.0: LAPACK's
        # Householder steps read the sign of a zero.  numpy divides them, so
        # dx = 0 (L/m underflowed) gives inf entries, which the solves refuse.
        c = np.zeros(n + wall)
        c[[1, -1]] = np.array([-1.0, 1.0]) / (2 * grid.dx)
        return _circulant(c, wall)
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
            for row in filter(None, reader):  # blank lines are skipped
                if len(row) < 2:
                    raise ValueError(f"{path}: line {reader.line_num}: expected x,V, got {row!r}")
                try:
                    xs.append(float(row[0]))
                    vs.append(float(row[1]))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
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
            if not gap <= 1e-12 * max(1.0, grid.half_length):  # a NaN x fails too
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
    """D and the even part of V(x_j) for the grid builders, once V has passed the gate.

    The grid code solves the even part of the V that passed the evenness
    gate, so every grid operator is exactly even.  An exactly even V passes
    bit for bit; (V + RV)/2, halved term by term, cannot overflow.
    """
    d = derivative_matrix(grid, scheme)
    v = spec.values(grid)
    bad = ~np.isfinite(v)
    if bad.any():  # a NaN defect would pass the evenness gate below
        j = int(np.argmax(bad))
        raise ValueError(f"potential is not finite on the grid: V({grid.points[j]:.6g}) = {v[j]}")
    reflected = v[reflection_permutation(grid)]
    defect = float(np.max(np.abs(v - reflected)))
    if defect > FAMILIES[spec.family][1] * float(np.max(np.abs(v), initial=0.0)):
        raise OddPotential(
            f"potential fails the evenness gate: max |V(x) - V(-x)| = {defect:.3e}"
        )
    return d, _reflection_part(v, reflected)


def _reflection_part(x: np.ndarray, mirrored: np.ndarray) -> np.ndarray:
    """(x + mirrored) / 2, halved term by term so it cannot overflow, and x's own bits where equal.

    With ``mirrored`` = x[perm] it is x's R-even part, with -x[perm] its
    R-odd part.
    """
    return np.where(x == mirrored, x, 0.5 * x + 0.5 * mirrored)


def _coupling(d: np.ndarray, v: np.ndarray, pp: PhysParams, plus: np.ndarray,
              minus: np.ndarray) -> None:
    """Write the blocks cP + V and cP - V into ``plus`` and ``minus`` (N x N complex).

    cP = -i c hbar D and V = diag(V(x_j)).  The entries are those of cP +-
    diag(V) in complex arithmetic, bit for bit, with no N x N temporary:
    cP + 0 and cP - 0 off the diagonal (adding +0.0 makes a zero +0.0,
    subtracting it leaves every entry as is), cP +- V(x_j) on it.
    """
    np.multiply(-1j * pp.c_hbar, d, out=minus)
    np.add(minus, 0.0, out=plus)
    j = np.arange(len(v))
    cp = minus[j, j]
    plus[j, j] = cp + v
    minus[j, j] = cp - v


PRODUCT_EXACT = "product_exact"
ANALYTIC_U = "analytic_U"


def _refuse_past_max_dim(n: int) -> None:
    """Refuse a 2N x 2N Dirac operator past MAX_DIM, before anything 2N is built."""
    if 2 * n > MAX_DIM:
        raise DimensionMismatch(f"dimension {2 * n} exceeds limit {MAX_DIM}")


def assemble_dirac_blocks(d: np.ndarray, v: np.ndarray, pp: PhysParams) -> np.ndarray:
    """Raw block assembly [[mI, cP+V], [cP-V, -mI]]; no evenness gate; 2N <= MAX_DIM.

    Each block is written in place into the one 2N x 2N array, with the
    bits of the ``np.block`` of m I, cP +- V and -m I, signs of zeros
    included: m = m0 c^2 >= 0 is finite, so the zeros of -m I are -0.0.
    """
    n = len(v)
    _refuse_past_max_dim(n)
    h = np.zeros((2 * n, 2 * n), complex)
    _coupling(d, v, pp, h[:n, n:], h[n:, :n])
    rest = pp.rest_energy
    h.real[n:, n:] = -0.0
    j = np.arange(n)
    h.real[j, j] = rest
    h.real[j + n, j + n] = -rest
    return h


def build_dirac_grid(
    spec: PotentialSpec, grid: Grid1D, pp: PhysParams, scheme: str = FOURIER
) -> np.ndarray:
    """Discretized 2N x 2N Dirac operator for an even potential.

    The evenness gate is enforced, and the operator carries the even part
    of the V that passed it (``_gated``).
    """
    return assemble_dirac_blocks(*_gated(spec, grid, scheme), pp)


def _root_matrix(y: np.ndarray, v: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """A = R+ R, the real matrix of every grid route.

    With Q = P+ + i P-, P+- = (I +- R)/2, the blocks cP +- V = iY +- V, with
    Y = -c hbar D and V = diag(v), become R+- = Q^dag (cP +- V) Q = K +- V,
    K = -(R Y - Y R)/2, real symmetric since R Y R = -Y and v == v[perm]
    bit for bit (``_gated``).  Then
    R R+ R = -R-, so R+ R- = -A^2, and A = K R + V R is Y with v added at
    the entries (j, perm[j]), exactly.  Adding +0.0 makes every zero +0.0:
    A is the same bits whether Y was read from H or made from D.
    """
    a = y + 0.0
    a[np.arange(len(v)), perm] += v
    return a


def _solve_a(y: np.ndarray, v: np.ndarray, perm: np.ndarray, tol: float):
    """A of ``_root_matrix`` and its eigenpairs: the one real solve (dgeev) of every grid route."""
    a = _root_matrix(y, v, perm)
    return a, eigendecompose(a, tol)


def _apply_q(x: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Q X = ((1 + i) X + (1 - i) R X) / 2, with R applied as a row permutation."""
    out = x[perm]
    out *= 1 - 1j
    out += (1 + 1j) * x
    out *= 0.5
    return out


def _solve_rotated(y: np.ndarray, v: np.ndarray, perm: np.ndarray, rest: float, es,
                   tol: float):
    """H's sorted values from A's eigenpairs ``es`` (``_solve_a``).

    In the basis diag(Q, Q R), H is [[rest I, A], [-A, -rest I]] with A of
    ``_root_matrix``.  An eigenpair (mu, x) of A gives E = +s, with
    s = sqrt((rest - mu)(rest + mu)), the vector [x; beta x], and E = -s the
    vector [beta x; x], where beta = -mu / (s + rest).  Re s >= 0, so s + rest
    = 0 only where rest = 0 and s = 0 (mu = 0, or mu^2 underflows); beta is 0
    there, and E = 0 has [x; 0] and [0; x].

    Both members of each pair are certified against H = [[rest I, iY + V],
    [iY - V, -rest I]], applied by its blocks from Y and v, from one product
    with Y.  For a panel X of PANEL / 2 of A's vectors, T = Q X and
    B = Q R X, the +s vectors are [u T; beta u B] and the -s ones
    [beta u T; u B], u = 1 / sqrt(1 + |beta|^2); H [T; 0] = [rest T; iYT - VT]
    and H [0; B] = [VB + iYB; -rest B] come from one ``real_times_complex``
    of Y with [T | B], and both residuals follow from them by linearity.
    The 2N vectors are never formed: the certificate holds a 2N x PANEL
    residual block at a time.  The residual is relative to
    ||H||_F = sqrt(2N rest^2 + 2||Y||_F^2 + 2||v||^2), which holds since Y
    has a zero diagonal.
    """
    n = len(perm)
    mu, x = es.values, es.vectors
    with np.errstate(all="ignore"):
        root = np.sqrt((rest - mu) * (rest + mu))
        beta = -mu / (root + rest)
        beta[root + rest == 0] = 0
        unit = 1 / np.hypot(1.0, np.abs(beta))  # Q and R keep the norm of [x; beta x]
    values = np.concatenate([root, -root])
    values = values[sort_by_re_im(values)]

    def residual(span):  # [+s columns | -s columns] of A's pairs in span
        panel = x[:, span]
        k = panel.shape[1]
        tb = _apply_q(np.concatenate([panel, panel[perm]], axis=1), perm)  # [T | B]
        t, b = tb[:, :k], tb[:, k:]
        h = real_times_complex(y, tb)
        h *= 1j
        h[:, :k] -= v[:, None] * t  # iYT - VT, the bottom of H [T; 0]
        h[:, k:] += v[:, None] * b  # VB + iYB, the top of H [0; B]
        ht, hb = h[:, :k], h[:, k:]
        s, u = root[span], unit[span]
        bu = beta[span] * u
        out = np.empty((2 * n, 2 * k), complex)
        # H [uT; buB] - s [uT; buB], then H [buT; uB] + s [buT; uB]
        np.multiply(t, (rest - s) * u, out=out[:n, :k])
        out[:n, :k] += hb * bu
        np.multiply(ht, u, out=out[n:, :k])
        out[n:, :k] -= b * ((rest + s) * bu)
        np.multiply(t, (rest + s) * bu, out=out[:n, k:])
        out[:n, k:] += hb * u
        np.multiply(ht, bu, out=out[n:, k:])
        out[n:, k:] -= b * ((rest - s) * u)
        return out

    norm = math.sqrt(2) * math.hypot(math.sqrt(n) * rest, frob_norm(y),
                                     float(np.linalg.norm(v)))
    certify(residual, n, norm, tol, PANEL // 2)
    return values


def solve_dirac(
    spec: PotentialSpec,
    grid: Grid1D,
    pp: PhysParams,
    scheme: str = FOURIER,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Sorted eigenvalues of the 2N x 2N Dirac operator from one real N x N solve.

    The reflection R splits the grid into even and odd parts; in the basis
    diag(Q, Q R), Q = P+ + i P-, H is [[m I, A], [-A, -m I]] with m = m0 c^2
    and A a real N x N matrix (``_root_matrix``), which LAPACK solves in real
    arithmetic (dgeev).  Each eigenvalue mu of A gives E = +-sqrt(m^2 - mu^2),
    so the values are closed under negation and conjugation exactly, and
    carry an error of about rounding x ||H||, as the 2N solve's do.  Every
    eigenpair is certified against the 2N operator:
    ||H v - E v|| / max(1, ||H||_F) <= tol for unit v, with H applied by its
    blocks in real arithmetic; both members of each +-E pair are certified
    from one product of Y with Q x and Q R x (``_solve_rotated``), and the
    2N vectors are never formed.
    """
    h = build_dirac_grid(spec, grid, pp, scheme)
    n, perm = grid.n_points, reflection_permutation(grid)
    coupling = h[:n, n:]  # cP + V = iY + V: the certificate is about this very H
    y, v = coupling.imag.copy(), coupling.real.diagonal().copy()
    del h, coupling  # copies, so H is freed before the solve
    return _solve_rotated(y, v, perm, pp.rest_energy, _solve_a(y, v, perm, tol)[1], tol)


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
    derivative and differs by discretization error.  Like
    ``build_dirac_grid``, it carries the even part of the V that passed
    the evenness gate (``_gated``).
    """
    return assemble_reduced(*_gated(spec, grid, scheme), spec, grid, pp, form)


def assemble_reduced(d, v, spec: PotentialSpec, grid: Grid1D, pp: PhysParams, form: str):
    """``build_reduced``'s complex N x N matrix from the gated D and V.

    ``analytic_U`` takes the R-odd part of V', as the gate takes V's even
    part, so that Q^dag U Q is real but for the rounding of D @ D
    (``_solve_analytic``).
    """
    if form == PRODUCT_EXACT:
        plus, minus = np.empty((2, len(v), len(v)), complex)
        _coupling(d, v, pp, plus, minus)
        matrix = plus @ minus
    elif form == ANALYTIC_U:
        # V' of an even V is odd, but the ring's point -L is its own mirror,
        # where V' of a V not smooth across +-L (gaussian) is not 0: the odd
        # part sets it to 0, the mean of the derivatives from either side
        vprime = spec.derivative_values(grid)
        vprime = _reflection_part(vprime, -vprime[reflection_permutation(grid)])
        ch = pp.c_hbar
        ch2 = _square(ch, "c hbar", "the analytic_U term c^2 hbar^2 D^2")
        matrix = -ch2 * (d @ d) + np.diag(1j * ch * vprime - v**2)
    else:
        raise ValueError(f"unknown reduced form {form!r}")
    return as_cmatrix(matrix)


def _apply_u(y: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """U X = (iY + V)(iY - V) X, applied by blocks.

    Y = -c hbar D acts in real arithmetic (``real_times_complex``), and no
    N x N complex U is made.
    """
    w = real_times_complex(y, x)
    w *= 1j
    w -= v[:, None] * x
    out = real_times_complex(y, w)
    out *= 1j
    out += v[:, None] * w
    return out


def _rotated(u: np.ndarray, perm: np.ndarray):
    """Q^dag U Q as its real part and the Frobenius norm of its imaginary part.

    Q^dag U Q = (U + RUR + i(RU - UR)) / 2, so with U = Ur + i Ui the real
    part is (Ur + R Ur R - R Ui + Ui R) / 2 and the imaginary part
    (Ui + R Ui R + R Ur - Ur R) / 2: index work on real N x N arrays, with
    R applied as ``perm`` and no complex temporary.  Each term is halved
    first, so an exactly R-even Ur keeps its bits.  The real part, Ur's
    R-even part plus Ui's R-odd part times R, is a new C-contiguous float64
    array, which LAPACK solves with dgeev.  The imaginary part is 0 for an
    R-even Ur and an R-odd Ui.
    """
    rows = np.ix_(perm, perm)
    ur, ui = 0.5 * u.real, 0.5 * u.imag
    part = ui[rows]
    part += ui
    part += ur[perm]
    part -= ur[:, perm]
    imag = frob_norm(part)
    part = ur[rows]
    part += ur
    part -= ui[perm]
    part += ui[:, perm]
    return part, imag


def _solve_analytic(u: np.ndarray, perm: np.ndarray, norm: float, tol: float) -> np.ndarray:
    """Sorted values of the ``analytic_U`` U from one real N x N solve, certified against U.

    Q^dag U Q = S + diag(w) R, with S = -c^2 hbar^2 D^2 - diag(V^2), R-even,
    and w = c hbar V', R-odd, is real; D @ D and V' are even and odd only to
    rounding, so ``_rotated`` takes S's even part and w's odd part, and
    LAPACK solves that real matrix (dgeev).  Its pairs (lambda, x) are
    certified once, as the unit vectors Q x against U as built, relative to
    max(1, ``norm``), ``norm`` = ||U||_F: what the rotation drops, S's odd
    part and w's even part, is in that residual.  The values of a real
    matrix are closed under conjugation exactly.
    """
    values, vectors = sorted_eig(_rotated(u, perm)[0])
    columns = lambda span: _apply_q(vectors[:, span], perm)
    certify(eigen_residual(u.__matmul__, columns, values), len(values), norm, tol)
    return values


def _solve_real_reduced(y: np.ndarray, v: np.ndarray, perm: np.ndarray, a: np.ndarray, es,
                        tol: float):
    """The ``product_exact`` U's sorted values from A and its eigenpairs ``es`` (``_solve_a``).

    U = (cP+V)(cP-V) = Q R+ R- Q^dag = -Q A^2 Q^dag, Q unitary, so an
    eigenpair (mu, x) of A gives U the value eps = -mu^2 and the unit vector
    Q x.  Each panel of Q x is certified against U applied by its blocks
    from Y and v (``_apply_u``), so a fault in building A fails it; the
    residual is relative to ||A^2||_F, ||U||_F to rounding.
    """
    with np.errstate(over="ignore"):
        norm = frob_norm(a @ a)
    eps = -es.values**2
    order = sort_by_re_im(eps)
    eps = eps[order]
    columns = lambda span: _apply_q(es.vectors[:, order[span]], perm)
    certify(eigen_residual(functools.partial(_apply_u, y, v), columns, eps), len(eps), norm, tol)
    return eps


def solve_reduced(
    spec: PotentialSpec,
    grid: Grid1D,
    pp: PhysParams,
    scheme: str = FOURIER,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Sorted eigenvalues of the ``product_exact`` reduced operator of ``build_reduced``.

    It comes from one real N x N solve (dgeev) of A, the matrix of
    ``solve_dirac``: (cP+V)(cP-V) is unitarily similar to -A^2, so its
    values are eps = -mu^2 for the eigenvalues mu of A, closed under
    conjugation exactly, and its unit vectors are Q x for A's vectors x,
    each pair certified against U, applied by its blocks, at ``tol``.
    """
    d, v = _gated(spec, grid, scheme)
    y, perm = -pp.c_hbar * d, reflection_permutation(grid)
    return _solve_real_reduced(y, v, perm, *_solve_a(y, v, perm, tol), tol)


def first_order_split(
    spec: PotentialSpec,
    grid: Grid1D,
    pp: PhysParams,
    scheme: str,
    tol: float,
    width: float,
) -> np.ndarray:
    """The levels of U0 = c^2 P^2 that the coupling g makes complex at first order.

    With W the even part of the potential at g = 1 (``_gated``), U(g) =
    (cP + gW)(cP - gW) = U0 - i g c hbar S + O(g^2): U0 = c^2 hbar^2 D^T D
    and S = WD - DW are real symmetric.  One ``np.linalg.eigh`` of U0 gives
    its levels, clustered wherever a gap is <= tol * max(1, ||U0||_F); the
    +-k pairs of the ring and the central2 doublers come degenerate.  On a
    level X first-order perturbation theory gives the values
    eps0 - i g c hbar eig(X^T S X) (Kato, "Perturbation Theory for Linear
    Operators", ch. II), so with beta = c hbar max|eig(X^T S X)| the level
    turns complex at g ~ spread / (2 beta).  It counts as split when:

    - beta > tol * max(1, c hbar ||S||_F), above rounding;
    - spread / (2 beta) <= width, below the g a threshold search resolves;
    - width * beta > tol * max(1, |eps0|): at g = width the imaginary part
      is past ``classify_spectrum``'s tolerance, so the split shows there.

    Returns the lowest value of U0 of each split level, ascending.
    """
    d, w = _gated(replace(spec, g=1.0), grid, scheme)
    y = pp.c_hbar * d
    s = w[:, None] * d - d * w
    eps0, x = np.linalg.eigh(y.T @ y)
    # ||U0||_F is the norm of its values
    ends = np.flatnonzero(np.diff(eps0) > tol * max(1.0, float(np.linalg.norm(eps0)))) + 1
    rounding = tol * max(1.0, pp.c_hbar * frob_norm(s))
    coupled = x.T @ s @ x
    split = []
    for lo, hi in zip([0, *ends], [*ends, len(eps0)]):
        beta = pp.c_hbar * np.abs(np.linalg.eigvalsh(coupled[lo:hi, lo:hi])).max()
        if (beta > rounding and eps0[hi - 1] - eps0[lo] <= 2 * width * beta
                and width * beta > tol * max(1.0, abs(eps0[hi - 1]))):
            split.append(eps0[lo])
    return np.array(split)


def solve_pair(
    spec: PotentialSpec,
    grid: Grid1D,
    pp: PhysParams,
    scheme: str = FOURIER,
    form: str = PRODUCT_EXACT,
    tol: float = DEFAULT_TOL,
):
    """Both grid spectra from one evenness gate and one solve of A, and their identity mismatch.

    Returns (D, V(x_j), U, values of H, values of U, their mismatch), for H
    the 2N x 2N Dirac operator and U the N x N reduced one of ``form``,
    built from D and V (``assemble_reduced``).  A is solved once
    (``_solve_a``): H's values are ``solve_dirac``'s, the same bits, and its
    eps = -mu^2 are ``solve_reduced``'s.  The mismatch checks the
    elimination in eps space, against a witness built from D and V, not
    from A, and solved in real arithmetic from the real part of
    Q^dag U Q (``_rotated``).  For ``product_exact`` the witness is the
    values alone of that real part (``np.linalg.eigvals``, dgeev without
    vectors, after A is freed), and the norm of its imaginary part, which
    is 0 for the exact U, counts as a gap, so an R-odd fault in U fails
    the check.  For ``analytic_U`` it is the values returned, each pair
    certified against U (``_solve_analytic``).  Comparing in eps keeps
    the check off sqrt's derivative 1/(2E), unbounded where E = 0.  Both
    sides carry rounding times ||U||, which grows as (c hbar k_max)^2, so
    each gap is taken relative to max(1, ||U||_F).  Nothing 2N is built,
    and LAPACK sees only real N x N arrays.  Errors come in one order: a 2N
    past MAX_DIM first, a build error of an ``analytic_U`` U before any
    solve.
    """
    d, v = _gated(spec, grid, scheme)
    _refuse_past_max_dim(len(v))
    u = None if form == PRODUCT_EXACT else assemble_reduced(d, v, spec, grid, pp, form)
    y, perm = -pp.c_hbar * d, reflection_permutation(grid)
    a, es = _solve_a(y, v, perm, tol)
    dirac = _solve_rotated(y, v, perm, pp.rest_energy, es, tol)
    if u is not None:
        norm = frob_norm(u)
        reduced = _solve_analytic(u, perm, norm, tol)
        return d, v, u, dirac, reduced, _nearest_gap(reduced, -es.values**2, norm)
    eps = _solve_real_reduced(y, v, perm, a, es, tol)
    del a, es, y  # freed before the witness U is built
    u = assemble_reduced(d, v, spec, grid, pp, PRODUCT_EXACT)
    witness, imag = _rotated(u, perm)
    norm = frob_norm(u)
    mismatch = max(_nearest_gap(np.linalg.eigvals(witness), eps, norm),
                   relative_residual(imag, norm))
    return d, v, u, dirac, eps, mismatch


def reduced_to_dirac_energies(eps, pp: PhysParams) -> np.ndarray:
    """Map each eps to the pair +-sqrt(eps + (m0 c^2)^2), principal branch."""
    eps = np.asarray(eps, dtype=np.complex128).ravel()
    roots = np.sqrt(eps + pp.rest_energy**2)
    return np.column_stack([roots, -roots]).ravel()


def _nearest_gap(values: np.ndarray, partners: np.ndarray, scale: float = 0.0) -> float:
    """Largest gap |x - y| / max(1, scale, |x|) of a greedy matching of ``values`` to ``partners``.

    Both multisets are sorted by (Re, Im); each value, in that order, is
    then matched to the nearest unused partner (``take_nearest``, the lowest
    index among equals).  The search spans the whole list, because the sort
    order is not a matching: conjugate pairs can differ in the last ulp of
    their real parts, and on an all imaginary spectrum the real parts are
    rounding noise, so a value's partner can sit anywhere in the other list.
    """
    if len(values) != len(partners):
        raise ValueError(f"spectrum sizes differ: {len(values)} vs {len(partners)}")
    values = values[sort_by_re_im(values)]
    partners = partners[sort_by_re_im(partners)]
    free = np.ones(len(partners), dtype=bool)
    worst = 0.0
    for x in values:
        j = take_nearest(x, partners, free)
        worst = max(worst, abs(x - partners[j]) / max(1.0, scale, abs(x)))
    return float(worst)


def reduction_identity_mismatch(dirac_values, reduced_values, pp: PhysParams) -> float:
    """Largest relative gap between the Dirac spectrum and the mapped one.

    Each reduced eps is mapped to +-sqrt(eps + m0^2 c^4)
    (``reduced_to_dirac_energies``), and the Dirac values are matched to
    those, relative to max(1, |E|) (``_nearest_gap``).  This E-space gap
    is not the mismatch ``solve_pair`` returns, which ``reduce`` and grid
    ``verify`` report: that one is taken in eps space, relative to
    max(1, ||U||_F), against the eigenvalues of U.  Every value is
    matched: det(H - E) = det((E^2 - m0^2 c^4) I - U) for every E (the
    block determinant, then Sylvester's identity), so no value, -m0 c^2
    included, is a singular point of the elimination.  Raises ValueError on
    a value, given or mapped, that is not finite.
    """
    a = finite_values(dirac_values, "Dirac values")
    eps = finite_values(reduced_values, "reduced values")
    return _nearest_gap(a, finite_values(reduced_to_dirac_energies(eps, pp),
                                         "mapped Dirac energies"))


def grid_parity_residual(matrix: np.ndarray, grid: Grid1D) -> float:
    """||P_D H P_D^-1 - H^dag||_F / max(1, ||H||_F), computed exactly.

    P_D = diag(R, -R) is applied block by block, as an index permutation
    plus a sign on the off-diagonal blocks, so no rounding enters beyond the
    entries of H itself and no 2N x 2N temporary is made.
    """
    h = as_cmatrix(matrix)
    n = grid.n_points
    perm = reflection_permutation(grid)
    top, bottom = slice(None, n), slice(n, None)
    norms = [
        _reflection_defect(h[rows, cols], h[cols, rows], perm, sign)
        for rows, cols, sign in ((top, top, 1), (top, bottom, -1),
                                 (bottom, top, -1), (bottom, bottom, 1))
    ]
    return relative_residual(math.hypot(*norms), h)


def _reflection_defect(block: np.ndarray, partner: np.ndarray, perm: np.ndarray,
                       sign: int) -> float:
    """||sign R B R - C^dag||_F, exact index work and one subtraction.

    For B = H[rows, cols] and C = H[cols, rows] it is the norm of block
    (rows, cols) of P_D H P_D^-1 - H^dag, with sign -1 off the diagonal.
    """
    return frob_norm(sign * block[np.ix_(perm, perm)] - partner.conj().T)


def coupling_parity_residual(d: np.ndarray, v: np.ndarray, pp: PhysParams,
                             grid: Grid1D) -> float:
    """``grid_parity_residual`` of ``assemble_dirac_blocks(d, v, pp)``, from its N x N blocks.

    The diagonal blocks +-m I commute with R and are Hermitian, so their
    defects are exactly 0, and only the coupling blocks cP +- V (``_coupling``)
    are formed; ||H||_F^2 = 2N m^2 + ||cP + V||_F^2 + ||cP - V||_F^2.
    Nothing 2N is built.
    """
    perm = reflection_permutation(grid)
    plus, minus = np.empty((2, len(v), len(v)), complex)
    _coupling(d, v, pp, plus, minus)
    defect = math.hypot(_reflection_defect(plus, minus, perm, -1),
                        _reflection_defect(minus, plus, perm, -1))
    norm = math.hypot(math.sqrt(2 * len(v)) * pp.rest_energy, frob_norm(plus), frob_norm(minus))
    return relative_residual(defect, norm)


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
    if track_level < 0:
        raise ValueError(f"track level must be >= 0, got {track_level}")
    ref_n = REF_FACTOR * max(ns)
    if bc == DIRICHLET and ref_n % 2 == 0:
        ref_n += 1
    _refuse_past_max_dim(ref_n)
    # every grid first, so a bad N is refused before the reference solve
    ref_grid, *grids = (make_grid(half_length, n, bc) for n in (ref_n, *ns))

    def tracked(grid: Grid1D) -> float:
        return _level_value(solve_dirac(spec, grid, pp, scheme, tol), track_level)

    ref_value = tracked(ref_grid)
    rows = [(g.n_points, abs(tracked(g) - ref_value)) for g in grids]
    return ConvergenceStudy(rows=rows, ref_n=ref_n, ref_value=ref_value)
