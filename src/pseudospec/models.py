"""Momentum-space builders for two non-Hermitian Dirac models.

Model I ("rashba"): a planar Dirac particle with a spin-orbit term taken
with imaginary coupling i*lam, in the representation alpha = (sigma_x,
sigma_y), beta = diag(1, -1).  For a plane wave with momenta
p_pm = hbar*(kx +- i*ky) the 2x2 block is

    [[ m0 c^2,        (c - lam) p_minus ],
     [ (c + lam) p_plus,        -m0 c^2 ]]

Model II ("scalar_const"): a 1+1-D Dirac particle with an antisymmetric
scalar potential V0 * [[0, 1], [-1, 0]], constant in space.  Its block is

    [[ m0 c^2,  c hbar kx + V0 ],
     [ c hbar kx - V0, -m0 c^2 ]]

Both blocks are traceless, so eigenvalues come in +-E pairs; E is real
whenever the coupling is weak enough (lam^2 < c^2 for model I at every k,
V0^2 <= m0^2 c^4 + hbar^2 c^2 kx^2 for model II).  Besides the blocks and
their closed-form spectra this module provides the eigenvectors of the
adjoint block (the raw material for spectral metric construction), the
exactly-derived diagonal metric for model I, and verbatim transcriptions
of two published closed-form metric candidates that the metric module
adjudicates numerically.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ExceptionalPoint, NotPositiveDefinite, SingularDenominator
from .linalg import adjoint, as_cmatrix, relative_residual

_DEGENERACY_FLOOR = 1e-12


def _square(x: float, name: str, where: str) -> float:
    """x**2 of a Python float; an overflow names the quantity, its value and where."""
    try:
        return x**2
    except OverflowError:
        raise OverflowError(f"{name} squared overflows in {where}: {name} = {x:.6g}") from None


@dataclass(frozen=True)
class PhysParams:
    """Rest mass, speed of light and hbar; natural units by default."""

    m0: float = 1.0
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not (self.m0 >= 0 and np.isfinite(self.m0)):
            raise ValueError(f"m0 must be >= 0 and finite, got {self.m0}")
        if not (self.c > 0 and np.isfinite(self.c)):
            raise ValueError(f"c must be > 0 and finite, got {self.c}")
        if not (self.hbar > 0 and np.isfinite(self.hbar)):
            raise ValueError(f"hbar must be > 0 and finite, got {self.hbar}")

    @property
    def rest_energy(self) -> float:
        return self.m0 * _square(self.c, "c", "the rest energy m0 c^2")

    @property
    def c_hbar(self) -> float:
        """c hbar, the scale of the grid's momentum cP = -i c hbar D."""
        product = self.c * self.hbar
        if not np.isfinite(product):
            raise OverflowError(f"c hbar overflows: c = {self.c:.6g}, hbar = {self.hbar:.6g}")
        return product


@dataclass(frozen=True)
class Momentum2:
    """Planar wavenumbers (kx, ky) with the chiral combinations p_pm."""

    kx: float = 0.0
    ky: float = 0.0

    def p_plus(self, hbar: float) -> complex:
        return hbar * (self.kx + 1j * self.ky)

    def p_minus(self, hbar: float) -> complex:
        return hbar * (self.kx - 1j * self.ky)

    @property
    def k_sq(self) -> float:
        return _square(self.kx, "kx", "kx^2 + ky^2") + _square(self.ky, "ky", "kx^2 + ky^2")


@dataclass(frozen=True)
class AdjointSpinors:
    """Eigenvectors u1 (eigenvalue +E) and u2 (-E) of an adjoint block."""

    u1: np.ndarray
    u2: np.ndarray
    energy: complex


def build_rashba(k: Momentum2, pp: PhysParams, lam: float) -> np.ndarray:
    """2x2 model-I block at momentum k with imaginary spin-orbit coupling lam."""
    pm = k.p_minus(pp.hbar)
    pl = k.p_plus(pp.hbar)
    m = pp.rest_energy
    return as_cmatrix([[m, (pp.c - lam) * pm], [(pp.c + lam) * pl, -m]])


def rashba_energy(k: Momentum2, pp: PhysParams, lam: float) -> tuple[complex, complex]:
    """Closed-form pair +-sqrt(m0^2 c^4 + (c^2 - lam^2) hbar^2 k^2).

    Principal branch: the radicand going negative yields a pure imaginary
    conjugate pair.
    """
    where = "the radicand of rashba_energy"
    radicand = _square(pp.rest_energy, "m0 c^2", where) + (
        _square(pp.c, "c", where) - _square(lam, "lambda", where)
    ) * _square(pp.hbar, "hbar", where) * k.k_sq
    e = cmath.sqrt(radicand)
    return e, -e


def build_scalar_const(kx: float, pp: PhysParams, v0: float) -> np.ndarray:
    """2x2 model-II block at wavenumber kx with constant potential strength v0."""
    p = pp.c * pp.hbar * kx
    m = pp.rest_energy
    return as_cmatrix([[m, p + v0], [p - v0, -m]])


def scalar_energy(kx: float, pp: PhysParams, v0: float) -> tuple[complex, complex]:
    """Closed-form pair +-sqrt(hbar^2 c^2 kx^2 + m0^2 c^4 - v0^2)."""
    where = "the radicand of scalar_energy"
    radicand = (_square(pp.c * pp.hbar * kx, "c hbar kx", where)
                + _square(pp.rest_energy, "m0 c^2", where) - _square(v0, "v0", where))
    e = cmath.sqrt(radicand)
    return e, -e


def _guard_degenerate(e: complex, pp: PhysParams) -> None:
    if abs(e) <= max(1e-8 * pp.rest_energy, _DEGENERACY_FLOOR):
        raise ExceptionalPoint(
            f"spectrum degenerate to tolerance (|E| = {abs(e):.3e})"
        )


def rashba_adjoint_spinors(k: Momentum2, pp: PhysParams, lam: float) -> AdjointSpinors:
    """Eigenvectors of the adjoint model-I block, scaled to a unit component.

    u1 = (1, (c - lam) p_plus / (E + m0 c^2)) belongs to +E,
    u2 = (-(c + lam) p_minus / (E + m0 c^2), 1) to -E, with E the
    principal root of the dispersion relation.
    """
    e, _ = rashba_energy(k, pp, lam)
    _guard_degenerate(e, pp)
    denom = e + pp.rest_energy
    u1 = np.array([1.0, (pp.c - lam) * k.p_plus(pp.hbar) / denom], dtype=complex)
    u2 = np.array([-(pp.c + lam) * k.p_minus(pp.hbar) / denom, 1.0], dtype=complex)
    return AdjointSpinors(u1=u1, u2=u2, energy=e)


def scalar_adjoint_spinors(kx: float, pp: PhysParams, v0: float) -> AdjointSpinors:
    """Eigenvectors of the adjoint model-II block (same conventions as model I)."""
    e, _ = scalar_energy(kx, pp, v0)
    _guard_degenerate(e, pp)
    p = pp.c * pp.hbar * kx
    denom = e + pp.rest_energy
    u1 = np.array([1.0, (p + v0) / denom], dtype=complex)
    u2 = np.array([-(p - v0) / denom, 1.0], dtype=complex)
    return AdjointSpinors(u1=u1, u2=u2, energy=e)


def _guard_singular(e: complex, pp: PhysParams) -> None:
    m = pp.rest_energy
    if abs(e * e - m * m) <= 1e-12 * max(1.0, m * m):
        raise SingularDenominator(
            f"E^2 - (m0 c^2)^2 vanishes (E = {e}); closed form undefined"
        )


def eta_paper_rashba(k: Momentum2, pp: PhysParams, lam: float) -> np.ndarray:
    """Published closed-form metric candidate for model I, transcribed verbatim.

    Diagnostic only: it is NOT asserted to satisfy the similarity relation
    or to be positive definite; check_metric adjudicates it.
    """
    e, _ = rashba_energy(k, pp, lam)
    _guard_singular(e, pp)
    m = pp.rest_energy
    pl = k.p_plus(pp.hbar)
    pm = k.p_minus(pp.hbar)
    pp2 = pl * pm
    off = 2.0 * (pp.c * e + lam * m) / (e * e - m * m)
    return as_cmatrix(
        [
            [1.0 + (pp.c + lam) ** 2 * pp2 / (e - m) ** 2, pm * off],
            [pl * off, 1.0 + (pp.c - lam) ** 2 * pp2 / (e + m) ** 2],
        ]
    )


def eta_paper_scalar(kx: float, pp: PhysParams, v0: float) -> np.ndarray:
    """Published closed-form metric candidate for model II, transcribed verbatim.

    Diagnostic only, like eta_paper_rashba.  (A stray dangling minus sign
    in the published (1,1) entry is read as a typographical artifact.)
    """
    e, _ = scalar_energy(kx, pp, v0)
    _guard_singular(e, pp)
    m = pp.rest_energy
    p = pp.c * pp.hbar * kx
    off = (2.0 * e * p - 2.0 * v0 * m) / (e * e - m * m)
    return as_cmatrix(
        [
            [1.0 + ((p + v0) / (e - m)) ** 2, off],
            [off, 1.0 + ((p - v0) / (e + m)) ** 2],
        ]
    )


def eta_diag_rashba(pp: PhysParams, lam: float) -> np.ndarray:
    """Momentum-independent diagonal metric diag(c + lam, c - lam) for model I.

    Solves the similarity relation exactly for every k: the off-diagonal
    couplings (c -+ lam) p_-+ are swapped by conjugation with this diagonal.
    Positive definite iff |lam| < c.
    """
    if abs(lam) >= pp.c:
        raise NotPositiveDefinite(
            f"diag(c + lam, c - lam) is not positive definite for |lam| >= c "
            f"(lam = {lam}, c = {pp.c})"
        )
    return as_cmatrix([[pp.c + lam, 0.0], [0.0, pp.c - lam]])


def parity_matrix(half_dim: int) -> np.ndarray:
    """blockdiag(+I, -I) in the beta = diag(1, -1) representation; its own inverse."""
    if half_dim < 1:
        raise ValueError("half_dim must be a positive integer")
    return as_cmatrix(np.diag(np.concatenate([np.ones(half_dim), -np.ones(half_dim)])))


def rashba_parity_residuals(
    k: Momentum2, pp: PhysParams, lam: float
) -> dict[str, float]:
    """Diagnostics for the parity conjugation of the model-I block.

    Conjugating H(k) with P = beta (its own inverse) reproduces H(-k)
    exactly, so that residual is always zero; the residual against the adjoint
    H(k)^dag is not.  Including momentum reversal (conjugating H(-k), the
    operation that does produce the adjoint for the scalar model) still
    misses H(k)^dag by the off-diagonal 2*lam*p terms unless lam = 0.
    All three residuals are reported, normalized by max(1, ||H||_F); the
    diagonal metric diag(c + lam, c - lam) is what actually closes the
    adjoint relation at fixed k.
    """
    h = build_rashba(k, pp, lam)
    p = parity_matrix(1)
    conj = p @ h @ p
    h_reflected = build_rashba(Momentum2(-k.kx, -k.ky), pp, lam)
    conj_reversed = p @ h_reflected @ p
    return {
        "parity_vs_adjoint": relative_residual(conj - adjoint(h), h),
        "parity_vs_reflected_k": relative_residual(conj - h_reflected, h),
        "parity_with_reversal_vs_adjoint": relative_residual(
            conj_reversed - adjoint(h), h
        ),
    }


def scalar_parity_residual(kx: float, pp: PhysParams, v0: float) -> float:
    """||P H(-kx) P - H(kx)^dag||_F / max(1, ||H||_F) for model II, P = P^-1 = beta.

    With momentum reversal included in the parity operation the relation
    holds exactly, mirroring the position-space conjugation by
    beta x reflection implemented in the grid module.
    """
    h = build_scalar_const(kx, pp, v0)
    p = parity_matrix(1)
    conj = p @ build_scalar_const(-kx, pp, v0) @ p
    return relative_residual(conj - adjoint(h), h)
