"""Dense complex linear algebra substrate.

Everything in here is a pure function of its inputs: square complex
matrices, general (non-Hermitian) eigendecomposition with a residual
certificate, Hermitian positive-definiteness probes, the closed-form 2x2
matrix exponential and Frobenius distances.  Eigenvalues are always
returned sorted by (real part, imaginary part) so results are
reproducible and diffable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch

#: Default residual tolerance, relative to max(1, ||A||_F).
DEFAULT_TOL = 1e-10

#: Largest matrix dimension the dense solvers accept.
MAX_DIM = 1024

#: Hermiticity gate, relative to max(1, ||A||_F).
HERMITICITY_TOL = 1e-12


def validate_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` is finite and > 0.

    A NaN tolerance would pass every ``resid > tol`` certificate, because
    comparisons with NaN are false.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")


def as_cmatrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square, finite complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_cmatrix(a).conj().T


def frob_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a), "fro"))


def frob_distance(a, b) -> float:
    """Frobenius norm of A - B; raises DimensionMismatch on shape conflict."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return float(np.linalg.norm(a - b, "fro"))


def relative_residual(r, a) -> float:
    """||R|| / max(1, ||A||_F): a residual measured against its matrix.

    ``r`` is the residual matrix, measured in the Frobenius norm, or a norm
    already taken.  Raises ValueError when either norm is not finite:
    ||A||_F overflows once entries reach about 1e154, and the quotient would
    then read 0 or NaN, which no ``resid > tol`` gate refuses.
    """
    num = frob_norm(r) if np.ndim(r) else float(r)
    den = frob_norm(a)
    if not (math.isfinite(num) and math.isfinite(den)):
        raise ValueError(
            f"residual norm {num:.3e} against matrix norm {den:.3e} is not finite"
        )
    return num / max(1.0, den)


def sort_by_re_im(values: np.ndarray) -> np.ndarray:
    """Indices that sort complex values by (Re, Im) ascending."""
    return np.lexsort((values.imag, values.real))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues and right eigenvectors with a residual certificate.

    ``values`` are sorted by (Re, Im); column i of ``vectors`` is the
    unit-norm right eigenvector for ``values[i]``.  ``residual`` bounds
    max_i ||A v_i - lambda_i v_i||_2 / max(1, ||A||_F).
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float


def eigendecompose(a, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Full eigendecomposition of a general complex matrix.

    Delegates to LAPACK (numpy's zgeev) and certifies the result: the relative
    residual of every eigenpair must not exceed ``tol``, otherwise
    ConvergenceFailure is raised.

    Parameters
    ----------
    a : array_like
        Square complex matrix, dimension <= 1024.
    tol : float
        Residual bound relative to max(1, ||A||_F); finite and > 0.
    """
    validate_tol(tol)
    m = as_cmatrix(a)
    if m.shape[0] > MAX_DIM:
        raise DimensionMismatch(f"dimension {m.shape[0]} exceeds limit {MAX_DIM}")
    values, vectors = np.linalg.eig(m)
    order = sort_by_re_im(values)
    values = values[order]
    vectors = vectors[:, order]
    resid = relative_residual(np.linalg.norm(m @ vectors - vectors * values, axis=0).max(), m)
    if not resid <= tol:
        raise ConvergenceFailure(
            f"eigen residual {resid:.3e} exceeds tolerance {tol:.3e}"
        )
    return EigenSystem(values=values, vectors=vectors, residual=resid)


def hermiticity_defect(a) -> float:
    """||A - A^dag||_F / max(1, ||A||_F)."""
    m = as_cmatrix(a)
    return relative_residual(m - m.conj().T, m)


def min_eig_hermitian_part(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part (M + M^dag)/2 of a complex array."""
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def mat_exp(a) -> np.ndarray:
    """exp(A) of a 2x2 matrix, in closed form.

    With mu = tr A / 2, B = A - mu I and s^2 = -det B, B^2 = s^2 I, so
    exp(A) = e^mu (cosh s I + sinh(s)/s B).  Both coefficients are even in
    s, so the branch of the root does not matter; at s = 0 (B nilpotent, a
    Jordan block) sinh(s)/s is 1.  Unlike scaling and squaring, the error
    does not grow with ||A||.  Raises DimensionMismatch on any other shape
    and OverflowError when s^2 or the result is not finite.
    """
    m = as_cmatrix(a)
    if m.shape != (2, 2):
        raise DimensionMismatch(f"mat_exp takes a 2x2 matrix, got shape {m.shape}")
    # Python complex arithmetic: an overflow gives inf, never a numpy warning
    a00, a01, a10, a11 = m.ravel().tolist()
    mu = 0.5 * (a00 + a11)
    b00, b11 = a00 - mu, a11 - mu
    s2 = a01 * a10 - b00 * b11
    if cmath.isfinite(s2):
        try:
            s = cmath.sqrt(s2)
            scale = cmath.exp(mu)
            even, odd = scale * cmath.cosh(s), scale * (cmath.sinh(s) / s if s else 1.0)
        except OverflowError:  # cmath's exp, cosh or sinh past about e^710
            pass
        else:
            out = np.array([[even + odd * b00, odd * a01], [odd * a10, even + odd * b11]])
            if np.all(np.isfinite(out)):
                return out
    raise OverflowError(
        f"the 2x2 matrix exponential overflows (largest |entry| {np.abs(m).max():.3e})"
    )
