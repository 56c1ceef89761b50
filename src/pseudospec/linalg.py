"""Dense complex linear algebra substrate.

Everything in here is a pure function of its inputs: square complex
matrices, general (non-Hermitian) eigendecomposition with a residual
certificate, Hermitian positive-definiteness probes, matrix exponentials
and Frobenius distances.  Eigenvalues are always returned sorted by
(real part, imaginary part) so results are reproducible and diffable.
"""

from __future__ import annotations

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
    """Matrix exponential exp(A) (scaling-and-squaring Pade, via scipy).

    scipy.linalg is imported here, on first use, because importing it costs
    more than most commands, and only ``evolve`` and the 2x2 ``verify`` need it.
    """
    import scipy.linalg

    return scipy.linalg.expm(as_cmatrix(a))
