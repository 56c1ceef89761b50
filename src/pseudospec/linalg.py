"""Dense linear algebra substrate.

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

#: Eigenvector columns a residual certificate takes at a time; it bounds the
#: certificate's temporaries to n x PANEL instead of n x n.
PANEL = 128


def validate_tol(tol: float) -> None:
    """Raise ValueError unless 0 < ``tol`` < 1.

    A NaN tolerance would pass every ``resid > tol`` certificate, because
    comparisons with NaN are false.  At tol >= 1 the realness test
    |Im v| <= tol * max(1, |v|) would call every imaginary eigenvalue real.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must satisfy 0 < tol < 1, got {tol}")


def _square_finite(m: np.ndarray, ndim: int = 2) -> np.ndarray:
    """``m``, refused unless it has ``ndim`` dims, square in its last two, and is finite."""
    if m.ndim != ndim or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_cmatrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square, finite complex128 array."""
    return _square_finite(np.asarray(a, dtype=np.complex128))


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

    ``r`` and ``a`` are matrices, measured in the Frobenius norm, or norms
    already taken.  Raises ValueError when either norm is not finite:
    ||A||_F overflows once entries reach about 1e154, and the quotient would
    then read 0 or NaN, which no ``resid > tol`` gate refuses.
    """
    num = frob_norm(r) if np.ndim(r) else float(r)
    den = frob_norm(a) if np.ndim(a) else float(a)
    if not (math.isfinite(num) and math.isfinite(den)):
        raise ValueError(
            f"residual norm {num:.3e} against matrix norm {den:.3e} is not finite"
        )
    return num / max(1.0, den)


def real_times_complex(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """R X for a real matrix R and a complex one X, in real arithmetic.

    A C-contiguous complex128 X is a float64 array with its real and
    imaginary parts interleaved column by column, so R X is one dgemm on
    that view, a quarter of the flops of the zgemm that ``r @ x`` upcasts
    to.  An X that is not C-contiguous (the transpose of an inverse, say)
    is copied first.
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    return (r @ x.view(np.float64)).view(np.complex128)


def certify(residual, count: int, norm, tol: float, width: int = PANEL):
    """max_i ||A v_i - lambda_i v_i||_2 relative to max(1, ``norm``), checked against ``tol``.

    ``residual(span)`` returns, as a new array, the residual columns
    A v_i - lambda_i v_i of the eigenpairs that ``span`` indexes, for
    slices ``span`` of ``width`` indices of range(``count``); a span may
    stand for more columns than indices (``grid._solve_rotated`` gives each
    eigenpair of its A the +E and the -E column of H).  A NaN in any
    column's residual ends the check at once, so it never reads as a
    smaller number.  Returns the relative residual; raises
    ConvergenceFailure past ``tol``, and ValueError (``relative_residual``'s)
    where the residual or ``norm`` is not finite.

    For a stack of matrices, ``residual(span)`` stacks their columns along
    the leading axis and ``norm`` is a list of their norms.  Each matrix is
    then checked on its own, in stack order, so the first that fails raises
    what it would raise alone; the list of relative residuals is returned.
    """
    norms = norm if isinstance(norm, list) else [norm]
    worst = [0.0] * len(norms)
    for j in range(0, count, width):
        tops = np.linalg.norm(residual(slice(j, j + width)), axis=-2).max(axis=-1)
        # the larger of each pair, or the NaN of either
        worst = [w if math.isnan(w) or w >= t else t
                 for w, t in zip(worst, tops.reshape(-1).tolist())]
        if all(map(math.isnan, worst)):
            break
    resids = []
    for top, den in zip(worst, norms):
        resids.append(resid := relative_residual(top, den))
        if not resid <= tol:
            raise ConvergenceFailure(f"eigen residual {resid:.3e} exceeds tolerance {tol:.3e}")
    return resids if norms is norm else resids[0]


def eigen_residual(apply, columns, values):
    """``certify``'s ``residual`` for the unit vectors ``columns(span)`` of ``values[span]``.

    ``columns(span)`` returns the vectors in the basis ``apply`` acts in,
    and ``apply(X)`` returns A X as a new array; X diag(values) is taken
    from it in place.  For a stack of matrices, ``values`` holds one row per
    matrix and the columns are stacked along the leading axis.
    """
    def residual(span):
        cols = columns(span)
        out = apply(cols)
        out -= cols * values[..., None, span]
        return out
    return residual


def sort_by_re_im(values: np.ndarray) -> np.ndarray:
    """Indices that sort complex values by (Re, Im) ascending."""
    return np.lexsort((values.imag, values.real))


def finite_values(values, what: str) -> np.ndarray:
    """``values`` as a flat complex128 array; ValueError naming one that is not finite."""
    v = np.asarray(values, dtype=np.complex128).ravel()
    if not np.isfinite(v).all():
        raise ValueError(f"{what} must be finite, got {v[~np.isfinite(v)][0]}")
    return v


def take_nearest(x, pool: np.ndarray, free: np.ndarray) -> int | None:
    """Index of the ``free`` value of ``pool`` nearest ``x``, the lowest among equals.

    The greedy step of every spectrum matching.  Marks the index taken in
    ``free``; returns None when no value is free.
    """
    cand = free.nonzero()[0]
    if not len(cand):
        return None
    j = int(cand[np.abs(x - pool[cand]).argmin()])
    free[j] = False
    return j


def sorted_eig(m: np.ndarray):
    """``np.linalg.eig``'s values and unit right vectors as complex128, sorted by (Re, Im).

    ``m`` is a square matrix or a stack of them, each sorted on its own.  No
    certificate: the caller certifies the pairs against its own operator.
    """
    values, vectors = (x.astype(np.complex128, copy=False) for x in np.linalg.eig(m))
    order = sort_by_re_im(values)
    if m.ndim == 2:
        return values[order], vectors[:, order]
    # one fancy index per array: np.take_along_axis costs twice as much here
    each = np.arange(len(m))[:, None]
    rows = np.arange(m.shape[-1])[:, None]
    return values[each, order], vectors[each[:, None], rows, order[:, None, :]]


def _certified_eig(a, ndim: int, tol: float):
    """``sorted_eig`` of a matrix (``ndim`` 2) or a stack of them (3), and its ``certify``.

    ``a`` is taken as float64 if real, else complex128, and must be
    ``_square_finite`` of dimension <= MAX_DIM.  A real one applies the
    vectors in real arithmetic (``real_times_complex``).
    """
    m = np.asarray(a)
    m = _square_finite(m.astype(np.float64 if np.isrealobj(m) else np.complex128, copy=False),
                       ndim)
    if m.shape[-1] > MAX_DIM:
        raise DimensionMismatch(f"dimension {m.shape[-1]} exceeds limit {MAX_DIM}")
    values, vectors = sorted_eig(m)
    norm = frob_norm(m) if ndim == 2 else [frob_norm(x) for x in m]
    apply = (lambda x: real_times_complex(m, x)) if m.dtype == np.float64 else m.__matmul__
    resid = certify(eigen_residual(apply, lambda span: vectors[..., span], values),
                    values.shape[-1], norm, tol)
    return values, vectors, resid


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
    """Full eigendecomposition of a general real or complex matrix.

    Delegates to LAPACK through numpy: dgeev for a real matrix, which is
    kept real, and zgeev for a complex one.  It certifies the result: the
    relative residual of every eigenpair must not exceed ``tol``, otherwise
    ConvergenceFailure is raised.  Values and vectors are complex128 either
    way; a real matrix's complex eigenvalues come in exact conjugate pairs.
    The certificate takes PANEL eigenvectors at a time, and a real matrix
    applies them in real arithmetic (``real_times_complex``).

    Parameters
    ----------
    a : array_like
        Square real or complex matrix, dimension <= 1024.
    tol : float
        Residual bound relative to max(1, ||A||_F); 0 < tol < 1.
    """
    validate_tol(tol)
    values, vectors, resid = _certified_eig(a, 2, tol)
    return EigenSystem(values=values, vectors=vectors, residual=resid)


def stacked_eigenvalues(matrices, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Each matrix's ``eigendecompose(matrix, tol).values``, from one LAPACK call.

    ``matrices`` is a sequence of square matrices of one shape and one
    dtype; a real one in a complex stack would be solved by zgeev, not
    dgeev.  ``np.linalg.eig`` on their stack runs LAPACK once per matrix,
    so each matrix's sorted values and vectors, and from them its
    certificate, are the ones ``eigendecompose`` computes for it alone,
    bit for bit.  The certificates are checked in order (``certify``), so
    the first matrix that fails raises what ``eigendecompose`` would raise
    for it.
    """
    validate_tol(tol)
    return list(_certified_eig(matrices, 3, tol)[0]) if len(matrices) else []


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
