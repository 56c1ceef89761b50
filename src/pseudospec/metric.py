"""Metric-operator construction, verification and spectrum classification.

The central objects: a similarity relation eta H eta^-1 = H^dag certified
by residuals, positive-definite eta built by summing outer products of
adjoint-block eigenvectors, the associated inner product <f|eta g>, and a
classifier that sorts spectra into all-real / conjugate-paired / mixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComplexSpectrum, DimensionMismatch, ExceptionalPoint, NotHermitian
from .linalg import (
    DEFAULT_TOL,
    HERMITICITY_TOL,
    adjoint,
    as_cmatrix,
    eigendecompose,
    hermiticity_defect,
    mat_exp,
    min_eig_hermitian_part,
    relative_residual,
)
from .models import PhysParams

#: Eigenvector-matrix condition number beyond which the spectral
#: construction is refused as too close to an exceptional point.
COND_LIMIT = 1e8

VALID_METRIC = "valid_metric"
INDEFINITE = "indefinite"
RELATION_VIOLATED = "relation_violated"

ALL_REAL = "all_real"
CONJUGATE_PAIRS = "conjugate_pairs"
MIXED = "mixed"


def make_metric(eta) -> np.ndarray:
    """Return ``eta`` as a complex matrix; raise NotHermitian unless it is Hermitian."""
    m = as_cmatrix(eta)
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL:
        raise NotHermitian(f"metric candidate not Hermitian (defect {defect:.3e})")
    return m


@dataclass(frozen=True)
class MetricReport:
    """Certification record for one (H, eta) pair."""

    relation_residual: float
    hermiticity_residual: float
    min_eig: float
    verdict: str


def spectral_metric(h, normalize: bool = False, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Build eta as a sum of outer products of adjoint eigenvectors.

    The eigenvectors phi_n of H^dag (real spectrum required) give
    eta = sum_n w_n |phi_n><phi_n|, positive definite for any positive
    weights.  With ``normalize`` False each phi_n is rescaled so its
    largest-modulus component is exactly 1, which reproduces the
    unit-component spinor convention of the closed-form 2x2 models;
    with True the phi_n are unit vectors, so the Hermitian limit gives
    eta = identity.

    Raises ComplexSpectrum if the spectrum is not real to tolerance and
    ExceptionalPoint if the eigenvector matrix condition number exceeds
    COND_LIMIT.
    """
    hm = as_cmatrix(h)
    es = eigendecompose(adjoint(hm), tol)
    imag_excess = np.abs(es.values.imag) - tol * np.maximum(1.0, np.abs(es.values))
    if np.any(imag_excess > 0):
        worst = es.values[int(np.argmax(imag_excess))]
        raise ComplexSpectrum(
            f"spectral construction requires a real spectrum; found {worst}"
        )
    cond = float(np.linalg.cond(es.vectors))
    if cond > COND_LIMIT:
        raise ExceptionalPoint(
            f"eigenvector condition number {cond:.3e} exceeds {COND_LIMIT:.1e}"
        )
    vecs = es.vectors.copy()
    for i in range(vecs.shape[1]):
        col = vecs[:, i]
        if normalize:
            vecs[:, i] = col / np.linalg.norm(col)
        else:
            pivot = col[int(np.argmax(np.abs(col)))]
            vecs[:, i] = col / pivot
    return make_metric(vecs @ vecs.conj().T)


def check_metric(h, eta, tol: float = DEFAULT_TOL) -> MetricReport:
    """Adjudicate a metric candidate against H; never raises on a bad metric.

    Reports the similarity-relation residual ||eta H - H^dag eta||_F
    normalized by max(1, ||H||_F), the hermiticity defect of eta, and the
    smallest eigenvalue of its Hermitian part.  verdict is valid_metric
    iff the relation holds to ``tol`` and the candidate is positive
    definite; a failing relation wins over indefiniteness in the verdict.
    """
    hm = as_cmatrix(h)
    em = as_cmatrix(eta)
    if hm.shape != em.shape:
        raise DimensionMismatch(f"shapes {hm.shape} and {em.shape} differ")
    relation = relative_residual(em @ hm - adjoint(hm) @ em, hm)
    hermiticity = hermiticity_defect(em)
    min_eig = min_eig_hermitian_part(em)
    if relation <= tol and min_eig > 0:
        verdict = VALID_METRIC
    elif relation > tol:
        verdict = RELATION_VIOLATED
    else:
        verdict = INDEFINITE
    return MetricReport(
        relation_residual=relation,
        hermiticity_residual=hermiticity,
        min_eig=min_eig,
        verdict=verdict,
    )


def eta_inner(f, g, eta) -> complex:
    """Inner product <f|eta g> = sum_ij conj(f_i) eta_ij g_j."""
    fv = np.asarray(f, dtype=np.complex128)
    gv = np.asarray(g, dtype=np.complex128)
    em = as_cmatrix(eta)
    if fv.shape != gv.shape or fv.ndim != 1 or em.shape[0] != fv.shape[0]:
        raise DimensionMismatch(
            f"incompatible shapes f {fv.shape}, g {gv.shape}, eta {em.shape}"
        )
    return complex(np.vdot(fv, em @ gv))


#: Largest spectrum paired in a plain Python loop.  Below about this size
#: numpy's cost per call outweighs its vectorised nearest-partner search.
LOOP_PAIRING_MAX = 32


def classify_spectrum(values, tol: float = DEFAULT_TOL) -> str:
    """Sort a spectrum into all_real / conjugate_pairs / mixed.

    A value is real when |Im| <= tol * max(1, |value|).  Otherwise a
    greedy matching (sorted by Re, then |Im|) pairs each value with the
    nearest conjugate partner, the lowest index among equals; if every value
    is matched the spectrum is conjugate-paired, else mixed.  Real values
    pair with themselves.
    """
    vals = np.asarray(values, dtype=np.complex128).ravel()
    is_real = np.abs(vals.imag) <= tol * np.maximum(1.0, np.abs(vals))
    if np.all(is_real):
        return ALL_REAL
    pair = _pair_by_loop if len(vals) <= LOOP_PAIRING_MAX else _pair_vectorised
    return CONJUGATE_PAIRS if pair(vals, is_real, tol) else MIXED


def _pair_by_loop(vals: np.ndarray, is_real: np.ndarray, tol: float) -> bool:
    """``classify_spectrum``'s greedy pairing over Python complex numbers."""
    v, real = vals.tolist(), is_real.tolist()
    taken = [False] * len(v)  # visited or matched
    for i in sorted(range(len(v)), key=lambda i: (v[i].real, abs(v[i].imag))):
        if taken[i]:
            continue
        taken[i] = True
        if real[i]:
            continue
        # (distance, index): the lowest index wins a tie
        best = min(((abs(v[i] - w.conjugate()), j) for j, w in enumerate(v) if not taken[j]),
                   default=None)
        if best is None or not best[0] <= tol * max(1.0, abs(v[i])):
            return False
        taken[best[1]] = True
    return True


def _pair_vectorised(vals: np.ndarray, is_real: np.ndarray, tol: float) -> bool:
    """``classify_spectrum``'s greedy pairing, each search one numpy pass."""
    order = np.lexsort((np.abs(vals.imag), vals.real))  # stable: ties by index
    partners = vals.conj()
    # a value stays a candidate partner until it is visited or matched
    unmatched = np.ones(len(vals), dtype=bool)
    visited = 0
    for rank in np.flatnonzero(~is_real[order]).tolist():
        i = order[rank]
        unmatched[order[visited:rank]] = False  # real values pair with themselves
        visited = rank + 1
        if not unmatched[i]:
            continue
        unmatched[i] = False
        dist = np.abs(vals[i] - partners)
        dist[~unmatched] = np.inf
        j = int(np.argmin(dist))  # the lowest index among equals
        if not dist[j] <= tol * max(1.0, abs(vals[i])):
            return False
        unmatched[j] = False
    return True


def evolve(h, t: float, pp: PhysParams) -> np.ndarray:
    """Propagator U(t) = exp(-i t H / hbar)."""
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    hm = as_cmatrix(h)
    return mat_exp(-1j * (t / pp.hbar) * hm)
