from unittest import mock

import numpy as np

from pseudospec import grid as gridmod
from pseudospec.linalg import certify, eigendecompose


def spectrum_gap(numeric, expected) -> float:
    """Largest relative gap under greedy nearest matching of two spectra.

    Sorting complex spectra by (Re, Im) is unstable when conjugate pairs
    carry last-ulp noise in their real parts, so comparisons match each
    expected value to the nearest unused numeric one instead.
    """
    num = list(np.asarray(numeric, dtype=complex).ravel())
    exp = np.asarray(expected, dtype=complex).ravel()
    assert len(num) == len(exp)
    worst = 0.0
    for e in exp:
        j = int(np.argmin([abs(e - v) for v in num]))
        worst = max(worst, abs(e - num[j]) / max(1.0, abs(e)))
        num.pop(j)
    return worst


def certified_solve(solve, *args):
    """(values, solves, vectors, residual) of one grid solve(*args) on a real route.

    ``solves`` is the (shape, dtype) of each ``eigendecompose`` call in
    ``pseudospec.grid``.  The grid module's one ``certify`` call is wrapped
    to capture its ``columns`` source: ``vectors`` are all of its unit
    columns at once, in the basis its ``apply`` acts in, and ``residual`` is
    the blockwise certificate run again on the same arguments.
    """
    with mock.patch.object(gridmod, "eigendecompose", wraps=eigendecompose) as solves, \
         mock.patch.object(gridmod, "certify", wraps=certify) as certified:
        values = solve(*args)
    (call,) = certified.call_args_list
    apply, columns, certified_values, norm, tol = call.args
    assert np.array_equal(certified_values, values)
    vectors = columns(slice(None))
    assert np.allclose(np.linalg.norm(vectors, axis=0), 1.0, rtol=0, atol=1e-12)
    shapes = [(c.args[0].shape, c.args[0].dtype) for c in solves.call_args_list]
    return values, shapes, vectors, certify(apply, columns, values, norm, tol)


def dense_residual(matrix, vectors, values) -> float:
    """max_i ||M v_i - E_i v_i|| / max(1, ||M||_F), with M applied densely."""
    worst = np.linalg.norm(matrix @ vectors - vectors * values, axis=0).max()
    return worst / max(1.0, np.linalg.norm(matrix))
