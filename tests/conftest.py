import json
from dataclasses import replace
from unittest import mock

import numpy as np

from pseudospec import cli as climod
from pseudospec import grid as gridmod
from pseudospec.linalg import certify, eigendecompose, sort_by_re_im


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


def reference_pairs(solve, es, grid, pp):
    """The (values, vectors) that ``solve`` takes from A's eigenpairs ``es``, made densely.

    ``solve`` is ``solve_dirac`` or ``solve_reduced``; both sort by (Re, Im).
    Q = P+ + i P- is built as a matrix.  U's unit vectors are Q x, for
    eps = -mu^2.  H's are [u Q x; beta u Q R x] for E = s and
    [beta u Q x; u Q R x] for E = -s, with s = sqrt((m - mu)(m + mu)),
    beta = -mu / (s + m), 0 where s + m = 0, and u = 1 / sqrt(1 + |beta|^2).
    """
    n = grid.n_points
    r = np.eye(n)[gridmod.reflection_permutation(grid)]
    q = 0.5 * ((1 + 1j) * np.eye(n) + (1 - 1j) * r)
    mu, qx = es.values, q @ es.vectors
    if solve is gridmod.solve_reduced:
        values, vectors = -mu**2, qx
    else:
        m = pp.rest_energy
        with np.errstate(all="ignore"):
            s = np.sqrt((m - mu) * (m + mu))
            beta = np.where(s + m == 0, 0, -mu / (s + m))
        u = 1 / np.hypot(1.0, np.abs(beta))
        qrx = q @ r @ es.vectors
        values = np.concatenate([s, -s])
        vectors = np.block([[qx * u, qx * (beta * u)], [qrx * (beta * u), qrx * u]])
    order = sort_by_re_im(values)
    return values[order], vectors[:, order]


def certified_solve(solve, *args):
    """(values, solves, vectors, residual) of one grid solve(*args) on a real route.

    ``args`` are (spec, grid, pp, scheme).  ``solves`` is the (shape, dtype)
    of each ``eigendecompose`` call in ``pseudospec.grid``.  ``vectors`` are
    the unit eigenvectors of the returned values, in the basis of H for
    ``solve_dirac`` and of U for ``solve_reduced``, made here from the
    solve's own eigenpairs of A (``reference_pairs``); the values made with
    them must be the returned values, bit for bit.  ``residual`` is the grid
    module's one ``certify`` call run again on the same arguments.
    """
    systems = []

    def solve_a(*a, **kw):
        systems.append(eigendecompose(*a, **kw))
        return systems[-1]

    with mock.patch.object(gridmod, "eigendecompose", side_effect=solve_a) as solves, \
         mock.patch.object(gridmod, "certify", wraps=certify) as certified:
        values = solve(*args)
    (call,) = certified.call_args_list
    (es,) = systems
    made, vectors = reference_pairs(solve, es, args[1], args[2])
    assert np.array_equal(made, values)
    assert np.allclose(np.linalg.norm(vectors, axis=0), 1.0, rtol=0, atol=1e-12)
    shapes = [(c.args[0].shape, c.args[0].dtype) for c in solves.call_args_list]
    return values, shapes, vectors, certify(*call.args, **call.kwargs)


def dense_residual(matrix, vectors, values) -> float:
    """max_i ||M v_i - E_i v_i|| / max(1, ||M||_F), with M applied densely."""
    worst = np.linalg.norm(matrix @ vectors - vectors * values, axis=0).max()
    return worst / max(1.0, np.linalg.norm(matrix))


def sweep_solves(capsys, argv: list[str]) -> tuple[int, dict | None]:
    """Values a `sweep` argv solves in its threshold search, and its threshold.

    Every solve of a sweep goes through its model's ``sweep`` entry: the
    first call takes the grid points, each later one a probe of the search.
    """
    model = argv[argv.index("--model") + 1]
    entry = climod.MODELS[model]
    calls = []

    def sweep(cfg, inputs, values):
        calls.append(list(values))
        return entry.sweep(cfg, inputs, values)

    with mock.patch.dict(climod.MODELS, {model: replace(entry, sweep=sweep)}):
        assert climod.main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    grid, *probes = calls
    assert grid == [point["value"] for point in record["sweep"]["points"]]
    return sum(map(len, probes)), record["threshold"]
