"""Command-line front end.

Grammar::

    pseudospec <command> --model <m> [--m0 X --c X --hbar X] [model flags]
               [--grid-L X --grid-n N --bc periodic|dirichlet
                --scheme central2|fourier] [--tol X] [--format json|csv]
               [--out PATH]

Commands: spectrum, metric, verify, reduce, sweep, evolve, converge, each
one entry of COMMANDS.  Models: rashba (flags --lambda --kx --ky),
scalar_const (--v0 --kx), scalar_grid (--potential ... plus grid flags),
each one entry of MODELS, which every command reads.

Exit codes: 0 success, 2 usage/parameter error, 3 solver failure,
4 regime violation.  Errors are mirrored as one-line JSON on stderr.
Output bytes are deterministic for identical flags; wall-clock timing
goes to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import grid as gridmod
from .errors import (
    ComplexSpectrum,
    ConvergenceFailure,
    DimensionMismatch,
    ExceptionalPoint,
    NotHermitian,
    NotPositiveDefinite,
    PseudospecError,
    SingularDenominator,
)
from .linalg import (
    DEFAULT_TOL,
    MAX_DIM,
    adjoint,
    eigendecompose,
    frob_norm,
    relative_residual,
    sort_by_re_im,
    stacked_eigenvalues,
    validate_tol,
)
from .metric import (
    ALL_REAL,
    CONJUGATE_PAIRS,
    check_metric,
    classify_spectrum,
    evolve,
    make_metric,
    spectral_metric,
)
from .models import (
    Momentum2,
    PhysParams,
    build_rashba,
    build_scalar_const,
    eta_diag_rashba,
    eta_paper_rashba,
    eta_paper_scalar,
    rashba_adjoint_spinors,
    rashba_energy,
    rashba_parity_residuals,
    scalar_adjoint_spinors,
    scalar_energy,
    scalar_parity_residual,
)
from .records import CSV, JSON, ResultRecord, complex_table, emit

RASHBA = "rashba"
SCALAR_CONST = "scalar_const"
SCALAR_GRID = "scalar_grid"

EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_REGIME = 4

# Errors main reports as a JSON line on stderr; any other error propagates.
# OverflowError comes from a closed form squaring a huge Python float, and
# OSError from reading --file or writing --out.
_REPORTED_ERRORS = (ValueError, OverflowError, OSError, PseudospecError)
# Exit code of each reported error; the first matching row wins, so the
# last row takes every other PseudospecError (odd potential, asymmetric
# grid, dimension mismatch, ...) and overflow.  LinAlgError is a ValueError.
_EXIT_CODES = (
    ((ComplexSpectrum, ExceptionalPoint, SingularDenominator, NotPositiveDefinite,
      NotHermitian), EXIT_REGIME),
    ((ConvergenceFailure, np.linalg.LinAlgError), EXIT_SOLVER),
    (_REPORTED_ERRORS, EXIT_USAGE),
)


#: Most points a sweep takes; np.linspace holds them all at once.
MAX_SWEEP_STEPS = 10_000
#: Relative width of the bracket at which a threshold search stops;
#: near 0 it is the absolute width.
BISECT_RTOL = 1e-9
#: Solves past bisection's count that a threshold search may take.
SPARE_SOLVES = 8

#: Value of a model parameter that a RunConfig leaves out; 0 for the rest.
_PARAM_DEFAULTS = {"m0": 1.0, "c": 1.0, "hbar": 1.0, "mode": 1, "width": 1.0}


@dataclass(frozen=True)
class GridFlags:
    """Grid and potential flags, each at its value when left out.

    Only the grid model reads them; a 2x2 model refuses any of them.
    """

    grid_l: float = math.pi
    grid_n: int = 64
    bc: str = gridmod.PERIODIC
    scheme: str = gridmod.FOURIER
    potential: str = "constant"
    pot_file: str | None = None


@dataclass
class RunConfig:
    """Fully resolved invocation: command, model and every parameter."""

    command: str
    model: str = RASHBA
    params: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)  # the GridFlags given
    tol: float = DEFAULT_TOL
    fmt: str = JSON
    out: str | None = None
    # sweep
    sweep_param: str | None = None
    sweep_min: float = 0.0
    sweep_max: float = 0.0
    sweep_steps: int = 0
    # reduce
    form: str = gridmod.PRODUCT_EXACT
    # metric / evolve
    methods: tuple[str, ...] = ("spectral",)
    normalize: bool = False
    times: tuple[float, ...] = (1.0,)
    # converge
    ns: tuple[int, ...] = ()
    track_level: int = 0

    def param(self, name: str) -> float:
        return float(self.params.get(name, _PARAM_DEFAULTS.get(name, 0.0)))


def _phys(cfg: RunConfig) -> PhysParams:
    return PhysParams(m0=cfg.param("m0"), c=cfg.param("c"), hbar=cfg.param("hbar"))


_BLOCK = (RASHBA, SCALAR_CONST)
_GRID = (SCALAR_GRID,)
_ANY = (RASHBA, SCALAR_CONST, SCALAR_GRID)


def _require_model(cfg: RunConfig, allowed: tuple[str, ...]) -> None:
    """Refuse a model the command does not take, then flags it does not read.

    Then a value of the wrong type: a real parameter, the grid's half-length,
    tol, a sweep bound or a time that is not a real number (a str, None or
    a bool), or a count (mode, grid_n, sweep_steps, track_level, each N)
    that is not an integer.  argparse types them on the command line, a
    library call to ``run`` may not.  Then a tolerance outside (0, 1), the
    one tolerance of every verdict of the run, and a non-finite parameter.
    """
    if cfg.model not in allowed:
        raise ValueError(
            f"command {cfg.command!r} supports models {allowed}, got {cfg.model!r}"
        )
    model = repr(cfg.model)
    reads = ("m0", "c", "hbar", *MODELS[cfg.model].params)
    if cfg.model in _GRID:
        unknown = sorted(set(cfg.grid) - {f.name for f in fields(GridFlags)})
        if unknown:
            raise ValueError(f"unknown grid flags {tuple(unknown)}")
        potential = GridFlags(**cfg.grid).potential
        if potential not in gridmod.FAMILIES:
            raise ValueError(f"unknown potential {potential!r}")
        model += f" with potential {potential!r}"
        reads += gridmod.FAMILIES[potential][0]
    elif cfg.grid:
        raise ValueError(f"model {model} reads no grid flags, got {tuple(cfg.grid)}")
    for key in cfg.params:
        if key not in reads:
            raise ValueError(
                f"model {model} does not read parameter {key!r}; it reads {reads}"
            )
    reals = [(key, value) for key, value in cfg.params.items() if key != "mode"]
    if "grid_l" in cfg.grid:
        reals.append(("grid_l", cfg.grid["grid_l"]))
    reals += [("tol", cfg.tol), ("sweep_min", cfg.sweep_min), ("sweep_max", cfg.sweep_max)]
    reals += [("t", t) for t in cfg.times]
    for key, value in reals:
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValueError(f"{key} must be a real number, got {value!r}")
    counts = [("sweep_steps", cfg.sweep_steps), ("track_level", cfg.track_level)]
    counts += [(key, given[key]) for key, given in (("mode", cfg.params), ("grid_n", cfg.grid))
               if key in given]
    counts += [("N", n) for n in cfg.ns]
    for key, value in counts:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{key} must be an integer, got {value!r}")
    validate_tol(cfg.tol)
    for key, value in cfg.params.items():
        if not np.isfinite(value):
            raise ValueError(f"parameter {key} is not finite: {value}")


def _potential(cfg: RunConfig, flags: GridFlags) -> gridmod.PotentialSpec:
    """The run's potential, read from --file or built from its family's parameters."""
    # Each analytic family has a PotentialSpec constructor of the same name.
    if flags.potential == "samples":
        if not flags.pot_file:
            raise ValueError("samples potential needs --file PATH")
        return gridmod.PotentialSpec.from_csv(flags.pot_file)
    names, _ = gridmod.FAMILIES[flags.potential]
    return getattr(gridmod.PotentialSpec, flags.potential)(*map(cfg.param, names))


def _grid_inputs(cfg: RunConfig):
    """(grid flags, potential, grid, physical parameters) of a grid command."""
    flags = GridFlags(**cfg.grid)
    pp = _phys(cfg)
    if flags.grid_n > MAX_DIM:
        raise DimensionMismatch(f"grid of {flags.grid_n} points exceeds limit {MAX_DIM}")
    g = gridmod.make_grid(flags.grid_l, flags.grid_n, flags.bc)
    return flags, _potential(cfg, flags), g, pp


def _rashba_args(cfg: RunConfig):
    return Momentum2(cfg.param("kx"), cfg.param("ky")), _phys(cfg), cfg.param("lambda")


def _scalar_args(cfg: RunConfig):
    return cfg.param("kx"), _phys(cfg), cfg.param("v0")


def _sorted_pair(pair) -> np.ndarray:
    vals = np.asarray(pair, dtype=np.complex128)
    return vals[sort_by_re_im(vals)]


def _pseudo_unitarity(u: np.ndarray, eta: np.ndarray) -> float:
    """||U^dag eta U - eta||_F / max(1, ||eta||_F)."""
    return relative_residual(u.conj().T @ eta @ u - eta, eta)


def _check(name: str, value: float, tol: float | None, gate: bool = True) -> dict:
    ok = None if (tol is None or not gate) else bool(value <= tol)
    return {"name": name, "value": float(value), "tol": tol, "pass": ok}


def _rashba_checks(cfg: RunConfig, h: np.ndarray) -> list[dict]:
    k, pp, lam = _rashba_args(cfg)
    checks = []
    if abs(lam) < pp.c:
        diag_rep = check_metric(h, eta_diag_rashba(pp, lam), cfg.tol)
        checks.append(
            _check("diagonal_metric_relation", diag_rep.relation_residual, 1e-14)
        )
    parity = rashba_parity_residuals(k, pp, lam)
    return checks + [
        _check("parity_conjugation_vs_adjoint", parity["parity_vs_adjoint"],
               cfg.tol, gate=False),
        _check("parity_with_reversal_vs_adjoint",
               parity["parity_with_reversal_vs_adjoint"], cfg.tol, gate=False),
        _check("parity_conjugation_vs_reflected_k", parity["parity_vs_reflected_k"],
               1e-12),
    ]


def _scalar_checks(cfg: RunConfig, h: np.ndarray) -> list[dict]:
    return [
        _check("parity_with_momentum_reversal_vs_adjoint",
               scalar_parity_residual(*_scalar_args(cfg)), 1e-12)
    ]


def _verify_block(cfg: RunConfig) -> list[dict]:
    model = MODELS[cfg.model]
    pp = _phys(cfg)
    h = model.matrix(cfg)
    ana = _sorted_pair(model.analytic(cfg))
    hd = adjoint(h)
    es = eigendecompose(h, cfg.tol)
    checks = [
        _check(
            "spectrum_matches_closed_form",
            float(np.max(np.abs(es.values - ana) / np.maximum(1.0, np.abs(ana)))),
            cfg.tol,
        ),
        _check(
            "eigenvalues_in_plus_minus_pairs",
            float(abs(es.values[0] + es.values[-1]) / max(1.0, abs(es.values[-1]))),
            1e-12,
        ),
    ]
    spinors = model.spinors(cfg)
    try:
        paper_eta = model.etas["paper"](cfg)
    except SingularDenominator:
        paper_eta = None  # closed form undefined at E^2 = (m0 c^2)^2: no checks
    # u1 belongs to E and u2 to -E
    for name, u, e in (("u1", spinors.u1, spinors.energy),
                       ("u2", spinors.u2, -spinors.energy)):
        residual = relative_residual(np.linalg.norm(hd @ u - e * u), h)
        checks.append(_check(f"adjoint_spinor_residual_{name}", residual, 1e-10))
    eta = spectral_metric(h, normalize=cfg.normalize, tol=cfg.tol)
    rep = check_metric(h, eta, cfg.tol)
    checks.append(_check("spectral_metric_relation", rep.relation_residual, cfg.tol))
    checks.append(_check("spectral_metric_min_eig", rep.min_eig, None))
    checks.append(
        _check(
            "spectral_metric_positive_definite",
            0.0 if rep.min_eig > 0 else 1.0,
            0.5,
        )
    )
    if paper_eta is not None:
        paper_rep = check_metric(h, paper_eta, cfg.tol)
        checks.append(
            _check(
                "printed_metric_relation",
                paper_rep.relation_residual,
                cfg.tol,
                gate=False,
            )
        )
        checks.append(_check("printed_metric_min_eig", paper_rep.min_eig, None))
    checks += model.checks(cfg, h)
    u = evolve(h, 1.0, pp)
    checks.append(_check("pseudo_unitarity_t1", _pseudo_unitarity(u, eta), 1e-8))
    return checks


def _verify_grid(cfg: RunConfig, flags: GridFlags, spec, g, pp: PhysParams) -> list[dict]:
    perm = gridmod.reflection_permutation(g)
    d, v, u, _, reduced_values, mismatch = gridmod.solve_pair(
        spec, g, pp, flags.scheme, gridmod.PRODUCT_EXACT, cfg.tol
    )
    # the symmetry checks read solve_pair's witness U, and H by its N x N blocks
    checks = [
        _check(
            "derivative_reflects_odd",
            float(np.max(np.abs(d[np.ix_(perm, perm)] + d))),
            0.0,
        ),
        _check(
            "grid_parity_pseudo_hermiticity",
            gridmod.coupling_parity_residual(d, v, pp, g),
            1e-12,
        ),
        _check(
            "reduced_reflection_conjugation",
            gridmod.reflection_conjugation_residual(u, g),
            1e-12,
        ),
        _check("reduction_identity_mismatch", mismatch, 1e-8),
    ]
    kind = classify_spectrum(reduced_values, cfg.tol)
    checks.append(
        _check(
            "reduced_spectrum_conjugate_closed",
            0.0 if kind in (ALL_REAL, CONJUGATE_PAIRS) else 1.0,
            0.5,
        )
    )
    return checks


def _block_spectrum(cfg: RunConfig):
    # build, closed form, solve: where several would fail, the first one's error is reported
    model = MODELS[cfg.model]
    h = model.matrix(cfg)
    analytic = _sorted_pair(model.analytic(cfg))
    return eigendecompose(h, cfg.tol).values, analytic


def _at(cfg: RunConfig, value: float) -> RunConfig:
    """``cfg`` with its swept parameter at ``value``."""
    return replace(cfg, params={**cfg.params, cfg.sweep_param: value})


def _block_sweep(cfg: RunConfig, inputs: tuple, values: list):
    """Each value's sorted eigenvalues, from one stacked solve of the 2x2 model's matrices.

    Each matrix comes from the model's builder, and ``stacked_eigenvalues``
    gives and certifies each one's values as ``eigendecompose`` would.  A
    build error is raised once the spectra of the points before it have
    been taken, so that those points are solved, certified and classified
    first, as they were one at a time.
    """
    build = MODELS[cfg.model].matrix
    matrices, failed = [], None
    try:
        for value in values:
            matrices.append(build(_at(cfg, value)))
    except Exception as exc:  # raised below, in its point's turn
        failed = exc
    yield from stacked_eigenvalues(matrices, cfg.tol)
    if failed is not None:
        raise failed


def _grid_sweep(cfg: RunConfig, inputs: tuple, values: list):
    """The component-eliminated operator's sorted values at each value, one solve each."""
    flags, spec, g, pp = inputs
    for value in values:
        yield gridmod.solve_reduced(replace(spec, **{cfg.sweep_param: value}), g, pp,
                                    flags.scheme, tol=cfg.tol)


@dataclass(frozen=True)
class Model:
    """What the commands need to know of one model.

    Each callable takes the RunConfig; ``spectrum`` and ``verify`` take
    after it the inputs that ``load`` builds once per command (none for the
    2x2 models), and ``sweep`` takes those inputs as a tuple and then the
    values of the swept parameter.  ``etas`` maps a ``--method`` name to
    its closed-form metric; ``metric --method all`` runs them after
    spectral, and ``verify`` prints "paper".  The entries reach model
    functions through this module's globals when called, never by holding
    them, so a wrapper installed on a module attribute sees every call.
    """

    params: tuple[str, ...]  # record parameters after m0, c, hbar, in order
    verify: Callable  # the `verify` battery: a list of checks
    spectrum: Callable = _block_spectrum  # `spectrum`'s eigenvalues and closed form
    # (cfg, inputs, values) -> the sorted eigenvalues `sweep` classifies at
    # each value of its parameter, in order
    sweep: Callable = _block_sweep
    matrix: Callable | None = None  # the 2x2 operator the commands solve
    load: Callable = lambda cfg: ()  # inputs built once per command
    analytic: Callable | None = None  # closed-form eigenvalue pair
    etas: dict = field(default_factory=dict)  # closed-form metric candidates
    spinors: Callable | None = None  # adjoint-block eigenvectors
    checks: Callable | None = None  # (cfg, h) -> model-specific verify checks


MODELS = {
    RASHBA: Model(
        params=("lambda", "kx", "ky"),
        matrix=lambda cfg: build_rashba(*_rashba_args(cfg)),
        verify=_verify_block,
        analytic=lambda cfg: rashba_energy(*_rashba_args(cfg)),
        etas={"paper": lambda cfg: eta_paper_rashba(*_rashba_args(cfg)),
              "diagonal": lambda cfg: eta_diag_rashba(_phys(cfg), cfg.param("lambda"))},
        spinors=lambda cfg: rashba_adjoint_spinors(*_rashba_args(cfg)),
        checks=_rashba_checks,
    ),
    SCALAR_CONST: Model(
        params=("v0", "kx"),
        matrix=lambda cfg: build_scalar_const(*_scalar_args(cfg)),
        verify=_verify_block,
        analytic=lambda cfg: scalar_energy(*_scalar_args(cfg)),
        etas={"paper": lambda cfg: eta_paper_scalar(*_scalar_args(cfg))},
        spinors=lambda cfg: scalar_adjoint_spinors(*_scalar_args(cfg)),
        checks=_scalar_checks,
    ),
    SCALAR_GRID: Model(
        params=(),
        load=_grid_inputs,
        # the 2N x 2N Dirac spectrum, through the real N x N solve
        spectrum=lambda cfg, flags, spec, g, pp: (
            gridmod.solve_dirac(spec, g, pp, flags.scheme, cfg.tol), None
        ),
        # the component-eliminated operator, whose reality breaking is the
        # object of interest, at each swept value of the potential parameter
        sweep=_grid_sweep,
        verify=_verify_grid,
    ),
}


def _record(cfg: RunConfig, flags=None, spec=None, *_, **sections) -> ResultRecord:
    """Record of the run's model and parameters with the given sections.

    A grid command passes its inputs; of those the potential is recorded,
    followed by the grid flags.
    """
    model = MODELS[cfg.model]
    params = {name: cfg.param(name) for name in ("m0", "c", "hbar", *model.params)}
    if spec is not None:
        params.update(spec.describe(), grid_L=flags.grid_l, grid_n=flags.grid_n,
                      bc=flags.bc, scheme=flags.scheme)
    params["tol"] = cfg.tol
    return ResultRecord(model=cfg.model, params=params, **sections)


def run_spectrum(cfg: RunConfig) -> ResultRecord:
    """Numerical (and, for 2x2 models, analytic) spectrum with classification."""
    model = MODELS[cfg.model]
    inputs = model.load(cfg)
    values, analytic = model.spectrum(cfg, *inputs)
    return _record(
        cfg,
        *inputs,
        eigenvalues=complex_table(values),
        analytic_eigenvalues=None if analytic is None else complex_table(analytic),
        classification=classify_spectrum(values, cfg.tol),
    )


def _metric_candidates(cfg: RunConfig, h) -> dict:
    etas = MODELS[cfg.model].etas
    out: dict = {}
    # `all` runs spectral and the model's closed forms; a repeated method runs once
    for method in ("spectral", *etas) if "all" in cfg.methods else dict.fromkeys(cfg.methods):
        if method == "spectral":
            out[method] = spectral_metric(h, normalize=cfg.normalize, tol=cfg.tol)
        elif method in etas:
            out[method] = make_metric(etas[method](cfg))
        elif owners := [name for name, model in MODELS.items() if method in model.etas]:
            raise ValueError(f"--method {method} applies to the {'/'.join(owners)} model only")
        else:
            raise ValueError(f"unknown metric method {method!r}")
    return out


def run_metric(cfg: RunConfig) -> ResultRecord:
    """Construct the requested metric candidates and adjudicate each one."""
    h = MODELS[cfg.model].matrix(cfg)
    candidates = _metric_candidates(cfg, h)
    reports = {name: check_metric(h, eta, cfg.tol) for name, eta in candidates.items()}
    es = eigendecompose(h, cfg.tol)
    record = _record(
        cfg,
        eigenvalues=complex_table(es.values),
        classification=classify_spectrum(es.values, cfg.tol),
    )
    if len(reports) == 1:
        record.metric_report = next(iter(reports.values()))
    else:
        record.metric_reports = reports
    return record


def _sweep_point(cfg: RunConfig, inputs: tuple, value: float):
    """The sorted eigenvalues at one value of the swept parameter, and their class."""
    (values,) = MODELS[cfg.model].sweep(cfg, inputs, [value])
    return values, classify_spectrum(values, cfg.tol)


def _split_at_zero(cfg: RunConfig, inputs: tuple) -> dict | None:
    """The threshold of a grid sweep of g from 0 whose spectrum is complex from g = 0 on.

    Where some level of c^2 P^2 splits at first order in g, visibly at the
    threshold search's stop width (``grid.first_order_split``), the
    threshold is g = 0 itself, with the count of split levels and the lowest
    of them.  None for any other sweep, which searches its first bracket
    (``_find_threshold``).  Only a grid potential has a parameter g, so
    ``inputs`` are a grid command's.
    """
    if cfg.sweep_param != "g" or cfg.sweep_min != 0:
        return None
    flags, spec, g, pp = inputs
    split = gridmod.first_order_split(spec, g, pp, flags.scheme, cfg.tol, BISECT_RTOL)
    if not len(split):
        return None
    return {"param": "g", "value": 0.0, "split_levels": len(split),
            "lowest_split": float(split[0])}


def _collision_gap(values: np.ndarray, anchor: float, tol: float) -> float:
    """f = Re (a - b)^2 for the two distinct levels a, b of ``values`` nearest ``anchor``.

    Values within tol x max(1, |a|) of a count as a's level, so the
    degenerate doubles of a grid spectrum are one level.  f is the square
    of the gap while a and b are real and -4 (Im a)^2 once they are a
    conjugate pair; 0 where every value is one level.
    """
    dist = np.abs(values - anchor)
    a = values[dist.argmin()]
    apart = np.abs(values - a) > tol * max(1.0, abs(a))
    if not apart.any():
        return 0.0
    b = values[apart][dist[apart].argmin()]
    return float(((a - b) ** 2).real)


def _find_threshold(cfg: RunConfig, inputs: tuple, lo: float, hi: float,
                    lo_values: np.ndarray, hi_values: np.ndarray) -> float:
    """The reality threshold in a bracket whose ``lo`` is all real and ``hi`` is not.

    Only ``classify_spectrum`` moves the bracket: an all-real probe becomes
    ``lo``, any other ``hi``, until hi - lo <= BISECT_RTOL x max(1, |hi|);
    the midpoint is returned.  The probe is the Illinois regula falsi root
    of the colliding pair's ``_collision_gap``, analytic in the parameter
    and negative past the threshold (Kato, ch. II), with the pair taken
    around Re of the most imaginary value at ``hi``.  It is kept 0.49 stop
    widths inside the bracket, so that a probe beside the root ends the
    search.  As in Brent's method (1973, ch. 4), the bracket is bisected
    instead where f does not change sign across it, where three steps in a
    row failed to halve it, or where it is wider than bisection would have
    left it with SPARE_SOLVES solves to spare: the search takes at most
    SPARE_SOLVES more solves than bisection would.
    """
    weight = [1.0, 1.0]  # Illinois weights of f at lo and hi
    last = None  # the end the last probe replaced
    slow = 0  # steps in a row that did not halve the bracket
    cap = (hi - lo) * 2.0 ** SPARE_SOLVES  # the widest bracket the budget allows
    while (width := hi - lo) > (stop := BISECT_RTOL * max(1.0, abs(hi))):
        anchor = float(hi_values[np.abs(hi_values.imag).argmax()].real)
        f_lo = weight[0] * _collision_gap(lo_values, anchor, cfg.tol)
        f_hi = weight[1] * _collision_gap(hi_values, anchor, cfg.tol)
        probe = lo + width * f_lo / (f_lo - f_hi) if f_lo >= 0.0 > f_hi else math.nan
        cap *= 0.5
        if slow == 3 or width > cap or not lo <= probe <= hi:  # nan where an f overflowed
            probe, slow = 0.5 * (lo + hi), 0
        probe = min(max(probe, lo + 0.49 * stop), hi - 0.49 * stop)
        values, kind = _sweep_point(cfg, inputs, probe)
        end = int(kind != ALL_REAL)  # the end the probe replaces: 0 lo, 1 hi
        if end:
            hi, hi_values = probe, values
        else:
            lo, lo_values = probe, values
        weight[end] = 1.0
        if end == last:  # the other end was kept twice in a row
            weight[1 - end] *= 0.5
        last = end
        slow = slow + 1 if hi - lo > 0.5 * width else 0
    return 0.5 * (lo + hi)


def run_sweep(cfg: RunConfig) -> ResultRecord:
    """Classify the spectrum along a 1-parameter sweep; find its reality threshold.

    The model's ``sweep`` entry gives the spectra of all the points in one
    call: for a 2x2 model, one stacked solve.  For the grid model the
    classified spectrum is the component-eliminated operator's, whose
    reality breaking is the object of interest.  The threshold lies in the
    first bracket whose lower point is all real and upper point is not, and
    is narrowed to a width of BISECT_RTOL x max(1, |upper end|) by
    ``_find_threshold``, a secant search on the colliding levels.  A grid
    sweep of g from exactly 0 whose first bracket is at 0 is not searched
    where some degenerate level of c^2 P^2 splits at first order in g
    (``_split_at_zero``): its threshold is 0, recorded with
    ``split_levels`` and ``lowest_split``.
    """
    if cfg.sweep_param is None or not 2 <= cfg.sweep_steps <= MAX_SWEEP_STEPS:
        raise ValueError(
            f"sweep needs --sweep-param, --sweep-min/max and "
            f"2 <= --sweep-steps <= {MAX_SWEEP_STEPS}"
        )
    inputs = MODELS[cfg.model].load(cfg)
    # a 2x2 model sweeps its parameters, a grid command its potential's floats
    choices = (tuple(k for k, v in inputs[1].describe().items() if isinstance(v, float))
               if inputs else MODELS[cfg.model].params)
    if cfg.sweep_param not in choices:
        raise ValueError(
            f"cannot sweep {cfg.sweep_param!r} for model {cfg.model!r}; "
            f"choose from {choices}"
        )
    if not cfg.sweep_max > cfg.sweep_min:
        raise ValueError("sweep range must satisfy max > min")
    grid_values = np.linspace(cfg.sweep_min, cfg.sweep_max, cfg.sweep_steps).tolist()
    solved = [(values, classify_spectrum(values, cfg.tol))
              for values in MODELS[cfg.model].sweep(cfg, inputs, grid_values)]
    points = [{"value": v, "eigenvalues": complex_table(values), "classification": kind}
              for v, (values, kind) in zip(grid_values, solved)]
    threshold = None
    for i in range(len(grid_values) - 1):
        if solved[i][1] == ALL_REAL and solved[i + 1][1] != ALL_REAL:
            threshold = _split_at_zero(cfg, inputs) if i == 0 else None
            if threshold is None:
                threshold = {"param": cfg.sweep_param, "value": _find_threshold(
                    cfg, inputs, grid_values[i], grid_values[i + 1],
                    solved[i][0], solved[i + 1][0])}
            break
    return _record(
        cfg,
        *inputs,
        sweep={
            "param": cfg.sweep_param,
            "min": cfg.sweep_min,
            "max": cfg.sweep_max,
            "steps": cfg.sweep_steps,
            "points": points,
        },
        threshold=threshold,
    )


def run_reduce(cfg: RunConfig) -> ResultRecord:
    """Grid solve: Dirac spectrum, component-eliminated spectrum, exact identity check."""
    flags, spec, g, pp = _grid_inputs(cfg)
    # D, V and U are dropped here, not held through serialization
    dirac_values, reduced_values, mismatch = gridmod.solve_pair(
        spec, g, pp, flags.scheme, cfg.form, cfg.tol
    )[3:]
    mapped = gridmod.reduced_to_dirac_energies(reduced_values, pp)
    mapped = mapped[sort_by_re_im(mapped)]
    reduced_kind = classify_spectrum(reduced_values, cfg.tol)
    return _record(
        cfg,
        flags,
        spec,
        eigenvalues=complex_table(dirac_values),
        classification=classify_spectrum(dirac_values, cfg.tol),
        reduction={
            "form": cfg.form,
            "identity_mismatch": mismatch,
            "reduced_classification": reduced_kind,
            "reduced_eigenvalues": complex_table(reduced_values),
            "mapped_eigenvalues": complex_table(mapped),
        },
    )


def run_verify(cfg: RunConfig) -> ResultRecord:
    """Certification battery for the chosen model at the given parameters."""
    model = MODELS[cfg.model]
    inputs = model.load(cfg)
    checks = model.verify(cfg, *inputs)
    gated = [c["pass"] for c in checks if c["pass"] is not None]
    return _record(
        cfg,
        *inputs,
        checks=checks,
        all_passed=bool(all(gated)),
    )


def run_evolve(cfg: RunConfig) -> ResultRecord:
    """Propagator checks: eta-pseudo-unitarity versus naive unitarity."""
    pp = _phys(cfg)
    h = MODELS[cfg.model].matrix(cfg)
    eta = spectral_metric(h, normalize=cfg.normalize, tol=cfg.tol)
    ident = np.eye(h.shape[0])
    rows = []
    for t in cfg.times:
        u = evolve(h, t, pp)
        rows.append(
            {
                "t": float(t),
                "pseudo_unitarity_residual": _pseudo_unitarity(u, eta),
                "naive_unitarity_defect": frob_norm(u.conj().T @ u - ident),
            }
        )
    return _record(cfg, evolution=rows)


def run_converge(cfg: RunConfig) -> ResultRecord:
    """Grid-refinement study of the lowest-|E| eigenvalue."""
    if not cfg.ns:
        raise ValueError("converge needs at least one --N")
    flags = GridFlags(**cfg.grid)
    if flags.potential == "samples":
        raise ValueError(
            f"converge cannot use sampled values: its reference grid has "
            f"{gridmod.REF_FACTOR}x the largest --N points, which no sample file matches"
        )
    if "grid_n" in cfg.grid:
        raise ValueError("converge does not read --grid-n: its grid sizes are the --N values")
    spec = _potential(cfg, flags)
    study = gridmod.convergence_study(
        spec,
        _phys(cfg),
        list(cfg.ns),
        scheme=flags.scheme,
        half_length=flags.grid_l,
        bc=flags.bc,
        tol=cfg.tol,
        track_level=cfg.track_level,
    )
    record = _record(cfg, flags, spec, study={
        "scheme": flags.scheme,
        "track_level": cfg.track_level,
        "ref_n": study.ref_n,
        "ref_value": study.ref_value,
        "rows": [{"n": n, "error": err} for n, err in study.rows],
    })
    del record.params["grid_n"]  # its grid sizes are the --N values
    return record


@dataclass(frozen=True)
class Command:
    """One command: its runner, the models it takes, its help line, its own flags."""

    run: Callable[[RunConfig], ResultRecord]
    models: tuple[str, ...]
    help: str
    flags: tuple[tuple[str, dict], ...] = ()  # (name, add_argument keywords) each


_NORMALIZE = ("--normalize", dict(action="store_true",
                                  help="unit-norm eigenvectors in the spectral sum"))

COMMANDS = {
    "spectrum": Command(run_spectrum, _ANY,
                        "eigenvalues (numerical + closed form) and classification"),
    "metric": Command(run_metric, _BLOCK, "construct and adjudicate metric candidates", (
        _NORMALIZE,
        ("--method", dict(dest="methods", action="append",
                          choices=("spectral", "paper", "diagonal", "all"),
                          help="repeatable; default spectral")),
    )),
    "verify": Command(run_verify, _ANY, "run the full certification battery"),
    "reduce": Command(run_reduce, _GRID,
                      "grid solve with the exact component-elimination identity", (
        ("--form", dict(choices=(gridmod.PRODUCT_EXACT, gridmod.ANALYTIC_U))),
    )),
    "sweep": Command(run_sweep, _ANY,
                     "1-parameter sweep with its reality threshold: a secant search on the "
                     "colliding levels, or 0 for a grid g sweep from 0 whose levels split at "
                     "first order", (
        ("--sweep-param", dict(required=True)),
        ("--sweep-min", dict(type=float, required=True)),
        ("--sweep-max", dict(type=float, required=True)),
        ("--sweep-steps", dict(type=int, required=True)),
    )),
    "evolve": Command(run_evolve, _BLOCK, "propagator pseudo-unitarity checks", (
        _NORMALIZE,
        ("--t", dict(dest="times", action="append", type=float,
                     help="repeatable evolution time; default 1.0")),
    )),
    "converge": Command(run_converge, _GRID, "grid-refinement convergence study", (
        ("--N", dict(dest="ns", action="append", type=int, help="repeatable grid size; ascending")),
        ("--track-level", dict(dest="track_level", type=int,
                               help="which distinct |E| level to follow (0 = lowest)")),
    )),
}


def run(cfg: RunConfig) -> ResultRecord:
    """The command's record, once its model and that model's flags are accepted."""
    if cfg.command not in COMMANDS:
        raise ValueError(f"unknown command {cfg.command!r}")
    command = COMMANDS[cfg.command]
    _require_model(cfg, command.models)
    return command.run(cfg)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, so main reports it like any other."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args reads the parser and never writes it.
    # An option left out is absent from the namespace, so RunConfig's
    # field defaults and RunConfig.param's defaults are the only defaults.
    p = _Parser(
        prog="pseudospec",
        description=(
            "Spectra, reality thresholds and positive-definite metric operators "
            "for two non-Hermitian Dirac models."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # no abbreviations: '--t' is evolve's time, not the prefix of --tol
        sp = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS,
                            allow_abbrev=False)
        sp.add_argument("--model", choices=tuple(MODELS))
        sp.add_argument("--m0", type=float)
        sp.add_argument("--c", type=float)
        sp.add_argument("--hbar", type=float)
        sp.add_argument("--lambda", type=float,
                        help="imaginary spin-orbit coupling strength (rashba)")
        sp.add_argument("--kx", type=float)
        sp.add_argument("--ky", type=float)
        sp.add_argument("--v0", type=float, help="scalar potential strength (scalar models)")
        sp.add_argument("--grid-L", dest="grid_l", type=float)
        sp.add_argument("--grid-n", dest="grid_n", type=int)
        sp.add_argument("--bc", choices=(gridmod.PERIODIC, gridmod.DIRICHLET))
        sp.add_argument("--scheme", choices=(gridmod.CENTRAL2, gridmod.FOURIER))
        sp.add_argument("--potential", choices=tuple(gridmod.FAMILIES))
        sp.add_argument("--g", type=float, help="amplitude for cosine/gaussian potentials")
        sp.add_argument("--mode", type=int, help="cosine mode number")
        sp.add_argument("--width", type=float, help="gaussian width")
        sp.add_argument("--file", dest="pot_file", help="CSV file for the samples potential")
        sp.add_argument("--tol", type=float)
        sp.add_argument("--format", dest="fmt", choices=(JSON, CSV))
        sp.add_argument("--out")
        for flag, options in command.flags:
            sp.add_argument(flag, **options)
    return p


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    """RunConfig from parsed flags.

    A GridFlags field goes to the grid section, and a flag that is neither
    that nor a RunConfig field is a model parameter.
    """
    args = dict(vars(ns))
    grid_keys = {f.name for f in fields(GridFlags)}
    grid = {name: args.pop(name) for name in list(args) if name in grid_keys}
    known = {f.name for f in fields(RunConfig)}
    params = {name: args.pop(name) for name in list(args) if name not in known}
    # a repeatable flag gives a list; RunConfig holds tuples
    args = {key: tuple(v) if isinstance(v, list) else v for key, v in args.items()}
    return RunConfig(params=params, grid=grid, **args)


_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Pass '--ky -7e-05' as '--ky=-7e-05'.

    argparse (Python 3.11) reads a dash followed by a number in scientific
    notation as an option, not as a value; no option name here is a number.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and _NEGATIVE_NUMBER.fullmatch(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _error_json(exc: Exception) -> str:
    return json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})


@functools.cache
def _blas_threads():
    """(getter, setter) of the thread count of numpy's bundled OpenBLAS, or None.

    numpy's wheels ship scipy-openblas in ``numpy.libs``, and it exports
    both; loading it again returns the library numpy already holds.  Any
    other BLAS is left as it is.  Looked up at the first command, not at
    import.
    """
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(path)
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # One BLAS thread, restored on return: a blocked LAPACK routine sums in
    # an order that depends on the thread count, so the last digits of a
    # large grid solve would too.
    blas = _blas_threads()
    threads = blas[0]() if blas else 1
    if threads != 1:
        blas[1](1)
    try:
        ns = _build_parser().parse_args(_join_negative_values(argv))
        started = time.monotonic()
        cfg = config_from_args(ns)
        # A non-finite value is refused by its gate (relative_residual,
        # emit, finite matrix entries) with the JSON line; numpy's warning
        # (overflow, invalid value, divide by zero) would print ahead of it.
        with np.errstate(all="ignore"):
            payload = emit(run(cfg), cfg.fmt)
        elapsed_ms = int(round(1000 * (time.monotonic() - started)))
        if cfg.out:
            with open(cfg.out, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
    except _REPORTED_ERRORS as exc:
        print(_error_json(exc), file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))
    finally:
        if threads != 1:
            blas[1](threads)
    print(f"# runtime_ms={elapsed_ms}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
