"""Semantic output checks for benchmark commands.

Checks compare what a command printed with closed forms, the CLI's exit
code contract and invariants of the grid model.  They are semantic, not
golden bytes: a last-ulp change from a different solve path passes, a
wrong number, verdict or exit code fails.  ``check`` returns the list of
failure causes (empty when the command's output is correct).
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from workloads import Cmd, rashba_radicand, scalar_radicand

ALL_REAL = "all_real"
CONJUGATE_PAIRS = "conjugate_pairs"
CLASSIFICATIONS = (ALL_REAL, CONJUGATE_PAIRS, "mixed")
VERDICTS = ("valid_metric", "indefinite", "relation_violated")

# Exception types the documented contract maps to each non-zero exit code.
EXIT_ERRORS = {
    2: {"ValueError", "OddPotential", "AsymmetricGrid", "SampleGridMismatch",
        "NoAnalyticDerivative", "SchemeBoundaryMismatch", "DimensionMismatch",
        "FileNotFoundError", "PseudospecError"},
    3: {"ConvergenceFailure", "LinAlgError"},
    4: {"ComplexSpectrum", "ExceptionalPoint", "SingularDenominator",
        "NotPositiveDefinite", "NotHermitian"},
}


def _complex(rows) -> np.ndarray:
    return np.array([complex(r["re"], r["im"]) for r in rows], dtype=np.complex128)


def _csv_view(text: str) -> dict:
    """Map a CSV record onto the JSON record's layout (the fields checks use)."""
    pre: dict[str, str] = {}
    rows: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            pre[key] = value
        else:
            rows.append(line.split(","))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    view: dict = {"model": pre.get("model"), "params": {
        k[len("param."):]: v for k, v in pre.items() if k.startswith("param.")}}
    if "classification" in pre:
        view["classification"] = pre["classification"]
    if "all_passed" in pre:
        view["all_passed"] = pre["all_passed"] == "true"
    if "threshold" in pre:
        view["threshold"] = None
    elif "threshold.value" in pre:
        view["threshold"] = {"param": pre["threshold.param"],
                             "value": float(pre["threshold.value"])}
    verdicts = {k.split(".")[1]: v for k, v in pre.items()
                if k.startswith("metric.") and k.endswith(".verdict") and k.count(".") == 2}
    if verdicts:
        view["metric_reports"] = {m: {"verdict": v} for m, v in verdicts.items()}
    if "study.ref_n" in pre:
        view["study"] = {"ref_n": int(pre["study.ref_n"]), "rows": [
            {"n": int(n), "error": float(e)} for n, e in body]}
    elif header == ["index", "re", "im"]:
        view["eigenvalues"] = [{"re": float(r), "im": float(i)} for _, r, i in body]
    elif header == ["param", "index", "re", "im"]:
        points: dict[str, list] = {}
        for value, _, r, i in body:
            points.setdefault(value, []).append({"re": float(r), "im": float(i)})
        view["sweep"] = {"points": [{"value": float(v), "eigenvalues": e}
                                    for v, e in points.items()]}
    elif header and header[0] == "t":
        view["evolution"] = [dict(zip(header, map(float, row))) for row in body]
    return view


def parse(stdout: bytes, fmt: str) -> dict:
    text = stdout.decode("utf-8")
    return json.loads(text) if fmt == "json" else _csv_view(text)


def _fmt_of(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "json"


def spectrum_gap(numeric, expected) -> float:
    """Largest relative gap when each expected value takes its nearest numeric one."""
    num = list(np.asarray(numeric, dtype=np.complex128).ravel())
    exp = np.asarray(expected, dtype=np.complex128).ravel()
    if len(num) != len(exp):
        return math.inf
    worst = 0.0
    for e in exp:
        j = int(np.argmin([abs(e - v) for v in num]))
        worst = max(worst, abs(e - num.pop(j)) / max(1.0, abs(e)))
    return worst


def is_real(values, tol: float) -> bool:
    values = np.asarray(values, dtype=np.complex128)
    return bool(np.all(np.abs(values.imag) <= tol * np.maximum(1.0, np.abs(values))))


def plus_minus_gap(values) -> float:
    """Largest relative distance from each eigenvalue to the nearest negated one."""
    v = np.asarray(values, dtype=np.complex128)
    gaps = np.min(np.abs(v[:, None] + v[None, :]), axis=1)
    return float(np.max(gaps / np.maximum(1.0, np.abs(v))))


# --- 2x2 models -----------------------------------------------------------


def _radicand(point: dict, value: float | None = None, param: str | None = None) -> float:
    pp = point["pp"]
    if point["model"] == "rashba":
        lam = value if param == "lambda" else point["lam"]
        return rashba_radicand(pp, lam, point["kx"] ** 2 + point["ky"] ** 2)
    v0 = value if param == "v0" else point["v0"]
    return scalar_radicand(pp, v0, point["kx"])


def _closed_form(point: dict) -> np.ndarray:
    e = cmath.sqrt(_radicand(point))
    return np.array([e, -e])


def _block_spectrum(cmd: Cmd, rec: dict, fails: list) -> None:
    point, tol = cmd.expect["point"], cmd.expect["tol"]
    expected = _closed_form(point)
    gap = spectrum_gap(_complex(rec.get("eigenvalues", [])), expected)
    if not gap <= tol:
        fails.append(f"eigenvalues differ from the closed form by {gap:.3e}")
    if "analytic_eigenvalues" in rec:
        gap = spectrum_gap(_complex(rec["analytic_eigenvalues"]), expected)
        if not gap <= 1e-12:
            fails.append(f"analytic_eigenvalues differ from the closed form by {gap:.3e}")
    want = ALL_REAL if point["radicand"] > 0 else CONJUGATE_PAIRS
    if rec.get("classification") != want:
        fails.append(f"classification {rec.get('classification')!r}, closed form says {want}")


def _block_metric(cmd: Cmd, rec: dict, fails: list) -> None:
    _block_spectrum(cmd, rec, fails)
    reports = rec.get("metric_reports") or {}
    methods = ["spectral", "paper"] + (["diagonal"] if cmd.expect["point"]["model"] == "rashba" else [])
    if sorted(reports) != sorted(methods):
        fails.append(f"metric reports {sorted(reports)}, expected {sorted(methods)}")
        return
    for method in methods:
        verdict = reports[method]["verdict"]
        if verdict not in VERDICTS:
            fails.append(f"{method} verdict {verdict!r} is not a verdict")
        elif method != "paper" and verdict != "valid_metric":
            fails.append(f"{method} metric verdict {verdict!r}, expected valid_metric")


def _block_verify(cmd: Cmd, rec: dict, fails: list) -> None:
    if rec.get("all_passed") is not True:
        failed = [c["name"] for c in rec.get("checks", []) if c.get("pass") is False]
        fails.append(f"verify all_passed is not true (failed checks: {failed})")


def _block_evolve(cmd: Cmd, rec: dict, fails: list) -> None:
    rows = rec.get("evolution") or []
    times = cmd.expect["times"]
    if [row["t"] for row in rows] != times:
        fails.append(f"evolution times {[row['t'] for row in rows]} differ from {times}")
    for row in rows:
        if not row["pseudo_unitarity_residual"] <= 1e-8:
            fails.append(f"pseudo-unitarity residual {row['pseudo_unitarity_residual']:.3e} "
                         f"at t={row['t']}")


def _block_sweep(cmd: Cmd, rec: dict, fails: list) -> None:
    point, expect = cmd.expect["point"], cmd.expect
    points = (rec.get("sweep") or {}).get("points", [])
    if len(points) != expect["steps"]:
        fails.append(f"{len(points)} sweep points, expected {expect['steps']}")
    star = expect["threshold"]
    for p in points:
        # The closed-form regime is ill-conditioned right at the threshold.
        if abs(p["value"] - point["star"]) <= 1e-6 * point["star"]:
            continue
        want_real = _radicand(point, p["value"], expect["param"]) > 0
        if is_real(_complex(p["eigenvalues"]), expect["tol"]) != want_real:
            fails.append(f"sweep point {p['value']!r}: spectrum reality disagrees "
                         f"with the closed form")
        if "classification" in p and (p["classification"] == ALL_REAL) != want_real:
            fails.append(f"sweep point {p['value']!r}: classification {p['classification']}")
    found = rec.get("threshold", "missing")
    if star is None:
        if found is not None:
            fails.append(f"threshold {found!r} found, closed form has none in range")
    elif not isinstance(found, dict) or not abs(found["value"] - star) <= 1e-8:
        fails.append(f"threshold {found!r}, closed form {star!r}")


# --- grid model ------------------------------------------------------------


def _grid_spectrum(cmd: Cmd, rec: dict, fails: list) -> None:
    values = _complex(rec.get("eigenvalues", []))
    if len(values) != 2 * cmd.expect["n"]:
        fails.append(f"{len(values)} eigenvalues, expected {2 * cmd.expect['n']}")
        return
    gap = plus_minus_gap(values)
    if not gap <= 1e-8:
        fails.append(f"+-E pairing broken by {gap:.3e}")
    if rec.get("classification") not in CLASSIFICATIONS:
        fails.append(f"classification {rec.get('classification')!r}")


def _grid_converge(cmd: Cmd, rec: dict, fails: list) -> None:
    study = rec.get("study") or {}
    rows = study.get("rows", [])
    ns = cmd.expect["ns"]
    if [r["n"] for r in rows] != ns or study.get("ref_n") != 4 * max(ns):
        fails.append(f"study rows {[r['n'] for r in rows]} / ref_n {study.get('ref_n')}, "
                     f"expected {ns} / {4 * max(ns)}")
        return
    errors = [r["error"] for r in rows]
    if not all(math.isfinite(e) and e >= 0 for e in errors):
        fails.append(f"errors {errors} are not finite and non-negative")
    # central2 is second order: the error must fall as N grows until it
    # reaches solver noise (1e-10), where the tracked level is resolved and
    # neighbouring errors differ only by rounding.
    if cmd.expect["scheme"] == "central2":
        if any(b >= a and b > 1e-10 for a, b in zip(errors, errors[1:])):
            fails.append(f"central2 errors do not decrease with N: {errors}")


def _grid_reduce(cmd: Cmd, rec: dict, fails: list) -> None:
    n = cmd.expect["n"]
    red = rec.get("reduction") or {}
    dirac = _complex(rec.get("eigenvalues", []))
    reduced = _complex(red.get("reduced_eigenvalues", []))
    mapped = _complex(red.get("mapped_eigenvalues", []))
    if (len(dirac), len(reduced), len(mapped)) != (2 * n, n, 2 * n):
        fails.append(f"spectrum sizes {(len(dirac), len(reduced), len(mapped))}, "
                     f"expected {(2 * n, n, 2 * n)}")
        return
    if red.get("form") != cmd.expect["form"]:
        fails.append(f"reduction form {red.get('form')!r}")
    rest = float(rec["params"]["m0"]) * float(rec["params"]["c"]) ** 2
    roots = np.sqrt(reduced + rest**2)
    expected = np.concatenate([roots, -roots])
    order = np.lexsort((expected.imag, expected.real))
    if not np.allclose(expected[order], mapped, rtol=1e-12, atol=1e-12):
        fails.append("mapped_eigenvalues are not +-sqrt(eps + (m0 c^2)^2)")
    gap = plus_minus_gap(dirac)
    if not gap <= 1e-8:
        fails.append(f"+-E pairing broken by {gap:.3e}")
    mismatch = red.get("identity_mismatch")
    if not (isinstance(mismatch, float) and math.isfinite(mismatch)):
        fails.append(f"identity_mismatch {mismatch!r}")
    elif cmd.expect["form"] == "product_exact":
        if not mismatch <= 1e-8:
            fails.append(f"identity_mismatch {mismatch:.3e} > 1e-8")
        # Independent of the program's matching: each Dirac eigenvalue must
        # sit next to a mapped one, away from the singular point -m0 c^2.
        keep = np.abs(dirac + rest) > 1e-8
        near = np.min(np.abs(dirac[keep, None] - mapped[None, :]), axis=1)
        worst = float(np.max(near / np.maximum(1.0, np.abs(dirac[keep]))))
        if not worst <= 1e-8:
            fails.append(f"a Dirac eigenvalue is {worst:.3e} from every mapped one")


def _grid_verify(cmd: Cmd, rec: dict, fails: list) -> None:
    _block_verify(cmd, rec, fails)


def _grid_sweep(cmd: Cmd, rec: dict, fails: list) -> None:
    points = (rec.get("sweep") or {}).get("points", [])
    n, steps = cmd.expect["n"], cmd.expect["steps"]
    if len(points) != steps or any(len(p["eigenvalues"]) != n for p in points):
        fails.append(f"sweep shape differs from {steps} points of {n} eigenvalues")
        return
    tol = float(rec["params"]["tol"])
    real = [is_real(_complex(p["eigenvalues"]), tol) for p in points]
    for p, r in zip(points, real):
        if "classification" in p and (p["classification"] == ALL_REAL) != r:
            fails.append(f"sweep point {p['value']!r}: classification {p['classification']}")
    bracket = next((i for i in range(steps - 1) if real[i] and not real[i + 1]), None)
    found = rec.get("threshold", "missing")
    if bracket is None:
        if found is not None:
            fails.append(f"threshold {found!r} without a real-to-complex bracket")
    elif not isinstance(found, dict):
        fails.append(f"threshold {found!r}, expected one in the first bracket")
    else:
        lo, hi = points[bracket]["value"], points[bracket + 1]["value"]
        if not lo <= found["value"] <= hi:
            fails.append(f"threshold {found['value']!r} outside its bracket [{lo!r}, {hi!r}]")


_CHECKS = {
    "block.spectrum": _block_spectrum,
    "block.metric": _block_metric,
    "block.verify": _block_verify,
    "block.evolve": _block_evolve,
    "block.sweep": _block_sweep,
    "grid.spectrum": _grid_spectrum,
    "grid.converge": _grid_converge,
    "grid.reduce": _grid_reduce,
    "grid.verify": _grid_verify,
    "grid.sweep": _grid_sweep,
}


def _error_type(stderr: bytes) -> str | None:
    for line in stderr.decode("utf-8", "replace").splitlines():
        if line.startswith("{"):
            try:
                return json.loads(line)["error"]["type"]
            except (ValueError, KeyError, TypeError):
                return None
    return None


def check(cmd: Cmd, code: int, stdout: bytes, stderr: bytes) -> list[str]:
    """Failure causes of one command run; empty when it is correct."""
    want = cmd.expect["exit"]
    if code != want:
        cause = _error_type(stderr) or stderr.decode("utf-8", "replace").strip()[-200:]
        return [f"exit {code}, expected {want} ({cause})"]
    if code != 0:
        error = _error_type(stderr)
        fails = []
        if error not in EXIT_ERRORS.get(code, ()):
            fails.append(f"exit {code} without a matching JSON error line (got {error!r})")
        elif cmd.expect.get("error") and error != cmd.expect["error"]:
            fails.append(f"error {error}, closed form predicts {cmd.expect['error']}")
        if stdout:
            fails.append("stdout not empty on error")
        return fails
    try:
        rec = parse(stdout, _fmt_of(cmd.argv))
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable output: {exc!r}"]
    fails: list[str] = []
    try:
        _CHECKS[cmd.kind](cmd, rec, fails)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        fails.append(f"malformed record: {exc!r}")
    return fails
