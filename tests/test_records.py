import json
import math
from dataclasses import asdict, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudospec.metric import MetricReport
from pseudospec.records import ResultRecord, complex_table, emit, format_float


def sample_record():
    return ResultRecord(
        model="rashba",
        params={"m0": 1.0, "c": 1.0, "hbar": 1.0, "lambda": 0.5, "kx": 1.0, "ky": 0.0},
        eigenvalues=complex_table(np.array([-1.3228756555322954, 1.3228756555322954])),
        classification="all_real",
        metric_report=MetricReport(
            relation_residual=4.4e-16,
            hermiticity_residual=0.0,
            min_eig=0.7629649340546224,
            verdict="valid_metric",
        ),
    )


def test_format_float_17_digits():
    assert format_float(0.5) == "0.5"
    assert format_float(1.0) == "1"
    assert format_float(1 / 3) == "0.33333333333333331"
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_format_float_roundtrips_exactly():
    rng = np.random.default_rng(40)
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** int(rng.integers(-12, 12)))
        assert float(format_float(x)) == x


def test_emit_json_is_parseable_and_ordered():
    rec = sample_record()
    payload = emit(rec, "json")
    data = json.loads(payload)
    assert list(data.keys()) == [
        "schema_version",
        "model",
        "params",
        "eigenvalues",
        "classification",
        "metric_report",
        "runtime_ms",
    ]
    assert data["schema_version"] == "1"
    assert data["eigenvalues"][1]["re"] == 1.3228756555322954
    assert data["metric_report"]["verdict"] == "valid_metric"
    assert payload.endswith(b"\n")
    assert b"\r" not in payload


def test_emit_is_deterministic():
    a = emit(sample_record(), "json")
    b = emit(sample_record(), "json")
    assert a == b
    assert emit(sample_record(), "csv") == emit(sample_record(), "csv")


def test_emit_csv_rows_match_eigenvalue_count():
    rec = sample_record()
    lines = emit(rec, "csv").decode().splitlines()
    header_idx = lines.index("index,re,im")
    assert len(lines) - header_idx - 1 == len(rec.eigenvalues)
    assert lines[header_idx + 1].startswith("0,-1.3228756555322954,")
    assert any(line == "# classification=all_real" for line in lines)


def test_emit_threshold_none_vs_value():
    rec = ResultRecord(model="rashba", params={}, sweep={"points": []})
    data = json.loads(emit(rec, "json"))
    assert data["threshold"] is None
    rec.threshold = {"param": "lambda", "value": 2**0.5}
    data = json.loads(emit(rec, "json"))
    assert data["threshold"]["value"] == pytest.approx(2**0.5)


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit(sample_record(), "yaml")


def test_runtime_ms_pinned_to_zero():
    assert json.loads(emit(sample_record(), "json"))["runtime_ms"] == 0


# Signed zeros, the smallest subnormal, the smallest normal and the extremes.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
          1e300, -1e300, 1.7976931348623157e308]
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGES)
_TABLES = ["sweep", "checks", "evolution", "study", "eigenvalues"]


@st.composite
def _records(draw):
    """A record with one table section of 0-3 rows, and that table's float
    cells (None where a cell is not a float)."""
    x = lambda: draw(_FINITE)
    n = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(_TABLES))
    rec = ResultRecord(model="rashba", params={"a": x(), "b": x()},
                       metric_report=MetricReport(x(), x(), x(), "valid_metric"))
    if kind == "sweep":
        rec.sweep = {"param": "a", "points": [
            {"value": x(), "eigenvalues": [{"re": x(), "im": x()}]} for _ in range(n)]}
        rec.threshold = draw(st.none() | _FINITE.map(lambda v: {"param": "a", "value": v}))
        rows = [(p["value"], None, p["eigenvalues"][0]["re"], p["eigenvalues"][0]["im"])
                for p in rec.sweep["points"]]
    elif kind == "checks":
        rec.checks = [{"name": "c", "value": x(), "tol": x(), "pass": True} for _ in range(n)]
        rows = [(None, c["value"], c["tol"], None) for c in rec.checks]
    elif kind == "evolution":
        rec.evolution = [{"t": x(), "pseudo_unitarity_residual": x(),
                          "naive_unitarity_defect": x()} for _ in range(n)]
        rows = [tuple(r.values()) for r in rec.evolution]
    elif kind == "study":
        rec.study = {"ref_value": x(), "rows": [{"n": 8 << i, "error": x()} for i in range(n)]}
        rows = [(None, r["error"]) for r in rec.study["rows"]]
    else:
        rec.eigenvalues = [{"re": x(), "im": x()} for _ in range(n)]
        rows = [(None, ev["re"], ev["im"]) for ev in rec.eigenvalues]
    return rec, rows


def _same(parsed: float, value: float) -> bool:
    return parsed == value and math.copysign(1, parsed) == math.copysign(1, value)


def _leaves(v):
    if is_dataclass(v):
        v = asdict(v)
    if isinstance(v, dict):
        v = list(v.values())
    if isinstance(v, list):
        return [leaf for x in v for leaf in _leaves(x)]
    return [v]


@settings(max_examples=300, deadline=None)
@given(_records())
def test_emit_round_trips_every_float(case):
    rec, rows = case
    payload = emit(rec, "json")
    assert payload == emit(rec, "json")
    # "-0" and "1" are numbers like any other; a reader with no int type
    # reads them as floats, and so does this one.
    data = json.loads(payload, parse_int=float)
    assert list(data) == list(rec.to_dict())
    written, read = _leaves(rec.to_dict()), _leaves(data)
    assert len(written) == len(read)
    for value, parsed in zip(written, read):
        assert _same(parsed, value) if isinstance(value, float) else parsed == value

    text = emit(rec, "csv")
    assert text == emit(rec, "csv")
    lines = text.decode().splitlines()
    preamble = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    for key in ("a", "b"):
        assert _same(float(preamble[f"param.{key}"]), rec.params[key])
    for key, value in asdict(rec.metric_report).items():
        if isinstance(value, float):
            assert _same(float(preamble[f"metric.{key}"]), value)
    if rec.sweep is not None and rec.threshold is not None:
        assert _same(float(preamble["threshold.value"]), rec.threshold["value"])
    body = [line for line in lines if not line.startswith("# ")]
    assert len(body) == 1 + len(rows)  # the header, even with no rows
    for line, row in zip(body[1:], rows):
        cells = line.split(",")
        assert len(cells) == len(row)
        for cell, value in zip(cells, row):
            assert value is None or _same(float(cell), value)


@settings(max_examples=50, deadline=None)
@given(_records(), st.sampled_from([math.nan, math.inf, -math.inf]),
       st.sampled_from(["json", "csv"]))
def test_emit_refuses_non_finite_values(case, bad, fmt):
    rec, _ = case
    rec.params["a"] = bad
    with pytest.raises(ValueError, match="non-finite"):
        emit(rec, fmt)
