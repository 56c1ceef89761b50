import json

import numpy as np
import pytest

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
