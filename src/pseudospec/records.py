"""Deterministic result records and their JSON/CSV serialization.

Identical record contents serialize to identical bytes: field order is
fixed, floats are printed with 17 significant digits (lossless for
float64), and line endings are LF.  Wall-clock timing is deliberately
kept out of the payload (``runtime_ms`` is pinned to 0 and real timing
goes to stderr) so repeated runs stay byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .metric import MetricReport

JSON = "json"
CSV = "csv"

SCHEMA_VERSION = "1"


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering; round-trips any float64."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


def _scalar(v, csv: bool = False) -> str:
    """A leaf value as JSON, or as CSV text: strings bare, None empty."""
    if isinstance(v, (float, np.floating)):  # almost every leaf
        return format_float(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v if csv else json.dumps(v)
    if v is None:
        return "" if csv else "null"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _fields(v) -> dict:
    """A dataclass's fields, in order, without copying their values."""
    return {f.name: getattr(v, f.name) for f in fields(v)}


def _json_value(v) -> str:
    if isinstance(v, dict):
        items = ",".join(f"{json.dumps(str(k))}:{_json_value(x)}" for k, x in v.items())
        return "{" + items + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(map(_json_value, v)) + "]"
    if is_dataclass(v):
        return _json_value(_fields(v))
    return _scalar(v)


def complex_table(values) -> list[dict]:
    return [
        {"re": float(v.real), "im": float(v.imag)}
        for v in np.asarray(values, dtype=np.complex128).ravel()
    ]


@dataclass
class ResultRecord:
    """One run's output; its fields are the record's sections, in output order.

    Absent (None) sections are omitted, except that ``threshold`` is
    emitted, possibly as null, exactly when ``sweep`` is.
    """

    model: str
    params: dict
    eigenvalues: list[dict] | None = None
    analytic_eigenvalues: list[dict] | None = None
    classification: str | None = None
    metric_report: MetricReport | None = None
    metric_reports: dict[str, MetricReport] | None = None
    sweep: dict | None = None
    reduction: dict | None = None
    checks: list[dict] | None = None
    evolution: list[dict] | None = None
    study: dict | None = None
    threshold: dict | None = None
    all_passed: bool | None = None

    def to_dict(self) -> dict:
        sections = {name: value for name, value in _fields(self).items()
                    if value is not None or (name == "threshold" and self.sweep is not None)}
        return {"schema_version": SCHEMA_VERSION, **sections, "runtime_ms": 0}


# Preamble key of each section whose name differs; the sweep is left to the table.
_PREAMBLE_KEYS = {"params": "param", "metric_report": "metric", "metric_reports": "metric",
                  "sweep": None}


def _preamble(key: str, value) -> list[str]:
    """`# key=value` lines of one section; lists go to the table, null reads none."""
    if is_dataclass(value):
        value = _fields(value)
    if isinstance(value, dict):
        return [line for k, v in value.items() for line in _preamble(f"{key}.{k}", v)]
    if isinstance(value, (list, tuple)):
        return []
    return [f"# {key}={'none' if value is None else _scalar(value, True)}"]


def _csv_table(record: ResultRecord) -> list[str]:
    """Header and rows of the first of sweep, checks, evolution, study, eigenvalues."""
    if record.sweep is not None:
        header = "param,index,re,im"
        rows = [(point["value"], i, ev["re"], ev["im"])
                for point in record.sweep["points"]
                for i, ev in enumerate(point["eigenvalues"])]
    elif record.checks is not None:
        header = "name,value,tol,pass"
        rows = [(chk["name"], chk["value"], chk.get("tol"), chk.get("pass"))
                for chk in record.checks]
    elif record.evolution is not None:
        header = "t,pseudo_unitarity_residual,naive_unitarity_defect"
        rows = [(row["t"], row["pseudo_unitarity_residual"], row["naive_unitarity_defect"])
                for row in record.evolution]
    elif record.study is not None:
        header = "n,error"
        rows = [(row["n"], row["error"]) for row in record.study["rows"]]
    elif record.eigenvalues is not None:
        header = "index,re,im"
        rows = [(i, ev["re"], ev["im"]) for i, ev in enumerate(record.eigenvalues)]
    else:
        return []
    return [header] + [",".join([_scalar(x, True) for x in row]) for row in rows]


def emit(record: ResultRecord, fmt: str = JSON) -> bytes:
    """Serialize a record to byte-stable JSON or CSV (LF endings)."""
    if fmt == JSON:
        return (_json_value(record.to_dict()) + "\n").encode("utf-8")
    if fmt == CSV:
        lines = []
        for key, value in record.to_dict().items():
            key = _PREAMBLE_KEYS.get(key, key)
            if key is not None:
                lines += _preamble(key, value)
        lines += _csv_table(record)
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown output format {fmt!r}")
