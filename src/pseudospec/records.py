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
from dataclasses import asdict, dataclass

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


def _json_value(v) -> str:
    if isinstance(v, dict):
        items = ",".join(f"{json.dumps(str(k))}:{_json_value(x)}" for k, x in v.items())
        return "{" + items + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_value(x) for x in v) + "]"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def complex_table(values) -> list[dict]:
    return [
        {"re": float(v.real), "im": float(v.imag)}
        for v in np.asarray(values, dtype=np.complex128).ravel()
    ]


# Optional record sections, in output order.
_SECTIONS = (
    "eigenvalues", "analytic_eigenvalues", "classification", "metric_report",
    "metric_reports", "sweep", "reduction", "checks", "evolution", "study",
    "threshold", "all_passed",
)


@dataclass
class ResultRecord:
    """One run's output; optional sections are omitted when absent.

    ``threshold`` is emitted, possibly as null, exactly when ``sweep`` is.
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
    schema_version: str = SCHEMA_VERSION
    runtime_ms: int = 0

    def to_dict(self) -> dict:
        out: dict = {
            "schema_version": self.schema_version,
            "model": self.model,
            "params": self.params,
        }
        for name in _SECTIONS:
            value = getattr(self, name)
            if value is not None or (name == "threshold" and self.sweep is not None):
                out[name] = value
        # metric reports are serialized as plain dicts, in the same place
        if self.metric_report is not None:
            out["metric_report"] = asdict(self.metric_report)
        if self.metric_reports is not None:
            out["metric_reports"] = {
                k: asdict(v) for k, v in self.metric_reports.items()
            }
        out["runtime_ms"] = self.runtime_ms
        return out


def _preamble_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    return str(v)


def _csv_preamble(record: ResultRecord) -> list[str]:
    lines = [
        f"# schema_version={record.schema_version}",
        f"# model={record.model}",
    ]
    for k, v in record.params.items():
        lines.append(f"# param.{k}={_preamble_value(v)}")
    if record.classification is not None:
        lines.append(f"# classification={record.classification}")
    reports = {}
    if record.metric_report is not None:
        reports[""] = record.metric_report
    if record.metric_reports is not None:
        reports.update({f".{k}": v for k, v in record.metric_reports.items()})
    for suffix, rep in reports.items():
        for k, v in asdict(rep).items():
            lines.append(f"# metric{suffix}.{k}={_preamble_value(v)}")
    for name, section in (("reduction", record.reduction), ("study", record.study)):
        for k, v in (section or {}).items():
            if not isinstance(v, (list, tuple)):
                lines.append(f"# {name}.{k}={_preamble_value(v)}")
    if record.sweep is not None:
        if record.threshold is None:
            lines.append("# threshold=none")
        else:
            for k, v in record.threshold.items():
                lines.append(f"# threshold.{k}={_preamble_value(v)}")
    if record.all_passed is not None:
        lines.append(f"# all_passed={_preamble_value(record.all_passed)}")
    lines.append(f"# runtime_ms={record.runtime_ms}")
    return lines


def _csv_table(record: ResultRecord) -> list[str]:
    if record.sweep is not None:
        lines = ["param,index,re,im"]
        for point in record.sweep["points"]:
            val = format_float(point["value"])
            for i, ev in enumerate(point["eigenvalues"]):
                lines.append(
                    f"{val},{i},{format_float(ev['re'])},{format_float(ev['im'])}"
                )
        return lines
    if record.checks is not None:
        lines = ["name,value,tol,pass"]
        for chk in record.checks:
            tol = "" if chk.get("tol") is None else format_float(chk["tol"])
            ok = chk.get("pass")
            ok_s = "" if ok is None else ("true" if ok else "false")
            lines.append(f"{chk['name']},{format_float(chk['value'])},{tol},{ok_s}")
        return lines
    if record.evolution is not None:
        lines = ["t,pseudo_unitarity_residual,naive_unitarity_defect"]
        for row in record.evolution:
            lines.append(
                f"{format_float(row['t'])},{format_float(row['pseudo_unitarity_residual'])},"
                f"{format_float(row['naive_unitarity_defect'])}"
            )
        return lines
    if record.study is not None:
        lines = ["n,error"]
        for row in record.study["rows"]:
            lines.append(f"{row['n']},{format_float(row['error'])}")
        return lines
    if record.eigenvalues is not None:
        lines = ["index,re,im"]
        for i, ev in enumerate(record.eigenvalues):
            lines.append(f"{i},{format_float(ev['re'])},{format_float(ev['im'])}")
        return lines
    return []


def emit(record: ResultRecord, fmt: str = JSON) -> bytes:
    """Serialize a record to byte-stable JSON or CSV (LF endings)."""
    if fmt == JSON:
        return (_json_value(record.to_dict()) + "\n").encode("utf-8")
    if fmt == CSV:
        lines = _csv_preamble(record) + _csv_table(record)
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown output format {fmt!r}")
