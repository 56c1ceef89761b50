"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``pseudospec`` modules at every
name a caller can reach them by: ``cli`` and ``grid`` import
``eigendecompose`` by name, so the wrapper replaces
``pseudospec.cli.eigendecompose``, ``pseudospec.grid.eigendecompose`` and
``pseudospec.metric.eigendecompose`` as well as ``pseudospec.linalg``'s.
Each call records one span (layer, start, end, parent span, command id,
size); spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Layer -> (module, function names).  The layers are the package modules;
# grid, metric and records are split where the benchmark reports their
# parts separately.
LAYERS = {
    "cli": ("cli", ("main",)),
    "linalg.eigendecompose": ("linalg", ("eigendecompose",)),
    "linalg.mat_exp": ("linalg", ("mat_exp",)),
    "grid.build": (
        "grid",
        ("make_grid", "derivative_matrix", "build_dirac_grid", "build_reduced"),
    ),
    "grid.match": ("grid", ("reduction_identity_mismatch",)),
    "grid.symmetry": (
        "grid",
        ("grid_parity_residual", "reflection_conjugation_residual"),
    ),
    "grid.converge": ("grid", ("convergence_study",)),
    "models.block": (
        "models",
        (
            "build_rashba",
            "build_scalar_const",
            "rashba_energy",
            "scalar_energy",
            "rashba_adjoint_spinors",
            "scalar_adjoint_spinors",
            "eta_paper_rashba",
            "eta_paper_scalar",
            "eta_diag_rashba",
            "rashba_parity_residuals",
            "scalar_parity_residual",
        ),
    ),
    "metric.spectral": ("metric", ("spectral_metric",)),
    "metric.check": ("metric", ("check_metric",)),
    "metric.evolve": ("metric", ("evolve",)),
    "metric.classify": ("metric", ("classify_spectrum",)),
    "records.emit": ("records", ("emit",)),
    "records.table": ("records", ("complex_table",)),
}


def _matrix_dim(args, kwargs, result) -> int:
    a = args[0] if args else kwargs["a"]
    return int(len(a))


def _value_count(args, kwargs, result) -> int:
    values = args[0] if args else kwargs["values"]
    return int(len(values))


def _byte_count(args, kwargs, result) -> int:
    return len(result)


# Size recorded with each span of these layers: matrix dimension, number
# of classified eigenvalues, bytes serialized.
_SIZES = {
    "linalg.eigendecompose": _matrix_dim,
    "metric.classify": _value_count,
    "records.emit": _byte_count,
}


class Tracer:
    """Records nested spans; ``cmd`` is the id of the command being run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [layer, start, end, parent, cmd, size]
        self.cmd = -1
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        size_of = _SIZES.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [layer, self.clock(), 0.0, parent, self.cmd, 0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    span[5] = size_of(args, kwargs, result)
                return result
            finally:
                span[2] = self.clock()
                self._stack.pop()

        return traced

    def patch(self, package: str = "pseudospec", layers: dict = LAYERS):
        """Replace every binding of the layer functions; returns an undo list."""
        undo = []
        for layer, (module, names) in layers.items():
            mod = importlib.import_module(f"{package}.{module}")
            for name in names:
                original = getattr(mod, name)
                traced = self.wrap(layer, original)
                for owner in _package_modules(package):
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            undo.append((owner, attr, original))
                            setattr(owner, attr, traced)
        return undo

    @staticmethod
    def unpatch(undo) -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def write(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent, cmd, size in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": layer,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "cmd": cmd,
                            "size": size,
                        }
                    )
                    + "\n"
                )


def _package_modules(package: str):
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def layer_metrics(tracer: Tracer, sweeps: dict[int, int], passes: int) -> dict:
    """Per-layer counts and self times, per pass of the command list.

    ``sweeps`` maps the command id of each sweep to its number of grid
    points; every solve of a sweep beyond those is a bisection solve.
    """
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    size_sum: dict = defaultdict(int)
    dim_max = 0
    work_n3 = 0
    cmd_wall = 0.0
    sweep_solves: dict = defaultdict(int)
    for span, own in zip(tracer.spans, tracer.self_times()):
        layer, start, end, _, cmd, size = span
        calls[layer] += 1
        self_s[layer] += own
        size_sum[layer] += size
        if layer == "cli":
            cmd_wall += end - start
        elif layer == "linalg.eigendecompose":
            dim_max = max(dim_max, size)
            work_n3 += size**3
            if cmd in sweeps:
                sweep_solves[cmd] += 1
    solves = sum(sweep_solves.values())
    bisect = sum(n - sweeps[cmd] * passes for cmd, n in sweep_solves.items())

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer] / passes, "s")
    for layer in (
        "linalg.eigendecompose",
        "linalg.mat_exp",
        "grid.build",
        "models.block",
        "metric.classify",
        "records.emit",
    ):
        out[f"{layer}.calls"] = (calls[layer] / passes, "count")
    out["linalg.eigendecompose.dim_max"] = (dim_max, "count")
    out["linalg.eigendecompose.work_n3"] = (work_n3 / passes, "count")
    out["linalg.eigendecompose.share"] = (
        self_s["linalg.eigendecompose"] / cmd_wall if cmd_wall else 0.0,
        "ratio",
    )
    out["metric.classify.values"] = (size_sum["metric.classify"] / passes, "count")
    out["records.emit.bytes"] = (size_sum["records.emit"] / passes, "bytes")
    out["cli.sweep.bisect_share"] = (bisect / solves if solves else 0.0, "ratio")
    return out
