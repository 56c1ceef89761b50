"""Seeded command lists for the three benchmark workloads.

Each workload function returns one pass: a list of ``Cmd`` (CLI argv plus what the
closed forms and the CLI contract say the command must produce) and the
input files the commands read.  The seed picks physical parameters,
models, formats, regimes and order; the command kinds and grid sizes of
a pass are fixed per workload, so a pass costs about the same for every
seed and runs with different seeds stay comparable.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Cmd:
    """One CLI invocation and what it must produce."""

    argv: list[str]
    kind: str
    expect: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _phys(rng: random.Random) -> dict:
    return {
        "m0": rng.uniform(0.5, 1.5),
        "c": rng.uniform(0.8, 1.25),
        "hbar": rng.uniform(0.8, 1.25),
    }


def _phys_argv(pp: dict) -> list[str]:
    return ["--m0", _num(pp["m0"]), "--c", _num(pp["c"]), "--hbar", _num(pp["hbar"])]


# --- block_batch: the 2x2 models ---------------------------------------


def rashba_radicand(pp: dict, lam: float, k_sq: float) -> float:
    """m0^2 c^4 + (c^2 - lam^2) hbar^2 k^2; negative past the threshold."""
    c = pp["c"]
    return (pp["m0"] * c * c) ** 2 + (c * c - lam * lam) * pp["hbar"] ** 2 * k_sq


def rashba_threshold(pp: dict, k_sq: float) -> float:
    """lambda* = sqrt(c^2 + m0^2 c^4 / (hbar^2 k^2))."""
    c = pp["c"]
    return math.sqrt(c * c + (pp["m0"] * c * c) ** 2 / (pp["hbar"] ** 2 * k_sq))


def scalar_radicand(pp: dict, v0: float, kx: float) -> float:
    """hbar^2 c^2 kx^2 + m0^2 c^4 - v0^2; negative past the threshold."""
    c = pp["c"]
    return (c * pp["hbar"] * kx) ** 2 + (pp["m0"] * c * c) ** 2 - v0 * v0


def scalar_threshold(pp: dict, kx: float) -> float:
    """V0* = sqrt(hbar^2 c^2 kx^2 + m0^2 c^4)."""
    c = pp["c"]
    return math.sqrt((c * pp["hbar"] * kx) ** 2 + (pp["m0"] * c * c) ** 2)


def _sign(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0))


def _block_point(rng: random.Random, model: str, regime: str) -> dict:
    """Model parameters in the requested closed-form regime."""
    pp = _phys(rng)
    kx = _sign(rng) * rng.uniform(0.3, 2.0)
    if model == "rashba":
        ky = rng.uniform(-1.0, 1.0)
        k_sq = kx * kx + ky * ky
        star = rashba_threshold(pp, k_sq)
        c = pp["c"]
        if regime == "broken":
            lam = star * rng.uniform(1.1, 1.6)
        elif regime == "indefinite_diag":  # real spectrum, |lam| >= c
            lam = c + (star - c) * rng.uniform(0.1, 0.9)
        else:
            lam = c * rng.uniform(0.0, 0.9)
        lam *= _sign(rng)
        return {
            "model": model,
            "pp": pp,
            "lam": lam,
            "kx": kx,
            "ky": ky,
            "radicand": rashba_radicand(pp, lam, k_sq),
            "star": star,
            "argv": ["--model", model, *_phys_argv(pp), "--lambda", _num(lam),
                     "--kx", _num(kx), "--ky", _num(ky)],
        }
    star = scalar_threshold(pp, kx)
    v0 = star * (rng.uniform(1.1, 1.6) if regime == "broken" else rng.uniform(0.0, 0.9))
    v0 *= _sign(rng)
    return {
        "model": model,
        "pp": pp,
        "v0": v0,
        "kx": kx,
        "radicand": scalar_radicand(pp, v0, kx),
        "star": star,
        "argv": ["--model", model, *_phys_argv(pp), "--v0", _num(v0), "--kx", _num(kx)],
    }


def _regime_error(point: dict, command: str) -> str | None:
    """Error type the CLI contract predicts (exit 4), or None for exit 0."""
    if command in ("spectrum", "sweep"):
        return None
    if point["radicand"] < 0:
        return "ComplexSpectrum"
    if command == "metric" and point["model"] == "rashba" and abs(point["lam"]) >= point["pp"]["c"]:
        return "NotPositiveDefinite"  # diag(c + lam, c - lam) candidate
    return None


def _block_command(rng: random.Random, command: str, model: str, fmt: str, regime: str,
                   variant: int) -> Cmd:
    """One 2x2 command; ``variant`` picks sweep length, range and evolve times."""
    point = _block_point(rng, model, regime)
    argv = [command, *point["argv"], "--format", fmt]
    expect = {"point": point, "fmt": fmt, "tol": 1e-10}
    if command == "metric":
        argv += ["--method", "all"]
    elif command == "evolve":
        times = [rng.uniform(0.1, 5.0) for _ in range(1 + variant % 3)]
        for t in times:
            argv += ["--t", _num(t)]
        expect["times"] = times
    elif command == "sweep":
        param = "lambda" if model == "rashba" else "v0"
        crosses = variant % 4 != 3
        hi = point["star"] * (rng.uniform(1.2, 2.0) if crosses else rng.uniform(0.4, 0.9))
        steps = 11 + 5 * (variant % 5)
        argv += ["--sweep-param", param, "--sweep-min", "0", "--sweep-max", _num(hi),
                 "--sweep-steps", str(steps)]
        expect.update(param=param, steps=steps, threshold=point["star"] if crosses else None)
    error = _regime_error(point, command)
    expect["exit"] = 4 if error else 0
    expect["error"] = error
    return Cmd(argv=argv, kind=f"block.{command}", expect=expect)


# Commands of each kind in one block_batch pass.  Kinds, models, formats
# and regimes come in fixed proportions, so the seed changes the inputs
# but not the mix, and the cost of a pass stays comparable across seeds.
BLOCK_MIX = {"spectrum": 60, "metric": 40, "verify": 40, "evolve": 30, "sweep": 30}
# A quarter of the points lie past the reality threshold; rashba points
# with c <= |lambda| < lambda* have a real spectrum but no diagonal metric.
BLOCK_REGIMES = ("real", "broken", "real", "indefinite_diag")


def block_batch(rng: random.Random, data_dir: str):
    cmds = []
    for command, count in BLOCK_MIX.items():
        for i in range(count):
            model = ("rashba", "scalar_const")[i % 2]
            fmt = ("json", "csv")[i // 2 % 2]
            regime = BLOCK_REGIMES[i // 4 % 4]
            if model == "scalar_const" and regime == "indefinite_diag":
                regime = "real"
            cmds.append(_block_command(rng, command, model, fmt, regime, i))
    rng.shuffle(cmds)
    return cmds, {}


# --- grid workloads ----------------------------------------------------


def _grid_potential(rng: random.Random, family: str, mode: int | None = None) -> list[str]:
    g = rng.uniform(0.3, 1.5)
    if family == "cosine":
        mode = mode or rng.randint(1, 2)
        return ["--potential", "cosine", "--g", _num(g), "--mode", str(mode)]
    width = rng.uniform(0.4, 1.0)
    return ["--potential", "gaussian", "--g", _num(g), "--width", _num(width)]


def grid_points(n: int, half_length: float = math.pi) -> np.ndarray:
    """Periodic grid abscissae, computed exactly as pseudospec builds them."""
    return (2 * np.arange(n) - n) * (half_length / n)


def samples_csv(rng: random.Random, n: int) -> str:
    """An even sampled potential on the n-point periodic grid, as ``x,V`` CSV."""
    a1, a2, a3 = rng.uniform(0.2, 0.8), rng.uniform(-0.3, 0.3), rng.uniform(0.2, 0.8)
    width = rng.uniform(0.4, 1.0)
    x = grid_points(n)
    v = a1 * np.cos(x) + a2 * np.cos(2 * x) + a3 * np.exp(-(x**2) / (2 * width**2))
    rows = ["x,V"] + [f"{xi!r},{vi!r}" for xi, vi in zip(x.tolist(), v.tolist())]
    return "\n".join(rows) + "\n"


def _grid_argv(command: str, scheme: str, pot: list[str], n: int | None = None) -> list[str]:
    argv = [command, "--model", "scalar_grid", *pot, "--scheme", scheme]
    return argv if n is None else argv + ["--grid-n", str(n)]


def _fmt(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(("json", "csv"))]


# Schemes and potential families are fixed per slot: central2 matrices
# take about 30% longer in zgeev than fourier ones, and a seeded choice
# would make the cost of a pass depend on the seed.


def grid_refine(rng: random.Random, data_dir: str):
    cmds = []
    for scheme, family in (("central2", "cosine"), ("fourier", "gaussian")):
        ns = sorted(rng.sample((16, 24, 32, 48, 64, 96), 3)) + [128]
        argv = _grid_argv("converge", scheme, _grid_potential(rng, family))
        for n in ns:
            argv += ["--N", str(n)]
        argv += ["--track-level", str(rng.randint(0, 1)), *_fmt(rng)]
        cmds.append(Cmd(argv, "grid.converge", {"exit": 0, "ns": ns, "scheme": scheme}))
    for n, scheme, family in ((256, "central2", "gaussian"), (384, "fourier", "cosine")):
        argv = _grid_argv("spectrum", scheme, _grid_potential(rng, family), n) + _fmt(rng)
        cmds.append(Cmd(argv, "grid.spectrum", {"exit": 0, "n": n}))
    rng.shuffle(cmds)
    return cmds, {}


def _grid_sweep(rng: random.Random, family: str, scheme: str, n: int, steps: int) -> Cmd:
    argv = _grid_argv("sweep", scheme, _grid_potential(rng, family, mode=1), n) + [
        "--sweep-param", "g", "--sweep-min", "0",
        "--sweep-max", _num(rng.uniform(1.5, 2.5)),
        "--sweep-steps", str(steps), *_fmt(rng),
    ]
    return Cmd(argv, "grid.sweep", {"exit": 0, "n": n, "steps": steps})


def grid_certify(rng: random.Random, data_dir: str):
    files = {}

    def samples(n: int) -> list[str]:
        path = os.path.join(data_dir, f"samples_{n}.csv")
        files[path] = samples_csv(rng, n)
        return ["--potential", "samples", "--file", path]

    def reduce(n: int, scheme: str, pot: list[str], form: str) -> Cmd:
        argv = _grid_argv("reduce", scheme, pot, n) + ["--form", form]
        return Cmd(argv, "grid.reduce", {"exit": 0, "n": n, "form": form})

    def verify(n: int, scheme: str, pot: list[str]) -> Cmd:
        return Cmd(_grid_argv("verify", scheme, pot, n) + _fmt(rng), "grid.verify",
                   {"exit": 0})

    # Sizes stay at N <= 384 so that a pass takes a few seconds and every
    # command runs several times in a run: its fastest run then misses
    # more of the slow spells of a shared machine.  The sweeps over g
    # classify and serialize about 40 reduced spectra each; gaussian ones
    # cross a reality threshold and bisect it, cosine mode-1 ones find
    # none, so the mix shows changes to the threshold search on both sides.
    cmds = [
        reduce(384, "fourier", _grid_potential(rng, "gaussian"), "product_exact"),
        verify(320, "central2", _grid_potential(rng, "cosine")),
        verify(256, "fourier", samples(256)),
        reduce(256, "central2", _grid_potential(rng, "cosine"), "analytic_U"),
        _grid_sweep(rng, "gaussian", "fourier", 128, 11),
        _grid_sweep(rng, "gaussian", "central2", 96, 16),
        _grid_sweep(rng, "cosine", "fourier", 128, 16),
    ]
    rng.shuffle(cmds)
    return cmds, files


WORKLOADS = {
    "block_batch": block_batch,
    "grid_refine": grid_refine,
    "grid_certify": grid_certify,
}


def build(workload: str, seed: int, data_dir: str):
    """One pass of ``workload`` for ``seed``: its commands and input files."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), data_dir)
