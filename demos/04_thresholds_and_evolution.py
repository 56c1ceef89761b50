"""Reality thresholds by a secant search and pseudo-unitary time evolution.

Sweeps the coupling of each model through its reality-breaking point,
finds the threshold to eight digits with a secant search on the gap of
the colliding levels, and shows that the non-unitary propagator
exp(-iHt/hbar) still conserves the eta inner product.
"""

import math

import numpy as np

from pseudospec import PhysParams, build_rashba, Momentum2, evolve, spectral_metric
from pseudospec.cli import RunConfig, run_sweep

pp = PhysParams()

print("=== reality thresholds located by sweep + secant search ===")
for model, param, hi, expected in (
    ("rashba", "lambda", 2.0, math.sqrt(2)),
    ("scalar_const", "v0", 3.0, math.sqrt(2)),
):
    rec = run_sweep(
        RunConfig(
            command="sweep",
            model=model,
            params={"kx": 1.0},
            sweep_param=param,
            sweep_min=0.0,
            sweep_max=hi,
            sweep_steps=11,
        )
    )
    found = rec.threshold["value"]
    print(f"{model:13s} {param}* = {found:.8f}   (radicand root: {expected:.8f})")

print()
print("the grid model has thresholds too; e.g. the mode-1 cosine amplitude:")
rec = run_sweep(
    RunConfig(
        command="sweep",
        model="scalar_grid",
        params={"mode": 1},
        grid={"potential": "cosine", "grid_n": 32},
        sweep_param="g",
        sweep_min=5.0,
        sweep_max=20.0,
        sweep_steps=4,
    )
)
print(f"scalar_grid   g* = {rec.threshold['value']:.6f}   (found empirically)")

print()
print("=== evolution conserves the eta-norm, not the plain norm ===")
h = build_rashba(Momentum2(1.0, 0.0), pp, 0.5)
eta = spectral_metric(h)
scale = np.linalg.norm(eta, "fro")
print("  t     ||U+ eta U - eta||/||eta||   ||U+ U - 1||")
for t in (0.1, 1.0, 10.0):
    u = evolve(h, t, pp)
    pseudo = np.linalg.norm(u.conj().T @ eta @ u - eta, "fro") / scale
    naive = np.linalg.norm(u.conj().T @ u - np.eye(2), "fro")
    print(f"  {t:4.1f}        {pseudo:.2e}              {naive:.2e}")
print("plain unitarity fails at O(1) while the eta relation holds at 1e-15.")
