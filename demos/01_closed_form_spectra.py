"""Closed-form spectra of the two non-Hermitian Dirac blocks.

Walks through both 2x2 models: builds the momentum-space blocks, compares
the numerically computed eigenvalues with the closed-form dispersion, and
crosses into the broken regime where the pair turns pure imaginary.
"""

import numpy as np

from pseudospec import (
    Momentum2,
    PhysParams,
    build_rashba,
    build_scalar_const,
    classify_spectrum,
    eigendecompose,
    rashba_energy,
    scalar_energy,
)

pp = PhysParams()  # m0 = c = hbar = 1

print("=== model I: spin-orbit coupling with imaginary strength ===")
k = Momentum2(1.0, 0.0)
for lam in (0.0, 0.5, 1.2, 1.5):
    h = build_rashba(k, pp, lam)
    numeric = eigendecompose(h).values
    analytic = rashba_energy(k, pp, lam)
    kind = classify_spectrum(numeric)
    print(f"lam = {lam:4.1f}  block = {np.round(h, 3).tolist()}")
    print(f"          numeric  {np.round(numeric, 10)}")
    print(f"          analytic {np.round(analytic, 10)}  -> {kind}")

print()
print("reality holds while m0^2 c^4 + (c^2 - lam^2) hbar^2 k^2 >= 0;")
print(f"at k = (1, 0) the radicand crosses zero at lam = sqrt(2) = {np.sqrt(2):.6f}")
print()

print("=== model II: antisymmetric scalar potential, constant strength ===")
for v0, kx in ((0.5, 1.0), (1.2, 0.0), (2.0, 0.0)):
    h = build_scalar_const(kx, pp, v0)
    numeric = eigendecompose(h).values
    analytic = scalar_energy(kx, pp, v0)
    kind = classify_spectrum(numeric)
    print(f"v0 = {v0:4.1f}, kx = {kx:4.1f}  ->  E = {np.round(analytic, 10)}  ({kind})")

print()
print("both blocks are traceless, so eigenvalues always come in +-E pairs;")
print("broken pairs sit on the imaginary axis, conjugate to each other.")
