"""Position-space grid solve and the exact component-elimination identity.

Discretizes the 1+1-D Dirac operator with an even potential, verifies the
parity conjugation P_D H P_D^-1 = H^dag at machine precision, eliminates
one spinor component to get the N x N operator with complex potential,
and checks that +-sqrt(eps + m^2) reproduces the full 2N x 2N spectrum
exactly.  Ends with a grid-refinement study showing second-order versus
spectral convergence.
"""

import math

import numpy as np

from pseudospec import (
    PhysParams,
    PotentialSpec,
    build_dirac_grid,
    build_reduced,
    classify_spectrum,
    convergence_study,
    eigendecompose,
    grid_parity_residual,
    make_grid,
    reduction_identity_mismatch,
    reflection_conjugation_residual,
)

pp = PhysParams()
grid = make_grid(math.pi, 64)

print("=== even potentials on a reflection-symmetric grid ===")
for name, spec in (
    ("constant 0.5", PotentialSpec.constant(0.5)),
    ("cos(x)", PotentialSpec.cosine(1.0, 1)),
    ("gaussian(1, 0.5)", PotentialSpec.gaussian(1.0, 0.5)),
):
    dirac = build_dirac_grid(spec, grid, pp)
    reduced = build_reduced(spec, grid, pp)
    parity = grid_parity_residual(dirac, grid)
    reflect = reflection_conjugation_residual(reduced, grid)
    de = eigendecompose(dirac)
    re_ = eigendecompose(reduced)
    mismatch = reduction_identity_mismatch(de.values, re_.values, pp)
    kind = classify_spectrum(re_.values, 1e-8)
    print(f"{name:18s} parity residual {parity:.1e}  reflection-conj {reflect:.1e}")
    print(f"{'':18s} reduction identity mismatch {mismatch:.1e}  eps spectrum: {kind}")

print()
print("the identity {E} = {+-sqrt(eps + m^2)} is exact linear algebra on the")
print("grid, so it holds even when eps pairs are complex (gaussian case).")
print()

print("=== convergence of the first discretized level ===")
spec = PotentialSpec.cosine(1.0, 1)
st2 = convergence_study(spec, pp, [32, 64, 128], scheme="central2", track_level=1)
print("central2:  N -> error   (reference at N =", st2.ref_n, ")")
prev = None
for n, err in st2.rows:
    ratio = "" if prev is None else f"   ratio {prev / err:.2f}"
    print(f"  {n:4d} -> {err:.3e}{ratio}")
    prev = err
stf = convergence_study(spec, pp, [32, 64], scheme="fourier", track_level=1)
print("fourier:")
for n, err in stf.rows:
    print(f"  {n:4d} -> {err:.3e}")
print("second-order differences quarter the error per doubling; the")
print("trigonometric scheme is converged to solver noise already at N = 32.")
