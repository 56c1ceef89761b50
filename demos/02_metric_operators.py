"""Positive-definite metric operators and the similarity relation.

Builds eta for model I three ways: by the spectral method (outer products
of adjoint-block eigenvectors), from the momentum-independent diagonal
closed form, and from two published closed-form candidates, then lets
check_metric adjudicate each one.  Also demonstrates eta-orthogonality of
eigenvectors and positivity of the eta-norm.
"""

import numpy as np

from pseudospec import (
    Momentum2,
    PhysParams,
    build_rashba,
    build_scalar_const,
    check_metric,
    eigendecompose,
    eta_diag_rashba,
    eta_inner,
    eta_paper_rashba,
    eta_paper_scalar,
    spectral_metric,
)

pp = PhysParams()
k = Momentum2(1.0, 0.0)
lam = 0.5
h = build_rashba(k, pp, lam)

print("=== spectral method ===")
eta = spectral_metric(h)  # unit-component spinor convention
print("eta =")
print(np.round(eta.real, 8))
rep = check_metric(h, eta)
print(f"relation residual {rep.relation_residual:.2e}, "
      f"min eig {rep.min_eig:.6f} -> {rep.verdict}")

print()
print("=== momentum-independent diagonal metric ===")
eta_d = eta_diag_rashba(pp, lam)
rep_d = check_metric(h, eta_d, 1e-14)
print(f"diag(c+lam, c-lam) = diag({1+lam}, {1-lam}): "
      f"residual {rep_d.relation_residual:.2e} -> {rep_d.verdict}")
print("two different valid metrics for the same block: the metric is not unique")

print()
print("=== published closed forms, adjudicated numerically ===")
rep_p1 = check_metric(h, eta_paper_rashba(k, pp, lam))
print(f"model-I printed form: relation {rep_p1.relation_residual:.2e}, "
      f"min eig {rep_p1.min_eig:.2e} -> {rep_p1.verdict}")
print("  (satisfies the relation but is exactly singular: not a usable metric)")
h2 = build_scalar_const(1.0, pp, 0.5)
rep_p2 = check_metric(h2, eta_paper_scalar(1.0, pp, 0.5))
print(f"model-II printed form: relation {rep_p2.relation_residual:.2e}, "
      f"min eig {rep_p2.min_eig:.2f} -> {rep_p2.verdict}")
print("  (positive definite but fails the similarity relation outright)")

print()
print("=== the eta inner product ===")
es = eigendecompose(h)
v0, v1 = es.vectors[:, 0], es.vectors[:, 1]
print(f"plain overlap  <v0|v1>     = {abs(np.vdot(v0, v1)):.4f}  (eigenvectors not orthogonal)")
print(f"eta overlap   <v0|eta v1> = {abs(eta_inner(v0, v1, eta)):.2e}  (eta-orthogonal)")
rng = np.random.default_rng(0)
norms = [eta_inner(f, f, eta).real for f in rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))]
print("eta-norms of random vectors:", np.round(norms, 4), "(all positive)")
