#!/usr/bin/env python3
"""Restriction to semicyclic modules and the integrability curve.

A semicyclic module wraps the lowering generator: F^N = alpha.  The spectral
R-matrix descends to a pair of them exactly when

    alpha1/(1 - L1) = alpha2/(1 - L2)   and   z^N = 1,

with L_i the value of K^N.  The restricted weights are the local Boltzmann
weights of the corresponding lattice model.  Off the curve no intertwiner
exists at all, which a nullspace solve over the coproduct constraints
confirms independently of the closed forms.
"""

import json

import numpy as np

from uqsl2 import (CurveSpec, QParam, affine_intertwine_residual, curve_residual,
                   cyclic, export_boltzmann, on_curve_partner, r_semicyclic,
                   semicyclic, solve_intertwiner)

print(__doc__)

qp = QParam.root_of_unity(3)
lam1, lam2 = 0.8 + 0.05j, 1.3 - 0.11j
a1 = 0.7
a2 = on_curve_partner(a1, lam1, lam2, qp)
print(f"N' = 3; alpha1 = {a1}, on-curve partner alpha2 = {a2:.6f}")

sc1 = semicyclic(a1, lam1, qp)
sc2 = semicyclic(a2, lam2, qp)
spec = CurveSpec(1.0, lam1, lam2, a1, a2, N=qp.N)
print("curve residuals (alpha line, unimodularity):", curve_residual(spec, qp))

R = r_semicyclic(1.0, sc1, sc2)
print("restricted R intertwines:", affine_intertwine_residual(1.0, sc1, sc2, R=R))

bad = semicyclic(a2 * 1.7 + 0.2, lam2, qp)
Rb = r_semicyclic(1.0, sc1, bad)
print("off-curve residual (detection):",
      round(affine_intertwine_residual(1.0, sc1, bad, R=Rb), 3))

Rs, dim = solve_intertwiner(sc1, sc2, 1.0)
S = R.mat / R.mat.flat[np.argmax(np.abs(R.mat))]
print(f"independent nullspace solve: dimension {dim}, "
      f"matches the restriction to {np.max(np.abs(Rs.mat - S)):.2e}")

_, dim_off = solve_intertwiner(sc1, bad, 1.0)
print("nullspace dimension off the curve:", dim_off)

print()
print("cyclic modules (E^N = beta as well) probe the sufficiency question:")
L1, L2 = qp.qpow(3 * lam1), qp.qpow(3 * lam2)
b1 = 0.3
b2 = b1 * (1 - 1 / L2) / (1 - 1 / L1)
cy1 = cyclic(b1, a1, lam1, qp)
cy2 = cyclic(b2, a2, lam2, qp)
_, dim_cyc = solve_intertwiner(cy1, cy2, 1.0)
print(f"  on both curve lines: nullspace dimension {dim_cyc} (recorded)")

doc = export_boltzmann(R, spec, qp)
print()
print("Boltzmann weight export:", len(doc["weights"]), "entries;",
      "normalization", doc["normalization"])
print("first rows:", json.dumps(doc["weights"][:2]))
