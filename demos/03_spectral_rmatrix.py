#!/usr/bin/env python3
"""The spectral R-matrix R(z) in evaluation representations.

Promoting a finite module to the affine algebra through the evaluation map
at parameter x, the universal construction produces R(z), z = x/y, as the
product of a terminating raising series, a closed-form diagonal, a lowering
series, and a Cartan weight factor.  The scalar factor f(z) relating the
diagonal to its exponential form is singular at roots of unity; dropping it
leaves a renormalized operator that fixes v_0 (x) v_0, intertwines the two
affine coproducts, and satisfies the spectral Yang-Baxter equation at
generic q and at q = eps alike.
"""

import cmath

import numpy as np

from uqsl2 import (QParam, affine_intertwine_residual, f_scalar, r_spectral,
                   rzero_bar, rzero_exponential, spectral_ybe_residual,
                   truncated_verma)

print(__doc__)

qp = QParam.generic(1.13 + 0.03j)
l1, l2 = 0.63 + 0.17j, 1.21 - 0.09j
r1 = truncated_verma(l1, 4, qp)
r2 = truncated_verma(l2, 4, qp)
z = 0.25

R = r_spectral(z, r1, r2)
print("generic q, z = 0.25:")
print("  R(z) v0(x)v0 component:", R.mat[0, 0])
print("  affine intertwining residual:", affine_intertwine_residual(z, r1, r2))
print("  without the Cartan weight tail the intertwining fails:",
      round(affine_intertwine_residual(z, r1, r2, R=r_spectral(z, r1, r2, cartan="none")), 3))

f = f_scalar(z, l1, l2, qp, terms=90)
lhs = f * np.diag(rzero_bar(z, r1, r2).mat)
rhs = np.diag(rzero_exponential(z, r1, r2, n_max=70).mat)
print("  f(z) * diagonal factor vs exponential form:",
      np.max(np.abs((lhs - rhs)[:11])))

print()
qp5 = QParam.root_of_unity(5)
reps = [truncated_verma(l, 5, qp5) for l in (l1, l2, 0.44 + 0.21j)]
xs = (1.0, cmath.exp(0.83j), cmath.exp(-0.41j))
print("root of unity (N' = 5), unimodular spectral parameters:")
print("  spectral Yang-Baxter residual:", spectral_ybe_residual(*xs, *reps))
zz = cmath.exp(0.37j)
print("  intertwining residual at z on the unit circle:",
      affine_intertwine_residual(zz, reps[0], reps[1]))

print()
print("continuity: entries at q = eps e^h approach the q = eps evaluation")
Rr = r_spectral(zz, reps[0], reps[1]).mat
for h in (1e-3, 1e-4, 1e-5):
    qh = qp5.perturbed(h)
    rh = [truncated_verma(l, 5, qh) for l in (l1, l2)]
    Rh = r_spectral(zz, rh[0], rh[1]).mat
    print(f"  h = {h:.0e}: relative deviation {np.max(np.abs(Rh - Rr))/np.max(np.abs(Rr)):.2e}")
