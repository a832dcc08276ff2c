"""Walkthrough: the fused R-matrix as a quantum dynamical R-matrix.

Run with: python demos/04_dynamical_rmatrix.py
"""

import cmath

import numpy as np

from xrmatrix import (NumericField, check_dynamical_ybe, check_fused_ybe,
                      sample_params)
from xrmatrix.dynamical import DynamicalRMatrix

ps = sample_params(9)
fld = NumericField(ps.q)
a = cmath.log(fld.q)          # principal branch of log q
lam = complex(0.5, -0.2)

print("=" * 70)
print("Reading the deformation parameter off the dynamical variable")
print("=" * 70)
dyn = DynamicalRMatrix(fld, 2, 1, a)
print("e^a = q enforced; deformation at lambda:", dyn.deformation(lam))
r1 = dyn.build(ps.u, ps.v, lam)
r2 = dyn.build(ps.u, ps.v, lam + 2j * cmath.pi / a)
print("periodic in lambda:", np.allclose(r1.mat, r2.mat))
r3 = dyn.build(ps.u, ps.v, lam + 2)
r4 = dyn.builder.build(ps.u, ps.v, fld.q ** 2 * dyn.deformation(lam))
print("integer shifts multiply the parameter by powers of q:",
      np.allclose(r3.mat, r4.mat))

print()
print("=" * 70)
print("The dynamical YBE: the fused YBE at x = e^{a lambda}, shift n")
print("=" * 70)
report = check_dynamical_ybe(fld, 2, 1, ps.u, ps.v, ps.w, lam, a=a)
print("dynamical YBE:", report.passed, f"({report.residual:.2e})")
x_eff = cmath.exp(a * lam)
twisted = check_fused_ybe(fld, 2, 1, ps.u, ps.v, ps.w, x_eff)
print("the fused space has the single weight -n, so it is the twisted")
print("fused YBE, bit for bit:",
      report.residual == twisted.residual)

print()
print("=" * 70)
print("The weight normalization is pinned by a negative control")
print("=" * 70)
fake = check_dynamical_ybe(fld, 2, 1, ps.u, ps.v, ps.w, lam, a=a, weight=-3)
print("with weight -(n+1) instead of -n it fails:", not fake.passed,
      f"({fake.residual:.2e})")
