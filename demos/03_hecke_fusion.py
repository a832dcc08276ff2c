"""Walkthrough: Hecke symmetrizers and the fused R-matrices.

Run with: python demos/03_hecke_fusion.py [--three-legs]
"""

import sys
import time

from xrmatrix import (NumericField, check_fused_intertwining, check_fused_ybe,
                      check_hecke_relations, check_projector_commutation,
                      fused_space, fusion_constant, sample_params,
                      symmetrizer)

ps = sample_params(5)
fld = NumericField(ps.q)

print("=" * 70)
print("The Hecke action on tensor legs")
print("=" * 70)
for n in (2, 3, 4):
    report = check_hecke_relations(fld, n, ps.x)
    print(f"n={n}: quadratic, braid, commutation:", report.passed,
          f"(worst {report.residual:.2e})")

print()
print("=" * 70)
print("Symmetrizers and their square constants")
print("=" * 70)
for sign, label in ((1, "symmetric"), (-1, "antisymmetric")):
    sym = symmetrizer(fld, 2, ps.x, sign)
    print(f"{label}: constant {sym.constant:.4f}")
print("the constants are the length generating functions of the group.")

print()
print("=" * 70)
print("The reversal chain is a scalar multiple of the symmetrizer")
print("=" * 70)
a_plus = fusion_constant(fld, 2, ps.u, ps.x, 1)
a_minus = fusion_constant(fld, 2, ps.u, ps.x, -1)
print("extracted constants:", a_plus, a_minus)
print("closed forms:       ", 1 - fld.q ** -2, fld.q ** 2 * (fld.q ** 2 - 1))

print()
print("=" * 70)
print("Fused spaces and fused R-matrices (two legs)")
print("=" * 70)
for sign, label in ((1, "+"), (-1, "-")):
    space = fused_space(fld, 2, ps.x, sign)
    print(f"sign {label}: fused dimension {space.dim}")
comm = check_projector_commutation(fld, 2, ps.u, ps.v, ps.x, 1)
print("doubled symmetrizer commutes with the block-swap chain:",
      comm.passed, f"({comm.residual:.2e})")
inter = check_fused_intertwining(fld, 2, ps.u, ps.v, ps.x, 1)
print("fused intertwining, all generators:", inter.passed,
      f"({inter.residual:.2e})")
ybe = check_fused_ybe(fld, 2, 1, ps.u, ps.v, ps.w, ps.x)
print("fused twisted YBE (shift q^2):", ybe.passed,
      f"({ybe.residual:.2e})")
bad = check_fused_ybe(fld, 2, 1, ps.u, ps.v, ps.w, ps.x, shift=1)
print("with shift q^1 instead it fails:", not bad.passed,
      f"({bad.residual:.2e})")

if "--three-legs" in sys.argv:
    print()
    print("=" * 70)
    print("Three legs: 12-dimensional fused spaces, YBE in 58 weight sectors")
    print("=" * 70)
    for sign in (1, -1):
        t0 = time.perf_counter()
        print(f"sign {sign:+d}: dimension",
              fused_space(fld, 3, ps.x, sign).dim)
        ybe3 = check_fused_ybe(fld, 3, sign, ps.u, ps.v, ps.w, ps.x,
                               tol=1e-7)
        print(f"  YBE: {ybe3.passed} ({ybe3.residual:.2e}, "
              f"{time.perf_counter() - t0:.1f}s)")
