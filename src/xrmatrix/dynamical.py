"""The fused R-matrix read as a quantum dynamical R-matrix.

The dynamical parameter enters only through the deformation parameter
x = e^{a*lam} with e^a = q.  The fused space carries the single weight
-n, so the shift lam -> lam - h on the middle leg multiplies x by q^n:
the dynamical YBE is the twisted fused YBE with shift n at
x = e^{a*lam}, and check_dynamical_ybe runs it as exactly that.  The
integer shift goes through exact powers of q (identical to the
exponential form since e^a = q), so the residual equals the fused one
bitwise.
"""

from __future__ import annotations

import cmath

from .fusion import check_fused_ybe, fused_builder
from .reports import CheckReport
from .tensorops import Operator, passes

# e^a must lie within this distance of q, relative to max(|q|, 1)
BRANCH_TOL = 1e-9


class DynamicalRMatrix:
    """R''(u, v, lam) = fused R at deformation parameter e^{a lam}."""

    def __init__(self, fld, n: int, sign: int, a: complex):
        if fld.backend != "numeric":
            raise ValueError("the dynamical wrapper needs the numeric backend")
        if not passes(abs(cmath.exp(a) - fld.q) / max(abs(fld.q), 1.0),
                      False, BRANCH_TOL):
            raise ValueError(
                f"e^a = {cmath.exp(a):.6g} does not match q = {fld.q:.6g}")
        self.a = complex(a)
        self.builder = fused_builder(fld, n, sign, [])

    def deformation(self, lam: complex) -> complex:
        return cmath.exp(self.a * lam)

    def build(self, u, v, lam: complex) -> Operator:
        return self.builder.build(u, v, self.deformation(lam))


def check_dynamical_ybe(fld, n: int, sign: int, u, v, w, lam: complex,
                        a: complex = None, tol: float = 1e-8,
                        weight: int = None) -> CheckReport:
    """The quantum dynamical YBE: the fused YBE at x = e^{a lam} with the
    middle leg shifted by -weight.

    weight defaults to the fused space's genuine weight -n; a fake one
    such as -(n+1) makes it fail.  details carry the worst restriction
    residual and stage off-sector share of the fused factors built, as
    check_fused_ybe reports them.
    """
    if a is None:
        a = cmath.log(fld.q)
    rmx = DynamicalRMatrix(fld, n, sign, a)
    shift = n if weight is None else -weight
    report = check_fused_ybe(fld, n, sign, u, v, w, rmx.deformation(lam),
                             tol=tol, shift=shift)
    return CheckReport(
        name="dynamical-ybe", residual=report.residual, passed=report.passed,
        details={"n": n, "sign": sign,
                 "lambda": {"re": complex(lam).real, "im": complex(lam).imag},
                 "branch_a": {"re": complex(a).real, "im": complex(a).imag},
                 "restriction_residual":
                     report.details["restriction_residual"],
                 "sectors": report.details["sectors"],
                 "off_sector": report.details["off_sector"]},
    )
