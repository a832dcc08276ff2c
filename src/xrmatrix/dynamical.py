"""The fused R-matrix read as a quantum dynamical R-matrix.

The dynamical parameter enters only through the deformation parameter
x = e^{a*lam} with e^a = q, and the weight shift lam -> lam - mu on the
middle factor multiplies x by q^{-mu}.  The checker is written
generically over coordinate-aligned weight decompositions so the
lam - h^(1) convention is testable on toy multi-weight examples even
though the fused space carries a single weight, -n.

Integer-valued weights are shifted with exact integer powers of q
(identical to the exponential form since e^a = q); this keeps the
dynamical and twisted checker paths numerically identical.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .fusion import fused_builder
from .reports import CheckReport
from .rmatrix import ybe_residual
from .tensorops import Operator, apply_at_legs, passes, residual

# e^a must lie within this distance of q, relative to max(|q|, 1)
BRANCH_TOL = 1e-9


@dataclass(frozen=True)
class WeightedSpace:
    """Coordinate-aligned weight decomposition of a space.

    blocks maps each weight value to the tuple of coordinate indices it
    occupies; the blocks must partition range(dim).
    """

    dim: int
    blocks: tuple  # ((weight value, (indices...)), ...)

    def __post_init__(self):
        seen = sorted(i for _, idx in self.blocks for i in idx)
        if seen != list(range(self.dim)):
            raise ValueError("weight blocks must partition the coordinates")


def single_weight_space(dim: int, value) -> WeightedSpace:
    return WeightedSpace(dim=dim, blocks=((value, tuple(range(dim))),))


class DynamicalRMatrix:
    """R''(u, v, lam) = fused R at deformation parameter e^{a lam}."""

    def __init__(self, fld, n: int, sign: int, a: complex):
        if fld.backend != "numeric":
            raise ValueError("the dynamical wrapper needs the numeric backend")
        if not passes(abs(cmath.exp(a) - fld.q) / max(abs(fld.q), 1.0),
                      False, BRANCH_TOL):
            raise ValueError(
                f"e^a = {cmath.exp(a):.6g} does not match q = {fld.q:.6g}")
        self.field = fld
        self.n = n
        self.sign = sign
        self.a = complex(a)
        # restriction invariance residual of every fused factor built
        self.residuals = []
        self.builder = fused_builder(fld, n, sign, self.residuals)

    def deformation(self, lam: complex) -> complex:
        return cmath.exp(self.a * lam)

    def shifted_deformation(self, lam: complex, mu: complex) -> complex:
        """e^{a (lam - mu)}; integer mu goes through exact q powers."""
        if abs(mu - round(mu.real)) < 1e-12:
            return self.field.q_power(-int(round(mu.real))) * self.deformation(lam)
        return cmath.exp(self.a * (lam - mu))

    def build(self, u, v, lam: complex) -> Operator:
        return self.builder.build(u, v, self.deformation(lam))

    def build_shifted(self, u, v, lam: complex, mu: complex) -> Operator:
        return self.builder.build(u, v, self.shifted_deformation(lam, mu))


def weighted_middle_factor(rmx: DynamicalRMatrix, weighted: WeightedSpace,
                           u, v, lam: complex) -> np.ndarray:
    """The 23-slot operator: on each first-leg weight block the R-matrix
    is evaluated at lam minus that block's weight."""
    probe = rmx.build_shifted(u, v, lam, weighted.blocks[0][0]).mat
    dd = probe.shape[0]
    per_weight = {weighted.blocks[0][0]: probe}
    out = np.zeros((weighted.dim * dd, weighted.dim * dd),
                   dtype=np.complex128)
    for value, idx in weighted.blocks:
        if value not in per_weight:
            per_weight[value] = rmx.build_shifted(u, v, lam, value).mat
        sub = per_weight[value]
        for p in idx:
            out[p * dd:(p + 1) * dd, p * dd:(p + 1) * dd] = sub
    return out


def check_dynamical_ybe(fld, n: int, sign: int, u, v, w, lam: complex,
                        a: complex = None, tol: float = 1e-8,
                        weighted: WeightedSpace = None) -> CheckReport:
    """The quantum dynamical YBE over the weight decomposition.

    With the genuine single weight -n this reduces to the twisted YBE
    with middle-leg parameter q^n x, and the checker paths coincide, so
    the residual equals the twisted one bitwise on identical operands.
    A fake weight (e.g. -(n+1)) makes it fail.  details carry the worst
    restriction invariance residual of the fused factors built.
    """
    if a is None:
        a = cmath.log(fld.q)
    rmx = DynamicalRMatrix(fld, n, sign, a)
    r_uv = rmx.build(u, v, lam)
    d = r_uv.legs[0]
    if weighted is None:
        weighted = single_weight_space(d, -float(n))
    values = {value for value, _ in weighted.blocks}
    if len(values) == 1 and weighted.dim == d:
        # single uniform weight: the middle factor is I (x) R at the
        # shifted parameter, which is exactly the twisted YBE layout
        mu = weighted.blocks[0][0]
        mats = (
            rmx.build(v, w, lam),
            rmx.build_shifted(u, w, lam, mu),
            r_uv,
            rmx.build_shifted(u, v, lam, mu),
            rmx.build(u, w, lam),
            rmx.build_shifted(v, w, lam, mu),
        )
        res = ybe_residual(mats)
    else:
        legs = (d, d, d)
        r_vw = rmx.build(v, w, lam)
        r_uw = rmx.build(u, w, lam)
        m23_uw = weighted_middle_factor(rmx, weighted, u, w, lam)
        m23_uv = weighted_middle_factor(rmx, weighted, u, v, lam)
        m23_vw = weighted_middle_factor(rmx, weighted, v, w, lam)
        m12_uv = apply_at_legs(r_uv, 1, legs, np.eye(d ** 3))
        lhs = apply_at_legs(r_vw, 1, legs, m23_uw @ m12_uv)
        rhs = m23_uv @ apply_at_legs(r_uw, 1, legs, m23_vw)
        # ||R (x) I_d|| = sqrt(d) ||R|| for each of the two 12-slot factors
        res = residual(lhs - rhs, [r_vw, m23_uw, r_uv]) / d
    return CheckReport(
        name="dynamical-ybe", residual=res, passed=passes(res, False, tol),
        details={"n": n, "sign": sign,
                 "lambda": {"re": complex(lam).real, "im": complex(lam).imag},
                 "branch_a": {"re": complex(a).real, "im": complex(a).imag},
                 "restriction_residual": max(rmx.residuals)},
    )
