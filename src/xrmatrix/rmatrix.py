"""The 16x16 vector R-matrix, built two independent ways.

The spectral construction assembles the two complementary projectors
from the tensor-square submodule bases and weights them with the two
eigenvalue lines.  The explicit construction transcribes the closed
entry table; it needs no inversion and is the production path.  The two
are cross-checked entrywise on both backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cartan import theta
from .reports import CheckReport
from .superalgebra import GENERATORS, tensor_square_bases, tuple_rep
from .tensorops import (Operator, _is_exact, apply_at_legs, exact_inverse,
                        matmul, max_term_count, passes, residual,
                        shared_leg_product)


def tensor_projectors(fld, x):
    """Complementary projectors onto the two submodules at y = qx."""
    b1, b2 = tensor_square_bases(fld, x, fld.q * x)
    change = np.concatenate([b1.columns, b2.columns], axis=1)
    if _is_exact(change):
        inv = exact_inverse(change)
    else:
        try:
            inv = np.linalg.solve(change, np.eye(16, dtype=np.complex128))
        except np.linalg.LinAlgError as err:
            raise ValueError(f"degenerate basis matrix: {err}") from err
    p1 = matmul(change[:, :8], inv[:8, :])
    p2 = matmul(change[:, 8:], inv[8:, :])
    return Operator(p1, (4, 4)), Operator(p2, (4, 4))


def vector_rmatrix_spectral(fld, u, v, x) -> Operator:
    """Eigenvalue form: (q^2 u - v) P1 + (q^2 v - u) P2."""
    q2 = fld.q_power(2)
    p1, p2 = tensor_projectors(fld, x)
    return Operator(p1.mat * (q2 * u - v) + p2.mat * (q2 * v - u), (4, 4))


def _flat(i: int, j: int) -> int:
    return 4 * (i - 1) + (j - 1)


def vector_rmatrix(fld, u, v, x) -> Operator:
    """Explicit entry table of the vector R-matrix (canonical path)."""
    q = fld.q
    q2 = fld.q_power(2)
    one = fld.one
    r = fld.zeros((16, 16))
    for i in (1, 2):
        r[_flat(i, i), _flat(i, i)] = q2 * v - u
    for i in (3, 4):
        r[_flat(i, i), _flat(i, i)] = q2 * u - v
    for i in range(1, 5):
        for j in range(i + 1, 5):
            r[_flat(i, j), _flat(i, j)] = (q2 - one) * v
            r[_flat(j, i), _flat(j, i)] = (q2 - one) * u
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            sgn = fld.from_int((-1) ** (theta(i) * theta(j)))
            # E_ij (x) E_ji maps e_j (x) e_i to e_i (x) e_j
            r[_flat(i, j), _flat(j, i)] = -q * (u - v) * sgn
    xc = x * (q2 - one) * (u - v)
    r[_flat(3, 4), _flat(1, 2)] = r[_flat(3, 4), _flat(1, 2)] + xc * q
    r[_flat(3, 4), _flat(2, 1)] = r[_flat(3, 4), _flat(2, 1)] - xc * q2
    r[_flat(4, 3), _flat(1, 2)] = r[_flat(4, 3), _flat(1, 2)] - xc
    r[_flat(4, 3), _flat(2, 1)] = r[_flat(4, 3), _flat(2, 1)] + xc * q
    return Operator(r, (4, 4))


def check_forms_equal(fld, u, v, x, tol: float = 1e-12) -> CheckReport:
    """Entrywise agreement of the two constructions."""
    explicit = vector_rmatrix(fld, u, v, x)
    spectral = vector_rmatrix_spectral(fld, u, v, x)
    res = residual(spectral.mat - explicit.mat, [explicit.mat])
    exact = fld.backend == "exact"
    return CheckReport(name="r-forms-equal", residual=res,
                       passed=passes(res, exact, tol), exact=exact)


def _intertwining_report(fld, name: str, rmat: np.ndarray, rep_uv, rep_vu,
                         tol: float, **details) -> CheckReport:
    """R rep_uv(X) = rep_vu(X) R for all thirteen generators; details
    gain the generator with the worst residual."""
    worst = 0.0
    worst_gen = None
    for tag in GENERATORS:
        a = rep_uv.image(tag)
        b = rep_vu.image(tag)
        res = residual(matmul(rmat, a) - matmul(b, rmat), [rmat, a])
        if res > worst or worst_gen is None:
            worst, worst_gen = max(worst, res), tag
    exact = fld.backend == "exact"
    return CheckReport(name=name, residual=worst,
                       passed=passes(worst, exact, tol), exact=exact,
                       details={**details, "worst_generator": worst_gen})


def check_intertwining(fld, r: Operator, u, v, x,
                       tol: float = 1e-10) -> CheckReport:
    """R rho_{u,v}(X) = rho_{v,u}(X) R for all thirteen generators."""
    return _intertwining_report(fld, "intertwining", r.mat,
                                tuple_rep(fld, (u, v), x),
                                tuple_rep(fld, (v, u), x), tol)


# ---------------------------------------------------------------------------
# the twisted Yang-Baxter checker, generic over R-matrix builders

@dataclass(frozen=True)
class RMatrixBuilder:
    """A parametric R-matrix family together with its middle-leg twist.

    build(u, v, y) returns an Operator with legs (d, d); the YBE places
    q^shift_exponent * x on the middle tensor leg.
    """

    build: Callable
    shift_exponent: int


def vector_builder(fld) -> RMatrixBuilder:
    return RMatrixBuilder(
        build=lambda u, v, y: vector_rmatrix(fld, u, v, y),
        shift_exponent=1,
    )


def _ybe_sides(mats):
    """The two sides A_12 (B_23 C_12) and D_23 (E_12 F_23) as d^3 x d^3
    arrays; each is one expression, so its inner product is freed as soon
    as the outer factor has been applied."""
    a, b, c, d_, e, f = mats
    d = a.legs[0]
    legs = (d, d, d)
    lhs = apply_at_legs(a, 1, legs, shared_leg_product(b, 2, c))
    rhs = apply_at_legs(d_, 2, legs, shared_leg_product(e, 1, f))
    return lhs, rhs


def ybe_residual(mats, terms: list = None) -> float:
    """Relative residual of the twisted YBE for six prebuilt factors.

    mats = (R(v,w;x), R(u,w;x'), R(u,v;x), R(u,v;x'), R(u,w;x),
    R(v,w;x')) where x' is the middle-leg parameter.  The sides are
    contracted as lhs = A_12 (B_23 C_12) and rhs = D_23 (E_12 F_23): the
    inner pair shares one leg and costs d^7 multiply-adds
    (shared_leg_product), the outer factor costs d^8 (apply_at_legs), so
    a side costs d^8 + d^7 and no d^3 x d^3 identity is formed.  On the
    exact backend both count only the products of two nonzero entries,
    a small fraction of these bounds for the sparse vector R-matrix.  The
    residual is normalized by the composite sides being compared, which
    keeps the deliberate-failure controls well away from the pass
    thresholds.  When terms is a list, the largest term count of the
    two exact sides' entries (max_term_count) is appended to it.
    """
    lhs, delta = _ybe_sides(mats)
    if terms is not None:
        terms.append(max_term_count(lhs, delta))
    # in place: rhs - lhs needs no third d^3 x d^3 array
    delta -= lhs
    return residual(delta, [lhs])


def twisted_ybe_factors(fld, builder: RMatrixBuilder, u, v, w, x,
                        shift: int = None):
    m = builder.shift_exponent if shift is None else shift
    xs = fld.q_power(m) * x
    return (
        builder.build(v, w, x),
        builder.build(u, w, xs),
        builder.build(u, v, x),
        builder.build(u, v, xs),
        builder.build(u, w, x),
        builder.build(v, w, xs),
    )


def check_twisted_ybe(fld, builder: RMatrixBuilder, u, v, w, x,
                      tol: float = 1e-9, shift: int = None,
                      name: str = "twisted-ybe") -> CheckReport:
    mats = twisted_ybe_factors(fld, builder, u, v, w, x, shift)
    exact = fld.backend == "exact"
    terms = [] if exact else None
    res = ybe_residual(mats, terms)
    passed = passes(res, exact, tol)
    used_shift = builder.shift_exponent if shift is None else shift
    details = {"shift_exponent": used_shift}
    if exact:
        details["max_terms"] = terms[0]
    return CheckReport(name=name, residual=res, passed=passed, exact=exact,
                       details=details)
