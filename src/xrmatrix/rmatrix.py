"""The 16x16 vector R-matrix, built two independent ways.

The spectral construction assembles the two complementary projectors
from the tensor-square submodule bases and weights them with the two
eigenvalue lines.  The explicit construction transcribes the closed
entry table; it needs no inversion and is the production path.  The two
are cross-checked entrywise on both backends.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cartan import theta, vector_weights
from .reports import CheckReport
from .superalgebra import GENERATORS, tensor_square_bases, tuple_rep
from .tensorops import (Operator, _Gather, _is_exact, _read_only,
                        exact_inverse, frobenius, matmul, max_term_count,
                        passes, product_weights, residual, scaled)


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
    return Operator(scaled(p1.mat, q2 * u - v) + scaled(p2.mat, q2 * v - u),
                    (4, 4))


def _flat(i: int, j: int) -> int:
    return 4 * (i - 1) + (j - 1)


def _entries(fld, u, v, x) -> tuple:
    """The nine distinct entries of the vector R-matrix by scalar
    arithmetic, the x-terms added to zero as an entry loop adds them."""
    q, q2, one = fld.q, fld.q_power(2), fld.one
    swap = -q * (u - v)
    xc = x * (q2 - one) * (u - v)
    return (q2 * v - u, q2 * u - v, (q2 - one) * v, (q2 - one) * u,
            swap * fld.from_int(1), swap * fld.from_int(-1),
            fld.zero + xc * q, fld.zero - xc * q2, fld.zero - xc)


@functools.cache
def _entry_table():
    """The flat positions of the 32 nonzero entries of the vector
    R-matrix and the index of each value among _entries."""
    table = {}
    for i, j in itertools.product(range(1, 5), repeat=2):
        if i == j:
            table[_flat(i, i), _flat(i, i)] = 0 if i < 3 else 1
        else:
            table[_flat(i, j), _flat(i, j)] = 2 if i < j else 3
            # E_ij (x) E_ji, with the sign (-1)^(theta(i) theta(j))
            table[_flat(i, j), _flat(j, i)] = 4 + theta(i) * theta(j)
    # the x-terms: e_1 (x) e_2 and e_2 (x) e_1 to e_3 (x) e_4 and e_4 (x) e_3
    for row, ks in ((_flat(3, 4), (6, 7)), (_flat(4, 3), (8, 6))):
        table[row, _flat(1, 2)], table[row, _flat(2, 1)] = ks
    return tuple(_read_only(np.array(t)) for t in zip(*(
        (r * 16 + c, k) for (r, c), k in table.items())))


def vector_rmatrix(fld, u, v, x):
    """Explicit entry table of the vector R-matrix (canonical path): each
    distinct entry is computed once per point and placed by a cached
    table.  The Operator at scalar u, v, x; when any is an array, they
    broadcast to a shape S and the result is the S + (16, 16) stack."""
    args = np.broadcast_arrays(*(np.asarray(a, fld.dtype) for a in (u, v, x)))
    vals = np.array([_entries(fld, *p) for p in
                     zip(*(a.ravel().tolist() for a in args))], fld.dtype)
    pos, idx = _entry_table()
    r = fld.zeros((len(vals), 256))
    r[:, pos] = vals[:, idx]
    if args[0].ndim:
        return r.reshape(args[0].shape + (16, 16))
    return Operator(r.reshape(16, 16), (4, 4), (vector_weights(),) * 2)


def check_forms_equal(fld, u, v, x, tol: float = 1e-12) -> CheckReport:
    """Entrywise agreement of the two constructions; exact reports carry
    details.max_terms, the largest term count among their entries."""
    explicit = vector_rmatrix(fld, u, v, x)
    spectral = vector_rmatrix_spectral(fld, u, v, x)
    res = residual(spectral.mat - explicit.mat, [explicit.mat])
    exact = fld.backend == "exact"
    details = ({"max_terms": max_term_count(spectral.mat, explicit.mat)}
               if exact else {})
    return CheckReport(name="r-forms-equal", residual=res,
                       passed=passes(res, exact, tol), exact=exact,
                       details=details)


def _intertwining_report(fld, name: str, rmat: np.ndarray, rep_uv, rep_vu,
                         tol: float, **details) -> CheckReport:
    """R rep_uv(X) = rep_vu(X) R for all thirteen generators; details
    gain the generator with the worst residual and, when exact,
    max_terms, the largest term count among the compared entries."""
    exact = fld.backend == "exact"
    worst = 0.0
    worst_gen = None
    terms = 0
    for tag in GENERATORS:
        a = rep_uv.image(tag)
        b = rep_vu.image(tag)
        lhs, rhs = matmul(rmat, a), matmul(b, rmat)
        if exact:
            terms = max(terms, max_term_count(lhs, rhs))
        res = residual(lhs - rhs, [rmat, a])
        if res > worst or worst_gen is None:
            worst, worst_gen = max(worst, res), tag
    details["worst_generator"] = worst_gen
    if exact:
        details["max_terms"] = terms
    return CheckReport(name=name, residual=worst,
                       passed=passes(worst, exact, tol), exact=exact,
                       details=details)


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
    q^shift_exponent * x on the middle tensor leg, so its six factors
    are three (u, v) pairs, each built at x and at that shifted x (the
    fused builder restricts each pair once and twists it to the shift).
    """

    build: Callable
    shift_exponent: int


def vector_builder(fld) -> RMatrixBuilder:
    return RMatrixBuilder(
        build=lambda u, v, y: vector_rmatrix(fld, u, v, y),
        shift_exponent=1,
    )


# the legs of the six YBE factors: A_12 B_23 C_12 and D_23 E_12 F_23
_YBE_POSITIONS = (1, 2, 1, 2, 1, 2)


def _ybe_legs(mats):
    """The three legs of the YBE and the weights of each leg's basis
    vectors, read off A (legs 1, 2) and B (leg 3); an ungraded factor
    gives its legs weight 0."""
    a, b = mats[:2]
    legs = a.legs + b.legs[1:]
    for op, pos in zip(mats, _YBE_POSITIONS):
        if op.legs != legs[pos - 1:pos + 1]:
            raise ValueError(f"factor legs {op.legs} do not match legs "
                             f"{legs[pos - 1:pos + 1]} at position {pos}")
    wa, wb = (op.weights or tuple(((0,),) * d for d in op.legs)
              for op in (a, b))
    return legs, (*wa, wb[1])


def _labels(leg_weights) -> np.ndarray:
    """An integer per basis state of a tensor product of legs, equal for
    two states exactly when their total weights are."""
    return np.unique(product_weights(leg_weights), axis=0,
                     return_inverse=True)[1].ravel()


@functools.cache
def _sector_plan(weights):
    """The contraction plan of ybe_residual for three legs whose basis
    vectors carry the given weights; it depends on nothing else, so it
    is cached.

    Returns, for a factor at legs (1, 2) and at legs (2, 3), the mask of
    its entries that change the total weight of its legs, and the
    stacks.  The sectors are grouped by size; a stack holds up to
    max(1, K^2 // k^2) sectors of k states, K the largest sector size,
    so no stack has more entries than the largest sector.  Each stack is
    its sectors' states, sector after sector and each in increasing flat
    index, and for each position the gather of the embedded factor's
    (count, k, k) sector blocks: only the entries where the spectator
    leg agrees, every other entry of a block being zero.
    """
    legs = tuple(map(len, weights))
    label = _labels(weights)
    order = np.argsort(label, kind="stable")
    size = np.bincount(label)
    start = np.cumsum(size) - size
    largest = int(size.max())
    off = tuple(_read_only(pair[:, None] != pair)
                for pair in (_labels(weights[:2]), _labels(weights[1:])))
    stacks = []
    for k in sorted(set(size.tolist())):
        sectors = np.flatnonzero(size == k)
        per = max(1, largest ** 2 // k ** 2)
        for chunk in np.split(sectors, range(per, len(sectors), per)):
            states = order[start[chunk, None] + np.arange(k)]
            i1, i2, i3 = np.unravel_index(states, legs)
            shape = states.shape + (k,)
            gathers = []
            # the sector block of kron(X, I) at legs (1, 2) or kron(I, X)
            # at legs (2, 3): X at the pair index it acts on, where the
            # spectator leg agrees
            for pair, spectator, width in (
                    (i1 * legs[1] + i2, i3, legs[0] * legs[1]),
                    (i2 * legs[2] + i3, i1, legs[1] * legs[2])):
                dst = np.flatnonzero(spectator[:, :, None]
                                     == spectator[:, None, :])
                s, r, c = np.unravel_index(dst, shape)
                gathers.append(_Gather(shape, pair[s, r] * width + pair[s, c],
                                       dst))
            stacks.append((_read_only(states.ravel()), tuple(gathers)))
    return off, tuple(stacks)


def _sector_sides(mats):
    """For each stack of equal-size weight sectors of the three legs:
    their states, sector after sector and each in increasing flat index,
    and the (count, k, k) sector blocks of the sides A_12 (B_23 C_12) and
    D_23 (E_12 F_23), each factor gathered just before its product."""
    _, weights = _ybe_legs(mats)
    flats = [op.mat.reshape(-1) for op in mats]
    for states, gathers in _sector_plan(weights)[1]:
        a, b, c, d, e, f = (functools.partial(gathers[pos - 1], flat)
                            for flat, pos in zip(flats, _YBE_POSITIONS))
        lhs = matmul(a(), matmul(b(), c()))
        yield states, lhs, matmul(d(), matmul(e(), f()))


def ybe_residual(mats, details: dict = None) -> float:
    """Relative residual of the twisted YBE for six prebuilt factors.

    mats = (R(v,w;x), R(u,w;x'), R(u,v;x), R(u,v;x'), R(u,w;x),
    R(v,w;x')) where x' is the middle-leg parameter.  The factors conserve
    the total weight of their legs (Operator.weights; an ungraded factor
    has a single weight), so both sides are block diagonal over the
    weight sectors of the three legs, and each side is contracted one
    sector at a time: lhs_s = A_s (B_s C_s), rhs_s = D_s (E_s F_s) with
    X_s the sector block of the embedded factor.  That costs sum_s k_s^3
    multiply-adds against d^8 + d^7 for the dense sides (at fused n = 3,
    58 sectors of at most 126 states: 1.1e7 against 4.7e8), and no d^3 x
    d^3 array is formed.  Which factor entries land where in X_s depends
    only on the legs' weights, so a cached plan (_sector_plan) lists, for
    each factor position, just the entries where the spectator leg
    agrees, and each call scatters them into zero blocks; sectors of one
    size are stacked, up to the largest sector's entry count, and go
    through matmul together.  On the exact backend matmul forms only the
    products of two nonzero entries.

    The numeric residual is sqrt(sum_s ||rhs_s - lhs_s||^2) /
    sqrt(sum_s ||lhs_s||^2), normalized by the composite side so that the
    deliberate-failure controls stay well away from the pass thresholds;
    it is raised to the worst off-sector share ||F_off|| / ||F|| of the
    six factors, the part the sector contraction leaves out.  The exact
    residual is inf when a factor has a nonzero off-sector entry or a
    sector's sides differ, 0 otherwise.  When details is a dict it gains
    sectors (their count and the largest size), and off_sector (numeric)
    or max_terms, the largest term count of the exact sides' entries.
    """
    _, weights = _ybe_legs(mats)
    masks = _sector_plan(weights)[0]
    off = max(residual(op.mat[masks[pos - 1]], [op.mat])
              for op, pos in zip(mats, _YBE_POSITIONS))
    exact = _is_exact(mats[0].mat)
    res, terms, count, largest = off, 0, 0, 0
    lhs_sq = delta_sq = 0.0
    for _, lhs, rhs in _sector_sides(mats):
        count += len(lhs)
        largest = max(largest, lhs.shape[-1])
        if exact:
            terms = max(terms, max_term_count(lhs, rhs))
            res = max(res, residual(rhs - lhs))
        else:
            rhs -= lhs
            lhs_sq += frobenius(lhs) ** 2
            delta_sq += frobenius(rhs) ** 2
    if not exact:
        res = max(res, math.sqrt(delta_sq) / max(math.sqrt(lhs_sq), 1e-300))
    if details is not None:
        details["sectors"] = {"count": count, "largest": largest}
        if exact:
            details["max_terms"] = terms
        else:
            details["off_sector"] = off
    return res


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
    used_shift = builder.shift_exponent if shift is None else shift
    details = {"shift_exponent": used_shift}
    res = ybe_residual(mats, details)
    passed = passes(res, exact, tol)
    return CheckReport(name=name, residual=res, passed=passed, exact=exact,
                       details=details)
