"""Hecke-algebra fusion: symmetrizers, R-matrix chains, fused R-matrices.

The Hecke generator images are recovered from the elementary R-matrix
by the affine inversion formula
    pi(h_i) = (R_i(u, v; x) - v (q^2 - 1) I) / (u - v),
probed at two integer (u, v) pairs, which keep exact entries polynomial;
each stays on its own two legs and acts through apply_at_legs.  The
symmetrizer is built one leg at a time by its coset factorization, and
chains apply the elementary matrices along the canonical reduced word.
The fused R-matrix restricts the block-swap chain one moving leg at a
time and one joint (K_1, K_3) weight class at a time, through cached
index plans, so no operator or block on all 2n legs is formed.  A check
cuts one fused space and restricts at one x, twisting the rest to their
parameters (twisted_space, twisted_rmatrix).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cartan import vector_weights
from .permutations import Permutation, concat_tuples
from .reports import CheckReport, scalar_to_json
from .rmatrix import (RMatrixBuilder, _intertwining_report,
                      check_twisted_ybe, vector_rmatrix)
from .superalgebra import _ALL_TAGS, LocalRep, ProductRep, tuple_rep
from .tensorops import (INVARIANCE_TOL, NotInvariantError, Operator,
                        SubspaceBasis, _Gather, _is_exact, _pivot_columns,
                        _read_only, apply_at_legs, column_weights,
                        exact_solve, kron, matmul, max_term_count, passes,
                        product_weights, residual, restrict, scaled)

_MAX_SYMMETRIC_GROUP = 6

# the relative residual the Hecke probe pair, the symmetrizer relations
# and the reversal-chain proportionality must stay below
GUARD_TOL = 1e-10

# how near, relative to q^(2k) v, a numeric u may come to a zero of the
# fused R-matrix (fused_zeros) before a build refuses it; at q = 2,
# n = 3, sign - the YBE fails falsely at 1e-7 of the zero and passes at
# 4.8e-9 against its 1e-8 tolerance at 1e-6
ZERO_RATIO_TOL = 1e-5


def q_profile(fld, n: int, sign: int):
    """(1, q^{-2s}, ..., q^{-2s(n-1)}) with s = +1, -1 per the sign."""
    return tuple(fld.q_power(-2 * sign * k) for k in range(n))


def chain_rmatrix(fld, a, x, perm: Permutation) -> Operator:
    """The chained R-matrix over perm on n four-dimensional legs."""
    legs = (4,) * perm.n
    return Operator(apply_chain(fld, a, x, perm, fld.eye(4 ** perm.n)), legs)


def apply_chain(fld, a, x, perm: Permutation, block: np.ndarray) -> np.ndarray:
    """The chained R-matrix over perm applied to a block, M @ block.

    Applies the elementary R-matrices right-to-left along the canonical
    reduced word, the one at legs (i, i+1) (0-based) with parameter
    q^i x, without forming the chain operator; the same code serves
    both backends.  Parameter tuples are updated by the partial
    permutations, so any reduced word gives the same operator (a
    consequence of the elementary YBE, verified in the tests rather
    than assumed).
    """
    if len(a) != perm.n:
        raise ValueError("parameter tuple and permutation rank differ")
    legs = (4,) * perm.n
    t = list(a)
    for i in reversed(perm.reduced_word()):
        r = vector_rmatrix(fld, t[i], t[i + 1], fld.q_power(i) * x)
        block = apply_at_legs(r, i + 1, legs, block)
        t[i], t[i + 1] = t[i + 1], t[i]
    return block


# ---------------------------------------------------------------------------
# Hecke representation

def hecke_generator_images(fld, n: int, x):
    """pi(h_i) for i = 1..n-1, each on its own two legs (i, i+1), with a
    two-probe consistency guard.

    h_i is probed at parameter q^(i-1) x, the twist of legs (i, i+1);
    callers place it with apply_at_legs, so no n-leg embedding is formed.
    """
    q2, one, eye2 = fld.q_power(2), fld.one, fld.eye(16)
    u, v = ([fld.from_int(k) for k in ks] for ks in ((2, 5), (3, 7)))
    out = []
    for i in range(n - 1):
        rs = vector_rmatrix(fld, u, v, fld.q_power(i) * x)
        imgs = [scaled(r - scaled(eye2, b * (q2 - one)), one / (a - b))
                for r, a, b in zip(rs, u, v)]
        dev = residual(imgs[0] - imgs[1], [imgs[0]])
        if not passes(dev, fld.backend == "exact", GUARD_TOL):
            raise RuntimeError(
                f"hecke image at leg {i + 1} depends on the probe pair "
                f"(residual {dev:.3e}); transcription bug"
            )
        out.append(Operator(imgs[0], (4, 4)))
    return out


def check_hecke_relations(fld, n: int, x, tol: float = 1e-10) -> CheckReport:
    """Quadratic and braid relations of pi(h_i), each on its own legs.

    (h_i + 1)(h_i - q^2) = 0 is checked on legs (i, i+1), 16 x 16, and
    the braid relation of h_i, h_{i+1} on legs (i, i+1, i+2), 64 x 64,
    each normalized by its operands there: 2^(n-2) (quadratic) and
    4^(n-3) (braid) times the residual on all n legs, so never looser.
    Images on disjoint legs commute by the tensor product itself; that
    check would read exactly 0, a vacuous pass, and is not made.  Exact
    reports carry details.max_terms, the largest compared term count.
    """
    hs = [h.mat for h in hecke_generator_images(fld, n, x)]
    eye2 = fld.eye(16)
    eye = fld.eye(4) if n > 2 else None  # embeds h_i on three legs
    q2 = fld.q_power(2)
    exact = fld.backend == "exact"
    worst, terms, failed = 0.0, 0, []

    def note(name, lhs, rhs, operands):
        nonlocal worst, terms
        if exact:
            terms = max(terms, max_term_count(lhs, rhs))
        dev = residual(lhs - rhs, operands)
        if not passes(dev, exact, tol):
            failed.append(name)
        worst = max(worst, dev)

    for i, h in enumerate(hs):
        h_plus = h + eye2
        note(f"quadratic h_{i+1}", matmul(h, h_plus), scaled(h_plus, q2),
             [h, h])
        if i + 1 < len(hs):
            a, b = kron(h, eye), kron(eye, hs[i + 1])
            note(f"braid h_{i+1} h_{i+2}", matmul(a, matmul(b, a)),
                 matmul(b, matmul(a, b)), [a, b, a])
    details = {"n": n, "failed": failed}
    if exact:
        details["max_terms"] = terms
    return CheckReport(name="hecke-relations", residual=worst,
                       passed=passes(worst, exact, tol),
                       exact=exact, details=details)


@dataclass(frozen=True)
class Symmetrizer:
    """Raw symmetrizer image, its square constant, and the idempotent."""

    op: Operator
    constant: object
    normalized: Operator


def symmetrizer(fld, n: int, x, sign: int) -> Symmetrizer:
    """Image of the full q-(anti)symmetrizer under the Hecke action.

    The symmetrizer sum_w c^len(w) pi(T_w) over S_n, with c = 1 (sign +)
    or -q^-2 (sign -), is built by the coset factorization
        S_k = (1 + c h_{k-1} + c^2 h_{k-2} h_{k-1} + ...
               + c^{k-1} h_1 ... h_{k-1}) S_{k-1},
    whose words are the shortest representatives of the cosets of S_{k-1}
    in S_k.  That is n(n-1)/2 two-leg images applied with apply_at_legs
    in place of n! dense products (guarded at n <= 6).  The eigenvalue
    relations and the square constant are verified before returning.
    """
    if not 1 <= n <= _MAX_SYMMETRIC_GROUP:
        raise ValueError(f"n must be between 1 and {_MAX_SYMMETRIC_GROUP}")
    hs = hecke_generator_images(fld, n, x)
    legs = (4,) * n
    exact = fld.backend == "exact"
    c = fld.one if sign > 0 else -fld.q_power(-2)
    total = fld.eye(4 ** n)
    constant = fld.one
    for k in range(2, n + 1):
        term = total
        for i in range(k - 2, -1, -1):
            term = scaled(apply_at_legs(hs[i], i + 1, legs, term), c)
            total = total + term
        # the lengths of the coset words are 0, ..., k-1
        constant = constant * sum((fld.q_power(2 * sign * j)
                                   for j in range(1, k)), fld.one)
    eig = fld.q_power(2) if sign > 0 else fld.from_int(-1)
    for i, h in enumerate(hs):
        dev = residual(apply_at_legs(h, i + 1, legs, total)
                       - scaled(total, eig), [h.mat, total])
        if not passes(dev, exact, GUARD_TOL):
            raise RuntimeError(f"symmetrizer eigen-relation fails at h_{i+1}")
    dev = residual(matmul(total, total) - scaled(total, constant),
                   [total, total])
    if not passes(dev, exact, GUARD_TOL):
        raise RuntimeError("symmetrizer square constant fails")
    op = Operator(total, legs)
    return Symmetrizer(op=op, constant=constant,
                       normalized=op.scaled(fld.one / constant))


# ---------------------------------------------------------------------------
# the proportionality constant of the reversal chain

def fusion_constant(fld, n: int, u, x, sign: int, sym: Symmetrizer = None):
    """Ratio of the reversal chain at u*profile to the symmetrizer image,
    divided by u^len; depends on q alone (checked by the callers)."""
    gam = Permutation.reversal(n)
    tup = tuple(u * p for p in q_profile(fld, n, sign))
    chain = chain_rmatrix(fld, tup, x, gam)
    if sym is None:
        sym = symmetrizer(fld, n, x, sign)
    smat = sym.op.mat
    if _is_exact(smat):
        idx = next(i for i, s in np.ndenumerate(smat) if not s.is_zero)
    else:
        idx = np.unravel_index(int(np.argmax(np.abs(smat))), smat.shape)
    ratio = chain.mat[idx] / smat[idx]
    dev = residual(chain.mat - scaled(smat, ratio), [chain.mat])
    if not passes(dev, fld.backend == "exact", GUARD_TOL):
        raise RuntimeError(
            f"reversal chain is not proportional to the symmetrizer "
            f"(residual {dev:.3e})"
        )
    return ratio / u ** gam.length()


def check_fusion_constant(fld, n: int, x, sign: int, u_probes, x_probes,
                          tol: float = 1e-9) -> CheckReport:
    """Constant extraction plus independence from the u and x probes."""
    exact = fld.backend == "exact"

    def deviation(a, b):
        if exact:
            return 0.0 if a == b else math.inf
        return abs(a - b) / max(abs(b), 1e-300)

    sym = symmetrizer(fld, n, x, sign)
    ref, *probes = ([fusion_constant(fld, n, u2, x, sign, sym=sym)
                     for u2 in u_probes]
                    + [fusion_constant(fld, n, u_probes[0], x2, sign)
                       for x2 in x_probes])
    worst = max((deviation(c, ref) for c in probes), default=0.0)
    return CheckReport(name=f"fusion-constant-{'plus' if sign > 0 else 'minus'}",
                       residual=worst, passed=passes(worst, exact, tol),
                       exact=exact,
                       details={"constant": scalar_to_json(ref), "n": n})


# ---------------------------------------------------------------------------
# fused spaces and fused R-matrices

@dataclass(frozen=True)
class FusedSpace:
    """Image of the normalized symmetrizer inside the n-fold tensor space:
    its pivot columns (basis), their indices (pivots) and (K_1, K_3)
    weights.  Made once, when a restriction first needs them: twisted
    holds its stacked twists at q^p x, p = 0, ..., n, stages the weight
    blocks and pinv of the first n, and solve those of the last."""

    basis: SubspaceBasis
    pivots: tuple
    weights: tuple
    twisted: list = field(default_factory=list, repr=False, compare=False)
    stages: list = field(default_factory=list, repr=False, compare=False)
    solve: list = field(default_factory=list, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.basis.dim


class FusedDimensionError(ValueError):
    """A fused space came out with a dimension other than 4n."""

    def __init__(self, n: int, sign: int, x, dim: int):
        super().__init__(
            f"fused space at n = {n}, sign {'+' if sign > 0 else '-'}, "
            f"x = {x} has dimension {dim}, not {4 * n}")
        self.n, self.sign, self.x, self.dim = n, sign, x, dim


class FusedZeroError(ValueError):
    """u/v is at a zero q^(2k) of the fused R-matrix (fused_zeros)."""

    def __init__(self, n: int, sign: int, k: int):
        super().__init__(
            f"u/v is q^{2 * k}, where the fused R-matrix at n = {n}, sign "
            f"{'+' if sign > 0 else '-'} vanishes")
        self.n, self.sign, self.k = n, sign, k


def fused_space(fld, n: int, x, sign: int,
                sym: Symmetrizer = None) -> FusedSpace:
    """The fused space: the pivot columns of the normalized symmetrizer.

    Raises FusedDimensionError unless there are 4n of them, the
    dimension of the q-(anti)symmetric power, so that a rank decision
    gone wrong is named here rather than surfacing as a shape error.
    """
    if sym is None:
        sym = symmetrizer(fld, n, x, sign)
    piv = _pivot_columns(sym.normalized.mat)
    if len(piv) != 4 * n:
        raise FusedDimensionError(n, sign, x, len(piv))
    basis = SubspaceBasis(sym.normalized.mat[:, piv])
    # the symmetrizer conserves the weight, so each of its columns is
    # supported on the states of a single weight
    weights = column_weights(basis.columns, (vector_weights(),) * n)
    return FusedSpace(basis, tuple(piv), weights)


def twisted_space(fld, space: FusedSpace, lam, n: int) -> FusedSpace:
    """The fused space at lam x, twisted from the one at x: x enters the
    vector R-matrix only in its entries from e_1 (x) e_2 and e_2 (x) e_1
    to e_3 (x) e_4 and e_4 (x) e_3, so E = D^(x)n, D = diag(1, 1, 1, lam),
    takes the symmetrizer at x to the one at lam x, whose pivot columns
    are E B over E at each pivot: the same pivots and weights."""
    cols = _twist(space, 0, space.basis.columns, lam, n)
    return FusedSpace(SubspaceBasis(cols), space.pivots, space.weights)


def twisted_rmatrix(fld, rmat: Operator, space: FusedSpace, lam, n: int):
    """The fused R-matrix at lam x from rmat, the one at x on space (the
    chain at lam x is the one at x conjugated by E (x) E)."""
    return replace(rmat, mat=_twist(space, 1, rmat.mat, lam, n))


@functools.cache
def _twist_powers(n: int, pivots: tuple):
    """The power of lam in entry (i, j) of a twisted basis (0) and fused
    R-matrix (1): c_i - c_j, c the legs in e_4 of a state or pivot pair."""
    count = np.ravel(functools.reduce(np.add.outer, ([0, 0, 0, 1],) * n))
    piv = count[list(pivots)]
    pair = np.add.outer(piv, piv).ravel()
    return tuple(_read_only(np.subtract.outer(a, b).astype(np.int8))
                 for a, b in ((count, piv), (pair, pair)))


def _twist(space: FusedSpace, which: int, mat: np.ndarray, lam, n: int):
    """mat times lam^power entrywise, power = _twist_powers(...)[which]:
    numeric, from the table lam^(0, ..., 2n, -2n, ..., -1); exact, by
    scaled once per nonzero power, so no zero or unit factor is formed."""
    power = _twist_powers(n, space.pivots)[which]
    if not _is_exact(mat):
        return mat * (lam ** np.r_[0:2 * n + 1, -2 * n:0])[power]
    out = mat.copy()
    for k in set(power.flat) - {0}:
        out[power == k] = scaled(out[power == k], lam ** int(k))
    return out


# ---------------------------------------------------------------------------
# the restriction's index plans, one weight class at a time

def _class_tables(*weights):
    """Weight classes shared by several lists of states, one weight row
    per state.  Returns, per list, each state's class and its rank in the
    class, and the (classes, width) table of each class's states in
    increasing order, padded with -1; width is the list's largest
    class."""
    ids = np.unique(np.concatenate(weights), axis=0,
                    return_inverse=True)[1].ravel()
    classes = int(ids.max()) + 1
    out = []
    for lab in np.split(ids, np.cumsum([len(w) for w in weights])[:-1]):
        count = np.bincount(lab, minlength=classes)
        order = np.argsort(lab, kind="stable")
        rank = np.empty_like(lab)
        start = np.cumsum(count) - count
        rank[order] = np.arange(len(lab)) - start[lab[order]]
        table = np.full((classes, int(count.max())), -1)
        table[lab, rank] = np.arange(len(lab))
        out.append((lab, rank, _read_only(table)))
    return out


def _step(entries, a: int, b: int, in_weights, out_weights, out_sizes):
    """Plan a weight-conserving map from legs a, ..., b-1 of the state,
    whose joint states have weights in_weights, to legs of out_sizes,
    whose joint states have weights out_weights.

    entries = (col, idx, pos, sizes) lists the state's entries by column,
    index on each leg and position in the flat state, with the size of
    each leg.  The entries that agree on the column and on the other legs
    and whose input state lies in one weight class form a context, a
    column for the class block of the map; each class's contexts are
    gathered side by side, zero-padded to one shape, and each yields
    every output state of its class, the entries of the next state.
    Returns the gather, the _class_tables of the output states (rows)
    and input states (cols), and the next state's entries."""
    col, idx, pos, sizes = entries
    tables = _class_tables(in_weights, out_weights)
    (in_lab, in_rank, cols), (_, _, rows) = tables
    state = np.ravel_multi_index(tuple(idx[:, a:b].T), sizes[a:b])
    label = in_lab[state]
    others = [k for k in range(len(sizes)) if not a <= k < b]
    key = np.ravel_multi_index((col, *idx[:, others].T),
                               (int(col.max()) + 1,
                                *(sizes[k] for k in others)))
    # number the distinct (class, key) contexts from 0 within each class
    _, first, inverse = np.unique(label * (int(key.max()) + 1) + key,
                                  return_index=True, return_inverse=True)
    ctx_class = label[first]
    count = np.bincount(ctx_class, minlength=len(cols))
    slot = np.arange(len(first)) - (np.cumsum(count) - count)[ctx_class]
    shape = (len(cols), cols.shape[1], int(count.max()))
    gather = _Gather(shape, pos, np.ravel_multi_index(
        (label, in_rank[state], slot[inverse.ravel()]), shape))
    # each context yields the output states of its class, in rank order
    per = (rows >= 0).sum(axis=1)[ctx_class]
    ctx = np.repeat(np.arange(len(first)), per)
    rank = np.arange(len(ctx)) - np.repeat(np.cumsum(per) - per, per)
    idx = idx[first[ctx]]
    idx = np.column_stack((idx[:, :a],
                           *np.unravel_index(rows[ctx_class[ctx], rank],
                                             out_sizes),
                           idx[:, b:]))
    pos = np.ravel_multi_index((ctx_class[ctx], rank, slot[ctx]),
                               (len(rows), rows.shape[1], shape[2]))
    return (gather, *tables[::-1],
            (col[first[ctx]], idx, pos, sizes[:a] + out_sizes + sizes[b:]))


@functools.cache
def _restriction_plan(n: int, w: tuple):
    """Index plans of fused_restriction for a fused space of weights w
    (its twists share them), linear in the number of in-sector entries.

    Stage p's chain starts from the columns (a, b) of kron(I_4,
    B(q^(p+1) x)) on legs (p, 4, ..., 4): a stage leg, holding p, rides
    in front of the moving leg and weighs p in a third weight component,
    so each step runs once for all stages, its class blocks gathered from
    the stages' R-matrix stack (rblocks).  A solve through the stacked
    bases B(q^p x) on the vector legs and the stage leg places each entry
    ((l, e), (a, b)) of S_p straight into the class blocks of the state
    step, the stages end to end.  The state starts as kron(B(x), I_d) on
    legs (4, ..., 4, d), where only entries whose last leg matches the
    column's second index can be nonzero; S_p, p = n-1, ..., 0, takes
    its legs (p, p+1) from (4, d) to (d, 4), and the last solve the n
    vector legs to the coordinates of B(q^n x).  An entry that no step
    reaches is zero.  A solve is (gather, rows, cols, entry_col, result).
    """
    vec, w = map(np.array, (vector_weights(), w))
    d, legs_n = len(w), product_weights((vec,) * n)
    support = (legs_n[:, None] == w[None]).all(axis=-1)
    p, s, b = (np.repeat(t, 4) for t in np.nonzero(
        np.broadcast_to(support, (n, *support.shape))))
    a = np.tile(np.arange(4), len(p) // 4)
    entries = ((p * 4 + a) * d + b,
               np.column_stack((p, a, *np.unravel_index(s, (4,) * n))),
               (p * 4 ** n + s) * d + b, (n,) + (4,) * (n + 1))
    vec3, w3 = (np.column_stack((t, 0 * t[:, 0])) for t in (vec, w))
    tag = np.column_stack((np.zeros((n, 2), int), np.arange(n)))
    chain = []
    for i in range(n):
        gather, (_, _, rows), (_, _, cols), entries = _step(
            entries, i, i + 3, product_weights((tag, vec3, vec3)),
            product_weights((vec3, tag, vec3)), (4, n, 4))
        chain.append(gather)
    # block (c, r, k) of step i is entry (rows[c, r], cols[c, k]) of the
    # R-matrix of step i of the class's stage
    c, r, k = np.nonzero((rows[:, :, None] >= 0) & (cols[:, None, :] >= 0))
    jo, p, ko = np.unravel_index(rows[c, r], (4, n, 4))
    i = np.arange(n)[:, None]
    src = np.ravel_multi_index((p, i, jo, ko) + np.unravel_index(
        cols[c, k], (n, 4, 4))[1:], (n, n, 4, 4, 4, 4))
    shape = (n, *rows.shape, cols.shape[1])
    rblocks = _Gather(shape, src.ravel(),
                      np.ravel_multi_index((i, c, r, k), shape).ravel())
    gather, (_, _, rows), (_, _, cols), (col, idx, spos, _) = _step(
        entries, 0, n + 1, product_weights((vec3,) * n + (tag,)),
        product_weights((w3, tag)), (d, n))
    stage_solve = (gather, rows, cols, _read_only(entries[0]))
    s, i = np.nonzero(support)
    j = np.tile(np.arange(d), len(s))
    entries = (np.repeat(i, d) * d + j,
               np.column_stack(np.unravel_index(np.repeat(s, d), (4,) * n)
                               + (j,)),
               np.repeat(s * d + i, d), (4,) * n + (d,))
    stages, dst, start = [], np.empty(len(col), int), 0
    for p in reversed(range(n)):
        gather, (olab, orank, rows), (_, irank, cols), entries = _step(
            entries, p, p + 2, (vec[:, None] + w[None]).reshape(-1, 2),
            (w[:, None] + vec[None]).reshape(-1, 2), (d, 4))
        shape = (len(rows), rows.shape[1], cols.shape[1])
        # the stage solve's col is (p, a, b) and its idx (l, p, e)
        at = idx[:, 1] == p
        out = idx[at, 0] * 4 + idx[at, 2]
        dst[at] = start + np.ravel_multi_index(
            (olab[out], orank[out], irank[col[at] % (4 * d)]), shape)
        stages.append((gather, slice(start, start + math.prod(shape)), shape))
        start += math.prod(shape)
    # column b of B(q^n x) has weight w[b]; entry (l, b) of the
    # solution's column col is entry ((l, b), col) of the fused R-matrix
    gather, (_, _, rows), (_, _, cols), (col, idx, pos, _) = _step(
        entries, 1, n + 1, legs_n, w, (d,))
    result = _Gather((d * d, d * d), pos, np.ravel_multi_index(
        (idx[:, 0] * d + idx[:, 1], col), (d * d, d * d)))
    stage_solve += (_Gather((start,), spos, dst),)
    pair = _class_tables(product_weights((vec, vec)))[0][0]
    return (tuple(chain), rblocks, stage_solve,
            _read_only(pair[:, None] != pair), tuple(stages),
            (gather, rows, cols, _read_only(entries[0]), result))


def _solve_sectors(fld, plan: tuple, cache: list, columns: np.ndarray,
                   flat: np.ndarray):
    """Solve B_g S = state one weight block at a time, B_g = columns[g],
    the input states (row of B_g, g) and the output states (coordinate,
    g); the blocks, their pinv and squared norms are made once, in cache.
    Returns the solution, placed by result, and the relative residual,
    worst over g of ||B_g S - state|| / max(||state||, ||B_g||), as in
    restrict_action.  Raises ValueError naming the worst column when the
    state leaves the span: on the exact backend through exact_solve, on
    the numeric one NotInvariantError when it fails INVARIANCE_TOL."""
    gather, rows, cols, entry_col, result = plan
    state, k = gather(flat), len(columns)
    group = cols[:, 0] % k

    def squares(a):  # the squared norm per g
        return np.bincount(group, (a.view(float) ** 2).sum((1, 2)), k)

    if not cache:
        # B_g takes the output states, its columns, to the input states
        blocks = np.where((cols[:, :, None] >= 0) & (rows[:, None, :] >= 0),
                          columns[cols[:, :, None] % k, cols[:, :, None] // k,
                                  rows[:, None, :] // k], fld.zero)
        cache.extend((blocks, None, None) if _is_exact(blocks) else
                     (blocks, np.linalg.pinv(blocks), squares(blocks)))
    blocks, inverse, norms = cache
    rel = 0.0
    if _is_exact(state):
        sol = fld.zeros((len(rows), rows.shape[1], state.shape[2]))
        for c, (r, m) in enumerate(zip((cols >= 0).sum(axis=1),
                                       (rows >= 0).sum(axis=1))):
            sol[c, :m] = exact_solve(blocks[c, :r, :m], state[c, :r])
    else:
        sol = matmul(inverse, state)
        delta = matmul(blocks, sol)
        delta -= state
        scale = np.maximum(np.sqrt(np.maximum(squares(state), norms)), 1e-300)
        rel = float((np.sqrt(squares(delta)) / scale).max())
        if not passes(rel, False, INVARIANCE_TOL):
            share = np.abs(delta.reshape(-1)[gather.dst]) / scale[
                group[gather.dst // delta[0].size]]
            by_col = np.sqrt(np.bincount(entry_col, share ** 2))
            worst = int(np.argmax(by_col))
            raise NotInvariantError(worst, by_col[worst])
    return result(sol.reshape(-1)), rel


def fused_restriction(fld, n: int, u, v, x, sign: int, space=None):
    """The chained R-matrix over the block swap, restricted to the fused
    subspace pair at (x, q^n x), space being the one at x (made if None);
    returns it with its residual and the off-class share of its
    elementary R-matrices.

    The canonical word of the block swap, applied right to left, moves
    leg p = n-1, ..., 0 of block 1 through all of block 2, which then
    sits on legs p+1, ..., p+n in the fused space at q^(p+1) x and is
    carried to legs p, ..., p+n-1 in the one at q^p x (the order of
    Kulish, Reshetikhin and Sklyanin): a chain over n+1 legs, restricted
    to a (d*4) x (4*d) matrix S_p on legs (p, p+1) of the state
    kron(B(x), I_d).  A last solve through B(q^n x) finishes.  The bases
    at q^p x, p = 1, ..., n, are twisted from B(x) (twisted_space).
    Every map conserves the joint (K_1, K_3) weight and acts one class at
    a time through cached plans (_restriction_plan): the n stages as one
    batch, from one stack of R-matrices (vector_rmatrix) and one solve
    through the stacked bases, its blocks kept on space (FusedSpace).

    The entries of an R-matrix that change the weight of its two legs
    are left out; their share ||R_off|| / ||R|| (exact: inf if any is
    nonzero), worst over the steps, is returned as the off-class share.
    Raises FusedZeroError when u/v is at a zero of R (fused_zero), and
    ValueError if a stage or the last solve is not invariant; the
    residual is the worst of the two solves and the off-class share.
    """
    k = fused_zero(fld, n, sign, u, v)
    if k is not None:
        raise FusedZeroError(n, sign, k)
    if space is None:
        space = fused_space(fld, n, x, sign)
    if not space.twisted:
        space.twisted.append(np.stack([space.basis.columns] + [
            twisted_space(fld, space, fld.q_power(p), n).basis.columns
            for p in range(1, n + 1)]))
    stack, = space.twisted
    gam = Permutation.reversal(n)
    prof = q_profile(fld, n, sign)
    a = concat_tuples(gam.act(tuple(u * p for p in prof)),
                      gam.act(tuple(v * p for p in prof)))
    chain, rblocks, stage_solve, outside, stages, solve = _restriction_plan(
        n, space.weights)
    # stage p moves a[p] past a[n:], step i at legs (i, i+1) at q^(p+i) x
    rs = vector_rmatrix(fld, [[a[p]] * n for p in range(n)], [a[n:]] * n,
                        [[fld.q_power(i) * (fld.q_power(p) * x)
                          for i in range(n)] for p in range(n)])
    off = max(residual(rs[:, i][:, outside], [rs[:, i]]) for i in range(n))
    flat = stack[1:].reshape(-1)
    for gather, blocks in zip(chain, rblocks(rs.reshape(-1))):
        flat = matmul(blocks, gather(flat)).reshape(-1)
    smat, worst = _solve_sectors(fld, stage_solve, space.stages, stack[:-1],
                                 flat)
    flat = space.basis.columns.reshape(-1)
    for gather, part, shape in stages:
        flat = matmul(smat[part].reshape(shape), gather(flat)).reshape(-1)
    # block 1, now on the last n legs, lies in the fused space at q^n x
    small, rel = _solve_sectors(fld, solve, space.solve, stack[-1:], flat)
    return (Operator(small, (space.dim,) * 2, (space.weights,) * 2),
            max(worst, rel, off), off)


def fused_rmatrix(fld, n: int, u, v, x, sign: int, space=None) -> Operator:
    """The fused R-matrix: fused_restriction without its residuals."""
    return fused_restriction(fld, n, u, v, x, sign, space)[0]


def fused_zeros(n: int, sign: int) -> range:
    """The k for which the fused R-matrix R(u, v) vanishes identically at
    u/v = q^(2k): k = -(n-1), ..., n-2 for sign + and -(n-2), ..., n-1
    for sign -, so none at n = 1; k = 0 is u = v.  Found by a numeric
    scan at n = 2-4 and checked in the tests at n = 2, 3.  There both
    YBE sides are rounding noise, so the check would fail falsely."""
    return range(1 - n, n - 1) if sign > 0 else range(2 - n, n)


def fused_zero(fld, n: int, sign: int, u, v):
    """The k of fused_zeros(n, sign) with u/v at q^(2k), or None.  On the
    exact backend u - q^(2k) v must vanish exactly, on the numeric one
    it must lie within ZERO_RATIO_TOL of q^(2k) v, relatively."""
    exact = fld.backend == "exact"
    for k in fused_zeros(n, sign):
        zero = fld.q_power(2 * k) * v
        gap = u - zero
        if gap.is_zero if exact else abs(gap) <= ZERO_RATIO_TOL * abs(zero):
            return k
    return None


def fused_builder(fld, n: int, sign: int, residuals: list) -> RMatrixBuilder:
    """Builder over the fused family.  The first build cuts the fused
    space at its y0 (!= 0); each (u, v), found again by ==, is restricted
    there once and twisted by y / y0 for a build at y (twisted_rmatrix).
    Each build appends that restriction's (residual, off-class share)."""
    cache = []

    def build(u, v, y):
        if not cache:
            cache.append((y, fused_space(fld, n, y, sign)))
        (y0, space), *made = cache
        found = next((out for key, out in made if key == (u, v)), None)
        if found is None:
            found = fused_restriction(fld, n, u, v, y0, sign, space)
            cache.append(((u, v), found))
        residuals.append(found[1:])
        return (found[0] if y == y0
                else twisted_rmatrix(fld, found[0], space, y / y0, n))

    return RMatrixBuilder(build=build, shift_exponent=n)


def check_projector_commutation(fld, n: int, u, v, x, sign: int,
                                tol: float = 1e-9,
                                sabotage_shift: bool = False) -> CheckReport:
    """Block-swap chain commutes with the doubled symmetrizer, probed.

    Both sides act on one fixed random complex block g of 16^n x k
    (details.k = 4, details.probe_seed = 0), so neither is formed on all
    2n legs: S1 (x) S2 as two n-leg products, the chains through
    apply_chain (Freivalds, IFIP Congress 1977).  The residual is
    normalized by the probed side ||chain (S1 (x) S2) g||; on the exact
    backend g holds integers and it is exactly 0 or inf.  sabotage_shift
    misplaces the second-block parameter by one extra power of q, a
    negative control pinning the q^n shift.
    """
    import random

    gam = Permutation.reversal(n)
    tau = Permutation.block_swap(n)
    prof = q_profile(fld, n, sign)
    up = tuple(u * p for p in prof)
    vp = tuple(v * p for p in prof)
    s1 = symmetrizer(fld, n, x, sign).op.mat
    second_x = fld.q_power(n + 1 if sabotage_shift else n) * x
    s2 = symmetrizer(fld, n, second_x, sign).op.mat
    d, k, seed = 4 ** n, 4, 0
    exact = fld.backend == "exact"
    # random 16-bit integers: on the exact backend one per entry, on the
    # numeric one two per complex entry, scaled to [-1, 1)
    ints = np.frombuffer(random.Random(seed).randbytes(4 * d * d * k),
                         dtype=np.int16)
    if exact:
        g = np.fromiter(map(fld.from_int, ints[:d * d * k].tolist()),
                        object, d * d * k)
    else:
        g = (ints / 32768.0).view(np.complex128)
    g = g.reshape(d * d, k)

    def doubled(block):
        # S2 on the second n legs, then S1 on the first
        block = matmul(s2, block.reshape(d, d, k))
        return matmul(s1, block.reshape(d, d * k)).reshape(d * d, k)

    lhs = apply_chain(fld, concat_tuples(gam.act(up), gam.act(vp)), x, tau,
                      doubled(g))
    rhs = doubled(apply_chain(fld, concat_tuples(up, vp), x, tau, g))
    res = residual(lhs - rhs, [lhs])
    return CheckReport(name="projector-commutation", residual=res,
                       passed=passes(res, exact, tol), exact=exact,
                       details={"sign": sign, "sabotaged": sabotage_shift,
                                "k": k, "probe_seed": seed})


# ---------------------------------------------------------------------------
# the fused representation

def fused_local_rep(fld, n: int, u, x, sign: int,
                    space: FusedSpace = None) -> LocalRep:
    """Generator images restricted to the fused space.

    Invariance of the fused space under the reversed-profile tuple
    representation is enforced by the restriction itself.
    """
    if space is None:
        space = fused_space(fld, n, x, sign)
    gam = Permutation.reversal(n)
    prof = q_profile(fld, n, sign)
    base = tuple_rep(fld, gam.act(tuple(u * p for p in prof)), x)
    legs = (4,) * n
    images = {tag: restrict(Operator(base.image(tag), legs), space.basis).mat
              for tag in _ALL_TAGS}
    return LocalRep(fld, x, images)


def check_fused_intertwining(fld, n: int, u, v, x, sign: int,
                             tol: float = 1e-9,
                             identity_control: bool = False) -> CheckReport:
    """The fused R-matrix intertwines the swapped fused coproduct reps."""
    xs = fld.q_power(n) * x
    sp1 = fused_space(fld, n, x, sign)
    sp2 = twisted_space(fld, sp1, fld.q_power(n), n)
    rmat = (fld.eye(sp1.dim * sp2.dim) if identity_control
            else fused_rmatrix(fld, n, u, v, x, sign, sp1).mat)
    rep_uv = ProductRep([fused_local_rep(fld, n, u, x, sign, space=sp1),
                         fused_local_rep(fld, n, v, xs, sign, space=sp2)])
    rep_vu = ProductRep([fused_local_rep(fld, n, v, x, sign, space=sp1),
                         fused_local_rep(fld, n, u, xs, sign, space=sp2)])
    return _intertwining_report(fld, "fused-intertwining", rmat, rep_uv,
                                rep_vu, tol, sign=sign, n=n)


def check_fused_ybe(fld, n: int, sign: int, u, v, w, x, tol: float = 1e-8,
                    shift: int = None) -> CheckReport:
    """The twisted YBE for the fused family.

    The factors are assembled from weight-class blocks, so their own
    off-sector share is 0 and says nothing; what the restriction left
    out is the off-class share of its R-matrices, whose worst is
    details.off_sector (numeric) and part of the residual.  The three
    factors at q^n x are twists (fused_builder), so
    details.restriction_residual is the worst of three restrictions.
    """
    residuals = []
    builder = fused_builder(fld, n, sign, residuals)
    report = check_twisted_ybe(fld, builder, u, v, w, x, tol=tol, shift=shift,
                               name="fused-ybe")
    rel, off = map(max, zip(*residuals))
    report.residual = max(report.residual, off)
    report.passed = passes(report.residual, report.exact, tol)
    report.details.update(sign=sign, n=n, restriction_residual=rel)
    if not report.exact:
        report.details["off_sector"] = off
    return report
