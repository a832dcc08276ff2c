"""Dense matrices over either scalar backend, with tensor-leg metadata.

Flat indices follow the big-endian convention: the basis vector
e_{i1} (x) ... (x) e_{in} (1-based labels) has flat index
sum_k (i_k - 1) * prod_{m>k} d_m.  np.kron realizes exactly this.

Numeric matrices are complex128 arrays; exact matrices are object
arrays of RationalFunction entries.  Every matrix product goes through
matmul: on complex arrays it is one np.matmul call, on object arrays it
forms only the products of two nonzero entries and sums them in the
order np.matmul would, so each exact entry comes out as the same
unreduced rational function; kron and scaled follow the same rule.  A
two-leg operator acts on a tensor product through apply_at_legs, which
never forms the identity-padded embedding.  restrict_action solves for
the matrix of an operator on an invariant subspace through one basis of
that subspace.

An operator may carry the weight of each basis vector of each leg.  The
R-matrices conserve the total weight, so on three legs they are block
diagonal over the weight sectors, and the YBE sides are contracted one
sector at a time, sectors of one size stacked so that one matmul call
serves the whole stack on either backend (rmatrix.ybe_residual);
product_weights gives the weight of every basis state of a tensor
product, and column_weights that of each column of a weight-homogeneous
basis.  The index plans of those sector routes depend only on weights,
are cached, and hold read-only arrays (_read_only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .scalars import _RF_ZERO, RationalFunction

# relative pivot threshold of the numeric rank decisions
RANK_TOL = 1e-9
# the relative residual below which restrict_action calls a subspace
# invariant
INVARIANCE_TOL = 1e-9


class NotInvariantError(ValueError):
    """A numeric solve left the span: the subspace is not invariant."""

    def __init__(self, column: int, rel: float):
        super().__init__(f"subspace is not invariant: column {column} has "
                         f"relative residual {rel:.3e}")
        self.column, self.rel = column, rel


def _is_exact(mat: np.ndarray) -> bool:
    return mat.dtype == object


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only: index plans are shared through
    functools.cache."""
    arr.flags.writeable = False
    return arr


class _Gather:
    """Places the entries src of a flat array at the positions dst of a
    zero array of the given shape, on either backend: a sector block
    stack of a YBE factor, a restriction step's zero-padded input, or the
    fused R-matrix.  Plans share their gathers through functools.cache,
    so src and dst are read-only, each in the smallest unsigned type
    that holds it to keep the cached plans small."""

    def __init__(self, shape: tuple, src: np.ndarray, dst: np.ndarray):
        self.shape = shape
        self.src, self.dst = (_read_only(idx.astype(np.min_scalar_type(
            int(idx.max(initial=0))))) for idx in (src, dst))

    def __call__(self, flat: np.ndarray) -> np.ndarray:
        out = (np.full(self.shape, _RF_ZERO, dtype=object) if _is_exact(flat)
               else np.zeros(self.shape, flat.dtype))
        out.reshape(-1)[self.dst] = flat[self.src]
        return out


def frobenius(mat: np.ndarray) -> float:
    return math.sqrt(np.vdot(mat, mat).real)


def scaled(mat: np.ndarray, s) -> np.ndarray:
    """mat * s; on object arrays only nonzero entries are multiplied, by a
    nonzero s, and the rest stay the exact zero, as in mat * s."""
    if not _is_exact(mat):
        return mat * s
    keep = bool(s.num.terms)
    flat = (e * s if keep and e.num.terms else _RF_ZERO for e in mat.flat)
    return np.fromiter(flat, object, mat.size).reshape(mat.shape)


def exact_all_zero(mat: np.ndarray) -> bool:
    return not any(s.num.terms for s in mat.flat)


def residual(delta: np.ndarray, operands=()) -> float:
    """Relative residual of an identity whose two sides differ by delta.

    Numeric: Frobenius norm of delta divided by the product of the
    operand Frobenius norms (1 if no operands given).  Exact: 0.0 when
    delta is identically zero, inf otherwise.
    """
    if _is_exact(delta):
        return 0.0 if exact_all_zero(delta) else math.inf
    scale = 1.0
    for op in operands:
        m = op.mat if isinstance(op, Operator) else op
        scale *= max(frobenius(m), 1e-300)
    return frobenius(delta) / scale


def _nonzero_rows(mat) -> list:
    """Each row of a nested-list matrix as its (column, entry) pairs with
    a nonzero entry, in increasing column order."""
    return [[(j, s) for j, s in enumerate(row) if s.num.terms]
            for row in mat]


def _batch_index(shape, batch) -> list:
    """For each matrix of the broadcast batch, in C order, the index of
    the operand matrix it comes from."""
    idx = np.arange(math.prod(shape)).reshape(shape)
    return np.broadcast_to(idx, batch).ravel().tolist()


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of matrices, broadcast over the leading axes as
    np.matmul does.

    Complex operands take one np.matmul call.  Object operands list the
    nonzero entries of each operand row once and form only the products
    of two nonzero entries: out[i, l] is the sum of a[i, j] * b[j, l]
    over the j where both are nonzero, accumulated in increasing j.
    That is the order np.matmul sums in, and adding an exact zero returns
    the other operand unchanged, so every entry carries the terms the
    object np.matmul would give; an entry with no such product is zero.
    The cost is the number of nonzero products, not m*k*n per matrix.
    """
    if not (_is_exact(a) or _is_exact(b)):
        return np.matmul(a, b)
    *abatch, m, k = a.shape
    *bbatch, kb, n = b.shape
    if k != kb:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    batch = np.broadcast_shapes(tuple(abatch), tuple(bbatch))
    arows = [_nonzero_rows(mat) for mat in
             a.reshape(math.prod(abatch), m, k).tolist()]
    brows = [_nonzero_rows(mat) for mat in
             b.reshape(math.prod(bbatch), k, n).tolist()]
    zero = _RF_ZERO
    out = [zero] * (math.prod(batch) * m * n)
    base = 0
    for s, t in zip(_batch_index(abatch, batch), _batch_index(bbatch, batch)):
        rows = brows[t]
        for row in arows[s]:
            for j, x in row:
                for l, y in rows[j]:
                    p = x * y
                    cur = out[base + l]
                    out[base + l] = p if cur is zero else cur + p
            base += n
    return np.fromiter(out, object, len(out)).reshape(batch + (m, n))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, bitwise on complex ones; on object ones,
    like matmul, only the products of two nonzero entries are formed, each
    the rational function np.kron gives, and the rest is the exact zero."""
    (m, n), (p, r) = a.shape, b.shape
    if _is_exact(a) or _is_exact(b):
        out = np.full((m, p, n, r), _RF_ZERO, dtype=object)
        bnz = [(k, l, y) for k, row in enumerate(_nonzero_rows(b.tolist()))
               for l, y in row]
        for i, row in enumerate(_nonzero_rows(a.tolist())):
            for j, x in row:
                for k, l, y in bnz:
                    out[i, k, j, l] = x * y
    else:
        out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(m * p, n * r)


def passes(res: float, exact: bool, tol: float) -> bool:
    """The one pass rule of every check and construction guard: an exact
    residual passes iff it is 0, a numeric one iff it is below tol."""
    return res == 0.0 if exact else res < tol


@dataclass(frozen=True)
class Operator:
    """Square matrix acting on an ordered tensor product of legs.

    weights, when given, holds for each leg the weight of each of its
    basis vectors, a tuple of ints; None leaves the operator ungraded,
    all of its basis states of one weight.
    """

    mat: np.ndarray
    legs: tuple
    weights: tuple = None

    def __post_init__(self):
        n = int(np.prod(self.legs)) if self.legs else 1
        if self.mat.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.mat.shape} does not match legs {self.legs}"
            )
        if (self.weights is not None
                and tuple(map(len, self.weights)) != tuple(self.legs)):
            raise ValueError(f"weights do not match legs {self.legs}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise ValueError("operator dimensions differ")
        return Operator(matmul(self.mat, other.mat), self.legs)

    def scaled(self, s) -> "Operator":
        return Operator(scaled(self.mat, s), self.legs, self.weights)


@dataclass(frozen=True)
class SubspaceBasis:
    """Full-column-rank rectangular matrix whose columns span a subspace."""

    columns: np.ndarray

    @property
    def ambient(self) -> int:
        return self.columns.shape[0]

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    @cached_property
    def left_inverse(self) -> np.ndarray:
        """pinv of the numeric columns, computed once per basis."""
        return np.linalg.pinv(self.columns)


def matrix_unit(fld, i: int, j: int, dim: int = 4) -> np.ndarray:
    """E_{ij}: 1 in row i, column j (1-based labels)."""
    out = fld.zeros((dim, dim))
    out[i - 1, j - 1] = fld.one
    return out


def apply_at_legs(op: Operator, pos: int, legs,
                  block: np.ndarray) -> np.ndarray:
    """kron(I_pre, op, I_post) @ block, without forming the embedding.

    op acts on legs (pos, pos+1), pos 1-based, and must match
    legs[pos-1], legs[pos]; block has prod(legs) rows.  The block is
    viewed as (pre, d1*d2, rest) and op multiplies the middle axis by
    one matmul: pre*rest*(d1 d2)^2 multiply-adds on complex arrays, and
    on object arrays only the products of a nonzero op entry with a
    nonzero block entry (about 36 of the 256 entries of the vector
    R-matrix are nonzero, and zero rows of the block cost nothing).
    """
    legs = tuple(legs)
    if not 1 <= pos <= len(legs) - 1:
        raise ValueError(f"position {pos} out of range for {len(legs)} legs")
    if op.legs != (legs[pos - 1], legs[pos]):
        raise ValueError(
            f"operator legs {op.legs} do not match target legs "
            f"{(legs[pos - 1], legs[pos])} at position {pos}"
        )
    if block.shape[0] != math.prod(legs):
        raise ValueError(
            f"block has {block.shape[0]} rows, legs {legs} need "
            f"{math.prod(legs)}"
        )
    pre = math.prod(legs[: pos - 1])
    rest = block.size // (pre * op.dim)
    out = matmul(op.mat, block.reshape(pre, op.dim, rest))
    return out.reshape(block.shape)


def product_weights(leg_weights) -> np.ndarray:
    """The weight of each basis state of a tensor product of legs, one row
    per state in flat order: the sum of the weights of its legs' basis
    vectors."""
    out = np.zeros((1, 1), dtype=int)
    for w in leg_weights:
        out = out[:, None] + np.asarray(w, dtype=int)[None]
        out = out.reshape(-1, out.shape[-1])
    return out


def column_weights(columns: np.ndarray, leg_weights) -> tuple:
    """The weight of each column of a basis of a subspace of a tensor
    product, read off the column's support: every nonzero entry must sit
    on a basis state of one and the same weight.

    Raises ValueError naming the first column that is not
    weight-homogeneous.
    """
    states = product_weights(leg_weights)
    support = columns != 0
    out = []
    for j in range(columns.shape[1]):
        found = {tuple(w) for w in states[support[:, j]].tolist()}
        if len(found) != 1:
            raise ValueError(f"basis column {j} is not weight-homogeneous: "
                             f"its support has weights {sorted(found)}")
        out.append(found.pop())
    return tuple(out)


# ---------------------------------------------------------------------------
# rank / pivot machinery

def _numeric_pivot_columns(mat: np.ndarray):
    a = np.array(mat, dtype=np.complex128)
    m, n = a.shape
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale == 0.0:
        return []
    thresh = RANK_TOL * scale
    piv = []
    r = 0
    for j in range(n):
        col = np.abs(a[r:, j])
        p = int(np.argmax(col))
        if col[p] <= thresh:
            continue
        if p:
            a[[r, r + p], :] = a[[r + p, r], :]
        piv.append(j)
        below = a[r + 1:, j] / a[r, j]
        a[r + 1:, j:] -= np.outer(below, a[r, j:])
        r += 1
        if r == m:
            break
    return piv


def _term_count(s: RationalFunction) -> int:
    return len(s.num.terms) + len(s.den.terms)


def max_term_count(*mats) -> int:
    """The largest num + den term count among the entries of exact
    matrices: how large the compared rational functions grew."""
    return max((_term_count(s) for m in mats for s in m.flat), default=0)


def _exact_pivot_columns(mat: np.ndarray):
    rows = [list(row) for row in mat]
    m = len(rows)
    n = len(rows[0]) if m else 0
    piv = []
    r = 0
    for j in range(n):
        best = None
        for i in range(r, m):
            if rows[i][j].num.terms:
                if best is None or _term_count(rows[i][j]) < _term_count(rows[best][j]):
                    best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv.append(j)
        pivot = rows[r][j]
        for i in range(r + 1, m):
            f = rows[i][j]
            if not f.num.terms:
                continue
            ratio = f / pivot
            rows[i] = [
                a - ratio * b if b.num.terms else a
                for a, b in zip(rows[i], rows[r])
            ]
        r += 1
        if r == m:
            break
    return piv


def _pivot_columns(mat: np.ndarray):
    if _is_exact(mat):
        return _exact_pivot_columns(mat)
    return _numeric_pivot_columns(mat)


def matrix_rank(mat: np.ndarray) -> int:
    return len(_pivot_columns(mat))


def column_space(mat) -> SubspaceBasis:
    """Basis of the column space: the pivot columns of the input itself."""
    if isinstance(mat, Operator):
        mat = mat.mat
    piv = _pivot_columns(mat)
    return SubspaceBasis(mat[:, piv] if piv else mat[:, :0])


# ---------------------------------------------------------------------------
# exact linear solving (small systems, fraction-field Gauss-Jordan)

def exact_solve(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve a*S = y exactly for full-column-rank a.

    Raises ValueError when y does not have a's row count, and naming the
    first inconsistent right-hand-side column when y is not in the
    column space of a.
    """
    m, k = a.shape
    if y.shape[0] != m:
        raise ValueError(f"right-hand side has {y.shape[0]} rows, the "
                         f"matrix {m}")
    r = y.shape[1]
    rows = [list(a[i]) + list(y[i]) for i in range(m)]
    pivot_of_col = {}
    rank = 0
    for j in range(k):
        best = None
        for i in range(rank, m):
            if rows[i][j].num.terms:
                if best is None or _term_count(rows[i][j]) < _term_count(rows[best][j]):
                    best = i
        if best is None:
            raise ValueError(f"basis column {j} is linearly dependent")
        rows[rank], rows[best] = rows[best], rows[rank]
        pivot = rows[rank][j]
        rows[rank] = [c / pivot for c in rows[rank]]
        for i in range(m):
            if i == rank:
                continue
            f = rows[i][j]
            if not f.num.terms:
                continue
            rows[i] = [
                c - f * p if p.num.terms else c
                for c, p in zip(rows[i], rows[rank])
            ]
        pivot_of_col[j] = rank
        rank += 1
    for i in range(rank, m):
        for jj in range(r):
            if rows[i][k + jj].num.terms:
                raise ValueError(
                    f"inconsistent system: right-hand-side column {jj} "
                    "is outside the span"
                )
    out = np.empty((k, r), dtype=object)
    for j in range(k):
        out[j, :] = rows[pivot_of_col[j]][k:]
    return out


def exact_inverse(a: np.ndarray) -> np.ndarray:
    from .scalars import ExactField

    n = a.shape[0]
    return exact_solve(a, ExactField().eye(n))


# ---------------------------------------------------------------------------
# restriction to invariant subspaces

def restrict_action(basis: SubspaceBasis, action: np.ndarray,
                    tol: float = INVARIANCE_TOL):
    """Given the columns action = M*B of an operator M on the basis B of a
    subspace, solve B*S = M*B.

    Numeric bases apply their left inverse pinv(B), computed once per
    basis; exact ones call exact_solve, whose inconsistency error is the
    invariance test.

    Returns (S, relative residual), the residual being
    ||B*S - action|| / max(||action||, ||B||).  Raises ValueError when
    action does not have B's row count, and one naming the worst
    offending column when the subspace is not invariant: on the numeric
    backend NotInvariantError, when the residual does not pass tol,
    which math.inf leaves to non-finite residuals.
    """
    b = basis.columns
    if action.shape[0] != basis.ambient:
        raise ValueError(f"action has {action.shape[0]} rows, the basis "
                         f"{basis.ambient}")
    if _is_exact(action) or _is_exact(b):
        return exact_solve(b, action), 0.0
    s = matmul(basis.left_inverse, action)
    delta = matmul(b, s)
    delta -= action
    # the action may legitimately vanish (chains have polynomial zeros),
    # so never normalize by the action norm alone
    scale = max(frobenius(action), frobenius(b), 1e-300)
    rel = frobenius(delta) / scale
    if not passes(rel, False, tol):
        col_norms = np.linalg.norm(delta, axis=0)
        worst = int(np.argmax(col_norms))
        raise NotInvariantError(worst, col_norms[worst] / scale)
    return s, rel


def restrict(m: Operator, basis: SubspaceBasis) -> Operator:
    """Matrix of m on the subspace, in the given basis."""
    action = matmul(m.mat, basis.columns)
    s, _ = restrict_action(basis, action)
    return Operator(s, (basis.dim,))


# ---------------------------------------------------------------------------
# commutant probe

def commutant_dimension(ops) -> int:
    """dim of {M : M*A = A*M for all A}, via the stacked linear system.

    Row-major vectorization: vec(MA - AM) = (I (x) A^T - A (x) I) vec(M).
    """
    mats = [op.mat if isinstance(op, Operator) else op for op in ops]
    d = mats[0].shape[0]
    eye = np.eye(d)
    blocks = []
    for a in mats:
        a = np.asarray(a, dtype=np.complex128)
        blocks.append(np.kron(eye, a.T) - np.kron(a, eye))
    stacked = np.vstack(blocks)
    return d * d - matrix_rank(stacked)
