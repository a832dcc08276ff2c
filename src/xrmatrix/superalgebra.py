"""The centrally extended quantum superalgebra as acted data.

Nothing here represents algebra elements symbolically.  A LocalRep maps
each generator tag to a matrix; the coproduct is evaluated recursively
against a list of local representations, so the non-generator elements
appearing in its correction terms (the two super-brackets) are always
locally evaluable.

Generator tags: 's', 'K0'..'K3', 'Kinv0'..'Kinv3', 'E0'..'E3',
'F0'..'F3', plus the derived tags '[E0,F2]' and '[E2,F0]'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cartan import parity, root_pairing, theta, weight_pairing
from .reports import CheckReport, scalar_to_json
from .scalars import NumericField
from .tensorops import (Operator, SubspaceBasis, kron, matmul, matrix_rank,
                        matrix_unit, max_term_count, passes, residual,
                        restrict, restrict_action, scaled)

GENERATORS = ("s",) + tuple(f"K{i}" for i in range(4)) + \
    tuple(f"E{i}" for i in range(4)) + tuple(f"F{i}" for i in range(4))

_ALL_TAGS = GENERATORS + tuple(f"Kinv{i}" for i in range(4))

# generators of the finite subalgebra (index 0 removed)
FINITE_GENERATORS = ("s",) + tuple(
    f"{kind}{i}" for kind in ("K", "Kinv", "E", "F") for i in (1, 2, 3)
)


def super_bracket(fld, a: np.ndarray, b: np.ndarray, pa: int, pb: int):
    """[a, b] = ab - (-1)^{pa pb} ba."""
    ab = matmul(a, b)
    ba = matmul(b, a)
    return ab + ba if (pa and pb) else ab - ba


class LocalRep:
    """Generator images on one tensor factor, any dimension.

    The two derived bracket images are cached at construction so that
    the coproduct recursion can evaluate its correction terms locally.
    """

    def __init__(self, fld, x, images: dict):
        self.field = fld
        self.x = x
        self.images = dict(images)
        self.dim = self.images["s"].shape[0]
        self.images["[E0,F2]"] = super_bracket(
            fld, self.images["E0"], self.images["F2"], parity(0), parity(2))
        self.images["[E2,F0]"] = super_bracket(
            fld, self.images["E2"], self.images["F0"], parity(2), parity(0))

    def image(self, tag: str) -> np.ndarray:
        return self.images[tag]


def vector_rep(fld, x) -> LocalRep:
    """The four dimensional representation with deformation parameter x."""
    q = fld.q
    images = {}
    s = fld.zeros((4, 4))
    for j in range(1, 5):
        s[j - 1, j - 1] = fld.from_int((-1) ** theta(j))
    images["s"] = s
    for i in range(4):
        k = fld.zeros((4, 4))
        kinv = fld.zeros((4, 4))
        for j in range(1, 5):
            e = weight_pairing(i, j)
            k[j - 1, j - 1] = fld.q_power(e)
            kinv[j - 1, j - 1] = fld.q_power(-e)
        images[f"K{i}"] = k
        images[f"Kinv{i}"] = kinv
    images["E0"] = matrix_unit(fld, 4, 1)
    images["E1"] = matrix_unit(fld, 1, 2)
    images["E2"] = matrix_unit(fld, 2, 3) + scaled(matrix_unit(fld, 4, 1), x)
    images["E3"] = matrix_unit(fld, 3, 4)
    images["F0"] = (-matrix_unit(fld, 1, 4)
                    - scaled(matrix_unit(fld, 3, 2), x / q))
    images["F1"] = matrix_unit(fld, 2, 1)
    images["F2"] = matrix_unit(fld, 3, 2)
    images["F3"] = -matrix_unit(fld, 4, 3)
    return LocalRep(fld, x, images)


def spectral_twist(rep: LocalRep, u) -> LocalRep:
    """Rescale the affine generators: E0 by 1/u, F0 by u."""
    fld = rep.field
    if (u.is_zero if fld.backend == "exact" else u == 0):
        raise ValueError("twist parameter must be nonzero")
    images = {t: rep.images[t] for t in _ALL_TAGS}
    images["E0"] = scaled(images["E0"], fld.one / u)
    images["F0"] = scaled(images["F0"], u)
    return LocalRep(fld, rep.x, images)


def coproduct_image(tag: str, reps) -> np.ndarray:
    """Iterated coproduct of a generator, evaluated on local factors.

    The first tensor slot is evaluated in reps[0]; the remaining slot is
    evaluated recursively.  Bracket tags recurse as operator brackets,
    which is legitimate because the coproduct is an algebra map.
    """
    if len(reps) == 1:
        return reps[0].image(tag)
    head, rest = reps[0], list(reps[1:])
    fld = head.field
    rest_dim = math.prod(r.dim for r in rest)
    if tag == "s" or tag.startswith("K"):
        return kron(head.image(tag), coproduct_image(tag, rest))
    if tag.startswith("E"):
        i = int(tag[1])
        out = kron(head.image(tag), fld.eye(rest_dim))
        grouplike = head.image(f"K{i}")
        if parity(i):
            grouplike = matmul(grouplike, head.image("s"))
        out = out + kron(grouplike, coproduct_image(tag, rest))
        if i == 0:
            coeff = fld.q - fld.one / fld.q
            first = matmul(head.image("s"), head.image("[E0,F2]"))
            out = out + kron(scaled(first, coeff), coproduct_image("E2", rest))
        return out
    if tag.startswith("F"):
        i = int(tag[1])
        out = kron(head.image(tag), coproduct_image(f"Kinv{i}", rest))
        grouplike = head.image("s") if parity(i) else fld.eye(head.dim)
        out = out + kron(grouplike, coproduct_image(tag, rest))
        if i == 0:
            coeff = fld.q - fld.one / fld.q
            out = out - kron(scaled(head.image("F2"), coeff),
                             coproduct_image("[E2,F0]", rest))
        return out
    if tag == "[E2,F0]":
        return super_bracket(fld, coproduct_image("E2", reps),
                             coproduct_image("F0", reps),
                             parity(2), parity(0))
    if tag == "[E0,F2]":
        return super_bracket(fld, coproduct_image("E0", reps),
                             coproduct_image("F2", reps),
                             parity(0), parity(2))
    raise KeyError(f"unknown generator tag {tag!r}")


class ProductRep:
    """Representation on a tensor product, images computed on demand."""

    def __init__(self, reps):
        self.reps = list(reps)
        self.field = self.reps[0].field
        self.dim = math.prod(r.dim for r in self.reps)
        self._cache = {}

    def image(self, tag: str) -> np.ndarray:
        if tag not in self._cache:
            self._cache[tag] = coproduct_image(tag, self.reps)
        return self._cache[tag]


def tuple_rep(fld, a, x) -> ProductRep:
    """Local factors at x, qx, ... twisted by the tuple a, coproduct-glued."""
    if not a:
        raise ValueError("twist tuple must be nonempty")
    reps = [
        spectral_twist(vector_rep(fld, fld.q_power(k) * x), a[k])
        for k in range(len(a))
    ]
    return ProductRep(reps)


# ---------------------------------------------------------------------------
# defining relations

def check_relations(rep, tol: float = 1e-10) -> CheckReport:
    """Verify every defining relation on the given representation.

    Centrality is checked in the strong form: the two central elements
    must commute with all thirteen generator images and equal a scalar
    multiple of the identity; the scalars are recorded in the report.
    Exact reports carry details.max_terms, the largest term count among
    the compared entries.
    """
    fld = rep.field
    exact = fld.backend == "exact"
    eye = fld.eye(rep.dim)
    worst = 0.0
    terms = 0
    failed = []

    def note(name, lhs, rhs, operands):
        nonlocal worst, terms
        if exact:
            terms = max(terms, max_term_count(lhs, rhs))
        r = residual(lhs - rhs, operands)
        if not passes(r, exact, tol):
            failed.append(name)
        worst = max(worst, r)

    s = rep.image("s")
    note("s^2=1", matmul(s, s), eye, [s, s])
    qdiff = fld.q - fld.one / fld.q
    for i in range(4):
        k, kinv = rep.image(f"K{i}"), rep.image(f"Kinv{i}")
        e, f = rep.image(f"E{i}"), rep.image(f"F{i}")
        note(f"K{i} K{i}^-1=1", matmul(k, kinv), eye, [k, kinv])
        note(f"s K{i} s=K{i}", matmul(matmul(s, k), s), k, [s, k, s])
        sgn = fld.from_int((-1) ** parity(i))
        note(f"s E{i} s", matmul(matmul(s, e), s), scaled(e, sgn), [s, e, s])
        note(f"s F{i} s", matmul(matmul(s, f), s), scaled(f, sgn), [s, f, s])
        for j in range(4):
            kj = rep.image(f"K{j}")
            if j > i:
                note(f"K{i} K{j} commute", matmul(k, kj), matmul(kj, k),
                     [k, kj])
            ej, fj = rep.image(f"E{j}"), rep.image(f"F{j}")
            pair = root_pairing(i, j)
            note(f"K{i} E{j} K{i}^-1",
                 matmul(matmul(k, ej), kinv), scaled(ej, fld.q_power(pair)),
                 [k, ej, kinv])
            note(f"K{i} F{j} K{i}^-1",
                 matmul(matmul(k, fj), kinv), scaled(fj, fld.q_power(-pair)),
                 [k, fj, kinv])
            if (i, j) in ((2, 0), (0, 2)):
                continue
            br = super_bracket(fld, ej, f, parity(j), parity(i))
            rhs = scaled(kj - rep.image(f"Kinv{j}"), fld.one / qdiff) \
                if i == j else fld.zeros((rep.dim, rep.dim))
            note(f"[E{j},F{i}]", br, rhs, [ej, f])

    central_scalars = []
    for name, kf, ea, fb in (("K2[E2,F0]", "K2", "E2", "F0"),
                             ("K2^-1[E0,F2]", "Kinv2", "E0", "F2")):
        c = matmul(rep.image(kf), rep.image(f"[{ea},{fb}]"))
        scalar = c[0, 0]
        central_scalars.append(scalar_to_json(scalar))
        # normalize against the factors that built c: the central image
        # may be an algebraic zero, so |c| itself is no scale
        built_from = [rep.image(kf), rep.image(ea), rep.image(fb)]
        note(f"{name} scalar", c, scaled(eye, scalar),
             built_from if not exact else [])
        for g in GENERATORS:
            gi = rep.image(g)
            note(f"{name} commutes with {g}", matmul(c, gi), matmul(gi, c),
                 built_from + [gi] if not exact else [])

    details = {"central_scalars": central_scalars, "failed": failed}
    if exact:
        details["max_terms"] = terms
    return CheckReport(
        name="relations", residual=worst, passed=passes(worst, exact, tol),
        exact=exact, details=details,
    )


# ---------------------------------------------------------------------------
# the tensor-square submodule split

_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def _flat(i: int, j: int) -> int:
    return 4 * (i - 1) + (j - 1)


def tensor_square_bases(fld, x, y):
    """Bases of the two candidate submodules of V_x (x) V_y.

    The first space carries the correction term mixing the (1,2) weight
    sector; its coefficients use both x and y (callers specialize
    y = qx when they want the split to close up).
    """
    q = fld.q
    v1 = fld.zeros((16, 8))
    v1[_flat(3, 3), 0] = fld.one
    v1[_flat(4, 4), 1] = fld.one
    for col, (i, j) in enumerate(_PAIRS, start=2):
        sgn = fld.from_int((-1) ** (theta(i) * theta(j)))
        v1[_flat(i, j), col] = fld.one
        v1[_flat(j, i), col] = -sgn * q
        if (i, j) == (1, 2):
            v1[_flat(3, 4), col] = q * q * y
            v1[_flat(4, 3), col] = x
    v2 = fld.zeros((16, 8))
    v2[_flat(1, 1), 0] = fld.one
    v2[_flat(2, 2), 1] = fld.one
    for col, (i, j) in enumerate(_PAIRS, start=2):
        sgn = fld.from_int((-1) ** (theta(i) * theta(j)))
        v2[_flat(i, j), col] = fld.one
        v2[_flat(j, i), col] = sgn / q
    return SubspaceBasis(v1), SubspaceBasis(v2)


def check_tensor_square(fld, x, y, tol: float = 1e-10) -> CheckReport:
    """Invariance of the two candidate submodules under the finite part.

    Both spans are invariant precisely at y = qx; the report records the
    worst invariance residual of each span (restrict_action's, relative
    to max(||M B||, ||B||); inf when an exact solve is inconsistent) and
    the joint rank, decided at the rank threshold of matrix_rank rather
    than at tol.  Exact reports carry details.max_terms, the largest
    term count among the generator actions and their restrictions.
    """
    reps = [vector_rep(fld, x), vector_rep(fld, y)]
    basis1, basis2 = tensor_square_bases(fld, x, y)
    exact = fld.backend == "exact"
    res = [0.0, 0.0]
    terms = 0
    for tag in FINITE_GENERATORS:
        m = coproduct_image(tag, reps)
        for k, basis in enumerate((basis1, basis2)):
            action = matmul(m, basis.columns)
            try:
                s, r = restrict_action(basis, action, tol=math.inf)
            except ValueError:
                # the exact solve is inconsistent: not invariant
                s, r = action, math.inf
            res[k] = max(res[k], r)
            if exact:
                terms = max(terms, max_term_count(action, s))
    res1, res2 = res
    joint = np.concatenate([basis1.columns, basis2.columns], axis=1)
    rank = matrix_rank(joint)
    passed = (passes(res1, exact, tol) and passes(res2, exact, tol)
              and rank == 16)
    details = {"v1_residual": res1, "v2_residual": res2,
               "joint_rank": int(rank)}
    if exact:
        details["max_terms"] = terms
    return CheckReport(
        name="tensor-square-split", residual=max(res1, res2), passed=passed,
        exact=exact, details=details,
    )


def tensor_square_restrictions(fld, x):
    """Finite-part generator images restricted to the two submodules
    at the closing point y = qx.  Used by the irreducibility probes."""
    y = fld.q * x
    reps = [vector_rep(fld, x), vector_rep(fld, y)]
    basis1, basis2 = tensor_square_bases(fld, x, y)
    fam1, fam2 = [], []
    for tag in FINITE_GENERATORS:
        m = Operator(coproduct_image(tag, reps), (4, 4))
        fam1.append(restrict(m, basis1))
        fam2.append(restrict(m, basis2))
    return fam1, fam2


# ---------------------------------------------------------------------------
# classical (undeformed) limit

@dataclass(frozen=True)
class ClassicalLimit:
    """Chevalley generator images at the degeneration point."""

    images: dict
    scaling_residual: float


def classical_limit(u: complex) -> ClassicalLimit:
    """Evaluate the twisted representation at q = 1, x = 0.

    The E and F images come from direct substitution; the H images are
    the analytic limit of (K - K^-1)/(q - q^-1), which is the diagonal
    matrix of weight pairings.  The returned residual measures the two
    affine-generator scaling laws against the untwisted images.
    """
    u = complex(u)
    fld = NumericField(1.0)
    rep_u = spectral_twist(vector_rep(fld, 0j), u)
    rep_1 = vector_rep(fld, 0j)
    images = {}
    for i in range(4):
        images[f"E{i}"] = rep_u.image(f"E{i}")
        images[f"F{i}"] = rep_u.image(f"F{i}")
        h = np.zeros((4, 4), dtype=np.complex128)
        for j in range(1, 5):
            h[j - 1, j - 1] = weight_pairing(i, j)
        images[f"H{i}"] = h
    res = max(
        residual(images["F0"] - u * rep_1.image("F0"), [rep_1.image("F0")]),
        residual(images["E0"] - rep_1.image("E0") / u, [rep_1.image("E0")]),
    )
    return ClassicalLimit(images=images, scaling_residual=res)
