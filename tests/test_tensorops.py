import numpy as np
import pytest

from xrmatrix import (Operator, RationalFunction, apply_at_legs,
                      column_space, commutant_dimension, exact_inverse,
                      exact_solve, matmul, matrix_unit, restrict,
                      restrict_action, vector_rmatrix)
from xrmatrix import tensorops
from xrmatrix.tensorops import (SubspaceBasis, exact_all_zero,
                                product_weights)


def _flat(i, j):
    return 4 * (i - 1) + (j - 1)


def test_kron_of_identities(nf):
    two = nf.eye(2)
    assert np.array_equal(np.kron(two, two), np.eye(4))


def test_kron_elementary_action(nf):
    # the big-endian convention: E_23 (x) E_41 takes e_3 (x) e_1 to
    # e_2 (x) e_4
    mat = np.kron(matrix_unit(nf, 2, 3), matrix_unit(nf, 4, 1))
    vec = np.zeros(16, dtype=complex)
    vec[_flat(3, 1)] = 1.0
    out = mat @ vec
    expected = np.zeros(16, dtype=complex)
    expected[_flat(2, 4)] = 1.0
    assert np.allclose(out, expected)


def test_kron_multiplication_law():
    rng = np.random.default_rng(0)
    a, b, c, d = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                  for _ in range(4))
    lhs = np.kron(a, b) @ np.kron(c, d)
    rhs = np.kron(a @ c, b @ d)
    assert np.allclose(lhs, rhs)


def test_kron_associative_entries(nf, ef):
    # small-integer entries keep float products exact, so entrywise
    # equality (not mere closeness) is the right assertion
    rng = np.random.default_rng(1)
    mats = [rng.integers(-4, 5, size=(2, 2)).astype(complex)
            for _ in range(3)]
    left = np.kron(np.kron(mats[0], mats[1]), mats[2])
    right = np.kron(mats[0], np.kron(mats[1], mats[2]))
    assert np.array_equal(left, right)
    # exact backend: associativity of the scalar ring itself
    a = np.array([[ef.q, ef.one], [ef.zero, ef.x]], dtype=object)
    lhs = np.kron(np.kron(a, a), a)
    rhs = np.kron(a, np.kron(a, a))
    assert all((p - q_).is_zero for p, q_ in zip(lhs.flat, rhs.flat))


def _kron_embedded(mat, pos, legs, eye):
    """Reference: kron(I_pre, mat, I_post) as an explicit dense matrix."""
    pre = int(np.prod(legs[: pos - 1]))
    post = int(np.prod(legs[pos + 1:]))
    return np.kron(np.kron(eye(pre), mat), eye(post))


def test_embed_identity(nf):
    block = np.random.default_rng(1).normal(size=(64, 3)) + 0j
    out = apply_at_legs(Operator(nf.eye(16), (4, 4)), 1, (4, 4, 4), block)
    assert np.array_equal(out, block)


def test_embed_at_every_leg_is_kron(nf, ef):
    rng = np.random.default_rng(2)
    for nlegs in (3, 4):
        legs = (4,) * nlegs
        block = rng.normal(size=(4 ** nlegs, 3)) + 1j * rng.normal(
            size=(4 ** nlegs, 3))
        r = Operator(rng.normal(size=(16, 16)) + 1j * rng.normal(
            size=(16, 16)), (4, 4))
        for pos in range(1, nlegs):
            ref = _kron_embedded(r.mat, pos, legs, np.eye) @ block
            assert np.allclose(apply_at_legs(r, pos, legs, block), ref)
    # exact backend: small polynomial entries, entrywise equality
    legs = (2, 2, 2)
    rx = ef.zeros((4, 4))
    rx[0, 0], rx[1, 2], rx[2, 1], rx[3, 3] = ef.q, ef.x, ef.one, ef.u
    rx[0, 3] = ef.q * ef.x
    r = Operator(rx, (2, 2))
    block = ef.zeros((8, 2))
    for i in range(8):
        block[i, 0] = ef.from_int(i + 1)
        block[i, 1] = ef.v * ef.from_int(i - 3)
    for pos in (1, 2):
        ref = _kron_embedded(rx, pos, legs, ef.eye) @ block
        out = apply_at_legs(r, pos, legs, block)
        assert out.dtype == object
        assert exact_all_zero(out - ref)


def test_embeddings_compose_as_square(nf):
    rng = np.random.default_rng(3)
    r = Operator(rng.normal(size=(16, 16)) + 0j, (4, 4))
    block = rng.normal(size=(64, 5)) + 0j
    legs = (4, 4, 4)
    for pos in (1, 2):
        twice = apply_at_legs(r, pos, legs, apply_at_legs(r, pos, legs, block))
        assert np.allclose(twice, apply_at_legs(r @ r, pos, legs, block))


def test_embed_dimension_mismatch(nf):
    r = Operator(np.eye(6, dtype=complex), (2, 3))
    block = np.eye(64, dtype=complex)
    with pytest.raises(ValueError, match="do not match"):
        apply_at_legs(r, 1, (4, 4, 4), block)
    square = Operator(nf.eye(16), (4, 4))
    with pytest.raises(ValueError, match="out of range"):
        apply_at_legs(square, 3, (4, 4, 4), block)
    with pytest.raises(ValueError, match="rows"):
        apply_at_legs(square, 1, (4, 4, 4), block[:16])


def test_operator_weights_must_match_legs():
    w = ((0,), (1,), (1,))
    assert Operator(np.eye(9), (3, 3), (w, w)).scaled(2.0).weights == (w, w)
    with pytest.raises(ValueError, match="weights do not match"):
        Operator(np.eye(9), (3, 3), (w,))
    with pytest.raises(ValueError, match="weights do not match"):
        Operator(np.eye(9), (3, 3), (w, w[:2]))


def test_product_weights_are_flat_sums():
    a = ((1, 0), (0, 2))
    b = ((5, 5), (0, 0), (-1, 1))
    got = product_weights((a, b))
    assert got.tolist() == [[i + k, j + l] for i, j in a for k, l in b]
    # an ungraded leg, one zero column, broadcasts against a graded one
    assert product_weights((np.zeros((2, 1), int), b)).tolist() == \
        [list(w) for w in b] * 2


def test_column_space_dimensions(nf):
    assert column_space(np.eye(4, dtype=complex)).dim == 4
    assert column_space(np.zeros((4, 4), dtype=complex)).dim == 0
    rng = np.random.default_rng(4)
    cols = rng.normal(size=(6, 2)) + 0j
    rank_deficient = np.concatenate([cols, cols @ np.ones((2, 3))], axis=1)
    basis = column_space(rank_deficient)
    assert basis.dim == 2
    again = column_space(basis.columns)
    assert again.dim == basis.dim


def test_restrict_identity_and_scalar(nf):
    rng = np.random.default_rng(5)
    cols = np.linalg.qr(rng.normal(size=(6, 3)))[0] + 0j
    basis = SubspaceBasis(cols)
    eye = Operator(np.eye(6, dtype=complex), (6,))
    assert np.allclose(restrict(eye, basis).mat, np.eye(3))
    assert np.allclose(restrict(eye.scaled(2.5j), basis).mat, 2.5j * np.eye(3))


def test_restrict_block_diagonal(nf):
    rng = np.random.default_rng(6)
    block = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    other = rng.normal(size=(2, 2)) + 0j
    mat = np.zeros((5, 5), dtype=complex)
    mat[:3, :3] = block
    mat[3:, 3:] = other
    basis = SubspaceBasis(np.eye(5, dtype=complex)[:, :3])
    assert np.allclose(restrict(Operator(mat, (5,)), basis).mat, block)


def test_restrict_non_invariant_names_column(nf):
    shift = np.roll(np.eye(4, dtype=complex), 1, axis=0)
    basis = SubspaceBasis(np.eye(4, dtype=complex)[:, :2])
    with pytest.raises(ValueError, match="column"):
        restrict(Operator(shift, (4,)), basis)


def test_restrict_consistency_residual(nf):
    rng = np.random.default_rng(7)
    small = rng.normal(size=(3, 3)) + 0j
    cols = np.linalg.qr(rng.normal(size=(8, 3)))[0] + 0j
    mat = cols @ small @ cols.conj().T + 0.5 * (np.eye(8) - cols @ cols.conj().T)
    op = Operator(mat + 0j, (8,))
    basis = SubspaceBasis(cols)
    out = restrict(op, basis)
    assert np.linalg.norm(mat @ cols - cols @ out.mat) < 1e-9


def test_restrict_action_row_count_must_match(ef):
    basis = SubspaceBasis(np.eye(4, dtype=complex)[:, :2])
    with pytest.raises(ValueError, match="action has 8 rows, the basis 4"):
        restrict_action(basis, np.zeros((8, 1), dtype=complex))
    # an extra row outside the span must not be dropped
    a = ef.zeros((2, 1))
    a[0, 0] = ef.one
    y = ef.zeros((3, 1))
    y[0, 0], y[2, 0] = ef.q, ef.one
    with pytest.raises(ValueError, match="action has 3 rows, the basis 2"):
        restrict_action(SubspaceBasis(a), y)


def test_exact_restriction_outside_span_raises(ef):
    b = ef.zeros((3, 2))
    b[0, 0], b[1, 0], b[1, 1] = ef.q, ef.one, ef.x
    s0 = ef.zeros((2, 3))
    s0[0, 0], s0[1, 0], s0[0, 2] = ef.u, ef.from_int(3), ef.q * ef.v
    s0[1, 1] = ef.x - ef.one
    action = np.dot(b, s0)
    got, rel = restrict_action(SubspaceBasis(b), action)
    assert rel == 0.0
    assert all(a_ == b_ for a_, b_ in zip(got.flat, s0.flat))
    action[2, 1] = ef.one               # e_3 is outside span(b)
    with pytest.raises(ValueError, match="outside the span"):
        restrict_action(SubspaceBasis(b), action)


def test_commutant_dimensions(nf):
    eye = np.eye(4, dtype=complex)
    assert commutant_dimension([eye]) == 16
    assert commutant_dimension([np.diag([1.0 + 0j, 2.0])]) == 2


def test_exact_solve_and_inverse(ef):
    a = ef.zeros((2, 2))
    a[0, 0] = ef.q
    a[0, 1] = ef.one
    a[1, 1] = ef.q + ef.one
    inv = exact_inverse(a)
    prod = np.dot(a, inv)
    assert prod[0, 0] == ef.one and prod[1, 1] == ef.one
    assert prod[0, 1].is_zero and prod[1, 0].is_zero


def test_exact_solve_inconsistent_raises(ef):
    a = ef.zeros((3, 1))
    a[0, 0] = ef.one
    y = ef.zeros((3, 1))
    y[1, 0] = ef.q
    with pytest.raises(ValueError, match="outside the span"):
        exact_solve(a, y)


def test_exact_solve_row_count_must_match(ef):
    # y's third row lies outside the span of a: reading only the first
    # two rows would return [[q]]
    a = ef.zeros((2, 1))
    a[0, 0] = ef.one
    y = ef.zeros((3, 1))
    y[0, 0], y[2, 0] = ef.q, ef.one
    with pytest.raises(ValueError,
                       match="right-hand side has 3 rows, the matrix 2"):
        exact_solve(a, y)
    with pytest.raises(ValueError, match="has 1 rows, the matrix 2"):
        exact_solve(a, y[:1])


def test_exact_column_space(ef):
    m = ef.zeros((3, 3))
    m[0, 0] = ef.q
    m[1, 0] = ef.one
    m[0, 1] = ef.q * ef.q
    m[1, 1] = ef.q          # column 1 = q * column 0
    m[2, 2] = ef.x
    basis = column_space(m)
    assert basis.dim == 2


def test_exact_restrict(ef):
    mat = ef.zeros((3, 3))
    mat[0, 0] = ef.q
    mat[1, 1] = ef.q
    mat[2, 2] = ef.x
    basis = SubspaceBasis(ef.eye(3)[:, :2])
    out = restrict(Operator(mat, (3,)), basis)
    assert out.mat[0, 0] == ef.q
    assert out.mat[0, 1].is_zero
    delta = np.dot(mat, basis.columns) - np.dot(basis.columns, out.mat)
    assert exact_all_zero(delta)


# ---------------------------------------------------------------------------
# matmul: the one product of both backends

def _terms(mat):
    """Each entry's num and den term dicts, in flat order."""
    return [(s.num.terms, s.den.terms) for s in mat.flat]


def _assert_same_terms(out, ref):
    assert out.dtype == object and out.shape == ref.shape
    assert _terms(out) == _terms(ref)


def _sparse_exact(ef, rng, shape, density=0.3):
    """Random exact entries, mostly zero; x and -x let sums cancel."""
    gens = [ef.q, ef.x, -ef.x, ef.u - ef.v, ef.one / (ef.q - ef.one),
            ef.q * ef.w + ef.one, ef.from_int(-2)]
    out = ef.zeros(shape)
    for idx in np.ndindex(*shape):
        if rng.random() < density:
            out[idx] = gens[rng.integers(len(gens))] * ef.from_int(
                int(rng.integers(1, 4)))
    return out


def _object_matmul_reference(monkeypatch, fn, *args):
    """fn evaluated with the object np.matmul in place of matmul."""
    with monkeypatch.context() as m:
        m.setattr(tensorops, "matmul", np.matmul)
        return fn(*args)


def test_exact_matmul_is_object_matmul_term_for_term(ef):
    rng = np.random.default_rng(5)
    for ashape, bshape in (((3, 4), (4, 5)), ((5, 5), (5, 5)),
                           ((2, 1, 3, 4), (5, 4, 2)), ((4, 6), (3, 6, 2))):
        for density in (0.2, 0.6, 1.0):
            a = _sparse_exact(ef, rng, ashape, density)
            b = _sparse_exact(ef, rng, bshape, density)
            _assert_same_terms(matmul(a, b), np.matmul(a, b))
    with pytest.raises(ValueError, match="inner dimensions"):
        matmul(ef.zeros((2, 3)), ef.zeros((2, 3)))


def test_exact_matmul_edge_cases(ef):
    rng = np.random.default_rng(6)
    a = _sparse_exact(ef, rng, (6, 6), 0.5)
    zero = ef.zeros((6, 4))
    out = matmul(a, zero)
    _assert_same_terms(out, np.matmul(a, zero))
    assert exact_all_zero(out)
    # a zero column of the left factor drops that inner index entirely
    a[:, 2] = ef.zero
    b = _sparse_exact(ef, rng, (6, 4), 0.8)
    _assert_same_terms(matmul(a, b), np.matmul(a, b))


def test_exact_apply_at_legs_is_object_matmul_term_for_term(ef, monkeypatch):
    rng = np.random.default_rng(7)
    r = vector_rmatrix(ef, ef.u, ef.v, ef.x)
    for nlegs in (3, 4):
        legs = (4,) * nlegs
        block = _sparse_exact(ef, rng, (4 ** nlegs, 3), 0.3)
        for pos in range(1, nlegs):
            ref = _object_matmul_reference(monkeypatch, apply_at_legs, r, pos,
                                           legs, block)
            _assert_same_terms(apply_at_legs(r, pos, legs, block), ref)
    # an all-zero block, and an operator with a zero column
    legs = (4, 4, 4)
    zero = ef.zeros((64, 5))
    out = apply_at_legs(r, 2, legs, zero)
    assert exact_all_zero(out)
    _assert_same_terms(out, _object_matmul_reference(
        monkeypatch, apply_at_legs, r, 2, legs, zero))
    holed = r.mat.copy()
    holed[:, 1] = ef.zero
    op = Operator(holed, (4, 4))
    block = _sparse_exact(ef, rng, (64, 5), 0.5)
    _assert_same_terms(apply_at_legs(op, 1, legs, block),
                       _object_matmul_reference(monkeypatch, apply_at_legs,
                                                op, 1, legs, block))


def test_exact_stage_block_is_object_matmul_term_for_term(ef, monkeypatch):
    # a two-leg operator on legs (4, d), applied to a state with more
    # rows than columns
    rng = np.random.default_rng(8)
    d = 3
    stage = Operator(_sparse_exact(ef, rng, (4 * d, 4 * d), 0.4), (4, d))
    legs = (4, 4, d)
    state = _sparse_exact(ef, rng, (4 * 4 * d, 5), 0.4)
    _assert_same_terms(apply_at_legs(stage, 2, legs, state),
                       _object_matmul_reference(monkeypatch, apply_at_legs,
                                                stage, 2, legs, state))


def test_exact_apply_at_legs_forms_no_zero_product(ef, monkeypatch):
    r = vector_rmatrix(ef, ef.u, ef.v, ef.x)
    block = _sparse_exact(ef, np.random.default_rng(9), (64, 4), 0.3)
    counts = {"all": 0, "zero": 0}
    mul = RationalFunction.__mul__

    def counted(a, b):
        counts["all"] += 1
        counts["zero"] += a.is_zero or b.is_zero
        return mul(a, b)

    monkeypatch.setattr(RationalFunction, "__mul__", counted)
    apply_at_legs(r, 2, (4, 4, 4), block)
    assert counts["all"] > 0
    assert counts["zero"] == 0


def test_kron_is_np_kron(ef):
    rng = np.random.default_rng(12)
    shapes = (((2, 3), (4, 1)), ((4, 4), (4, 4)), ((1, 5), (3, 2)),
              ((16, 4), (4, 4)))
    for ashape, bshape in shapes:
        a = rng.normal(size=ashape) + 1j * rng.normal(size=ashape)
        b = rng.normal(size=bshape) + 1j * rng.normal(size=bshape)
        out = tensorops.kron(a, b)
        assert out.dtype == np.complex128
        assert np.array_equal(out, np.kron(a, b))
        for density in (0.3, 1.0):
            a = _sparse_exact(ef, rng, ashape, density)
            b = _sparse_exact(ef, rng, bshape, density)
            # a zero row, a zero column, and entries that cancel to a zero
            # other than the shared exact zero
            a[0, :] = ef.zero
            b[:, -1] = ef.zero
            a[-1, -1] = ef.x + (-ef.x)
            _assert_same_terms(tensorops.kron(a, b), np.kron(a, b))


def test_exact_kron_forms_no_zero_product(ef, monkeypatch):
    rng = np.random.default_rng(13)
    a = _sparse_exact(ef, rng, (4, 4), 0.4)
    a[1, 2] = ef.x + (-ef.x)
    b = _sparse_exact(ef, rng, (6, 3), 0.4)
    counts = {"all": 0, "zero": 0}
    mul = RationalFunction.__mul__

    def counted(x, y):
        counts["all"] += 1
        counts["zero"] += x.is_zero or y.is_zero
        return mul(x, y)

    monkeypatch.setattr(RationalFunction, "__mul__", counted)
    tensorops.kron(a, b)
    nonzero = sum(not s.is_zero for s in a.flat)
    assert counts == {"all": nonzero * sum(not s.is_zero for s in b.flat),
                      "zero": 0}


def test_numeric_matmul_is_np_matmul_bitwise(nf, monkeypatch):
    rng = np.random.default_rng(10)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for ashape, bshape in (((3, 4), (4, 5)), ((2, 1, 3, 4), (5, 4, 2)),
                           ((16, 16), (4, 16, 12))):
        a, b = cplx(*ashape), cplx(*bshape)
        out = matmul(a, b)
        assert out.dtype == np.complex128
        assert np.array_equal(out, np.matmul(a, b))
    r = Operator(cplx(16, 16), (4, 4))
    block = cplx(64, 7)
    for pos in (1, 2):
        ref = _object_matmul_reference(monkeypatch, apply_at_legs, r, pos,
                                       (4, 4, 4), block)
        assert np.array_equal(apply_at_legs(r, pos, (4, 4, 4), block), ref)


def test_changing_one_operator_entry_changes_the_product(ef):
    r = vector_rmatrix(ef, ef.u, ef.v, ef.x)
    block = _sparse_exact(ef, np.random.default_rng(11), (64, 4), 0.5)
    out = apply_at_legs(r, 1, (4, 4, 4), block)
    bent = r.mat.copy()
    bent[5, 5] = bent[5, 5] + ef.one
    changed = apply_at_legs(Operator(bent, (4, 4)), 1, (4, 4, 4), block)
    assert not exact_all_zero(changed - out)
    assert not exact_all_zero(matmul(bent, r.mat) - matmul(r.mat, r.mat))
