import numpy as np
import pytest

from xrmatrix import (NumericField, Operator, check_dynamical_ybe,
                      check_forms_equal, check_fused_ybe, check_intertwining,
                      check_twisted_ybe, fused_builder, sample_params,
                      tensor_projectors, tuple_rep, vector_builder,
                      vector_rmatrix, vector_rmatrix_spectral, ybe_residual)
from xrmatrix.cartan import theta
from xrmatrix.rmatrix import _sector_sides, twisted_ybe_factors
from xrmatrix.scalars import RationalFunction
from xrmatrix.tensorops import exact_all_zero, passes, product_weights


def _flat(i, j):
    return 4 * (i - 1) + (j - 1)


def _kron_sides(mats, eye):
    """Reference: both YBE sides as products of explicit kron embeddings,
    grouped as A (B C) and D (E F)."""
    a, b, c, d, e, f = (m.mat for m in mats)
    at12 = lambda m: np.kron(m, eye)
    at23 = lambda m: np.kron(eye, m)
    return at12(a) @ (at23(b) @ at12(c)), at23(d) @ (at12(e) @ at23(f))


def _assembled_sides(mats, zeros):
    """The sector sides placed in two dense d^3 x d^3 arrays, after
    checking that every basis state lies in exactly one sector."""
    n = mats[0].dim * mats[1].legs[1]
    lhs, rhs = zeros((n, n)), zeros((n, n))
    seen = []
    for states, lhs_s, rhs_s in _sector_sides(mats):
        # a stack of equal-size sectors, their states one after another
        for sector, lhs_k, rhs_k in zip(states.reshape(len(lhs_s), -1),
                                        lhs_s, rhs_s):
            lhs[np.ix_(sector, sector)] = lhs_k
            rhs[np.ix_(sector, sector)] = rhs_k
        seen += states.tolist()
    assert sorted(seen) == list(range(n))
    return lhs, rhs


def _terms(mat):
    """Each entry's num and den term dicts, in flat order."""
    return [(s.num.terms, s.den.terms) for s in mat.flat]


def _ordered_terms(mat):
    """Each entry's num and den terms as lists, in insertion order."""
    return [[list(t.items()) for t in pair] for pair in _terms(mat)]


def _off_sector_entry(op):
    """The first (row, column) of op that changes the total weight."""
    pair = product_weights(op.weights)
    off = np.argwhere((pair[:, None] != pair[None]).any(axis=-1))
    return tuple(off[0])


def _entry_loop(fld, u, v, x):
    """Reference: the vector R-matrix transcribed entry by entry, each
    entry computed where it is placed."""
    q, q2, one = fld.q, fld.q_power(2), fld.one
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
            if i != j:
                sgn = fld.from_int((-1) ** (theta(i) * theta(j)))
                r[_flat(i, j), _flat(j, i)] = -q * (u - v) * sgn
    xc = x * (q2 - one) * (u - v)
    r[_flat(3, 4), _flat(1, 2)] = r[_flat(3, 4), _flat(1, 2)] + xc * q
    r[_flat(3, 4), _flat(2, 1)] = r[_flat(3, 4), _flat(2, 1)] - xc * q2
    r[_flat(4, 3), _flat(1, 2)] = r[_flat(4, 3), _flat(1, 2)] - xc
    r[_flat(4, 3), _flat(2, 1)] = r[_flat(4, 3), _flat(2, 1)] + xc * q
    return r


def _bits(mat):
    """The bytes of a complex array: equal only if bitwise equal, signed
    zeros included."""
    return np.ascontiguousarray(mat).view(np.uint64).tobytes()


def _basis_vec(i, j):
    v = np.zeros(16, dtype=complex)
    v[_flat(i, j)] = 1.0
    return v


class TestProjectors:
    def test_complementary_idempotents(self, nf, ps):
        p1, p2 = tensor_projectors(nf, ps.x)
        assert np.allclose(p1.mat + p2.mat, np.eye(16))
        assert np.allclose(p1.mat @ p2.mat, np.zeros((16, 16)))
        assert np.allclose(p1.mat @ p1.mat, p1.mat)

    def test_images(self, nf, ps):
        p1, p2 = tensor_projectors(nf, ps.x)
        assert np.allclose(p1.mat @ _basis_vec(3, 3), _basis_vec(3, 3))
        assert np.allclose(p2.mat @ _basis_vec(1, 1), _basis_vec(1, 1))


class TestSpectralForm:
    def test_equal_arguments_collapse(self, nf, ps):
        r = vector_rmatrix_spectral(nf, ps.u, ps.u, ps.x)
        assert np.allclose(r.mat, ps.u * (nf.q ** 2 - 1) * np.eye(16))

    def test_eigenvalue_multiplicities(self, nf, ps):
        r = vector_rmatrix_spectral(nf, ps.u, ps.v, ps.x)
        eigs = np.linalg.eigvals(r.mat)
        lam1 = nf.q ** 2 * ps.u - ps.v
        lam2 = nf.q ** 2 * ps.v - ps.u
        assert sum(abs(eigs - lam1) < 1e-8) == 8
        assert sum(abs(eigs - lam2) < 1e-8) == 8

    def test_spectrum_independent_of_x(self, nf, ps):
        for x in (ps.x, 0j, 2j * abs(ps.x)):
            r = vector_rmatrix(nf, ps.u, ps.v, x)
            eigs = np.linalg.eigvals(r.mat)
            lam1 = nf.q ** 2 * ps.u - ps.v
            assert sum(abs(eigs - lam1) < 1e-8) == 8


class TestExplicitForm:
    def test_diagonal_coefficient(self, nf, ps):
        r = vector_rmatrix(nf, ps.u, ps.v, ps.x).mat
        assert r[_flat(1, 1), _flat(1, 1)] == pytest.approx(
            nf.q ** 2 * ps.v - ps.u)
        assert r[_flat(3, 3), _flat(3, 3)] == pytest.approx(
            nf.q ** 2 * ps.u - ps.v)

    def test_deformation_entry(self, nf, ps):
        # the -q^2 deformation term sends e2 (x) e1 to e3 (x) e4
        r = vector_rmatrix(nf, ps.u, ps.v, ps.x).mat
        coeff = ps.x * (nf.q ** 2 - 1) * (ps.u - ps.v)
        assert r[_flat(3, 4), _flat(2, 1)] == pytest.approx(-nf.q ** 2 * coeff)
        assert r[_flat(3, 4), _flat(1, 2)] == pytest.approx(nf.q * coeff)
        assert r[_flat(4, 3), _flat(1, 2)] == pytest.approx(-coeff)
        assert r[_flat(4, 3), _flat(2, 1)] == pytest.approx(nf.q * coeff)

    def test_no_sector_mixing_at_x_zero(self, nf, ps):
        r = vector_rmatrix(nf, ps.u, ps.v, 0j).mat
        for row in (_flat(3, 4), _flat(4, 3)):
            for col in (_flat(1, 2), _flat(2, 1)):
                assert r[row, col] == 0


class TestEntryTable:
    @pytest.mark.parametrize("seed", range(5))
    def test_numeric_is_the_entry_loop_bitwise(self, seed):
        ps = sample_params(seed)
        fld = NumericField(ps.q)
        for x in (ps.x, 0j, -0j, complex(0.0, -0.0)):
            for u, v in ((ps.u, ps.v), (ps.u, ps.u), (ps.w, ps.y)):
                assert _bits(vector_rmatrix(fld, u, v, x).mat) == _bits(
                    _entry_loop(fld, u, v, x)), (x, u, v)

    def test_exact_is_the_entry_loop_term_for_term(self, ef):
        for u, v, x in ((ef.u, ef.v, ef.x), (ef.v, ef.u, ef.q * ef.x),
                        (ef.from_int(2), ef.from_int(3), ef.x),
                        (ef.u, ef.w, ef.zero)):
            got = vector_rmatrix(ef, u, v, x).mat
            ref = _entry_loop(ef, u, v, x)
            # the same terms in the same insertion order
            assert _ordered_terms(got) == _ordered_terms(ref)

    def test_stacked_call_is_the_per_point_calls(self, nf, ps, ef):
        us, vs = [ps.u, ps.v, ps.w], [ps.v, ps.w, ps.u]
        xs = [[ps.x], [nf.q * ps.x]]
        stack = vector_rmatrix(nf, us, vs, xs)
        assert stack.shape == (2, 3, 16, 16)
        for i, x in enumerate((ps.x, nf.q * ps.x)):
            for j, (u, v) in enumerate(zip(us, vs)):
                assert _bits(stack[i, j]) == _bits(
                    vector_rmatrix(nf, u, v, x).mat)
        # one array parameter broadcasts against the scalar ones
        assert _bits(vector_rmatrix(nf, ps.u, ps.v, [ps.x])[0]) == _bits(
            vector_rmatrix(nf, ps.u, ps.v, ps.x).mat)
        stack = vector_rmatrix(ef, [ef.u, ef.v], ef.w, ef.x)
        assert stack.shape == (2, 16, 16) and stack.dtype == object
        for got, u in zip(stack, (ef.u, ef.v)):
            assert _terms(got) == _terms(vector_rmatrix(ef, u, ef.w, ef.x).mat)


class TestFormsAgree:
    def test_numeric_seeds(self):
        for seed in range(5):
            ps = sample_params(seed)
            fld = NumericField(ps.q)
            assert check_forms_equal(fld, ps.u, ps.v, ps.x).passed

    def test_specializations(self, nf, ps):
        assert check_forms_equal(nf, ps.u, ps.v, 0j).passed
        assert check_forms_equal(nf, ps.u, ps.u, ps.x).passed

    def test_exact(self, ef):
        report = check_forms_equal(ef, ef.u, ef.v, ef.x)
        assert report.passed and report.exact

    def test_exact_evaluates_to_numeric(self, ef):
        # the evaluation homomorphism carries the symbolic matrix onto
        # the numeric construction at every sampled parameter point
        from xrmatrix import evaluate_matrix

        symbolic = vector_rmatrix(ef, ef.u, ef.v, ef.x)
        for seed in range(20):
            ps = sample_params(seed)
            fld = NumericField(ps.q)
            numeric = vector_rmatrix(fld, ps.u, ps.v, ps.x).mat
            evaluated = evaluate_matrix(symbolic.mat, ps)
            assert np.linalg.norm(evaluated - numeric) <= \
                1e-9 * np.linalg.norm(numeric)


class TestIntertwining:
    def test_all_generators(self, nf, ps):
        r = vector_rmatrix(nf, ps.u, ps.v, ps.x)
        report = check_intertwining(nf, r, ps.u, ps.v, ps.x, tol=1e-10)
        assert report.passed

    def test_lowering_correction_path(self, nf, ps):
        # the F0 case exercises the coproduct correction term; its
        # residual alone must also clear the bar
        r = vector_rmatrix(nf, ps.u, ps.v, ps.x)
        rep_uv = tuple_rep(nf, (ps.u, ps.v), ps.x)
        rep_vu = tuple_rep(nf, (ps.v, ps.u), ps.x)
        a, b = rep_uv.image("F0"), rep_vu.image("F0")
        delta = r.mat @ a - b @ r.mat
        assert np.linalg.norm(delta) < 1e-10 * np.linalg.norm(r.mat)

    def test_degenerate_x_values(self, nf, ps):
        for x in (0j, 1j * abs(ps.x)):
            r = vector_rmatrix(nf, ps.u, ps.v, x)
            assert check_intertwining(nf, r, ps.u, ps.v, x, tol=1e-10).passed

    def test_identity_is_no_intertwiner(self, nf, ps):
        report = check_intertwining(nf, Operator(nf.eye(16), (4, 4)), ps.u,
                                    ps.v, ps.x, tol=1e-10)
        assert not report.passed
        # the twist only touches the affine pair, so the breakage shows
        # on E0 (the finite generators intertwine trivially)
        rep_uv = tuple_rep(nf, (ps.u, ps.v), ps.x)
        rep_vu = tuple_rep(nf, (ps.v, ps.u), ps.x)
        e0 = rep_uv.image("E0") - rep_vu.image("E0")
        assert np.linalg.norm(e0) > 1e-3
        assert np.linalg.norm(rep_uv.image("E1") - rep_vu.image("E1")) == 0


class TestVectorYBE:
    def test_inverse_pair_is_scalar(self, nf, ps):
        fwd = vector_rmatrix(nf, ps.u, ps.v, ps.x)
        back = vector_rmatrix(nf, ps.v, ps.u, ps.x)
        scalar = (nf.q ** 2 * ps.u - ps.v) * (nf.q ** 2 * ps.v - ps.u)
        assert np.allclose((back @ fwd).mat, scalar * np.eye(16))

    def test_invertible_at_generic_params(self, nf, ps):
        r = vector_rmatrix(nf, ps.u, ps.v, ps.x)
        assert abs(np.linalg.det(r.mat)) > 1e-12

    def test_twisted_ybe_holds(self, nf, ps):
        report = check_twisted_ybe(nf, vector_builder(nf), ps.u, ps.v, ps.w,
                                   ps.x, tol=1e-9)
        assert report.passed
        assert report.details["shift_exponent"] == 1

    def test_untwisted_fails_with_deformation(self, nf, ps):
        report = check_twisted_ybe(nf, vector_builder(nf), ps.u, ps.v, ps.w,
                                   ps.x, tol=1e-9, shift=0)
        assert not report.passed
        assert report.residual > 1e-3

    def test_exact_ybe(self, ef):
        report = check_twisted_ybe(ef, vector_builder(ef), ef.u, ef.v, ef.w,
                                   ef.x)
        assert report.passed and report.exact

    def test_sides_match_kron_embedded_products(self, ef):
        # random, non-symmetric factors: no R-matrix symmetry can hide a
        # leg-order slip in the contraction
        rng = np.random.default_rng(5)
        mats = [Operator(rng.normal(size=(9, 9))
                         + 1j * rng.normal(size=(9, 9)), (3, 3))
                for _ in range(6)]
        refs = _kron_sides(mats, np.eye(3))
        # ungraded factors: one sector holding every state in order
        (states, *sides), = _sector_sides(mats)
        assert states.tolist() == list(range(27))
        for out, ref in zip(sides, refs):
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
        lhs, rhs = refs
        expected = np.linalg.norm(rhs - lhs) / np.linalg.norm(lhs)
        assert ybe_residual(mats) == pytest.approx(expected, rel=1e-12)
        exact = []
        for ints in rng.integers(-3, 4, size=(6, 9, 9)):
            m = ef.zeros((9, 9))
            for (i, j), k in np.ndenumerate(ints):
                m[i, j] = ef.from_int(int(k))
            exact.append(Operator(m, (3, 3)))
        (states, *sides), = _sector_sides(exact)
        assert states.tolist() == list(range(27))
        for out, ref in zip(sides, _kron_sides(exact, ef.eye(3))):
            assert out.dtype == object
            assert exact_all_zero(out - ref)

    def test_swapped_factors_fail(self, nf, ps, ef):
        mats = twisted_ybe_factors(nf, vector_builder(nf), ps.u, ps.v, ps.w,
                                   ps.x)
        assert ybe_residual(mats) < 1e-12
        for i, j in ((0, 2), (3, 5), (1, 4)):
            swapped = list(mats)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert ybe_residual(swapped) > 1e-3
        exact = list(twisted_ybe_factors(ef, vector_builder(ef), ef.u, ef.v,
                                         ef.w, ef.x))
        exact[0], exact[2] = exact[2], exact[0]
        assert ybe_residual(exact) == float("inf")


class TestSectorSides:
    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("n", (2, 3))
    def test_fused_sides_match_kron_embedded_products(self, n, sign, seed):
        ps = sample_params(seed)
        fld = NumericField(ps.q)
        mats = twisted_ybe_factors(fld, fused_builder(fld, n, sign, []),
                                   ps.u, ps.v, ps.w, ps.x)
        outs = _assembled_sides(mats, lambda shape: np.zeros(shape, complex))
        for out, ref in zip(outs, _kron_sides(mats, np.eye(mats[0].legs[0]))):
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_exact_box_sides_match_kron_term_for_term(self, ef):
        mats = twisted_ybe_factors(ef, vector_builder(ef), ef.u, ef.v, ef.w,
                                   ef.x)
        for out, ref in zip(_assembled_sides(mats, ef.zeros),
                            _kron_sides(mats, ef.eye(4))):
            assert _terms(out) == _terms(ref)
        report = check_twisted_ybe(ef, vector_builder(ef), ef.u, ef.v, ef.w,
                                   ef.x)
        assert report.residual == 0.0
        assert report.details["max_terms"] == 19
        assert report.details["sectors"] == {"count": 16, "largest": 9}
        assert "off_sector" not in report.details

    def test_exact_box_ybe_normalizes_nothing(self, ef, monkeypatch):
        # every entry of the box factors is a polynomial over 1, so each
        # product, sum and difference of the sides takes the denominator-1
        # path and no RationalFunction is normalized
        mats = twisted_ybe_factors(ef, vector_builder(ef), ef.u, ef.v, ef.w,
                                   ef.x)
        calls = []
        init = RationalFunction.__init__
        monkeypatch.setattr(RationalFunction, "__init__",
                            lambda s, *a: calls.append(a) or init(s, *a))
        details = {}
        assert ybe_residual(mats, details) == 0.0
        assert details["max_terms"] == 19
        assert calls == []

    def test_equal_size_sectors_match_kron(self, ef):
        # legs (3, 4, 3) with nine sectors of one state, ten of two, one
        # of three and one of four: the ten are stacked four, four and
        # two, so a mix-up between the sectors of a stack would show
        weights = (((2, 0), (0, 0), (0, 2)),
                   ((2, 1), (0, 0), (0, 1), (1, 1)),
                   ((0, 0), (2, 2), (0, 0)))
        rng = np.random.default_rng(11)

        def graded(values, zero):
            # random, non-symmetric factors without off-sector entries
            out = []
            for pos, mat in zip((1, 2, 1, 2, 1, 2), values):
                ws = weights[pos - 1:pos + 1]
                pair = product_weights(ws)
                mat[(pair[:, None] != pair[None]).any(axis=-1)] = zero
                out.append(Operator(mat, tuple(map(len, ws)), ws))
            return out

        mats = graded([rng.normal(size=(12, 12))
                       + 1j * rng.normal(size=(12, 12)) for _ in range(6)],
                      0)
        assert [lhs.shape for _, lhs, _ in _sector_sides(mats)] == [
            (9, 1, 1), (4, 2, 2), (4, 2, 2), (2, 2, 2), (1, 3, 3),
            (1, 4, 4)]
        refs = _kron_sides(mats, np.eye(3))
        outs = _assembled_sides(mats, lambda shape: np.zeros(shape, complex))
        for out, ref in zip(outs, refs):
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
        lhs, rhs = refs
        expected = np.linalg.norm(rhs - lhs) / np.linalg.norm(lhs)
        details = {}
        assert ybe_residual(mats, details) == pytest.approx(expected,
                                                            rel=1e-12)
        assert details["sectors"] == {"count": 21, "largest": 4}
        exact = graded([np.vectorize(lambda k: ef.from_int(int(k)),
                                     otypes=[object])(ints)
                        for ints in rng.integers(-3, 4, size=(6, 12, 12))],
                       ef.zero)
        for out, ref in zip(_assembled_sides(exact, ef.zeros),
                            _kron_sides(exact, ef.eye(3))):
            assert _terms(out) == _terms(ref)

    def test_shift_controls_match_dense_route(self):
        # residuals of the deliberate failures as the dense d^3 x d^3
        # contraction gave them
        dense = {("box", 0): 0.1605115945346135,
                 ("box", 1): 0.2727398825562919,
                 ("fused", 2, 1, 0): 0.9975061511660909,
                 ("fused", 2, 1, 1): 0.21226262992636047,
                 ("fused", 2, -1, 0): 0.39403197693537,
                 ("fused", 2, -1, 1): 0.7155992059450761,
                 ("fused", 3, 1, 0): 0.8792215305257411,
                 ("fused", 3, -1, 0): 0.6390166235112602,
                 ("dynamical", 0): 1.7764290073077964}
        for key, want in dense.items():
            ps = sample_params(key[-1])
            fld = NumericField(ps.q)
            if key[0] == "box":
                report = check_twisted_ybe(fld, vector_builder(fld), ps.u,
                                           ps.v, ps.w, ps.x, shift=0)
            elif key[0] == "fused":
                n, sign = key[1:3]
                report = check_fused_ybe(fld, n, sign, ps.u, ps.v, ps.w,
                                         ps.x, shift=n - 1)
            else:
                report = check_dynamical_ybe(fld, 2, 1, ps.u, ps.v, ps.w,
                                             0.7 + 0.3j, weight=-3)
            assert report.residual == pytest.approx(want, rel=1e-9), key

    def test_off_sector_entry_fails(self, nf, ps, ef):
        # an entry that changes the total weight lies outside every
        # sector block, so only the off-sector share can see it
        for mats in (twisted_ybe_factors(nf, vector_builder(nf), ps.u, ps.v,
                                         ps.w, ps.x),
                     twisted_ybe_factors(nf, fused_builder(nf, 2, 1, []),
                                         ps.u, ps.v, ps.w, ps.x)):
            assert passes(ybe_residual(mats), False, 1e-8)
            for i, op in enumerate(mats):
                mat = op.mat.copy()
                mat[_off_sector_entry(op)] += 1e-6 * np.linalg.norm(mat)
                bad = list(mats)
                bad[i] = Operator(mat, op.legs, op.weights)
                details = {}
                res = ybe_residual(bad, details)
                assert not passes(res, False, 1e-8), i
                assert res == pytest.approx(1e-6, rel=1e-3), i
                assert details["off_sector"] == res
        exact = twisted_ybe_factors(ef, vector_builder(ef), ef.u, ef.v, ef.w,
                                    ef.x)
        assert ybe_residual(exact) == 0.0
        for i, op in enumerate(exact):
            mat = op.mat.copy()
            mat[_off_sector_entry(op)] = ef.one
            bad = list(exact)
            bad[i] = Operator(mat, op.legs, op.weights)
            assert ybe_residual(bad) == float("inf"), i

    def test_mismatched_factor_legs_raise(self, nf, ps):
        mats = list(twisted_ybe_factors(nf, vector_builder(nf), ps.u, ps.v,
                                        ps.w, ps.x))
        mats[3] = Operator(np.eye(12, dtype=complex), (4, 3))
        with pytest.raises(ValueError, match="do not match legs"):
            ybe_residual(mats)
