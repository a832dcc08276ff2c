import operator
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrmatrix.scalars import (ExactField, LaurentPoly, RationalFunction,
                              evaluate_scalar, paramset_violations,
                              sample_params)

F = ExactField()


def test_additive_inverse_is_zero():
    assert (F.q - F.q).is_zero


def test_subtracting_zero_returns_the_operand(monkeypatch):
    a = F.q * F.u + F.one
    negated = []
    neg = RationalFunction.__neg__
    monkeypatch.setattr(RationalFunction, "__neg__",
                        lambda s: negated.append(s) or neg(s))
    assert (a - F.zero) is a
    assert (a - 0) is a
    assert (F.zero - F.zero).is_zero
    # no negated copy is built for a zero operand
    assert negated == []
    assert F.zero - a == -a


def test_cross_multiplication_equality():
    # (q^2 - 1)/(q - 1) equals q + 1 without any gcd computation
    ratio = (F.q * F.q - F.one) / (F.q - F.one)
    assert ratio == F.q + F.one
    assert not ratio.num == (F.q + F.one).num  # unreduced on purpose


def test_evaluate_exact_at_point():
    # independent oracle: 2^2 - 2^-2 = 3.75
    val = (F.q_power(2) - F.q_power(-2)).evaluate((2.0, 0, 0, 0, 0))
    assert val == pytest.approx(3.75)


def test_laurent_relation_applied_eagerly():
    assert (F.q * F.q_power(-1)) == F.one
    assert F.q_power(3) * F.q_power(-5) == F.q_power(-2)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F.q / F.zero
    with pytest.raises(ZeroDivisionError):
        1 / F.zero
    with pytest.raises(ZeroDivisionError):
        RationalFunction(LaurentPoly.constant(1), LaurentPoly())


def test_backend_mismatch_raises():
    with pytest.raises(TypeError):
        F.q * (1.5 + 0j)
    with pytest.raises(TypeError):
        F.q + 2.5


def test_int_operand_on_either_side():
    assert 3 + F.q == F.q + 3
    assert 3 - F.q == -(F.q - 3)
    assert 2 * F.u == F.u + F.u
    assert (6 / F.q) * F.q == F.from_int(6)


_exponents = st.tuples(st.integers(-2, 2), st.integers(0, 2),
                       st.integers(0, 2), st.integers(0, 1),
                       st.integers(0, 1))
_polys = st.dictionaries(_exponents, st.integers(-4, 4), max_size=3).map(
    LaurentPoly)
_scalars = st.builds(
    RationalFunction, _polys, _polys.filter(lambda p: not p.is_zero))


@settings(max_examples=60, deadline=None)
@given(_scalars, _scalars, _scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(_scalars, _scalars.filter(lambda s: not s.is_zero),
       _scalars.filter(lambda s: not s.is_zero))
def test_cross_multiplication_is_equivalence(a, s, t):
    # reflexive, symmetric, and transitive across unreduced rescalings
    scaled_s = RationalFunction(a.num * s.num, a.den * s.num) \
        if not a.is_zero else a
    scaled_t = RationalFunction(a.num * t.num, a.den * t.num) \
        if not a.is_zero else a
    assert a == a
    assert (a == scaled_s) and (scaled_s == a)
    assert scaled_s == scaled_t and a == scaled_t


def test_sample_params_deterministic():
    assert sample_params(1) == sample_params(1)


def test_sampled_q_avoids_roots_of_unity():
    ps = sample_params(1)
    assert abs(ps.q ** 4 - 1) > 0.05


def test_hundred_seeds_pass_audit():
    for seed in range(100):
        assert paramset_violations(sample_params(seed)) == []


def test_evaluation_homomorphism_matches_numeric():
    # polynomial-and-division expressions, exact vs direct complex
    expr = (F.q_power(2) * F.u - F.v) * (F.x + F.one) / (F.u - F.w)
    for seed in range(20):
        ps = sample_params(seed)
        direct = (ps.q ** 2 * ps.u - ps.v) * (ps.x + 1) / (ps.u - ps.w)
        val = evaluate_scalar(expr, ps)
        assert abs(val - direct) <= 1e-9 * abs(direct)


def test_paramset_json_shape():
    ps = sample_params(2)
    blob = ps.to_json()
    assert set(blob) == {"q", "u", "v", "w", "x", "y", "seed"}
    assert blob["q"] == {"re": ps.q.real, "im": ps.q.imag}


# ---------------------------------------------------------------------------
# the arithmetic kernels as they were before the fast paths, kept verbatim
# as references: every result must carry the same terms in the same order

def _ref_poly_add(self, other):
    out = dict(self.terms)
    for e, c in other.terms.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    res = LaurentPoly()
    res.terms = out
    return res


def _ref_poly_neg(self):
    res = LaurentPoly()
    res.terms = {e: -c for e, c in self.terms.items()}
    return res


def _ref_poly_sub(self, other):
    return _ref_poly_add(self, _ref_poly_neg(other))


def _ref_poly_mul(self, other):
    a, b = self.terms, other.terms
    if not a or not b:
        return LaurentPoly()
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2],
                 ea[3] + eb[3], ea[4] + eb[4])
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    res = LaurentPoly()
    res.terms = out
    return res


def _ref_content(self) -> int:
    g = 0
    for c in self.terms.values():
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def _ref_rational(num, den):
    """Today's RationalFunction normalization, as a (num, den) pair."""
    if den.is_zero:
        raise ZeroDivisionError("zero denominator polynomial")
    if num.is_zero:
        return LaurentPoly(), LaurentPoly.constant(1)
    lo = None
    for e in num.terms:
        lo = e if lo is None else tuple(map(min, lo, e))
    for e in den.terms:
        lo = tuple(map(min, lo, e))
    if any(lo):
        delta = tuple(-k for k in lo)
        num = num.shift_exponents(delta)
        den = den.shift_exponents(delta)
    g = gcd(_ref_content(num), _ref_content(den))
    lead = max(den.terms)
    if den.terms[lead] < 0:
        g = -g
    if g != 1:
        num = LaurentPoly({e: c // g for e, c in num.terms.items()})
        den = LaurentPoly({e: c // g for e, c in den.terms.items()})
    return num, den


def _ref_add(a, b):
    (an, ad), (bn, bd) = a, b
    if an.is_zero:
        return b
    if bn.is_zero:
        return a
    if ad.terms == bd.terms:
        return _ref_rational(_ref_poly_add(an, bn), ad)
    return _ref_rational(_ref_poly_add(_ref_poly_mul(an, bd),
                                       _ref_poly_mul(bn, ad)),
                         _ref_poly_mul(ad, bd))


def _ref_sub(a, b):
    # today's a - b: the sum with a negated copy of b
    if b[0].is_zero:
        return a
    return _ref_add(a, (_ref_poly_neg(b[0]), b[1]))


def _ref_mul(a, b):
    if a[0].is_zero or b[0].is_zero:
        return _ref_rational(LaurentPoly(), LaurentPoly.constant(1))
    return _ref_rational(_ref_poly_mul(a[0], b[0]), _ref_poly_mul(a[1], b[1]))


def _ref_div(a, b):
    if a[0].is_zero:
        return a
    return _ref_rational(_ref_poly_mul(a[0], b[1]), _ref_poly_mul(a[1], b[0]))


def _items(r):
    """Terms of a polynomial or of a (num, den) pair, in insertion order."""
    if isinstance(r, LaurentPoly):
        return list(r.terms.items())
    if isinstance(r, RationalFunction):
        r = (r.num, r.den)
    return [list(p.terms.items()) for p in r]


# negative q exponents, small coefficients of either sign, so that
# denominators are non-monic with leading coefficients of both signs
_signed_exponents = st.tuples(st.integers(-3, 3), st.integers(0, 2),
                              st.integers(0, 2), st.integers(0, 1),
                              st.integers(0, 1))
_nonzero_coeffs = st.integers(-6, 6).filter(bool)
_monomials = st.dictionaries(_signed_exponents, _nonzero_coeffs,
                             min_size=1, max_size=1).map(LaurentPoly)
_wide_polys = st.dictionaries(_signed_exponents, _nonzero_coeffs,
                              min_size=1, max_size=5).map(LaurentPoly)
_any_polys = st.one_of(_monomials, _wide_polys, st.just(LaurentPoly()))


@st.composite
def _poly_pairs(draw):
    """(a, b) where b is often built from a, so that sums, differences
    and products cancel some or all of their terms."""
    a = draw(_any_polys)
    kind = draw(st.sampled_from(("free", "equal", "flipped", "shifted")))
    if kind == "free":
        return a, draw(_any_polys)
    if kind == "equal":
        return a, LaurentPoly(dict(a.terms)) + draw(_any_polys)
    if kind == "flipped":
        # (x + y)(x - y): the cross products cancel
        return a, LaurentPoly({e: c if i % 2 else -c
                               for i, (e, c) in enumerate(a.terms.items())})
    return a, a * draw(_monomials)


@st.composite
def _rational_pairs(draw):
    an, bn = draw(_poly_pairs())
    dens = st.one_of(st.just(LaurentPoly.constant(1)), _monomials,
                     _wide_polys)
    ad, bd = draw(dens), draw(dens)
    if draw(st.booleans()):
        bd = ad
    return (_ref_rational(an, ad), _ref_rational(bn, bd))


@settings(max_examples=200, deadline=None)
@given(_poly_pairs())
def test_poly_fast_paths_keep_every_term(pair):
    a, b = pair
    assert _items(a * b) == _items(_ref_poly_mul(a, b))
    assert _items(b * a) == _items(_ref_poly_mul(b, a))
    assert _items(a - b) == _items(_ref_poly_sub(a, b))
    assert _items(b - a) == _items(_ref_poly_sub(b, a))
    assert _items(a + b) == _items(_ref_poly_add(a, b))


@settings(max_examples=200, deadline=None)
@given(_any_polys, st.one_of(_monomials, _wide_polys))
def test_normalization_keeps_every_term(num, den):
    assert _items(RationalFunction(num, den)) == _items(_ref_rational(num, den))


# polynomials with no negative exponent over denominator 1: both operands
# take the denominator-1 path of +, - and *
_plain_exponents = st.tuples(st.integers(0, 3), st.integers(0, 2),
                             st.integers(0, 2), st.integers(0, 1),
                             st.integers(0, 1))
_plain_polys = st.dictionaries(_plain_exponents, _nonzero_coeffs,
                               max_size=5).map(LaurentPoly)


@st.composite
def _plain_pairs(draw):
    """(a, b) over 1, b often built from a so that terms cancel."""
    a = draw(_plain_polys)
    kind = draw(st.sampled_from(("free", "equal", "negated")))
    if kind == "free":
        b = draw(_plain_polys)
    elif kind == "equal":
        b = a + draw(_plain_polys)
    else:
        b = -a + draw(_plain_polys)
    one = LaurentPoly.constant(1)
    return (_ref_rational(a, one), _ref_rational(b, one))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_rational_pairs(), _plain_pairs()))
def test_rational_fast_paths_keep_every_term(pair):
    ra, rb = pair
    a, b = RationalFunction(*ra), RationalFunction(*rb)
    assert _items(a) == _items(ra) and _items(b) == _items(rb)
    assert _items(a + b) == _items(_ref_add(ra, rb))
    assert _items(b + a) == _items(_ref_add(rb, ra))
    assert _items(a - b) == _items(_ref_sub(ra, rb))
    assert _items(b - a) == _items(_ref_sub(rb, ra))
    assert _items(a * b) == _items(_ref_mul(ra, rb))
    assert _items(b * a) == _items(_ref_mul(rb, ra))
    if not b.is_zero:
        assert _items(a / b) == _items(_ref_div(ra, rb))


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}


def _combine(op, a, b):
    return a if op == "/" and b.is_zero else _OPS[op](a, b)


_leaves = st.one_of(
    st.integers(-3, 3).map(RationalFunction.from_int),
    st.sampled_from(("q", "u", "v", "w", "x")).map(RationalFunction.variable),
    st.integers(-3, 3).map(F.q_power))
_expressions = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        sub.map(lambda a: -a),
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(
            lambda t: _combine(*t))),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_expressions)
def test_a_result_over_one_has_no_negative_exponent(r):
    # the invariant the denominator-1 path relies on: normalization moves
    # every negative exponent into the denominator
    if r.den.terms == {(0, 0, 0, 0, 0): 1}:
        assert all(k >= 0 for e in r.num.terms for k in e)
