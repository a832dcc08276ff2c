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
