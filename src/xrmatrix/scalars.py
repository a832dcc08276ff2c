"""Interchangeable scalar backends and generic parameter sampling.

Numeric scalars are plain Python complex numbers.  Exact scalars are
ratios of integer-coefficient Laurent polynomials in the five parameters
q, u, v, w, x (Laurent only in q; the relation q*q^-1 = 1 is applied
eagerly by adding signed q-exponents during monomial multiplication).

Rational functions are deliberately kept unreduced: no multivariate gcd
is ever computed.  Equality is decided by cross-multiplication
(a/b == c/d  iff  a*d - c*b == 0).  The only normalizations applied are
cheap ones: dropping zero terms, dividing out the integer content,
cancelling a common monomial factor, and fixing the denominator sign.

The arithmetic takes fast paths, none of which changes a result: every
unreduced form keeps the terms, in the insertion order, that the plain
term-by-term algorithm gives (evaluate sums the terms in that order).  A
product with a one-term operand shifts the other operand's exponents in
one pass, as no two of its products can meet or cancel; normalization
finds the common monomial factor and the content in one call each, and
skips the content and sign when the denominator is a monomial with
coefficient 1; a - b subtracts directly rather than adding a negated
copy; zero tests read the numerator's terms.  A product, sum or
difference of two operands over 1 (84% of the products of an
exact-identities pass) is built over 1 with no normalization at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

import numpy as np

VARIABLES = ("q", "u", "v", "w", "x")

_ZERO_EXP = (0, 0, 0, 0, 0)


class LaurentPoly:
    """Integer-coefficient polynomial in u, v, w, x, Laurent in q.

    Terms are stored as a dict mapping exponent tuples (ordered as in
    VARIABLES) to nonzero integer coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {}

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({_ZERO_EXP: c}) if c else cls()

    @classmethod
    def variable(cls, name: str) -> "LaurentPoly":
        i = VARIABLES.index(name)
        exp = [0] * 5
        exp[i] = 1
        return cls({tuple(exp): 1})

    @classmethod
    def q_power(cls, k: int) -> "LaurentPoly":
        return cls({(k, 0, 0, 0, 0): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return _poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                del out[e]
        return _poly(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            return _poly({e: c * other for e, c in self.terms.items()}
                         if other else {})
        a, b = self.terms, other.terms
        if not a or not b:
            return _poly({})
        out = {}
        if len(a) == 1 or len(b) == 1:
            # a monomial shifts the other operand's exponents injectively,
            # so no two products meet and none cancels
            if len(a) > 1:
                a, b = b, a
            ((a0, a1, a2, a3, a4), ca), = a.items()
            for (b0, b1, b2, b3, b4), cb in b.items():
                out[a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4] = ca * cb
        else:
            b = [(*eb, cb) for eb, cb in b.items()]
            for (a0, a1, a2, a3, a4), ca in a.items():
                for b0, b1, b2, b3, b4, cb in b:
                    e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4)
                    s = out.get(e, 0) + ca * cb
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return _poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def shift_exponents(self, delta) -> "LaurentPoly":
        return _poly({
            (e[0] + delta[0], e[1] + delta[1], e[2] + delta[2],
             e[3] + delta[3], e[4] + delta[4]): c
            for e, c in self.terms.items()
        })

    def evaluate(self, point) -> complex:
        """Evaluate at a (q, u, v, w, x) tuple of complex numbers."""
        total = 0j
        for e, c in self.terms.items():
            term = complex(c)
            for val, k in zip(point, e):
                if k:
                    term *= val ** k
            total += term
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            body = "*".join(
                f"{v}^{k}" if k != 1 else v
                for v, k in zip(VARIABLES, e) if k
            )
            if not body:
                parts.append(f"{c:+d}")
            elif abs(c) == 1:
                parts.append(("+" if c > 0 else "-") + body)
            else:
                parts.append(f"{c:+d}*{body}")
        return "".join(parts).lstrip("+")

    __repr__ = __str__


def _poly(terms: dict) -> LaurentPoly:
    """A LaurentPoly over terms as given: no zero coefficient is dropped."""
    res = object.__new__(LaurentPoly)
    res.terms = terms
    return res


_POLY_ZERO = LaurentPoly()
_POLY_ONE = LaurentPoly.constant(1)
_ONE_TERMS = _POLY_ONE.terms


class RationalFunction:
    """Unreduced ratio of two LaurentPoly values; the exact Scalar."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _POLY_ONE):
        if not den.terms:
            raise ZeroDivisionError("zero denominator polynomial")
        if not num.terms:
            self.num = _POLY_ZERO
            self.den = _POLY_ONE
            return
        # cancel a common monomial factor and the integer content;
        # neither involves a multivariate gcd
        lo = tuple(map(min, *num.terms, *den.terms))
        if any(lo):
            delta = tuple(-k for k in lo)
            num = num.shift_exponents(delta)
            den = den.shift_exponents(delta)
        dc = den.terms.values()
        if len(dc) > 1 or 1 not in dc:
            # a monomial denominator with coefficient 1 leaves g = 1
            g = gcd(*num.terms.values(), *dc)
            if den.terms[max(den.terms)] < 0:
                g = -g
            if g != 1:
                num = _poly({e: c // g for e, c in num.terms.items()})
                den = _poly({e: c // g for e, c in den.terms.items()})
        self.num = num
        self.den = den

    @classmethod
    def from_int(cls, k: int) -> "RationalFunction":
        return cls(LaurentPoly.constant(k))

    @classmethod
    def variable(cls, name: str) -> "RationalFunction":
        return cls(LaurentPoly.variable(name))

    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, int):
            return RationalFunction.from_int(other)
        if isinstance(other, (float, complex)):
            raise TypeError(
                "backend mismatch: cannot combine an exact scalar with a "
                "numeric value; evaluate the exact scalar first"
            )
        return None

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not self.num.terms:
            return other
        if not other.num.terms:
            return self
        if self.den.terms == other.den.terms:
            return _ratio(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

    __radd__ = __add__

    def __neg__(self):
        out = RationalFunction.__new__(RationalFunction)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms:
            return -other
        if self.den.terms == other.den.terms:
            return _ratio(self.num - other.num, self.den)
        return RationalFunction(
            self.num * other.den - other.num * self.den,
            self.den * other.den,
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not self.num.terms or not other.num.terms:
            return _RF_ZERO
        # a denominator 1 leaves the other one as it is
        den = (other.den if self.den.terms == _ONE_TERMS else self.den
               if other.den.terms == _ONE_TERMS else self.den * other.den)
        return _ratio(self.num * other.num, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        if self.is_zero:
            return _RF_ZERO
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return _RF_ONE / (self ** (-k))
        out = _RF_ONE
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.num.terms == other.num.terms and self.den.terms == other.den.terms:
            return True
        return not (self.num * other.den - other.num * self.den).terms

    __hash__ = None

    def evaluate(self, point) -> complex:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at this point")
        return self.num.evaluate(point) / d

    def __str__(self):
        if self.den == _POLY_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _ratio(num: LaurentPoly, den: LaurentPoly) -> RationalFunction:
    """RationalFunction(num, den) for num combined from the numerators of
    normalized operands over den.  Over den = 1 it is built directly:
    normalization moves every negative exponent into the denominator, so
    those numerators have none, nor has num, and nothing can cancel."""
    if den.terms != _ONE_TERMS:
        return RationalFunction(num, den)
    if not num.terms:
        return _RF_ZERO
    out = object.__new__(RationalFunction)
    out.num, out.den = num, den
    return out


_RF_ZERO = RationalFunction(_POLY_ZERO)
_RF_ONE = RationalFunction(_POLY_ONE)


class ExactField:
    """Exact backend: scalars are RationalFunction values."""

    backend = "exact"
    dtype = object

    def __init__(self):
        self.zero = _RF_ZERO
        self.one = _RF_ONE
        self.q = RationalFunction.variable("q")
        self.u = RationalFunction.variable("u")
        self.v = RationalFunction.variable("v")
        self.w = RationalFunction.variable("w")
        self.x = RationalFunction.variable("x")

    def from_int(self, k: int) -> RationalFunction:
        return RationalFunction.from_int(k)

    def q_power(self, k: int) -> RationalFunction:
        return RationalFunction(LaurentPoly.q_power(k))

    def zeros(self, shape) -> np.ndarray:
        out = np.empty(shape, dtype=object)
        out[...] = self.zero
        return out

    def eye(self, n: int) -> np.ndarray:
        out = self.zeros((n, n))
        for i in range(n):
            out[i, i] = self.one
        return out


class NumericField:
    """Numeric backend bound to a concrete value of q."""

    backend = "numeric"
    dtype = np.complex128

    def __init__(self, q: complex):
        q = complex(q)
        if q == 0:
            raise ValueError("q must be nonzero")
        self.q = q
        self.zero = 0j
        self.one = 1 + 0j

    def from_int(self, k: int) -> complex:
        return complex(k)

    def q_power(self, k: int) -> complex:
        return self.q ** k

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.complex128)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.complex128)


@dataclass(frozen=True)
class ParamSet:
    """A generic numeric parameter point, deterministic per seed."""

    q: complex
    u: complex
    v: complex
    w: complex
    x: complex
    y: complex
    seed: int

    def point(self):
        return (self.q, self.u, self.v, self.w, self.x)

    def to_json(self) -> dict:
        def c(z):
            return {"re": z.real, "im": z.imag}

        return {
            "q": c(self.q), "u": c(self.u), "v": c(self.v),
            "w": c(self.w), "x": c(self.x), "y": c(self.y),
            "seed": self.seed,
        }


def paramset_violations(ps: ParamSet) -> list:
    """Names of the ParamSet invariants that ps violates (empty = valid)."""
    bad = []
    if not 0.5 <= abs(ps.q) <= 2.0:
        bad.append("q modulus")
    for k in range(1, 17):
        if abs(ps.q ** k - 1) <= 0.05:
            bad.append(f"q^{k} near 1")
            break
    for name, z in (("u", ps.u), ("v", ps.v), ("w", ps.w), ("y", ps.y)):
        if not 0.5 <= abs(z) <= 2.0:
            bad.append(f"{name} modulus")
    for na, nb, a, b in (("u", "v", ps.u, ps.v), ("u", "w", ps.u, ps.w),
                         ("v", "w", ps.v, ps.w)):
        if abs(a - b) <= 0.05:
            bad.append(f"{na},{nb} separation")
    if abs(ps.x) > 2.0:
        bad.append("x modulus")
    return bad


def sample_params(seed: int) -> ParamSet:
    """Rejection-sample a ParamSet satisfying every invariant.

    Deterministic for a given seed.  Aborts after 10^4 rejections (does
    not happen for honest parameter ranges).
    """
    rng = random.Random(seed)

    def draw():
        r = rng.uniform(0.5, 2.0)
        phi = rng.uniform(0.0, 2.0 * 3.141592653589793)
        return complex(r * np.cos(phi), r * np.sin(phi))

    for _ in range(10_000):
        ps = ParamSet(q=draw(), u=draw(), v=draw(), w=draw(),
                      x=draw(), y=draw(), seed=seed)
        if not paramset_violations(ps):
            return ps
    raise RuntimeError("parameter sampling failed to satisfy invariants")


def evaluate_scalar(s, ps: ParamSet) -> complex:
    """Evaluation homomorphism: exact scalar at the ParamSet point."""
    if isinstance(s, RationalFunction):
        return s.evaluate(ps.point())
    return complex(s)


def evaluate_matrix(mat: np.ndarray, ps: ParamSet) -> np.ndarray:
    """Entrywise evaluation of an exact matrix at a ParamSet point."""
    if mat.dtype != object:
        return np.asarray(mat, dtype=np.complex128)
    out = np.zeros(mat.shape, dtype=np.complex128)
    for idx, s in np.ndenumerate(mat):
        out[idx] = evaluate_scalar(s, ps)
    return out
