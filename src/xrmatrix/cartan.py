"""Weight lattice data: bilinear form, simple roots, parities, Cartan matrix.

The ambient space is spanned by eps_0 .. eps_4 with the diagonal form
(eps_0,eps_0)=0, (eps_1,eps_1)=(eps_2,eps_2)=1,
(eps_3,eps_3)=(eps_4,eps_4)=-1.  Everything below is computed from that
form, never hardcoded.  The integer lookups (parity, theta and the two
pairings) are cached: they are pure functions of small indices, and every
R-matrix and representation build calls them many times.
"""

from __future__ import annotations

import functools
from fractions import Fraction

# (eps_i, eps_i) for i = 0..4
_EPS_NORMS = (Fraction(0), Fraction(1), Fraction(1), Fraction(-1), Fraction(-1))

WeightVector = tuple


def weight(coeffs) -> WeightVector:
    """A vector sum(c_i * eps_i) with exact rational coefficients."""
    if len(coeffs) != 5:
        raise ValueError("a weight vector has five eps coordinates")
    return tuple(Fraction(c) for c in coeffs)


def epsilon(i: int) -> WeightVector:
    if not 0 <= i <= 4:
        raise ValueError("eps index out of range")
    return weight(tuple(1 if j == i else 0 for j in range(5)))


def bilinear(a: WeightVector, b: WeightVector) -> Fraction:
    return sum((ca * cb * n for ca, cb, n in zip(a, b, _EPS_NORMS)),
               Fraction(0))


def simple_root(i: int) -> WeightVector:
    """alpha_0 = eps_0 - eps_1 + eps_4, alpha_i = eps_i - eps_{i+1}."""
    if i == 0:
        return weight((1, -1, 0, 0, 1))
    if 1 <= i <= 3:
        c = [0] * 5
        c[i] = 1
        c[i + 1] = -1
        return weight(c)
    raise ValueError("simple root index out of range")


@functools.cache
def parity(i: int) -> int:
    """Root parity (4 - (alpha_i, alpha_i)^2) / 4, always 0 or 1."""
    a = simple_root(i)
    val = (4 - bilinear(a, a) ** 2) / 4
    if val.denominator != 1 or val not in (0, 1):
        raise ArithmeticError(f"parity formula gave {val} for root {i}")
    return int(val)


@functools.cache
def theta(i: int) -> int:
    """Grading of the basis vector e_i: (1 - (eps_i, eps_i)) / 2."""
    if not 1 <= i <= 4:
        raise ValueError("theta index runs over 1..4")
    val = (1 - _EPS_NORMS[i]) / 2
    return int(val)


@functools.cache
def root_pairing(i: int, j: int) -> int:
    """(alpha_i, alpha_j); integral for these roots."""
    val = bilinear(simple_root(i), simple_root(j))
    if val.denominator != 1:
        raise ArithmeticError("non-integral root pairing")
    return int(val)


@functools.cache
def weight_pairing(i: int, j: int) -> int:
    """(alpha_i, eps_j); the K_i eigenvalue exponent on e_j."""
    val = bilinear(simple_root(i), epsilon(j))
    if val.denominator != 1:
        raise ArithmeticError("non-integral weight pairing")
    return int(val)


@functools.cache
def vector_weights() -> tuple:
    """The joint (K_1, K_3) weight of e_1, ..., e_4: the exponent pairs
    (weight_pairing(1, j), weight_pairing(3, j)).

    The x-terms take e_1 (x) e_2 and e_2 (x) e_1 to e_3 (x) e_4 and
    e_4 (x) e_3, of the same joint weight, so the R-matrices conserve it.
    """
    return tuple((weight_pairing(1, j), weight_pairing(3, j))
                 for j in range(1, 5))


def cartan_matrix() -> list:
    """a_ij = 2(alpha_i,alpha_j) / ((alpha_i,alpha_i) + 2 p(alpha_i))."""
    out = []
    for i in range(4):
        ai = simple_root(i)
        denom = bilinear(ai, ai) + 2 * parity(i)
        row = []
        for j in range(4):
            val = 2 * bilinear(ai, simple_root(j)) / denom
            if val.denominator != 1:
                raise ArithmeticError("non-integral Cartan entry")
            row.append(int(val))
        out.append(row)
    return out


def cartan_json() -> dict:
    return {
        "cartan_matrix": cartan_matrix(),
        "parity": [parity(i) for i in range(4)],
        "theta": [theta(i) for i in range(1, 5)],
    }
