"""Closed forms that the benchmark checks xrmatrix's outputs against.

Nothing here calls xrmatrix or uses its scalar arithmetic: exact scalars
are read as their term dictionaries and evaluated with Python complex
numbers, and every expected value is written out from the mathematics.
Each ``check_*`` function returns a list of problems, empty when the
output is right.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9


def _close(got, want, rtol=RTOL):
    return abs(got - want) <= rtol * max(abs(want), 1.0)


def evaluate_terms(terms, point):
    """Value of a {exponent tuple: int} polynomial at (q, u, v, w, x)."""
    total = 0j
    for exps, coeff in terms.items():
        term = complex(coeff)
        for value, k in zip(point, exps):
            term *= value ** k
        total += term
    return total


def evaluate_exact(scalar, point):
    """Value of an exact scalar (numerator over denominator) at point."""
    return (evaluate_terms(scalar.num.terms, point)
            / evaluate_terms(scalar.den.terms, point))


def evaluate_exact_matrix(mat, point):
    out = np.empty(mat.shape, dtype=np.complex128)
    for idx, s in np.ndenumerate(mat):
        out[idx] = evaluate_exact(s, point)
    return out


def evaluate_json_scalar(payload, point):
    """Value of a scalar in the report form {num: [...], den: [...]}."""
    def poly(entries):
        return evaluate_terms({tuple(t["exp"]): t["coeff"] for t in entries},
                              point)

    return poly(payload["num"]) / poly(payload["den"])


def q_integer_product(q, n, sign):
    """[1][2]...[n] with [k] = 1 + t + ... + t^(k-1), t = q^(2 sign)."""
    t = q ** (2 * sign)
    out = 1 + 0j
    for k in range(1, n + 1):
        out *= sum(t ** j for j in range(k))
    return out


def fusion_constant_closed(q, sign):
    """1 - q^-2 for the symmetric fusion, q^2 (q^2 - 1) otherwise."""
    return 1 - q ** -2 if sign > 0 else q ** 2 * (q ** 2 - 1)


def check_fused_dim(dim, n):
    """The q-symmetric n-th power of C^{2|2} has dimension 4n."""
    return [] if dim == 4 * n else [f"fused dimension {dim}, want {4 * n}"]


def check_symmetrizer_constant(got, q, n, sign):
    want = q_integer_product(q, n, sign)
    if _close(got, want):
        return []
    return [f"symmetrizer constant n={n} sign={sign:+d}: {got}, want {want}"]


def check_fusion_constant(got, q, sign):
    want = fusion_constant_closed(q, sign)
    if _close(got, want):
        return []
    return [f"fusion constant sign={sign:+d}: {got}, want {want}"]


def check_central_scalars(first, second, x):
    """The two central elements act by -x and by 0."""
    bad = []
    if not _close(first, -x):
        bad.append(f"first central scalar {first}, want {-x}")
    if second != 0:
        bad.append(f"second central scalar {second}, want 0")
    return bad


def power_traces(mat, k=3):
    """tr M, tr M^2, ..., tr M^k: invariant under a change of basis."""
    out = []
    power = np.eye(mat.shape[0], dtype=np.complex128)
    for _ in range(k):
        power = power @ mat
        out.append(complex(np.trace(power)))
    return out


def check_power_traces(exact_at_point, numeric, rtol=1e-8):
    """An evaluated exact R-matrix and the numeric one at the same point
    represent the same operator in different bases."""
    bad = []
    for k, (a, b) in enumerate(zip(power_traces(exact_at_point),
                                   power_traces(numeric)), start=1):
        if not _close(a, b, rtol):
            bad.append(f"tr R^{k}: exact {a}, numeric {b}")
    return bad
