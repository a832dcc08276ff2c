import cmath

import numpy as np
import pytest

from xrmatrix import check_dynamical_ybe, check_fused_ybe, fused_rmatrix
from xrmatrix.dynamical import DynamicalRMatrix


@pytest.fixture(scope="module")
def branch(nf):
    return cmath.log(nf.q)


def test_wrong_branch_rejected(nf):
    with pytest.raises(ValueError, match="does not match q"):
        DynamicalRMatrix(nf, 2, 1, cmath.log(nf.q) + 0.3)


def test_substitution_reproduces_fused(nf, ps, branch):
    lam = cmath.log(ps.x) / branch
    dyn = DynamicalRMatrix(nf, 2, 1, branch)
    built = dyn.build(ps.u, ps.v, lam)
    x_eff = dyn.deformation(lam)
    direct = fused_rmatrix(nf, 2, ps.u, ps.v, x_eff, 1)
    assert np.allclose(built.mat, direct.mat)
    assert abs(x_eff - ps.x) < 1e-9 * abs(ps.x)


def test_periodicity_in_lambda(nf, ps, branch):
    dyn = DynamicalRMatrix(nf, 2, 1, branch)
    lam = complex(0.4, -0.2)
    shifted = lam + 2j * cmath.pi / branch
    a = dyn.build(ps.u, ps.v, lam)
    b = dyn.build(ps.u, ps.v, shifted)
    assert np.allclose(a.mat, b.mat)


def test_integer_shift_multiplies_deformation(nf, ps, branch):
    dyn = DynamicalRMatrix(nf, 2, 1, branch)
    lam = complex(0.4, -0.2)
    a = dyn.build(ps.u, ps.v, lam + 2)
    b = dyn.builder.build(ps.u, ps.v, nf.q ** 2 * dyn.deformation(lam))
    assert np.allclose(a.mat, b.mat)


def test_residual_matches_twisted_bitwise(nf, ps, branch):
    lam = complex(0.8, -0.4)
    dyn = check_dynamical_ybe(nf, 2, 1, ps.u, ps.v, ps.w, lam, a=branch)
    x_eff = cmath.exp(branch * lam)
    twisted = check_fused_ybe(nf, 2, 1, ps.u, ps.v, ps.w, x_eff)
    assert dyn.passed
    assert dyn.residual == twisted.residual
    assert (dyn.details["restriction_residual"]
            == twisted.details["restriction_residual"])


def test_fake_weight_fails(nf, ps, branch):
    lam = complex(0.8, -0.4)
    report = check_dynamical_ybe(nf, 2, 1, ps.u, ps.v, ps.w, lam, a=branch,
                                 weight=-3)
    assert not report.passed
    assert report.residual > 1e-3


@pytest.mark.parametrize("n,sign", [(1, 1), (2, 1), (2, -1)])
def test_fake_weight_is_the_fused_shift(nf, ps, branch, n, sign):
    # weight -(n+1) moves the middle leg to q^(n+1) x: the fused YBE
    # with shift n+1, which must fail
    lam = complex(0.8, -0.4)
    report = check_dynamical_ybe(nf, n, sign, ps.u, ps.v, ps.w, lam,
                                 a=branch, weight=-(n + 1))
    fused = check_fused_ybe(nf, n, sign, ps.u, ps.v, ps.w,
                            cmath.exp(branch * lam), shift=n + 1)
    assert report.residual == fused.residual
    assert report.residual > 1e-3
    assert not report.passed


def test_branch_invariance_documented_pair(nf, ps):
    a1 = cmath.log(nf.q)
    a2 = a1 + 2j * cmath.pi
    lam1 = complex(0.3, 0.7)
    lam2 = a1 * lam1 / a2          # same product a*lam, same deformation
    r1 = DynamicalRMatrix(nf, 2, 1, a1).build(ps.u, ps.v, lam1)
    r2 = DynamicalRMatrix(nf, 2, 1, a2).build(ps.u, ps.v, lam2)
    assert np.allclose(r1.mat, r2.mat)
