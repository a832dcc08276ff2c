import cmath

import numpy as np
import pytest

from xrmatrix import (check_dynamical_ybe, check_fused_ybe, fused_rmatrix,
                      fused_space, single_weight_space)
from xrmatrix.dynamical import DynamicalRMatrix, WeightedSpace, \
    weighted_middle_factor
from xrmatrix.tensorops import Operator


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
    dim = fused_space(nf, 2, cmath.exp(branch * lam), 1).dim
    report = check_dynamical_ybe(nf, 2, 1, ps.u, ps.v, ps.w, lam, a=branch,
                                 weighted=single_weight_space(dim, -3.0))
    assert not report.passed
    assert report.residual > 1e-3


def test_weight_blocks_must_partition():
    with pytest.raises(ValueError):
        WeightedSpace(dim=3, blocks=((-1.0, (0, 1)),))


def test_multi_weight_middle_factor_assembly():
    # toy stub: R(u, v, lam - mu) scales with the shifted argument, so
    # the assembled operator must be block diagonal in the first leg
    class Stub:
        def build_shifted(self, u, v, lam, mu):
            scale = complex(lam - mu)
            return Operator(scale * np.arange(4).reshape(2, 2).astype(complex)
                            + np.eye(2), (2,))

    weighted = WeightedSpace(dim=3, blocks=((-1.0, (0, 2)), (2.0, (1,))))
    lam = 0.5 + 0j
    out = weighted_middle_factor(Stub(), weighted, 0, 0, lam)
    sub_a = Stub().build_shifted(0, 0, lam, -1.0).mat
    sub_b = Stub().build_shifted(0, 0, lam, 2.0).mat
    expected = np.zeros((6, 6), dtype=complex)
    expected[0:2, 0:2] = sub_a
    expected[2:4, 2:4] = sub_b
    expected[4:6, 4:6] = sub_a
    assert np.allclose(out, expected)


def test_branch_invariance_documented_pair(nf, ps):
    a1 = cmath.log(nf.q)
    a2 = a1 + 2j * cmath.pi
    lam1 = complex(0.3, 0.7)
    lam2 = a1 * lam1 / a2          # same product a*lam, same deformation
    r1 = DynamicalRMatrix(nf, 2, 1, a1).build(ps.u, ps.v, lam1)
    r2 = DynamicalRMatrix(nf, 2, 1, a2).build(ps.u, ps.v, lam2)
    assert np.allclose(r1.mat, r2.mat)


def test_multi_weight_path_matches_genuine_weight(nf, ps, branch):
    # two weight values whose deformations coincide, -2 and
    # -2 + 2 pi i / a, send the check down the multi-weight path; it
    # must then pass like the genuine single weight
    lam = complex(0.8, -0.4)
    dim = fused_space(nf, 2, cmath.exp(branch * lam), 1).dim
    alias = -2.0 + 2j * cmath.pi / branch
    weighted = WeightedSpace(dim=dim, blocks=(
        (-2.0, tuple(range(0, dim, 2))), (alias, tuple(range(1, dim, 2)))))
    report = check_dynamical_ybe(nf, 2, 1, ps.u, ps.v, ps.w, lam, a=branch,
                                 weighted=weighted)
    assert report.passed, report.residual
    fake = WeightedSpace(dim=dim, blocks=(
        (-2.0, tuple(range(0, dim, 2))), (-3.0, tuple(range(1, dim, 2)))))
    report = check_dynamical_ybe(nf, 2, 1, ps.u, ps.v, ps.w, lam, a=branch,
                                 weighted=fake)
    assert not report.passed
