"""Where tolerances live: verdicts take tol, constructions take none."""

import inspect
import math

import pytest

from xrmatrix import dynamical, fusion, rmatrix, superalgebra, tensorops
from xrmatrix.rmatrix import check_forms_equal
from xrmatrix.scalars import ExactField, NumericField
from xrmatrix.tensorops import passes

# the verdict rule itself, and restrict_action, whose invariance guard
# check_tensor_square turns off with math.inf to report the residual
_TAKES_TOL = {"passes", "restrict_action"}


def _public_callables(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


def test_only_verdicts_take_tol():
    offenders = []
    for module in (fusion, dynamical, superalgebra, rmatrix, tensorops):
        for name, obj in _public_callables(module):
            if name.startswith("check_") or name in _TAKES_TOL:
                continue
            if "tol" in inspect.signature(obj).parameters:
                offenders.append(f"{module.__name__}.{name}")
    assert offenders == []


def test_the_walk_sees_the_verdicts():
    # guard against a walk that passes because it sees nothing
    seen = {f"{m.__name__}.{name}"
            for m in (fusion, dynamical, superalgebra, rmatrix, tensorops)
            for name, _ in _public_callables(m)}
    assert {"xrmatrix.fusion.check_fused_ybe",
            "xrmatrix.fusion.symmetrizer",
            "xrmatrix.dynamical.DynamicalRMatrix",
            "xrmatrix.tensorops.matrix_rank",
            "xrmatrix.superalgebra.check_tensor_square"} <= seen


@pytest.mark.parametrize("res", [0.0, 1e-300, math.inf, math.nan])
def test_numeric_fails_everything_at_zero_tolerance(res):
    # a float residual is never below 0, not even an exact 0.0
    assert passes(res, False, 0.0) is False


def test_exact_passes_zero_alone_at_any_tolerance():
    for tol in (0.0, 1e-10, math.inf):
        assert passes(0.0, True, tol) is True
        assert passes(math.inf, True, tol) is False


def test_zero_tolerance_on_both_backends(ps):
    # the two R-matrix constructions agree: to rounding on the numeric
    # backend, identically on the exact one
    nf, ef = NumericField(ps.q), ExactField()
    numeric = check_forms_equal(nf, ps.u, ps.v, ps.x, tol=0.0)
    assert not numeric.passed and numeric.residual < 1e-12
    exact = check_forms_equal(ef, ef.u, ef.v, ef.x, tol=0.0)
    assert exact.passed and exact.residual == 0.0


def test_numeric_rule_is_strict():
    assert passes(1e-10, False, 1e-10) is False
    assert passes(0.99e-10, False, 1e-10) is True
