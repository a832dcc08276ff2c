"""Tests of the benchmark itself: each output check accepts the
program's real output and rejects a perturbed one, and the tracer's
counts repeat and leave no wrapper behind.

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import xrmatrix as xr  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

PS = xr.sample_params(3)
FLD = xr.NumericField(PS.q)
NUDGE = 1 + 1e-6


def test_fused_dim():
    for n in (2, 3):
        dim = xr.fused_space(FLD, n, PS.x, 1).dim
        assert checks.check_fused_dim(dim, n) == []
        assert checks.check_fused_dim(dim + 1, n)
        assert checks.check_fused_dim(dim, n + 1)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_symmetrizer_constant(n, sign):
    const = xr.symmetrizer(FLD, n, PS.x, sign).constant
    assert checks.check_symmetrizer_constant(const, PS.q, n, sign) == []
    assert checks.check_symmetrizer_constant(const * NUDGE, PS.q, n, sign)
    assert checks.check_symmetrizer_constant(const, PS.q, n, -sign)


@pytest.mark.parametrize("sign", [1, -1])
def test_fusion_constant(sign):
    const = xr.fusion_constant(FLD, 2, PS.u, PS.x, sign)
    assert checks.check_fusion_constant(const, PS.q, sign) == []
    assert checks.check_fusion_constant(const * NUDGE, PS.q, sign)
    assert checks.check_fusion_constant(const, PS.q, -sign)


def test_central_scalars():
    rep = xr.check_relations(xr.vector_rep(FLD, PS.x))
    first, second = (complex(c["re"], c["im"])
                     for c in rep.details["central_scalars"])
    assert checks.check_central_scalars(first, second, PS.x) == []
    assert checks.check_central_scalars(first * NUDGE, second, PS.x)
    assert checks.check_central_scalars(first, 1e-9, PS.x)
    assert checks.check_central_scalars(-first, second, PS.x)


def test_power_traces_are_basis_free_and_catch_a_wrong_entry():
    exact = xr.ExactField()
    r = xr.fused_rmatrix(exact, 1, exact.u, exact.v, exact.x, 1)
    at_point = checks.evaluate_exact_matrix(r.mat, PS.point())
    numeric = xr.fused_rmatrix(FLD, 1, PS.u, PS.v, PS.x, 1).mat
    assert checks.check_power_traces(at_point, numeric) == []
    change = np.random.default_rng(0).normal(size=numeric.shape) + np.eye(
        numeric.shape[0]) * 4
    similar = np.linalg.solve(change, numeric @ change)
    assert checks.check_power_traces(at_point, similar) == []
    wrong = numeric.copy()
    wrong[2, 2] *= NUDGE
    assert checks.check_power_traces(at_point, wrong)


def test_exact_evaluation_matches_the_program():
    exact = xr.ExactField()
    s = (exact.q * exact.x - exact.u) / (exact.v + exact.q_power(-2))
    want = (PS.q * PS.x - PS.u) / (PS.v + PS.q ** -2)
    assert abs(checks.evaluate_exact(s, PS.point()) - want) < 1e-12


def test_verify_all_check_rejects_perturbed_reports():
    wl = workloads.WORKLOADS["verify-all"]
    argv = workloads.WORKLOADS["verify-single-thread"].make_inputs(7)
    ops, (code, reports) = wl.run_pass(argv)
    assert all(ok for _, ok in ops) and len(ops) == 40
    assert wl.check(argv, (code, reports)) == []

    def perturbed(edit):
        bad = copy.deepcopy(reports)
        edit(bad)
        return wl.check(argv, (code, bad))

    lemma2 = next(i for i, r in enumerate(reports) if r["check"] == "lemma2")
    relations = next(i for i, r in enumerate(reports)
                     if r["check"] == "relations")

    def nudge_constant(rs):
        rs[lemma2]["details"]["constant"]["re"] *= NUDGE

    def nudge_central(rs):
        rs[relations]["details"]["central_scalars"][1]["re"] = 1e-9

    def swap_signs(rs):
        i = [k for k, r in enumerate(rs) if r["check"] == "lemma2"]
        rs[i[0]], rs[i[1]] = rs[i[1]], rs[i[0]]

    assert perturbed(nudge_constant)
    assert perturbed(nudge_central)
    assert perturbed(swap_signs)
    assert perturbed(lambda rs: rs.pop())
    assert wl.check(argv, (1, reports))


def test_exact_identities_check_rejects_perturbed_outputs():
    wl = workloads.WORKLOADS["exact-identities"]
    inputs = wl.make_inputs(0)
    ops, (scalars, fusion) = wl.run_pass(inputs)
    assert all(ok for _, ok in ops) and len(ops) == 10
    assert wl.check(inputs, (scalars, fusion)) == []
    (s1, sym1, c1), rest = fusion[0], fusion[1:]
    assert wl.check(inputs, (scalars, [(s1, sym1, c1 * 2)] + rest))
    assert wl.check(inputs, (scalars, [(s1, sym1 + 1, c1)] + rest))
    assert wl.check(inputs, (scalars, [(-s1, sym1, c1)] + rest))
    swapped = [scalars[1], scalars[0]]
    assert wl.check(inputs, (swapped, fusion))


def test_tracer_counts_repeat_and_wrappers_are_removed():
    original = xr.fusion.symmetrizer
    tracer = Tracer()
    figures = []
    for _ in range(2):
        tracer.install()
        assert xr.fusion.symmetrizer is not original
        xr.check_fused_ybe(FLD, 2, 1, PS.u, PS.v, PS.w, PS.x)
        tracer.remove()
        figures.append(tracer.end_pass())
    assert xr.fusion.symmetrizer is original
    assert xr.symmetrizer is original
    counts = [{k: v for k, v in f.items() if not isinstance(v, float)}
              for f in figures]
    assert counts[0] == counts[1]
    # fused spaces at x, q^2 x and q^4 x; the builder caches the rest
    assert counts[0]["fusion.fused_space_calls"] == 3
    assert counts[0]["rmatrix.build_calls"] > 0
    assert figures[0]["rmatrix.ybe_composite_s"] > 0
