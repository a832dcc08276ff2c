"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line; run with `pytest -s` (or read the
captured output) for the human-readable summary.
"""

import cmath
import time

import numpy as np
import pytest

from xrmatrix import (GENERATORS, ExactField, NumericField,
                      check_dynamical_ybe, check_forms_equal,
                      check_fused_intertwining, check_fused_ybe,
                      check_hecke_relations, check_intertwining,
                      check_projector_commutation, check_relations,
                      check_tensor_square, check_twisted_ybe,
                      commutant_dimension, fused_local_rep, fused_rmatrix,
                      fused_space, fusion_constant, q_profile, sample_params,
                      symmetrizer, tensor_square_restrictions, tuple_rep,
                      vector_builder, vector_rep, vector_rmatrix)
from xrmatrix.fusion import apply_chain
from xrmatrix.permutations import Permutation, concat_tuples
from xrmatrix.tensorops import SubspaceBasis, restrict_action


def _report(num, name, ok, detail="", budget=None, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s/{budget:.0f}s]" if budget else ""
    print(f"acceptance {num:02d} {name}: {status}{timing} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_01_relations_suite():
    with Stopwatch() as sw:
        exact = ExactField()
        rep = check_relations(vector_rep(exact, exact.x))
        ok = rep.passed and rep.residual == 0.0
        scalars = rep.details["central_scalars"]
        ok = ok and scalars[0]["num"] == [{"exp": [0, 0, 0, 0, 1],
                                           "coeff": -1}]
        ok = ok and scalars[1]["num"] == []
        worst = 0.0
        for seed in range(20):
            ps = sample_params(seed)
            fld = NumericField(ps.q)
            report = check_relations(vector_rep(fld, ps.x), tol=1e-12)
            worst = max(worst, report.residual)
            c1, c2 = report.details["central_scalars"]
            ok = ok and report.passed
            ok = ok and abs(complex(c1["re"], c1["im"]) + ps.x) < 1e-12
            ok = ok and c2 == {"re": 0.0, "im": 0.0}
    _report(1, "defining relations", ok and sw.elapsed < 1.0,
            f"worst residual {worst:.2e}", budget=1.0, elapsed=sw.elapsed)


def test_02_tensor_square_split():
    with Stopwatch() as sw:
        ps = sample_params(0)
        fld = NumericField(ps.q)
        tuned = check_tensor_square(fld, ps.x, fld.q * ps.x, tol=1e-10)
        ok = tuned.passed and tuned.details["joint_rank"] == 16
        detuned_floor = np.inf
        for seed in range(1, 11):
            y = sample_params(seed).y
            bad = check_tensor_square(fld, ps.x, y, tol=1e-10)
            detuned_floor = min(detuned_floor, bad.details["v2_residual"])
        ok = ok and detuned_floor > 1e-3
    _report(2, "tensor-square split", ok and sw.elapsed < 1.0,
            f"tuned residual {tuned.residual:.2e}, "
            f"detuned floor {detuned_floor:.2e}", budget=1.0,
            elapsed=sw.elapsed)


def test_03_two_constructions_agree():
    with Stopwatch() as sw:
        exact = ExactField()
        ok = check_forms_equal(exact, exact.u, exact.v, exact.x).passed
        worst = 0.0
        for seed in range(5):
            ps = sample_params(seed)
            fld = NumericField(ps.q)
            for u, v, x in ((ps.u, ps.v, ps.x), (ps.u, ps.v, 0j),
                            (ps.u, ps.u, ps.x)):
                rep = check_forms_equal(fld, u, v, x, tol=1e-12)
                ok = ok and rep.passed
                worst = max(worst, rep.residual)
    _report(3, "spectral vs explicit form", ok and sw.elapsed < 1.0,
            f"worst numeric residual {worst:.2e}", budget=1.0,
            elapsed=sw.elapsed)


def test_04_intertwining():
    with Stopwatch() as sw:
        ok = True
        worst = 0.0
        for seed in range(20):
            ps = sample_params(seed)
            fld = NumericField(ps.q)
            r = vector_rmatrix(fld, ps.u, ps.v, ps.x)
            rep = check_intertwining(fld, r, ps.u, ps.v, ps.x, tol=1e-10)
            ok = ok and rep.passed
            worst = max(worst, rep.residual)
            # the correction-term path must be exercised explicitly
            rep_uv = tuple_rep(fld, (ps.u, ps.v), ps.x)
            rep_vu = tuple_rep(fld, (ps.v, ps.u), ps.x)
            delta = r.mat @ rep_uv.image("F0") - rep_vu.image("F0") @ r.mat
            ok = ok and np.linalg.norm(delta) < 1e-10 * np.linalg.norm(r.mat)
    _report(4, "intertwining, 13 generators incl F0",
            ok and sw.elapsed < 1.0, f"worst residual {worst:.2e}",
            budget=1.0, elapsed=sw.elapsed)


def test_05_elementary_twisted_ybe():
    with Stopwatch() as sw_exact:
        exact = ExactField()
        rep = check_twisted_ybe(exact, vector_builder(exact), exact.u,
                                exact.v, exact.w, exact.x)
        ok = rep.passed and rep.residual == 0.0
    with Stopwatch() as sw_num:
        worst = 0.0
        for seed in range(20):
            ps = sample_params(seed)
            fld = NumericField(ps.q)
            num = check_twisted_ybe(fld, vector_builder(fld), ps.u, ps.v,
                                    ps.w, ps.x, tol=1e-9)
            ok = ok and num.passed
            worst = max(worst, num.residual)
        ps = sample_params(0)
        fld = NumericField(ps.q)
        control = check_twisted_ybe(fld, vector_builder(fld), ps.u, ps.v,
                                    ps.w, ps.x, shift=0)
        ok = ok and control.residual > 1e-3
    _report(5, "elementary twisted YBE",
            ok and sw_exact.elapsed < 30.0 and sw_num.elapsed < 1.0,
            f"exact identical, numeric worst {worst:.2e}, "
            f"shift-0 control {control.residual:.2e} "
            f"(exact {sw_exact.elapsed:.2f}s/30s)",
            budget=1.0, elapsed=sw_num.elapsed)


def test_06_hecke_suite():
    with Stopwatch() as sw:
        ps = sample_params(1)
        fld = NumericField(ps.q)
        ok = True
        worst = 0.0
        for n in (2, 3, 4):
            rep = check_hecke_relations(fld, n, ps.x, tol=1e-10)
            ok = ok and rep.passed
            worst = max(worst, rep.residual)
            for sign in (1, -1):
                sym = symmetrizer(fld, n, ps.x, sign)
                t = fld.q ** (2 * sign)
                expected = 1.0 + 0j
                for k in range(2, n + 1):
                    expected *= sum(t ** j for j in range(k))
                ok = ok and abs(sym.constant - expected) < 1e-10 * abs(expected)
    _report(6, "Hecke suite n=2,3,4", ok and sw.elapsed < 5.0,
            f"worst residual {worst:.2e}", budget=5.0, elapsed=sw.elapsed)


def test_07_reversal_chain_constants():
    with Stopwatch() as sw:
        ps = sample_params(2)
        fld = NumericField(ps.q)
        a_plus = fusion_constant(fld, 2, ps.u, ps.x, 1)
        a_minus = fusion_constant(fld, 2, ps.u, ps.x, -1)
        dev_p = abs(a_plus - (1 - fld.q ** -2))
        dev_m = abs(a_minus - fld.q ** 2 * (fld.q ** 2 - 1))
        ok = dev_p < 1e-10 and dev_m < 1e-10
        for sign, ref in ((1, a_plus), (-1, a_minus)):
            for probe_u in (ps.v, ps.w):
                other = fusion_constant(fld, 2, probe_u, ps.x, sign)
                ok = ok and abs(other - ref) < 1e-10 * abs(ref)
            for probe_x in (ps.y, 0.5 * ps.x):
                other = fusion_constant(fld, 2, ps.u, probe_x, sign)
                ok = ok and abs(other - ref) < 1e-10 * abs(ref)
    _report(7, "symmetrizer proportionality constants",
            ok and sw.elapsed < 2.0,
            f"closed-form deviations {dev_p:.2e}, {dev_m:.2e}",
            budget=2.0, elapsed=sw.elapsed)


def test_08_fusion_two_legs():
    with Stopwatch() as sw:
        ok = True
        inv_worst = 0.0
        ybe_worst = 0.0
        first = sample_params(0)
        first_fld = NumericField(first.q)
        ok = ok and fused_space(first_fld, 2, first.x, 1).dim == 8
        ok = ok and fused_space(first_fld, 2, first.x, -1).dim == 8
        for seed in range(5):
            ps = sample_params(seed)
            fld = NumericField(ps.q)
            sign = 1 if seed % 2 == 0 else -1
            assert fused_space(fld, 2, ps.x, sign).dim == 8
            # restriction invariance residual, computed explicitly
            sp1 = fused_space(fld, 2, ps.x, sign)
            sp2 = fused_space(fld, 2, fld.q ** 2 * ps.x, sign)
            gam = Permutation.reversal(2)
            prof = q_profile(fld, 2, sign)
            tup = concat_tuples(gam.act(tuple(ps.u * p for p in prof)),
                                gam.act(tuple(ps.v * p for p in prof)))
            block = np.kron(sp1.basis.columns, sp2.basis.columns)
            action = apply_chain(fld, tup, ps.x, Permutation.block_swap(2),
                                 block)
            _, inv_res = restrict_action(SubspaceBasis(block), action,
                                         tol=1e-9)
            inv_worst = max(inv_worst, inv_res)
            inter = check_fused_intertwining(fld, 2, ps.u, ps.v, ps.x, sign,
                                             tol=1e-9)
            ok = ok and inter.passed
            ybe = check_fused_ybe(fld, 2, sign, ps.u, ps.v, ps.w, ps.x,
                                  tol=1e-8)
            ok = ok and ybe.passed
            ybe_worst = max(ybe_worst, ybe.residual)
        ps = sample_params(0)
        fld = NumericField(ps.q)
        control = check_fused_ybe(fld, 2, 1, ps.u, ps.v, ps.w, ps.x,
                                  shift=1)
        ok = ok and inv_worst < 1e-9 and control.residual > 1e-3
    _report(8, "two-leg fusion", ok and sw.elapsed < 30.0,
            f"d=8, invariance {inv_worst:.2e}, YBE worst {ybe_worst:.2e}, "
            f"shift-1 control {control.residual:.2e}",
            budget=30.0, elapsed=sw.elapsed)


def test_09_fusion_three_legs():
    with Stopwatch() as sw:
        ok = True
        worst = 0.0
        for seed, sign in ((0, 1), (1, -1)):
            ps = sample_params(seed)
            fld = NumericField(ps.q)
            assert fused_space(fld, 3, ps.x, sign).dim == 12
            ybe = check_fused_ybe(fld, 3, sign, ps.u, ps.v, ps.w, ps.x,
                                  tol=1e-7)
            ok = ok and ybe.passed
            worst = max(worst, ybe.residual)
    _report(9, "three-leg fusion", ok and sw.elapsed < 600.0,
            f"d=12, YBE worst {worst:.2e}", budget=600.0,
            elapsed=sw.elapsed)


def test_10_projector_commutation():
    with Stopwatch() as sw:
        ps = sample_params(3)
        fld = NumericField(ps.q)
        ok = True
        worst = 0.0
        for sign in (1, -1):
            rep = check_projector_commutation(fld, 2, ps.u, ps.v, ps.x,
                                              sign, tol=1e-9)
            ok = ok and rep.passed
            worst = max(worst, rep.residual)
    _report(10, "projector commutation chain", ok and sw.elapsed < 5.0,
            f"worst residual {worst:.2e}", budget=5.0, elapsed=sw.elapsed)


def test_11_dynamical_reduction():
    with Stopwatch() as sw:
        ps = sample_params(4)
        fld = NumericField(ps.q)
        a = cmath.log(fld.q)
        lam = complex(0.6, -0.3)
        dyn = check_dynamical_ybe(fld, 2, 1, ps.u, ps.v, ps.w, lam, a=a)
        x_eff = cmath.exp(a * lam)
        twisted = check_fused_ybe(fld, 2, 1, ps.u, ps.v, ps.w, x_eff)
        ok = dyn.passed and dyn.residual == twisted.residual
        control = check_dynamical_ybe(fld, 2, 1, ps.u, ps.v, ps.w, lam, a=a,
                                      weight=-3)
        ok = ok and control.residual > 1e-3
    _report(11, "dynamical YBE reduction", ok and sw.elapsed < 30.0,
            f"residuals equal bitwise ({dyn.residual:.2e}), "
            f"fake-weight control {control.residual:.2e}",
            budget=30.0, elapsed=sw.elapsed)


def test_12_irreducibility_probes():
    with Stopwatch() as sw:
        ps = sample_params(5)
        fld = NumericField(ps.q)
        rep = vector_rep(fld, ps.x)
        dims = [commutant_dimension([rep.image(t) for t in GENERATORS])]
        fam1, fam2 = tensor_square_restrictions(fld, ps.x)
        dims.append(commutant_dimension([f.mat for f in fam1]))
        dims.append(commutant_dimension([f.mat for f in fam2]))
        for sign in (1, -1):
            fused = fused_local_rep(fld, 2, ps.u, ps.x, sign)
            dims.append(commutant_dimension(
                [fused.image(t) for t in GENERATORS]))
        ok = dims == [1, 1, 1, 1, 1]
    _report(12, "irreducibility probes", ok and sw.elapsed < 30.0,
            f"commutant dims {dims}", budget=30.0, elapsed=sw.elapsed)
