"""The verification workloads of the xrmatrix benchmark.

Each workload has four parts:

- ``make_inputs(seed)`` builds everything the program is handed:
  sampled ``ParamSet`` values, fields, symbolic variables or a command
  line.  The benchmark's set-up time covers it.
- ``warm(inputs)`` runs a small check through the same code so that
  lazy initialisation (BLAS buffers, cached reduced words) is done
  before timing.  It costs a small fraction of a pass.
- ``run_pass(inputs)`` is one timed pass.  It returns the operations it
  attempted, as (label, ok) pairs, and the outputs to check.  A
  negative control is an operation that is ok when its check fails.
  Nothing computed in one pass is reused by the next.
- ``check(inputs, outputs)`` compares the outputs with the closed forms
  in ``checks`` and returns a list of problems.  It runs untimed.

Exact workloads are symbolic in q, u, v, w, x; their seed only picks
the points at which the exact outputs are evaluated for checking.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import xrmatrix as xr
from xrmatrix import cli

import checks

# a negative control must miss its identity by at least this much,
# the threshold the verify command's own controls use
CONTROL_FLOOR = 1e-3


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable
    warm: Callable
    run_pass: Callable
    check: Callable


def _points(seed):
    """Two sampled parameter points for evaluating exact outputs."""
    return [xr.sample_params(1000 * seed + k) for k in range(2)]


# ---------------------------------------------------------------------------
# fused-n3: the numeric three-leg fused YBE (acceptance 09)

def _fused_n3_inputs(seed):
    cases = []
    for ps, sign in ((xr.sample_params(seed), 1),
                     (xr.sample_params(seed + 1), -1)):
        cases.append((xr.NumericField(ps.q), ps, sign))
    return cases


def _fused_n3_warm(cases):
    fld, ps, sign = cases[0]
    xr.check_fused_ybe(fld, 2, sign, ps.u, ps.v, ps.w, ps.x, tol=1e-8)


def _fused_n3_pass(cases):
    ops = []
    for fld, ps, sign in cases:
        rep = xr.check_fused_ybe(fld, 3, sign, ps.u, ps.v, ps.w, ps.x,
                                 tol=1e-7)
        ops.append((f"fused-ybe n=3 seed={ps.seed} sign={sign:+d}",
                    rep.passed))
    fld, ps, sign = cases[0]
    control = xr.check_fused_ybe(fld, 3, sign, ps.u, ps.v, ps.w, ps.x,
                                 tol=1e-7, shift=2)
    ops.append((f"control shift=2 seed={ps.seed}",
                control.residual > CONTROL_FLOOR))
    return ops, None


def _fused_n3_check(cases, _):
    bad = []
    for fld, ps, sign in cases:
        sym = xr.symmetrizer(fld, 3, ps.x, sign)
        bad += checks.check_symmetrizer_constant(sym.constant, ps.q, 3, sign)
        space = xr.fused_space(fld, 3, ps.x, sign, sym=sym)
        bad += checks.check_fused_dim(space.dim, 3)
    return bad


# ---------------------------------------------------------------------------
# verify-all: every level through the command line, default threading

VERIFY_REPORTS = 40


def _verify_all_inputs(seed):
    return ["verify", "all", "--samples", "3", "--seed", str(seed),
            "--negative-controls"]


def _verify_single_thread_inputs(seed):
    return _verify_all_inputs(seed) + ["--single-thread"]


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _verify_all_warm(argv):
    _run_cli(["verify", "box-ybe", "--samples", "1"])


def _verify_all_pass(argv):
    code, text = _run_cli(argv)
    reports = [json.loads(line) for line in text.splitlines()]
    ops = [(f"{r['check']} seed={r['seed']}", r["pass"]) for r in reports]
    return ops, (code, reports)


def _complex(payload):
    return complex(payload["re"], payload["im"])


def _verify_all_check(argv, outputs):
    code, reports = outputs
    bad = []
    if len(reports) != VERIFY_REPORTS:
        bad.append(f"{len(reports)} reports, want {VERIFY_REPORTS}")
    if code != (0 if all(r["pass"] for r in reports) else 1):
        bad.append(f"exit code {code} disagrees with the reports")
    if not any(r["check"].startswith("negative:") for r in reports):
        bad.append("no negative control ran")
    for r in reports:
        if r["check"] == "relations":
            first, second = (_complex(c)
                             for c in r["details"]["central_scalars"])
            bad += checks.check_central_scalars(first, second,
                                                _complex(r["params"]["x"]))
    # the lemma2 level reports its constants in the order sign +, sign -
    lemma2 = [r for r in reports if r["check"] == "lemma2"]
    if len(lemma2) != 2:
        bad.append(f"{len(lemma2)} lemma2 reports, want 2")
    for r, sign in zip(lemma2, (1, -1)):
        bad += checks.check_fusion_constant(
            _complex(r["details"]["constant"]), _complex(r["params"]["q"]),
            sign)
    return bad


# ---------------------------------------------------------------------------
# exact-identities: the exact backend on symbolic q, u, v, w, x

def _exact_inputs(seed):
    return xr.ExactField(), _points(seed)


def _exact_identities_warm(inputs):
    fld, _ = inputs
    xr.check_hecke_relations(fld, 2, fld.x)


def _exact_identities_pass(inputs):
    fld, _ = inputs
    u, v, w, x = fld.u, fld.v, fld.w, fld.x
    box = xr.vector_builder(fld)
    rel = xr.check_relations(xr.vector_rep(fld, x))
    ops = [
        ("relations", rel.passed),
        ("tensor-square split",
         xr.check_tensor_square(fld, x, fld.q * x).passed),
        ("r-forms-equal", xr.check_forms_equal(fld, u, v, x).passed),
        ("intertwining", xr.check_intertwining(
            fld, xr.vector_rmatrix(fld, u, v, x), u, v, x).passed),
        ("box-ybe", xr.check_twisted_ybe(fld, box, u, v, w, x).passed),
        ("control box-ybe shift=0", not xr.check_twisted_ybe(
            fld, box, u, v, w, x, shift=0).passed),
        ("hecke n=2", xr.check_hecke_relations(fld, 2, x).passed),
        ("hecke n=3", xr.check_hecke_relations(fld, 3, x).passed),
    ]
    fusion = []
    for sign in (1, -1):
        sym = xr.symmetrizer(fld, 2, x, sign)
        const = xr.fusion_constant(fld, 2, u, x, sign, sym=sym)
        fusion.append((sign, sym.constant, const))
        ops.append((f"fusion constant n=2 sign={sign:+d}", True))
    return ops, (rel.details["central_scalars"], fusion)


def _exact_identities_check(inputs, outputs):
    _, points = inputs
    scalars, fusion = outputs
    bad = []
    if scalars[1]["num"]:
        bad.append("second central scalar is not identically zero")
    for ps in points:
        pt = ps.point()
        bad += checks.check_central_scalars(
            checks.evaluate_json_scalar(scalars[0], pt), 0, ps.x)
        for sign, sym_const, const in fusion:
            bad += checks.check_symmetrizer_constant(
                checks.evaluate_exact(sym_const, pt), ps.q, 2, sign)
            bad += checks.check_fusion_constant(
                checks.evaluate_exact(const, pt), ps.q, sign)
    return bad


# ---------------------------------------------------------------------------
# exact-fused-n2: one exact fused R-matrix, n=2, sign +

def _exact_fused_warm(inputs):
    fld, _ = inputs
    xr.fused_rmatrix(fld, 1, fld.u, fld.v, fld.x, 1)


def _exact_fused_pass(inputs):
    fld, _ = inputs
    r = xr.fused_rmatrix(fld, 2, fld.u, fld.v, fld.x, 1)
    return [("exact fused-rmatrix n=2 sign=+1", True)], r


def _exact_fused_check(inputs, r):
    _, points = inputs
    bad = []
    for dim in r.legs:
        bad += checks.check_fused_dim(dim, 2)
    ps = points[0]
    numeric = xr.fused_rmatrix(xr.NumericField(ps.q), 2, ps.u, ps.v, ps.x, 1)
    bad += checks.check_power_traces(
        checks.evaluate_exact_matrix(r.mat, ps.point()), numeric.mat)
    return bad


WORKLOADS = {
    "fused-n3": Workload(_fused_n3_inputs, _fused_n3_warm, _fused_n3_pass,
                         _fused_n3_check),
    "verify-all": Workload(_verify_all_inputs, _verify_all_warm,
                           _verify_all_pass, _verify_all_check),
    # not in BENCHMARK.json: the sequential reference for verify-all
    "verify-single-thread": Workload(_verify_single_thread_inputs,
                                     _verify_all_warm, _verify_all_pass,
                                     _verify_all_check),
    "exact-identities": Workload(_exact_inputs, _exact_identities_warm,
                                 _exact_identities_pass,
                                 _exact_identities_check),
    # not in BENCHMARK.json: a run gets one 40-50 s pass, a single sample
    # of a shared host's drifting speed, and it would take most of the
    # time budget
    "exact-fused-n2": Workload(_exact_inputs, _exact_fused_warm,
                               _exact_fused_pass, _exact_fused_check),
}
