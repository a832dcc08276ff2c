"""Command-line entry points.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage error
(argparse default), 3 I/O error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

from .cartan import cartan_json
from .dynamical import check_dynamical_ybe
from .fusion import (_MAX_SYMMETRIC_GROUP, check_fused_ybe, fused_restriction,
                     fused_space, fusion_constant, symmetrizer)
from .reports import basis_to_json, dump, matrix_to_json
from .rmatrix import (check_twisted_ybe, vector_builder, vector_rmatrix,
                      vector_rmatrix_spectral)
from .scalars import ExactField, NumericField, sample_params
from .suite import LEVELS, SuiteConfig, _timed, run_suite
from .superalgebra import check_relations, check_tensor_square, vector_rep


def parse_complex(text: str) -> complex:
    """'re,im' pairs; a bare 're' is taken as real."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")


def _parse_q(text: str) -> complex:
    """q enters through q^-1 and 1/(q - q^-1): 0, 1 and -1 are rejected."""
    q = parse_complex(text)
    if q == 0 or q * q == 1:
        raise argparse.ArgumentTypeError(
            f"q must be nonzero with q^2 != 1, got {text!r}")
    return q


def _tolerance(text: str) -> float:
    tol = float(text)
    if not tol >= 0:
        raise argparse.ArgumentTypeError(
            f"tolerance must be >= 0, got {text!r}")
    return tol


def _sample_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"at least one sample is needed, got {text!r}")
    return count


def _add_common(p, *names):
    for name in names:
        if name == "q":
            p.add_argument("--q", type=_parse_q, default=None)
        elif name in ("u", "v", "w", "x", "y", "lambda"):
            p.add_argument(f"--{name}", type=parse_complex, default=None)
        elif name == "backend":
            p.add_argument("--backend", choices=("numeric", "exact"),
                           default="numeric")
        elif name == "tol":
            p.add_argument("--tol", type=_tolerance, default=None)
        elif name == "seed":
            p.add_argument("--seed", type=int, default=7)
        elif name == "samples":
            p.add_argument("--samples", type=_sample_count, default=3)
        elif name == "n":
            p.add_argument("--n", type=int, default=2,
                           choices=range(1, _MAX_SYMMETRIC_GROUP + 1))
        elif name == "sign":
            p.add_argument("--sign", choices=("plus", "minus"),
                           default="plus")
        elif name == "output":
            p.add_argument("--output", default=None)


def _sign_value(text: str) -> int:
    return 1 if text == "plus" else -1


def _tol(args, default: float) -> float:
    return default if args.tol is None else args.tol


def _fill_params(args, *names):
    """Substitute seed-sampled values for omitted numeric parameters."""
    ps = sample_params(args.seed)
    for name in names:
        if getattr(args, name, None) is None:
            setattr(args, name, getattr(ps, name))
    return ps


def _run(check, *args, **kwargs):
    """Run one check and stamp its wall time, as run_suite does."""
    return _timed(None, lambda: check(*args, **kwargs))()


def _emit(report, stream):
    stream.write(json.dumps(report.to_json(), sort_keys=True) + "\n")
    stream.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xrmatrix",
        description="Construct the x-parametric R-matrices and verify "
                    "their defining identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dump-cartan", help="Cartan matrix, parities, grading")
    _add_common(p, "output")

    p = sub.add_parser("check-relations", help="defining relations of the "
                                               "vector representation")
    _add_common(p, "q", "x", "backend", "tol", "seed")

    p = sub.add_parser("check-lemma1", help="tensor-square submodule split")
    _add_common(p, "q", "x", "y", "tol", "seed")

    p = sub.add_parser("build-r", help="write the vector R-matrix as JSON")
    _add_common(p, "u", "v", "x", "q", "backend", "seed", "output")
    p.add_argument("--form", choices=("spectral", "explicit"),
                   default="explicit")

    p = sub.add_parser("check-ybe", help="twisted Yang-Baxter equation")
    p.add_argument("--level", choices=("box", "fused"), default="box")
    _add_common(p, "q", "u", "v", "w", "x", "n", "sign", "backend", "tol",
                "seed", "samples")

    p = sub.add_parser("fusion-report", help="fused dimensions, constants, "
                                             "and residuals")
    _add_common(p, "n", "sign", "q", "x", "u", "v", "seed", "tol")
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("check-dynamical", help="quantum dynamical YBE")
    _add_common(p, "n", "sign", "lambda", "q", "u", "v", "w", "tol", "seed")

    p = sub.add_parser("verify", help="run a verification level")
    p.add_argument("level", choices=LEVELS)
    _add_common(p, "backend", "tol", "seed", "samples", "n", "sign", "output")
    p.add_argument("--single-thread", action="store_true",
                   help="accepted for compatibility; checks always run "
                        "sequentially")
    p.add_argument("--negative-controls", action="store_true")
    return parser


def _cmd_dump_cartan(args) -> int:
    payload = cartan_json()
    if args.output:
        dump(payload, args.output)
    else:
        print(json.dumps(payload, sort_keys=True, indent=1))
    return 0


def _cmd_check_relations(args) -> int:
    tol = _tol(args, 1e-12)
    if args.backend == "exact":
        fld = ExactField()
        report = _run(check_relations, vector_rep(fld, fld.x), tol=tol)
    else:
        _fill_params(args, "q", "x")
        fld = NumericField(args.q)
        report = _run(check_relations, vector_rep(fld, args.x), tol=tol,
                      params={"q": [args.q.real, args.q.imag],
                              "x": [args.x.real, args.x.imag]},
                      seed=args.seed)
    _emit(report, sys.stdout)
    return 0 if report.passed else 1


def _cmd_check_lemma1(args) -> int:
    tol = _tol(args, 1e-10)
    _fill_params(args, "q", "x", "y")
    fld = NumericField(args.q)
    report = _run(check_tensor_square, fld, args.x, args.y, tol=tol,
                  seed=args.seed)
    _emit(report, sys.stdout)
    return 0 if report.passed else 1


def _cmd_build_r(args) -> int:
    builder = (vector_rmatrix if args.form == "explicit"
               else vector_rmatrix_spectral)
    if args.backend == "exact":
        fld = ExactField()
        op = builder(fld, fld.u, fld.v, fld.x)
    else:
        _fill_params(args, "q", "u", "v", "x")
        fld = NumericField(args.q)
        op = builder(fld, args.u, args.v, args.x)
    payload = matrix_to_json(op.mat, op.legs)
    payload["form"] = args.form
    payload["backend"] = args.backend
    if args.output:
        dump(payload, args.output)
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_check_ybe(args) -> int:
    sign = _sign_value(args.sign)
    ok = True
    if args.backend == "exact":
        fld = ExactField()
        if args.level == "box":
            report = _run(check_twisted_ybe, fld, vector_builder(fld), fld.u,
                          fld.v, fld.w, fld.x, tol=_tol(args, 1e-9),
                          name="box-ybe")
        else:
            report = _run(check_fused_ybe, fld, args.n, sign, fld.u, fld.v,
                          fld.w, fld.x, tol=_tol(args, 1e-8))
        _emit(report, sys.stdout)
        return 0 if report.passed else 1
    for seed in range(args.seed, args.seed + args.samples):
        ps = sample_params(seed)
        fld = NumericField(args.q if args.q is not None else ps.q)
        u = args.u if args.u is not None else ps.u
        v = args.v if args.v is not None else ps.v
        w = args.w if args.w is not None else ps.w
        x = args.x if args.x is not None else ps.x
        if args.level == "box":
            report = _run(check_twisted_ybe, fld, vector_builder(fld), u, v,
                          w, x, tol=_tol(args, 1e-9), params=ps, seed=seed,
                          name="box-ybe")
        else:
            report = _run(check_fused_ybe, fld, args.n, sign, u, v, w, x,
                          tol=_tol(args, 1e-8), params=ps, seed=seed)
        _emit(report, sys.stdout)
        ok = ok and report.passed
    return 0 if ok else 1


def _cmd_fusion_report(args) -> int:
    _fill_params(args, "q", "x", "u", "v")
    sign = _sign_value(args.sign)
    fld = NumericField(args.q)
    # --tol sets the YBE verdict only; the constructions keep their guards
    payload = {"n": args.n, "sign": args.sign}
    for sg, label in ((1, "plus"), (-1, "minus")):
        sym = symmetrizer(fld, args.n, args.x, sg)
        space = fused_space(fld, args.n, args.x, sg, sym=sym)
        payload[f"dim_{label}"] = space.dim
        payload[f"basis_{label}"] = basis_to_json(space.basis)
        const = fusion_constant(fld, args.n, args.u, args.x, sg, sym=sym)
        payload[f"constant_{label}"] = {"re": const.real, "im": const.imag}
    _, payload["invariance_residual"] = fused_restriction(
        fld, args.n, args.u, args.v, args.x, sign)
    ps = sample_params(args.seed)
    ybe = _run(check_fused_ybe, fld, args.n, sign, args.u, args.v, ps.w,
               args.x, tol=_tol(args, 1e-8), seed=args.seed)
    payload["ybe_residual"] = ybe.residual
    payload["ybe_elapsed_ms"] = ybe.elapsed_ms
    if args.json_out:
        dump(payload, args.json_out)
    else:
        print(json.dumps(payload, sort_keys=True, indent=1))
    return 0 if ybe.passed else 1


def _cmd_check_dynamical(args) -> int:
    _fill_params(args, "q", "u", "v", "w")
    lam = getattr(args, "lambda")
    if lam is None:
        lam = complex(0.7, 0.3)
    fld = NumericField(args.q)
    a = cmath.log(fld.q)
    report = _run(check_dynamical_ybe, fld, args.n, _sign_value(args.sign),
                  args.u, args.v, args.w, lam, a=a, tol=_tol(args, 1e-8),
                  seed=args.seed)
    _emit(report, sys.stdout)
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    cfg = SuiteConfig(
        backend=args.backend,
        tol=args.tol,
        seed=args.seed,
        samples=args.samples,
        n=args.n,
        sign=_sign_value(args.sign),
        negative_controls=args.negative_controls,
    )
    stream = sys.stdout
    handle = None
    if args.output:
        handle = open(args.output, "w", encoding="utf-8")
        stream = handle
    try:
        reports = run_suite(args.level, cfg,
                            emit=lambda r: _emit(r, stream))
    finally:
        if handle is not None:
            handle.close()
    return 0 if all(r.passed for r in reports) else 1


_COMMANDS = {
    "dump-cartan": _cmd_dump_cartan,
    "check-relations": _cmd_check_relations,
    "check-lemma1": _cmd_check_lemma1,
    "build-r": _cmd_build_r,
    "check-ybe": _cmd_check_ybe,
    "fusion-report": _cmd_fusion_report,
    "check-dynamical": _cmd_check_dynamical,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
