"""Command-line entry points.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage error
(argparse default), 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

from .cartan import cartan_json
from .fusion import (FusedDimensionError, fused_restriction, fused_space,
                     fused_zero, fusion_constant, symmetrizer)
from .reports import basis_to_json, dump, matrix_to_json
from .rmatrix import vector_rmatrix, vector_rmatrix_spectral
from .scalars import ExactField, NumericField
from .suite import CHECKS, LEVELS, SuiteConfig, run_suite
from .tensorops import NotInvariantError


# fused levels above 5 are out of reach: each fused space is cut from
# the dense symmetrizer on 4^n states, at n = 6 a 4096 x 4096 complex
# matrix (268 MB) whose column pivoting makes a rank-one update of the
# whole remaining matrix per column.  The restriction keeps only the
# in-sector entries of its state, at most 0.23M of them at n = 5.
_MAX_N = 5


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


# the complex-valued flags; a value with a negative real part starts
# with "-", which argparse would read as the next option
_COMPLEX_FLAGS = ("--q", "--u", "--v", "--w", "--x", "--y", "--lambda")


def _attach_signed_values(argv) -> list:
    """Rewrite "--q -0.8,0.2" as "--q=-0.8,0.2" for the complex flags, so
    both forms parse alike; a following "--" option is left alone."""
    out = []
    for tok in argv:
        if (out and out[-1] in _COMPLEX_FLAGS and tok.startswith("-")
                and not tok.startswith("--")):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _add_common(p, *names):
    for name in names:
        if name == "q":
            p.add_argument("--q", type=_parse_q, default=None)
        elif name in ("u", "v", "w", "x", "y"):
            p.add_argument(f"--{name}", type=parse_complex, default=None)
        elif name == "lambda":
            p.add_argument("--lambda", type=parse_complex,
                           default=complex(0.7, 0.3))
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
                           choices=range(1, _MAX_N + 1))
        elif name == "sign":
            p.add_argument("--sign", choices=("plus", "minus"),
                           default="plus")
        elif name == "output":
            p.add_argument("--output", default=None)


# the single-check commands: each runs one row of the suite's check table
_CHECK_ROWS = {"check-relations": "relations", "check-lemma1": "lemma1",
               "check-dynamical": "dynamical-ybe"}


def _check_row(args) -> str:
    if args.command == "check-ybe":
        return "box-ybe" if args.level == "box" else "fused-ybe"
    return _CHECK_ROWS[args.command]


_EXACT_ROWS = {c.name for c in CHECKS if c.exact}


def _config(args) -> SuiteConfig:
    """The suite configuration of a command; point flags such as --q
    replace those fields of each seed's ParamSet."""
    opts = vars(args)
    return SuiteConfig(
        backend=opts.get("backend", "numeric"),
        tol=opts.get("tol"),
        seed=args.seed,
        samples=opts.get("samples", 1),
        n=opts.get("n", 2),
        sign=1 if opts.get("sign", "plus") == "plus" else -1,
        negative_controls=opts.get("negative_controls", False),
        point={k: opts[k] for k in "quvwxy" if opts.get(k) is not None},
        lam=opts.get("lambda"),
    )


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


def _cmd_build_r(args) -> int:
    builder = (vector_rmatrix if args.form == "explicit"
               else vector_rmatrix_spectral)
    if args.backend == "exact":
        fld = ExactField()
        op = builder(fld, fld.u, fld.v, fld.x)
    else:
        ps = _config(args).params(args.seed)
        fld = NumericField(ps.q)
        op = builder(fld, ps.u, ps.v, ps.x)
    payload = matrix_to_json(op.mat, op.legs)
    payload["form"] = args.form
    payload["backend"] = args.backend
    if args.output:
        dump(payload, args.output)
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_fusion_report(args) -> int:
    cfg = _config(args)
    ps = cfg.params(args.seed)
    fld = NumericField(ps.q)
    payload = {"n": args.n, "sign": args.sign}
    by_sign = {}
    for sg, label in ((1, "plus"), (-1, "minus")):
        sym = symmetrizer(fld, args.n, ps.x, sg)
        by_sign[sg] = space = fused_space(fld, args.n, ps.x, sg, sym=sym)
        payload[f"dim_{label}"] = space.dim
        payload[f"basis_{label}"] = basis_to_json(space.basis)
        const = fusion_constant(fld, args.n, ps.u, ps.x, sg, sym=sym)
        payload[f"constant_{label}"] = {"re": const.real, "im": const.imag}
    _, payload["invariance_residual"], _ = fused_restriction(
        fld, args.n, ps.u, ps.v, ps.x, cfg.sign, by_sign[cfg.sign])
    # fusion-report has no --samples: the level runs at --seed alone
    ybe, = run_suite("fused-ybe", cfg)
    payload["ybe_residual"] = ybe.residual
    payload["ybe_elapsed_ms"] = ybe.elapsed_ms
    if args.json_out:
        dump(payload, args.json_out)
    else:
        print(json.dumps(payload, sort_keys=True, indent=1))
    return 0 if ybe.passed else 1


def _cmd_run(args) -> int:
    """verify runs a level of the check table, check-* commands one row."""
    if args.command == "verify":
        level, names = args.level, None
    else:
        level, names = "all", (_check_row(args),)
    path = vars(args).get("output")
    with (open(path, "w", encoding="utf-8") if path
          else contextlib.nullcontext(sys.stdout)) as stream:
        reports = run_suite(level, _config(args), names=names,
                            emit=lambda r: _emit(r, stream))
    return 0 if all(r.passed for r in reports) else 1


_COMMANDS = {
    "dump-cartan": _cmd_dump_cartan,
    "check-relations": _cmd_run,
    "check-lemma1": _cmd_run,
    "build-r": _cmd_build_r,
    "check-ybe": _cmd_run,
    "fusion-report": _cmd_fusion_report,
    "check-dynamical": _cmd_run,
    "verify": _cmd_run,
}


def _refuse_fused_zeros(parser, args):
    """A one-line usage error when two of the given --u --v --w have the
    ratio of a zero of the fused R-matrix, at the q of any sample the
    command runs: there it vanishes identically, which leaves both YBE
    sides at rounding noise."""
    cfg = _config(args)
    opts = vars(args)
    given = [k for k in "uvw" if opts.get(k) is not None]
    for seed in cfg.seeds():
        fld = NumericField(cfg.params(seed).q)
        for k1, k2 in itertools.combinations(given, 2):
            k = fused_zero(fld, args.n, cfg.sign, opts[k1], opts[k2])
            if k is not None:
                parser.exit(2, f"{parser.prog}: error: {args.command}: "
                            f"--{k1}/--{k2} is q^{2 * k}, where the fused "
                            f"R-matrix vanishes at --n {args.n} --sign "
                            f"{args.sign}\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_signed_values(sys.argv[1:] if argv is None else argv))
    opts = vars(args)
    if (args.command in ("check-dynamical", "fusion-report")
            or opts.get("level") == "fused"):
        _refuse_fused_zeros(parser, args)
    if opts.get("backend") == "exact":
        given = [f"--{k}" for k in "quvwxy" if opts.get(k) is not None]
        if given:
            parser.error(f"{args.command}: the exact backend is symbolic in "
                         f"q, u, v, w, x; drop {' '.join(given)}")
        if (args.command.startswith("check-")
                and _check_row(args) not in _EXACT_ROWS):
            parser.error(f"{args.command}: the exact backend does not reach "
                         f"{_check_row(args)}; use --backend numeric")
    try:
        return _COMMANDS[args.command](args)
    except (FusedDimensionError, NotInvariantError) as err:
        # a parameter point where the fused rank decision or a numeric
        # restriction solve fails
        print(f"{args.command}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
