"""Batch verification across seeds, levels, and backends.

CHECKS is the one table of checks.  run_suite walks it for `verify` and
for the single-check commands alike.
"""

from __future__ import annotations

import cmath
import itertools
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from .dynamical import check_dynamical_ybe
from .fusion import (check_fused_intertwining, check_fused_ybe,
                     check_fusion_constant, check_hecke_relations,
                     check_projector_commutation)
from .reports import CheckReport
from .rmatrix import (check_forms_equal, check_intertwining,
                      check_twisted_ybe, vector_builder, vector_rmatrix)
from .scalars import ExactField, NumericField, ParamSet, sample_params
from .superalgebra import check_relations, check_tensor_square, vector_rep

LEVELS = ("relations", "lemma1", "box-ybe", "hecke", "lemma2", "fusion",
          "fused-ybe", "dynamical", "all")


@dataclass
class SuiteConfig:
    backend: str = "numeric"
    tol: float = None          # None: each check's own default
    seed: int = 7
    samples: int = 3
    n: int = 2
    sign: int = 1
    negative_controls: bool = False
    point: dict = field(default_factory=dict)  # ParamSet fields to replace
    lam: complex = None        # dynamical lambda, x = q^lam; None: log_q x

    def seeds(self):
        return range(self.seed, self.seed + self.samples)

    def params(self, seed: int) -> ParamSet:
        """The seed's sampled point with the overrides in `point`; with
        lam given, x is the point exp(log(q) lam) the dynamical checks
        run at."""
        ps = replace(sample_params(seed), **self.point)
        if self.lam is None:
            return ps
        return replace(ps, x=cmath.exp(cmath.log(ps.q) * self.lam))


@dataclass(frozen=True)
class Check:
    """One row of the check table.

    run(fld, p, cfg, tol) returns the report.  p is the point's
    ParamSet; on the exact backend it is the ExactField itself, whose
    q, u, v, w, x are the symbols.  A per-seed row runs at every seed of
    cfg.seeds(), any other row once at cfg.seed.  control, run the same
    way under negative controls, is a deliberate failure that must fail
    hard.
    """

    level: str
    name: str
    tol: float                 # default verdict tolerance
    per_seed: bool
    exact: bool                # the exact backend reaches this check
    run: Callable
    control: Callable = None
    fixed_tol: bool = False    # cfg.tol does not apply
    min_n: int = 1             # below this cfg.n the check is vacuous


def _timed(label, fn, seed=-1, params="symbolic"):
    def run() -> CheckReport:
        t0 = time.perf_counter()
        report = fn()
        report.elapsed_ms = int(1000 * (time.perf_counter() - t0))
        report.seed, report.params = seed, params
        report.name = label if label else report.name
        return report

    return run


def _negated(control, *args, threshold: float = 1e-3) -> CheckReport:
    """Run a deliberate-failure check: it passes iff it failed hard."""
    report = control(*args)
    report.name = "negative:" + report.name
    report.passed = report.residual > threshold
    report.exact = False
    return report


def _split(f, p, cfg, tol):
    # the split closes at y = qx; a y given on the command line is kept
    y = p.y if "y" in cfg.point else f.q * p.x
    return check_tensor_square(f, p.x, y, tol=tol)


def _detuned_split(f, p, cfg, tol):
    # at the sampled y, off qx, the second span is not invariant
    rep = check_tensor_square(f, p.x, p.y, tol=tol)
    rep.residual = rep.details["v2_residual"]
    return rep


def _box_ybe(f, p, cfg, tol, shift=None, name="box-ybe"):
    return check_twisted_ybe(f, vector_builder(f), p.u, p.v, p.w, p.x,
                             tol=tol, shift=shift, name=name)


def _fused_ybe(f, p, cfg, tol, shift=None):
    return check_fused_ybe(f, cfg.n, cfg.sign, p.u, p.v, p.w, p.x, tol=tol,
                           shift=shift)


def _dynamical_ybe(f, p, cfg, tol, weight=None):
    a = cmath.log(f.q)
    lam = cmath.log(p.x) / a if cfg.lam is None else cfg.lam
    return check_dynamical_ybe(f, cfg.n, cfg.sign, p.u, p.v, p.w, lam, a=a,
                               tol=tol, weight=weight)


def _projector(sign, f, p, cfg, tol, sabotage_shift=False):
    return check_projector_commutation(f, cfg.n, p.u, p.v, p.x, sign,
                                       tol=tol, sabotage_shift=sabotage_shift)


CHECKS = (
    Check("relations", "relations", 1e-12, True, True,
          lambda f, p, cfg, tol: check_relations(vector_rep(f, p.x),
                                                 tol=tol)),
    Check("lemma1", "lemma1", 1e-10, True, True, _split,
          control=_detuned_split),
    Check("box-ybe", "box-ybe", 1e-9, True, True, _box_ybe,
          control=partial(_box_ybe, shift=0, name="box-ybe-shift0")),
    # the exact backend reaches the Hecke relations at n = 2 and 3
    *(Check("hecke", "hecke", 1e-10, False, n < 4,
            lambda f, p, cfg, tol, n=n: check_hecke_relations(f, n, p.x,
                                                              tol=tol))
      for n in (2, 3, 4)),
    *(Check("lemma2", "lemma2", 1e-9, False, False,
            lambda f, p, cfg, tol, sign=sign: check_fusion_constant(
                f, cfg.n, p.x, sign, u_probes=(p.u, p.v), x_probes=(p.y,),
                tol=tol))
      for sign in (1, -1)),
    *(row for sign in (1, -1) for row in (
        Check("fusion", "fusion-intertwining", 1e-9, False, False,
              lambda f, p, cfg, tol, sign=sign: check_fused_intertwining(
                  f, cfg.n, p.u, p.v, p.x, sign, tol=tol)),
        # at n = 1 the symmetrizer is the identity: the commutation and
        # its control both read 0
        Check("fusion", "projector-commutation", 1e-9, False, False,
              partial(_projector, sign),
              control=partial(_projector, sign, sabotage_shift=True),
              min_n=2))),
    Check("fused-ybe", "fused-ybe", 1e-8, True, False, _fused_ybe,
          control=lambda f, p, cfg, tol: _fused_ybe(f, p, cfg, tol,
                                                    shift=cfg.n - 1)),
    Check("dynamical", "dynamical-ybe", 1e-8, False, False, _dynamical_ybe,
          control=lambda f, p, cfg, tol: _dynamical_ybe(
              f, p, cfg, tol, weight=-(cfg.n + 1))),
    # the two-construction cross-check runs alongside box-ybe, point by
    # point, and last under "all"
    Check("box-ybe", "r-forms-equal", 1e-12, True, True,
          lambda f, p, cfg, tol: check_forms_equal(f, p.u, p.v, p.x,
                                                   tol=tol),
          fixed_tol=True),
    Check("box-ybe", "intertwining", 1e-10, True, False,
          lambda f, p, cfg, tol: check_intertwining(
              f, vector_rmatrix(f, p.u, p.v, p.x), p.u, p.v, p.x, tol=tol),
          fixed_tol=True),
)

# on the exact backend a level with exact rows runs only those, once and
# symbolically; the other levels run numerically as usual
_EXACT_LEVELS = frozenset(c.level for c in CHECKS if c.exact)


def _points(cfg: SuiteConfig, per_seed: bool, exact: bool):
    """(field, point, seed, params) for each point a block runs at."""
    if exact:
        fld = ExactField()
        yield fld, fld, -1 if per_seed else cfg.seed, "symbolic"
        return
    for seed in cfg.seeds() if per_seed else (cfg.seed,):
        ps = cfg.params(seed)
        yield NumericField(ps.q), ps, seed, ps


def _thunks(cfg: SuiteConfig, selected):
    """One timed thunk per report of the selected rows, in table order.

    Adjacent rows of one level with the same per_seed run point by
    point: each point goes through all of them before the next.
    """
    for (level, per_seed), block in itertools.groupby(
            CHECKS, key=lambda c: (c.level, c.per_seed)):
        exact = cfg.backend == "exact" and level in _EXACT_LEVELS
        rows = [c for c in block if selected(c) and (c.exact or not exact)
                and cfg.n >= c.min_n]
        if not rows:
            continue
        for fld, p, seed, params in _points(cfg, per_seed, exact):
            for c in rows:
                tol = c.tol if c.fixed_tol or cfg.tol is None else cfg.tol
                yield _timed(c.name, partial(c.run, fld, p, cfg, tol), seed,
                             params)
                if c.control and cfg.negative_controls and not exact:
                    yield _timed("", partial(_negated, c.control, fld, p,
                                             cfg, tol), seed, params)


def run_suite(level: str, cfg: SuiteConfig, emit=None, names=None):
    """Run the rows of a level ("all": every row) in table order; returns
    the reports.  names, when given, keeps only the rows so named.

    Each report is emitted as soon as its check finishes.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; choose from {LEVELS}")
    reports = []
    for thunk in _thunks(cfg, lambda c: level in ("all", c.level)
                         and (names is None or c.name in names)):
        report = thunk()
        reports.append(report)
        if emit:
            emit(report)
    return reports
