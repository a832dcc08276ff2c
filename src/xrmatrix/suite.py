"""Batch verification across seeds, levels, and backends."""

from __future__ import annotations

import cmath
import time
from dataclasses import dataclass

from .dynamical import check_dynamical_ybe, single_weight_space
from .fusion import (check_fused_intertwining, check_fused_ybe,
                     check_fusion_constant, check_hecke_relations,
                     check_projector_commutation, fused_space)
from .reports import CheckReport
from .rmatrix import (check_forms_equal, check_intertwining,
                      check_twisted_ybe, vector_builder, vector_rmatrix)
from .scalars import ExactField, NumericField, sample_params
from .superalgebra import check_relations, check_tensor_square, vector_rep

LEVELS = ("relations", "lemma1", "box-ybe", "hecke", "lemma2", "fusion",
          "fused-ybe", "dynamical", "all")

_DEFAULT_TOL = {
    "relations": 1e-12,
    "lemma1": 1e-10,
    "box-ybe": 1e-9,
    "hecke": 1e-10,
    "lemma2": 1e-9,
    "fusion": 1e-9,
    "fused-ybe": 1e-8,
    "dynamical": 1e-8,
}


@dataclass
class SuiteConfig:
    backend: str = "numeric"
    tol: float = None          # None: per-level defaults
    seed: int = 7
    samples: int = 3
    n: int = 2
    sign: int = 1
    negative_controls: bool = False

    def seeds(self):
        return range(self.seed, self.seed + self.samples)

    def level_tol(self, level: str) -> float:
        return self.tol if self.tol is not None else _DEFAULT_TOL[level]


def _timed(label, fn, seed=-1, params="symbolic"):
    def run() -> CheckReport:
        t0 = time.perf_counter()
        report = fn()
        report.elapsed_ms = int(1000 * (time.perf_counter() - t0))
        if report.seed < 0:
            report.seed = seed
        if report.params == "symbolic" and params != "symbolic":
            report.params = params
        report.name = label if label else report.name
        return report

    return run


def _negated(report: CheckReport, threshold: float = 1e-3) -> CheckReport:
    """Reinterpret a deliberate-failure check: pass iff it failed hard."""
    report.name = "negative:" + report.name
    report.passed = report.residual > threshold
    report.exact = False
    return report


def _relations_checks(cfg: SuiteConfig):
    tol = cfg.level_tol("relations")
    if cfg.backend == "exact":
        fld = ExactField()
        yield _timed("relations", lambda: check_relations(
            vector_rep(fld, fld.x), tol=tol))
        return
    for seed in cfg.seeds():
        ps = sample_params(seed)
        fld = NumericField(ps.q)
        yield _timed("relations", lambda f=fld, p=ps, s=seed: check_relations(
            vector_rep(f, p.x), tol=tol, params=p, seed=s), seed)


def _lemma1_checks(cfg: SuiteConfig):
    tol = cfg.level_tol("lemma1")
    if cfg.backend == "exact":
        fld = ExactField()
        yield _timed("lemma1", lambda: check_tensor_square(
            fld, fld.x, fld.q * fld.x, tol=tol))
        return
    for seed in cfg.seeds():
        ps = sample_params(seed)
        fld = NumericField(ps.q)
        yield _timed("lemma1", lambda f=fld, p=ps, s=seed: check_tensor_square(
            f, p.x, f.q * p.x, tol=tol, params=p, seed=s), seed)
        if cfg.negative_controls:
            def detuned(f=fld, p=ps, s=seed):
                rep = check_tensor_square(f, p.x, p.y, tol=tol, params=p,
                                          seed=s)
                rep.residual = rep.details["v2_residual"]
                return _negated(rep)

            yield _timed("", detuned, seed)


def _box_ybe_checks(cfg: SuiteConfig):
    tol = cfg.level_tol("box-ybe")
    if cfg.backend == "exact":
        fld = ExactField()
        builder = vector_builder(fld)
        yield _timed("box-ybe", lambda: check_twisted_ybe(
            fld, builder, fld.u, fld.v, fld.w, fld.x, tol=tol,
            name="box-ybe"))
        return
    for seed in cfg.seeds():
        ps = sample_params(seed)
        fld = NumericField(ps.q)
        builder = vector_builder(fld)
        yield _timed("box-ybe", lambda f=fld, b=builder, p=ps, s=seed:
                     check_twisted_ybe(f, b, p.u, p.v, p.w, p.x, tol=tol,
                                       params=p, seed=s, name="box-ybe"),
                     seed)
        if cfg.negative_controls:
            yield _timed("", lambda f=fld, b=builder, p=ps, s=seed: _negated(
                check_twisted_ybe(f, b, p.u, p.v, p.w, p.x, tol=tol, shift=0,
                                  params=p, seed=s, name="box-ybe-shift0")),
                seed)


def _hecke_checks(cfg: SuiteConfig):
    tol = cfg.level_tol("hecke")
    ps = sample_params(cfg.seed)
    if cfg.backend == "exact":
        fld = ExactField()
        for n in (2, 3):
            yield _timed("hecke", lambda f=fld, nn=n: check_hecke_relations(
                f, nn, f.x, tol=tol), cfg.seed)
        return
    fld = NumericField(ps.q)
    for n in (2, 3, 4):
        yield _timed("hecke", lambda f=fld, nn=n, p=ps: check_hecke_relations(
            f, nn, p.x, tol=tol, params=p, seed=cfg.seed), cfg.seed)


def _lemma2_checks(cfg: SuiteConfig):
    tol = cfg.level_tol("lemma2")
    ps = sample_params(cfg.seed)
    fld = NumericField(ps.q)
    for sign in (1, -1):
        yield _timed("lemma2", lambda f=fld, p=ps, sg=sign:
                     check_fusion_constant(
                         f, cfg.n, p.x, sg, u_probes=(p.u, p.v),
                         x_probes=(p.y,), tol=tol, params=p, seed=cfg.seed),
                     cfg.seed)


def _fusion_checks(cfg: SuiteConfig):
    tol = cfg.level_tol("fusion")
    ps = sample_params(cfg.seed)
    fld = NumericField(ps.q)
    for sign in (1, -1):
        yield _timed("fusion-intertwining",
                     lambda f=fld, p=ps, sg=sign: check_fused_intertwining(
                         f, cfg.n, p.u, p.v, p.x, sg, tol=tol, params=p,
                         seed=cfg.seed), cfg.seed)
        yield _timed("projector-commutation",
                     lambda f=fld, p=ps, sg=sign: check_projector_commutation(
                         f, cfg.n, p.u, p.v, p.x, sg, tol=tol, params=p,
                         seed=cfg.seed), cfg.seed)
        if cfg.negative_controls:
            yield _timed("", lambda f=fld, p=ps, sg=sign: _negated(
                check_projector_commutation(
                    f, cfg.n, p.u, p.v, p.x, sg, tol=tol, sabotage_shift=True,
                    params=p, seed=cfg.seed)), cfg.seed)


def _fused_ybe_checks(cfg: SuiteConfig):
    tol = cfg.level_tol("fused-ybe")
    for seed in cfg.seeds():
        ps = sample_params(seed)
        fld = NumericField(ps.q)
        yield _timed("fused-ybe", lambda f=fld, p=ps, s=seed: check_fused_ybe(
            f, cfg.n, cfg.sign, p.u, p.v, p.w, p.x, tol=tol, params=p,
            seed=s), seed)
        if cfg.negative_controls:
            yield _timed("", lambda f=fld, p=ps, s=seed: _negated(
                check_fused_ybe(f, cfg.n, cfg.sign, p.u, p.v, p.w, p.x,
                                tol=tol, shift=cfg.n - 1, params=p, seed=s)),
                seed)


def _dynamical_checks(cfg: SuiteConfig):
    tol = cfg.level_tol("dynamical")
    ps = sample_params(cfg.seed)
    fld = NumericField(ps.q)
    a = cmath.log(fld.q)
    lam = cmath.log(ps.x) / a

    def run(f=fld, p=ps):
        dyn = check_dynamical_ybe(f, cfg.n, cfg.sign, p.u, p.v, p.w, lam,
                                  a=a, tol=tol, params=p, seed=cfg.seed)
        x_dyn = cmath.exp(a * lam)
        twisted = check_fused_ybe(f, cfg.n, cfg.sign, p.u, p.v, p.w, x_dyn,
                                  tol=tol, params=p, seed=cfg.seed)
        dyn.details["matches_twisted"] = (dyn.residual == twisted.residual)
        dyn.passed = dyn.passed and dyn.details["matches_twisted"]
        return dyn

    yield _timed("dynamical-ybe", run, cfg.seed)
    if cfg.negative_controls:
        def fake(f=fld, p=ps):
            d = fused_space(f, cfg.n, cmath.exp(a * lam), cfg.sign).dim
            return _negated(check_dynamical_ybe(
                f, cfg.n, cfg.sign, p.u, p.v, p.w, lam, a=a, tol=tol,
                weighted=single_weight_space(d, -(cfg.n + 1.0)),
                params=p, seed=cfg.seed))

        yield _timed("", fake, cfg.seed)


def _forms_checks(cfg: SuiteConfig):
    # run alongside box-ybe: the two-construction cross-check
    if cfg.backend == "exact":
        fld = ExactField()
        yield _timed("r-forms-equal", lambda: check_forms_equal(
            fld, fld.u, fld.v, fld.x, tol=1e-12))
        return
    for seed in cfg.seeds():
        ps = sample_params(seed)
        fld = NumericField(ps.q)
        yield _timed("r-forms-equal", lambda f=fld, p=ps, s=seed:
                     check_forms_equal(f, p.u, p.v, p.x, tol=1e-12,
                                       params=p, seed=s), seed)
        yield _timed("intertwining", lambda f=fld, p=ps, s=seed:
                     check_intertwining(
                         f, vector_rmatrix(f, p.u, p.v, p.x), p.u, p.v, p.x,
                         tol=1e-10, params=p, seed=s), seed)


_LEVEL_CHECKS = {
    "relations": _relations_checks,
    "lemma1": _lemma1_checks,
    "box-ybe": _box_ybe_checks,
    "hecke": _hecke_checks,
    "lemma2": _lemma2_checks,
    "fusion": _fusion_checks,
    "fused-ybe": _fused_ybe_checks,
    "dynamical": _dynamical_checks,
}


def run_suite(level: str, cfg: SuiteConfig, emit=None):
    """Run the selected level(s) in order; returns the reports.

    Each report is emitted as soon as its check finishes.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; choose from {LEVELS}")
    if level == "all":
        pending = []
        for name in LEVELS[:-1]:
            pending.extend(_LEVEL_CHECKS[name](cfg))
        pending.extend(_forms_checks(cfg))
    elif level == "box-ybe":
        pending = list(_LEVEL_CHECKS[level](cfg)) + list(_forms_checks(cfg))
    else:
        pending = list(_LEVEL_CHECKS[level](cfg))

    reports = []
    for fn in pending:
        report = fn()
        reports.append(report)
        if emit:
            emit(report)
    return reports
