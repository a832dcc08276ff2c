"""Check reports and the JSON serialization schemas."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .scalars import ParamSet, RationalFunction


@dataclass
class CheckReport:
    """Outcome of one named identity check."""

    name: str
    residual: float           # 0.0 for an exact pass, inf for an exact fail
    passed: bool
    exact: bool = False
    params: object = "symbolic"   # the ParamSet the suite ran, or "symbolic"
    elapsed_ms: int = 0
    seed: int = -1
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        if self.exact:
            res = "exact-zero" if self.passed else "exact-nonzero"
        else:
            res = self.residual if math.isfinite(self.residual) else "inf"
        params = self.params
        if isinstance(params, ParamSet):
            params = params.to_json()
        return {
            "check": self.name,
            "params": params,
            "residual": res,
            "pass": bool(self.passed),
            "elapsed_ms": int(self.elapsed_ms),
            "seed": int(self.seed),
            "details": self.details,
        }


def scalar_to_json(s) -> object:
    """Numeric complex -> {re, im}; exact -> {num, den} term lists."""
    if isinstance(s, RationalFunction):
        def poly(p):
            return [
                {"exp": list(e), "coeff": c}
                for e, c in sorted(p.terms.items())
            ]

        return {"num": poly(s.num), "den": poly(s.den)}
    z = complex(s)
    return {"re": z.real, "im": z.imag}


def _scalar_is_zero(s) -> bool:
    if isinstance(s, RationalFunction):
        return s.is_zero
    return s == 0


def matrix_to_json(mat: np.ndarray, legs) -> dict:
    """Sparse-triplet dump: {"legs": [...], "entries": [[r, c, scalar]]}."""
    entries = []
    for (r, c), s in np.ndenumerate(mat):
        if not _scalar_is_zero(s):
            entries.append([int(r), int(c), scalar_to_json(s)])
    return {"legs": list(legs), "entries": entries}


def basis_to_json(basis) -> dict:
    """Rectangular column-grid dump for subspace bases."""
    entries = []
    for (r, c), s in np.ndenumerate(basis.columns):
        if not _scalar_is_zero(s):
            entries.append([int(r), int(c), scalar_to_json(s)])
    return {"shape": [basis.ambient, basis.dim], "entries": entries}


def dump(obj: dict, path: str) -> None:
    """Byte-stable JSON dump (sorted keys, fixed separators)."""
    text = json.dumps(obj, sort_keys=True, indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")

