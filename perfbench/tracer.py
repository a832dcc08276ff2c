"""Span tracing of xrmatrix from outside the package.

The tracer replaces every public function of the traced modules, in
every xrmatrix namespace that holds it, by a wrapper that records a
span: name, start, end, parent span and thread.  It also wraps
``suite._timed`` so that each verification check run by ``run_suite``
becomes a ``suite.check`` span, and counts the products formed by the
exact scalar type.  ``remove`` puts every original back, so nothing
under ``src/`` is edited and an untraced run pays nothing.

A call into the function whose span is innermost on the same thread
(plain recursion, as in ``coproduct_image``) records no new span, so a
span covers the outermost call only.  Spans are kept in memory; the
per-layer figures are derived from them after the traced passes.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time

TRACED_MODULES = ("cartan", "cli", "dynamical", "fusion", "rmatrix",
                  "scalars", "suite", "superalgebra", "tensorops")


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, thread)
        self.done = []           # the span lists of finished passes
        self.embed_sizes = []    # bytes of each matrix embed_at_leg returns
        self.mul_calls = 0       # products of exact scalars attempted
        self.mul_nonzero = 0     # ... and formed (both factors nonzero)
        self.max_terms = 0       # most terms in a product's num or den
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []       # (namespace dict or class, attribute, original)

    # -- span recording ---------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        if parent is None and stack:
            parent = stack[-1][0]
        sid = next(self._ids)
        stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent,
                               threading.get_ident()))

    def _wrap(self, name, fn):
        tracer = self
        sized = name == "tensorops.embed_at_leg"

        def traced(*args, **kwargs):
            out = tracer._call(name, fn, args, kwargs)
            if sized:
                # list.append is atomic, so pool threads lose no sizes
                tracer.embed_sizes.append(out.mat.size * out.mat.itemsize)
            return out

        return traced

    def _wrap_timed(self, timed):
        tracer = self

        def traced_timed(*args, **kwargs):
            run = timed(*args, **kwargs)
            # the check may run on a pool thread: its parent is the
            # run_suite span that queued it
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None

            def traced_run():
                return tracer._call("suite.check", run, (), {}, parent)

            return traced_run

        return traced_timed

    def _wrap_mul(self, mul, zero):
        # plain counters: every workload does its exact arithmetic on
        # one thread
        tracer = self

        def counted_mul(a, b):
            out = mul(a, b)
            tracer.mul_calls += 1
            if out is not zero:
                tracer.mul_nonzero += 1
                terms = max(len(out.num.terms), len(out.den.terms))
                if terms > tracer.max_terms:
                    tracer.max_terms = terms
            return out

        return counted_mul

    # -- installing and removing ------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self):
        pkg = sys.modules["xrmatrix"]
        namespaces = [vars(m) for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "xrmatrix"
                                            or n.startswith("xrmatrix."))]
        wrapped = {}
        for short in TRACED_MODULES:
            mod = getattr(pkg, short)
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(ns, attr, wrapped[id(obj)])
        suite = pkg.suite
        self._set(vars(suite), "_timed", self._wrap_timed(suite._timed))
        rf = pkg.scalars.RationalFunction
        counted = self._wrap_mul(rf.__mul__, pkg.scalars._RF_ZERO)
        self._set(rf, "__mul__", counted)
        self._set(rf, "__rmul__", counted)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def end_pass(self):
        """Per-layer figures of the pass traced since the last call.

        The pass's spans move to ``done``, where they stay until the run
        writes them out, and every counter starts again from zero.
        """
        figures = layer_figures(self.spans)
        figures["tensorops.embed_bytes"] = sum(self.embed_sizes)
        figures["scalars.mul_calls"] = self.mul_calls
        figures["scalars.mul_nonzero"] = self.mul_nonzero
        figures["scalars.max_terms"] = self.max_terms
        self.done.append(self.spans)
        self.spans = []
        self.embed_sizes = []
        self.mul_calls = self.mul_nonzero = self.max_terms = 0
        return figures


def _covered(interval, children):
    """Length of the part of interval that the child intervals cover."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Map span id -> (name, duration, self time)."""
    children = {}
    for sid, name, t0, t1, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, name, t0, t1, parent, _ in spans:
        kids = children.get(sid)
        own = (t1 - t0) - (_covered((t0, t1), kids) if kids else 0.0)
        out[sid] = (name, t1 - t0, own)
    return out


# per-layer metric -> (kind, span names); kinds: "self" sums self time,
# "total" sums span durations, "calls" counts spans
LAYER_METRICS = {
    "rmatrix.ybe_composite_s": ("self", ("rmatrix.ybe_residual",)),
    "rmatrix.build_s": ("self", ("rmatrix.vector_rmatrix",)),
    "rmatrix.build_calls": ("calls", ("rmatrix.vector_rmatrix",)),
    "fusion.chain_s": ("self", ("fusion.apply_chain",
                                "fusion.chain_rmatrix")),
    "fusion.symmetrizer_s": ("self", ("fusion.symmetrizer",)),
    "fusion.hecke_s": ("self", ("fusion.hecke_generator_images",
                                "fusion.check_hecke_relations")),
    "fusion.fused_space_calls": ("calls", ("fusion.fused_space",)),
    "tensorops.embed_calls": ("calls", ("tensorops.embed_at_leg",)),
    "tensorops.embed_s": ("self", ("tensorops.embed_at_leg",)),
    "tensorops.restrict_s": ("self", ("tensorops.restrict_action",
                                      "tensorops.restrict")),
    "tensorops.exact_solve_s": ("self", ("tensorops.exact_solve",)),
    "tensorops.column_space_s": ("self", ("tensorops.column_space",)),
    "superalgebra.coproduct_s": ("total", ("superalgebra.coproduct_image",)),
    "superalgebra.coproduct_calls": ("calls",
                                     ("superalgebra.coproduct_image",)),
    "suite.check_s": ("total", ("suite.check",)),
    "suite.self_s": ("self", ("suite.run_suite",)),
}

# module -> metric name for the module's summed self time
MODULE_SELF = {"cartan": "cartan.s", "dynamical": "dynamical.s",
               "cli": "cli.self_s"}


def layer_figures(spans):
    """Per-layer figures of one pass, from the spans it recorded."""
    times = self_times(spans)
    by_name = {}
    for sid, (name, total, own) in times.items():
        acc = by_name.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += total
        acc[2] += own
    out = {}
    for metric, (kind, names) in LAYER_METRICS.items():
        idx = {"calls": 0, "total": 1, "self": 2}[kind]
        out[metric] = sum((by_name.get(n, (0, 0.0, 0.0))[idx] for n in names),
                          0 if kind == "calls" else 0.0)
    for module, metric in MODULE_SELF.items():
        out[metric] = sum((acc[2] for name, acc in by_name.items()
                           if name.split(".")[0] == module), 0.0)
    # calls into cartan from other modules (nested cartan calls excluded)
    names = {sid: name for sid, name, *_ in spans}
    out["cartan.calls"] = sum(
        1 for sid, name, _, _, parent, _ in spans
        if name.startswith("cartan.")
        and not names.get(parent, "").startswith("cartan."))
    return out
