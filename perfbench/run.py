"""Run one xrmatrix benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fused-n3 --seed 0 --seconds 10 --trace 0

Run it from the repository root; it imports xrmatrix from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics:

- ``setup_s``: median over fresh interpreters of the time to import
  numpy and xrmatrix and build the workload's inputs;
- ``pass_s``: median wall time of one pass over the workload's checks;
- ``peak_rss_mb``: peak resident memory of this process, which ran the
  workload alone.

With ``--trace 1`` it times untraced passes, then traced passes, and
reports the per-layer figures of ``tracer.py`` (medians over the traced
passes), the traced pass time and the tracing overhead.  The traced
spans are written to ``perfbench/out/``.

A run times as many whole passes as fit in ``--seconds``, at least one;
a pass is never cut short.  Every pass's outputs are checked, untimed, against
closed forms.  A line of run facts goes to standard output, and the
last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(workload, seed):
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, probe, workload, str(seed)],
                             capture_output=True, text=True, check=True,
                             timeout=120, cwd=ROOT)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_passes(wl, inputs, seconds, tracer=None):
    """Whole passes, as many as fit in seconds, and at least one.

    Returns the pass times, the operations, the problems the checks
    found and, when traced, the per-layer figures of each pass.
    """
    times, ops, problems, figures = [], [], [], []
    while not times or sum(times) + times[-1] <= seconds:
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        pass_ops, outputs = wl.run_pass(inputs)
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.remove()
            figures.append(tracer.end_pass())
        ops += pass_ops
        problems += wl.check(inputs, outputs)
        del outputs  # free them before the next pass runs
    return times, ops, problems, figures


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2:
        return None
    return lines[1] if os.path.samefile(lines[0], ROOT) else None


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_facts(args):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": _git_commit(), "src_lines": src_lines,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    return "B" if name.endswith("_bytes") else "count"


def _layer_metrics(figures):
    """Times are medians over the traced passes; counts must repeat."""
    out = {}
    for name in sorted(figures[0]):
        values = [f[name] for f in figures]
        unit = _unit(name)
        if unit == "s":
            out[name] = _metric(float(statistics.median(values)), unit)
        elif len(set(values)) == 1:
            out[name] = _metric(values[0], unit)
        else:
            raise RuntimeError(f"{name} differs between passes: {values}")
    return out


def write_trace(tracer, facts):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR,
                        f"{facts['workload']}-seed{facts['seed']}.json")
    payload = {"facts": facts, "span_fields": ["id", "name", "start", "end",
                                               "parent", "thread"],
               "passes": tracer.done}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "xrmatrix", "__init__.py")):
        print(f"perfbench: no xrmatrix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    facts = run_facts(args)
    print(json.dumps({"facts": facts}, sort_keys=True))
    wl = workloads.WORKLOADS[args.workload]
    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    inputs = wl.make_inputs(args.seed)
    wl.warm(inputs)
    times, ops, problems, _ = run_passes(wl, inputs, args.seconds)
    if args.trace:
        tracer = Tracer()
        traced, more_ops, more_problems, figures = run_passes(
            wl, inputs, args.seconds, tracer)
        ops += more_ops
        problems += more_problems
        metrics = _layer_metrics(figures)
        traced_s = statistics.median(traced)
        metrics["trace.pass_s"] = _metric(traced_s, "s")
        metrics["trace.overhead_s"] = _metric(
            traced_s - statistics.median(times), "s")
        write_trace(tracer, facts)
    else:
        metrics = {
            "setup_s": _metric(setup, "s"),
            "pass_s": _metric(statistics.median(times), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
    for label, ok in ops:
        if not ok:
            print(f"perfbench: operation failed: {label}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": sum(1 for _, ok in ops if not ok),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
