"""Print the seconds this fresh interpreter takes to import numpy and
xrmatrix and to build one workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

``run.py`` starts it several times per run and reports the median as
``setup_s``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy  # noqa: E402,F401
import xrmatrix  # noqa: E402,F401

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]))
print(time.perf_counter() - START)
