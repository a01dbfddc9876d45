"""Set-up probe: time ``import oddcycle`` plus building one workload's
inputs in this fresh interpreter, and print the seconds.

    python3 perfbench/probe.py <workload> <seed> <size>
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oddcycle  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]), sys.argv[3])
print(repr(time.perf_counter() - start))
