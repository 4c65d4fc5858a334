"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 -X importtime perfbench/probe.py <workload> <seed> <workdir>

Imports numpy, PyYAML and h2grid (through the benchmark's workloads), then
runs the workload's ``setup`` (input generation or config load) and prints
the seconds that ``setup`` took.  Before the imports it writes START to
stderr, so that the per-module lines of ``-X importtime`` that follow it on
stderr time the imports.
"""

import os
import sys
import time

START = "probe: imports start"


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    print(START, file=sys.stderr, flush=True)
    import workloads
    start = time.perf_counter()
    workloads.WORKLOADS[name](workdir).setup(seed)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
