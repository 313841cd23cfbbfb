"""Time the benchmark's set-up in a fresh interpreter: importing hookpair,
then making one workload's inputs from a seed.  Prints the seconds of CPU
time (user plus system) this process spent on them, which leaves out time
other tenants of a shared machine hold the CPU.

    python3 bench/probe.py large-verify 1

bench/run.py starts this several times per run and reports the median as
setup_s.  The benchmark's own modules are imported outside the timed part.
"""

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

t0 = time.process_time()
import hookpair  # noqa: E402,F401
t1 = time.process_time()
import workloads  # noqa: E402
t2 = time.process_time()
w = workloads.build_workloads(workloads.load_digests())[sys.argv[1]]
w.make_inputs(int(sys.argv[2]), os.devnull)
t3 = time.process_time()
print((t1 - t0) + (t3 - t2))
