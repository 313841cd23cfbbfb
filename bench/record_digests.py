"""Record the output digests the benchmark checks against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 bench/record_digests.py --seeds 0-99

It runs each sweep workload once and the large-verify sample for every seed
in the range, and writes the SHA-256 digests to bench/digests.json.  The
digests pin the exact bytes of the sweep reports and of the verify JSON
dumps, so a change that alters either fails the benchmark's output check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range, as FIRST-LAST")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))

    blank = {"sweeps": {"box-sweep": None, "proj-sweep": None, "box-sweep-par": None},
             "large-verify": {}}
    recorded = {"sweeps": {}, "large-verify": {}}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(BENCH_DIR)) as tmp:
        for name, w in workloads.build_workloads(blank).items():
            if isinstance(w, workloads.SweepWorkload):
                unit = w.run_unit(w.make_inputs(0, os.path.join(tmp, "report.json")), 0)
                recorded["sweeps"][name] = unit.digest
            else:
                for seed in range(first, last + 1):
                    unit = w.run_unit(w.make_inputs(seed, ""), seed)
                    recorded["large-verify"][str(seed)] = unit.digest
                    print(f"seed {seed}: {unit.digest}", flush=True)
            if unit.problems:
                print(f"{name}: {unit.problems}", file=sys.stderr)
                return 1
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
