"""Run one workload of the hookpair benchmark, check its outputs, and print
its metrics.

    python3 bench/run.py --workload box-sweep --seed 1 --seconds 56 --trace 0

Run from anywhere; hookpair is imported from the ``src`` directory next to
``bench``.  Workloads: box-sweep, proj-sweep, large-verify and
box-sweep-par; BENCHMARK.json gates proj-sweep and large-verify (see
bench/README.md for why each was chosen).

``--trace 0`` repeats the workload's unit (one sweep, or one pass over the
verify sample) while the next one is expected to end within ``--seconds``,
and prints the end-to-end metrics.  ``--trace 1`` alternates untraced and traced units for the same
time and prints the per-layer metrics from the traced ones.  Every line
before the last is for people; the last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import tracer
    import workloads
except ImportError as exc:
    sys.exit(f"bench: cannot import hookpair from {SRC}: {exc}")

# fresh interpreters timed for setup_s: this many after each unit, and at
# least SETUP_SAMPLES per run; the median is reported
SETUP_PER_UNIT = 3
SETUP_SAMPLES = 15

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# span names from tracer, grouped into the per-layer metrics
SPAN_GROUPS = {
    "diagrams.build_region": ("diagrams.build_region",),
    "diagrams.oracle": ("diagrams.al_multiset", "diagrams.hook_multiset",
                        "diagrams.first_multiset_difference"),
    "dyck.label_cells": ("dyck.label_cells",),
    "bijections.phi": ("bijections.phi_map",),
    "bijections.psi": ("bijections.psi_map",),
    "bijections.zeta": ("bijections.zeta_map",),
    "bijections.certificate": ("bijections.build_certificate",),
    "bijections.report": ("bijections.theorem_report",),
    "projective.report": ("projective.projective_report",),
    "projective.shift_Ti": ("projective.shift_Ti",),
    "projective.split_pq": ("projective.split_pq",),
    "projective.techprop": ("projective.check_prop_techprop",),
    "sweep.run": ("sweep.run_sweep",),
    "sweep.enumerate": ("sweep.enumerate_partitions", "sweep.enumerate_class_B"),
    "sweep.write": ("sweep.SweepReport.write",),
    "cli.dump": ("cli.dump",),
}

# metrics that must repeat exactly from one traced unit to the next
EXACT_UNITS = ("count", "bytes")


def _until(seconds: float, step) -> list:
    """Call step() at least once, and again while the next call is expected
    to end within ``seconds`` of the start."""
    start = time.perf_counter()
    results = [step()]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results
        results.append(step())


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def time_setup(name: str, seed: int, samples: int) -> list[float]:
    """Seconds to import hookpair and make the inputs, in fresh interpreters."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "probe.py"), name, str(seed)]
    times = []
    for _ in range(samples):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def layer_metrics(spans: tracer.PassSpans, unit: workloads.UnitResult) -> dict[str, float]:
    """Per-layer metrics of one traced unit, without the overhead ratio."""
    per_name = spans.per_name()

    def calls(group: str) -> int:
        return sum(per_name.get(s, (0, 0.0))[0] for s in SPAN_GROUPS[group])

    def self_s(group: str) -> float:
        return sum(per_name.get(s, (0, 0.0))[1] for s in SPAN_GROUPS[group])

    dyck = [s for s in per_name if s.startswith("dyck.")]
    values = dict(spans.counts)
    values.update({
        "dyck.calls": sum(per_name[s][0] for s in dyck),
        "dyck.self_s": sum(per_name[s][1] for s in dyck),
        "sweep.report_bytes": unit.report_bytes,
        "cli.dump_s": self_s("cli.dump"),
        "cli.report_bytes": unit.dump_bytes,
    })
    for name in PER_LAYER:
        group, _, stat = name.rpartition(".")
        if group in SPAN_GROUPS and name not in values:
            values[name] = calls(group) if stat == "calls" else self_s(group)
    return values


def _end_to_end(w, inputs, seed: int, seconds: float):
    """Untraced units for ``seconds``; returns (units, metrics).

    Times are the fastest a request took in the run: noise from other work
    on the machine only ever adds time, and on a shared host it comes in
    slow spells of a minute or more that the median of a run follows but
    the fastest reading mostly escapes.  A request is one verify plus its
    dump where the unit is made of them (large-verify): each of the sample's
    requests repeats once per pass, ``sweep_s`` is the sum of their fastest
    times and the percentiles are taken over them.  On the sweeps the one
    request is the whole sweep, so the percentiles equal ``sweep_s``.

    Set-up is timed a few times after each unit, so its samples spread over
    the run like the units do, topped up to ``SETUP_SAMPLES``, and reported
    as their median.
    """
    time_setup(w.name, seed, 1)  # may compile bytecode, which users pay once
    setup = []

    def step():
        unit = w.run_unit(inputs, seed)
        setup.extend(time_setup(w.name, seed, SETUP_PER_UNIT))
        return unit

    units = _until(seconds, step)
    setup.extend(time_setup(w.name, seed, SETUP_SAMPLES - len(setup)))
    fastest = [min(repeats) for repeats in zip(*(u.latencies_s for u in units))]
    if not fastest:
        fastest = [min(u.seconds for u in units)]
    best = sum(fastest)
    return units, {
        "cases_per_s": units[0].attempted / best,
        "sweep_s": best,
        "verify_p50_ms": statistics.median(fastest) * 1e3,
        "verify_p90_ms": _p90(fastest) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(w, inputs, seed: int, seconds: float, trace_out: str | None,
               problems: list[str]):
    """Untraced and traced units in pairs for ``seconds``; returns (units, metrics)."""
    t = tracer.Tracer()
    plain, traced, per_pass = [], [], []

    def pair():
        plain.append(w.run_unit(inputs, seed))
        with t.installed() as spans:
            traced.append(w.run_unit(inputs, seed))
        left = t.find_wrappers()
        if left:
            problems.append(f"wrappers left installed: {left}")
        per_pass.append(layer_metrics(spans, traced[-1]))

    _until(seconds, pair)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            metrics[name] = (statistics.median(u.seconds for u in traced)
                             / statistics.median(u.seconds for u in plain))
            continue
        values = [p[name] for p in per_pass]
        if unit in EXACT_UNITS:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced units: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    if trace_out:
        t.write(trace_out, {"workload": w.name, "seed": seed})
    return plain + traced, metrics


def measure(w, seed: int, seconds: float, trace: bool, work_dir: str,
            trace_out: str | None = None) -> dict:
    """Run workload ``w`` and return its metrics, counts and problems.

    A traced run saves its spans to ``trace_out`` when that is given.
    """
    inputs = w.make_inputs(seed, os.path.join(work_dir, "report.json"))
    problems = []
    if w.jobs() > workloads.nproc():
        problems.append(f"{w.jobs()} workers on {workloads.nproc()} CPUs")
    if trace:
        units, metrics = _per_layer(w, inputs, seed, seconds, trace_out, problems)
        unit_of = PER_LAYER
    else:
        units, metrics = _end_to_end(w, inputs, seed, seconds)
        unit_of = END_TO_END
    for u in units:
        problems.extend(u.problems)
    return {
        "metrics": {name: (metrics[name], unit_of[name]) for name in unit_of},
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "problems": problems,
        "facts": {
            "workload": w.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "units": len(units),
            "jobs": w.jobs(),
            "nproc": workloads.nproc(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "digest_checked": w.digest_known(seed),
        },
    }


def print_result(record: dict) -> None:
    """Human-readable lines, the facts line, then the result line last."""
    for name, (value, unit) in record["metrics"].items():
        print(f"{name:34s} {value:14.6g} {unit}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"{'failed_ratio':34s} {failed / attempted:14.6g} ratio"
          f"  ({failed} of {attempted} cases)")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({"facts": record["facts"]}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not record["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hookpair benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    catalogue = workloads.build_workloads(workloads.load_digests())
    if args.workload not in catalogue:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(catalogue)}")
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    trace_out = None
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_out = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    work_dir = tempfile.mkdtemp(dir=scratch)
    try:
        record = measure(catalogue[args.workload], args.seed, args.seconds,
                         bool(args.trace), work_dir, trace_out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print_result(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
