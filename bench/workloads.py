"""The benchmark's workloads: how each one makes its inputs from a seed, runs
one unit of work through hookpair's public entry points, and checks the
outputs.

A unit is what a user runs once: one ``run_sweep`` call for the sweep
workloads (``hookpair sweep --out``), or one pass over the seeded sample of
``verify_theorem`` plus JSON dump calls for ``large-verify`` (what
``hookpair verify`` does per partition and identity).

Work done in this process alone is timed by the process's CPU time (user plus
system).  The units are CPU-bound and single-threaded, so on an idle machine
that equals their wall time, and on a shared one it leaves out the time other
tenants hold the CPU.  ``box-sweep-par`` works in child processes, so it is
timed by the wall clock.

hookpair functions are looked up on the package at call time, so the timing
wrappers that ``tracer`` installs in the package namespaces see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

import hookpair

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")

BOX_THEOREMS = ("1", "2", "3")
VERIFY_IDENTITIES = (1, 2, 3)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class UnitResult:
    """Outcome of one unit: its time, the identity checks it attempted and
    failed, and per-request latencies where the unit is made of requests."""

    seconds: float
    attempted: int
    failed: int
    latencies_s: list[float] = field(default_factory=list)
    report_bytes: int = 0
    dump_bytes: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def dump_report(report: dict) -> str:
    """The JSON dump ``hookpair verify`` prints for one report."""
    return json.dumps(report, indent=2, sort_keys=True)


@dataclass(frozen=True)
class SweepWorkload:
    """``run_sweep`` over a box (or the n = k+1 family), report written to a file."""

    name: str
    max_k: int
    max_n: int | None
    theorems: tuple[str, ...]
    parallel: bool
    cases: int
    digest: str | None

    def jobs(self) -> int:
        return min(2, nproc()) if self.parallel else 1

    def digest_known(self, seed: int) -> bool:
        return self.digest is not None

    def make_inputs(self, seed: int, out: str) -> hookpair.SweepConfig:
        # the sweeps are exhaustive: the seed selects nothing here
        return hookpair.SweepConfig(
            max_k=self.max_k, max_n=self.max_n, theorems=self.theorems,
            out=out, jobs=self.jobs(),
        )

    def run_unit(self, cfg: hookpair.SweepConfig, seed: int) -> UnitResult:
        clock = time.perf_counter if self.parallel else time.process_time
        started = clock()
        try:
            report = hookpair.run_sweep(cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return UnitResult(clock() - started, self.cases, self.cases,
                              problems=["run_sweep raised"])
        seconds = clock() - started

        attempted = sum(report.counts.values())
        failed = sum(1 for case in report.cases if case["verdict"] != "pass")
        with open(cfg.out, "rb") as fh:
            written = fh.read()
        digest = hashlib.sha256(written).hexdigest()
        problems = []
        if report.verdict != "pass":
            problems.append(f"sweep verdict {report.verdict}")
        if attempted != self.cases:
            problems.append(f"{attempted} cases, expected {self.cases}")
        if self.digest is not None and digest != self.digest:
            problems.append(f"report sha256 {digest}, expected {self.digest}")
        if problems:
            # a report that fails its checks vouches for none of its cases
            attempted = max(attempted, self.cases)
            failed = attempted
        return UnitResult(seconds, attempted, failed, report_bytes=len(written),
                          digest=digest, problems=problems)


@dataclass(frozen=True)
class VerifyWorkload:
    """A closed loop with one caller: ``verify_theorem`` then the JSON dump,
    for identities 1-3 on each partition of a seeded sample."""

    name: str
    size: int
    low: int
    high: int
    digests: dict[str, str]

    def jobs(self) -> int:
        return 1

    def digest_known(self, seed: int) -> bool:
        return str(seed) in self.digests

    def make_inputs(self, seed: int, out: str) -> list[hookpair.Partition]:
        """``size`` partitions with k and n uniform on low..high and parts
        uniform on 0..n, sorted decreasing.

        k and n are drawn stratified (a Latin-hypercube draw paired by a
        fixed lattice), so every seed covers the (k, n) square evenly and
        the latency percentiles hardly depend on which seed is run.
        """
        rng = random.Random(seed)
        span = self.high - self.low + 1
        sample = []
        for j in range(self.size):
            k = self.low + int(span * (j + rng.random()) / self.size)
            n = self.low + int(span * ((11 * j) % self.size + rng.random()) / self.size)
            parts = sorted((rng.randint(0, n) for _ in range(k)), reverse=True)
            sample.append(hookpair.Partition(tuple(parts), k, n))
        return sample

    def run_unit(self, sample: list[hookpair.Partition], seed: int) -> UnitResult:
        latencies = []
        hasher = hashlib.sha256()
        failed = 0
        nbytes = 0
        clock = time.process_time
        started = clock()
        for p in sample:
            for which in VERIFY_IDENTITIES:
                t0 = clock()
                try:
                    report = hookpair.verify_theorem(p, which)
                    text = dump_report(report)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    latencies.append(clock() - t0)
                    failed += 1
                    hasher.update(b"counterexample\n")
                    continue
                latencies.append(clock() - t0)
                if report["verdict"] != "pass":
                    failed += 1
                encoded = text.encode()
                nbytes += len(encoded)
                hasher.update(encoded + b"\n")
        seconds = clock() - started

        attempted = len(latencies)
        problems = []
        if failed:
            problems.append(f"{failed} verify reports did not pass")
        digest = hasher.hexdigest()
        expected = self.digests.get(str(seed))
        if expected is not None and digest != expected:
            problems.append(f"dump sha256 {digest}, expected {expected}")
            failed = attempted
        return UnitResult(seconds, attempted, failed, latencies, dump_bytes=nbytes,
                          digest=digest, problems=problems)


def build_workloads(digests: dict) -> dict:
    """The four workloads by name, with the digests recorded for their outputs."""
    sweeps = digests["sweeps"]
    return {
        w.name: w
        for w in (
            SweepWorkload("box-sweep", 5, 5, BOX_THEOREMS, False, 2736,
                          sweeps["box-sweep"]),
            SweepWorkload("proj-sweep", 9, None, ("projective",), False, 1022,
                          sweeps["proj-sweep"]),
            VerifyWorkload("large-verify", 40, 16, 32, digests["large-verify"]),
            SweepWorkload("box-sweep-par", 6, 6, BOX_THEOREMS, True, 10254,
                          sweeps["box-sweep-par"]),
        )
    }
