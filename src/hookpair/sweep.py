"""Exhaustive verification sweeps over bounded partitions.

Enumerates every partition inside a (k, n) box, or every member of the
n = k+1 Frobenius family up to a bound, runs the selected identity checks on
each, and assembles a deterministic report.  Cases are independent, so the
sweep can fan out over worker processes; the report content never depends on
the worker count, and serialized reports are byte-identical across runs with
the same configuration.
"""

from __future__ import annotations

import json
import os
import time
from collections import namedtuple
from typing import Iterable, Iterator, NamedTuple

from .bijections import theorem_report
from .diagrams import Partition, _Checked, _case, _decimal, _require_int
from .errors import UnknownChoice
from .projective import ClassBPartition, StrictPartition, alpha_from_strict, projective_report

__all__ = [
    "SweepConfig",
    "SweepReport",
    "enumerate_partitions",
    "enumerate_class_B",
    "run_sweep",
]

THEOREM_NAMES = ("1", "2", "3", "projective")


def enumerate_partitions(k: int, n: int) -> Iterator[Partition]:
    """All weakly decreasing k-tuples with entries in 0..n, lexicographically."""
    _require_int(k, "k", 1)
    _require_int(n, "n", 1)
    parts = [0] * k
    while True:
        yield Partition(tuple(parts), k, n)
        j = k - 1
        while j >= 0:
            limit = n if j == 0 else parts[j - 1]
            if parts[j] < limit:
                break
            j -= 1
        if j < 0:
            return
        parts[j] += 1
        for t in range(j + 1, k):
            parts[t] = 0


def _strict_parts(k: int) -> Iterator[tuple[int, ...]]:
    """The parts of every subset of {1..k}, in binary-mask order.

    Bit b stands for the part b+1, and each subset is read off in
    decreasing order.
    """
    _require_int(k, "k", 1)
    for mask in range(1 << k):
        yield tuple(b + 1 for b in range(k - 1, -1, -1) if mask >> b & 1)


def enumerate_class_B(k: int) -> Iterator[ClassBPartition]:
    """All 2**k members of the Frobenius family with bound k, one for each
    strict partition in ``_strict_parts`` order."""
    for parts in _strict_parts(k):
        yield alpha_from_strict(StrictPartition(parts, k))


class SweepConfig(_Checked, namedtuple("SweepConfig", "max_k max_n theorems out jobs")):
    __slots__ = ()

    def __new__(cls, max_k: int, max_n: int | None, theorems: Iterable[str],
                out: str | None = None, jobs: int = 1) -> "SweepConfig":
        _require_int(max_k, "max_k", 1)
        _require_int(jobs, "jobs", 1)
        if max_n is not None:
            _require_int(max_n, "max_n", 1)
        if isinstance(theorems, str):
            raise UnknownChoice(f"theorems must list identity names, not {theorems!r}")
        if not theorems:
            raise UnknownChoice("at least one identity must be selected")
        theorems = tuple(theorems)
        for t in theorems:
            if t not in THEOREM_NAMES:
                raise UnknownChoice(f"unknown identity {t!r}")
        if len(set(theorems)) != len(theorems):
            raise UnknownChoice(f"an identity is named twice in {theorems}")
        if max_n is None and any(t != "projective" for t in theorems):
            raise UnknownChoice("max_n must be given for box sweeps")
        return super().__new__(cls, max_k, max_n, theorems, out, jobs)


def _enumerate_cases(cfg: SweepConfig) -> list[tuple]:
    cases = []
    box = [t for t in cfg.theorems if t != "projective"]
    if box:
        for n in range(1, cfg.max_n + 1):
            for k in range(1, cfg.max_k + 1):
                for p in enumerate_partitions(k, n):
                    for t in box:
                        cases.append(("box", t, p.parts, k, n))
    if "projective" in cfg.theorems:
        for k in range(1, cfg.max_k + 1):
            for lam_parts in _strict_parts(k):
                cases.append(("projective", lam_parts, k))
    return cases


def _case_entry(case: tuple) -> dict:
    """Check one case and return its report entry, verdict included."""
    if case[0] == "box":
        _, t, parts, k, n = case
        p = Partition(parts, k, n)
        ok = theorem_report(p, _decimal(t))["verdict"] == "pass"
        entry = _case(p, t)
    else:
        _, lam_parts, k = case
        b = alpha_from_strict(StrictPartition(lam_parts, k))
        ok = projective_report(b)["theorem"] == "pass"
        entry = _case(b.alpha, "projective", {"lambda": list(lam_parts)})
    entry["verdict"] = "pass" if ok else "fail"
    return entry


class SweepReport(NamedTuple):
    config: SweepConfig
    cases: tuple[dict, ...]
    counts: dict[str, int]
    first_counterexample: dict | None
    duration: float

    @property
    def verdict(self) -> str:
        return "fail" if self.first_counterexample is not None else "pass"

    def to_json(self) -> dict:
        # duration and worker count are left out: the serialized report must
        # be identical from run to run for a given configuration
        return {
            "config": {
                "maxK": self.config.max_k,
                "maxN": self.config.max_n,
                "theorems": list(self.config.theorems),
            },
            "counts": dict(sorted(self.counts.items())),
            "verdict": self.verdict,
            "firstCounterexample": self.first_counterexample,
            "cases": list(self.cases),
        }

    def write(self, path: str) -> None:
        data = json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data)


def _worker_count(jobs: int, n_cases: int) -> int:
    """Processes a sweep starts: jobs, capped by the case count and by the
    CPUs this process may run on (the host's count where that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, cpus, n_cases))


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Run every selected check over the enumerated inputs."""
    started = time.monotonic()
    cases = _enumerate_cases(cfg)
    workers = _worker_count(cfg.jobs, len(cases))
    if workers > 1:
        from multiprocessing import Pool  # here, so a serial sweep never loads it

        with Pool(workers) as pool:
            entries = pool.map(_case_entry, cases, chunksize=16)
    else:
        entries = [_case_entry(c) for c in cases]

    counts: dict[str, int] = {}
    first = None
    for entry in entries:
        counts[entry["theorem"]] = counts.get(entry["theorem"], 0) + 1
        if first is None and entry["verdict"] == "fail":
            first = entry
    report = SweepReport(
        config=cfg,
        cases=tuple(entries),
        counts=counts,
        first_counterexample=first,
        duration=time.monotonic() - started,
    )
    if cfg.out:
        report.write(cfg.out)
    return report
