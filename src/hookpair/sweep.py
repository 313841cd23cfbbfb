"""Exhaustive verification sweeps over bounded partitions.

Enumerates every partition inside a (k, n) box, or every member of the
n = k+1 Frobenius family up to a bound, runs the selected identity checks on
each, and folds the entries into a deterministic report as they finish.
Cases are independent, so the sweep can fan out over worker processes; the
report content never depends on the worker count, and serialized reports,
streamed to their file, are byte-identical across runs with the same
configuration.
"""

from __future__ import annotations

import errno
import json
import os
import time
from collections import namedtuple
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple

from .bijections import _IDENTITIES, _witnesses
from .diagrams import Partition, _Checked, _case, _decimal, _repro, _require_int
from .errors import UnknownChoice
from .projective import ClassBPartition, StrictPartition, alpha_from_strict, projective_report

__all__ = [
    "SweepConfig",
    "SweepReport",
    "enumerate_partitions",
    "enumerate_class_B",
    "run_sweep",
]

THEOREM_NAMES = (*map(str, _IDENTITIES), "projective")


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
        theorems = tuple(theorems)
        if not theorems:
            raise UnknownChoice("at least one identity must be selected")
        for t in theorems:
            if t not in THEOREM_NAMES:
                raise UnknownChoice(f"unknown identity {t!r}")
        if len(set(theorems)) != len(theorems):
            raise UnknownChoice(f"an identity is named twice in {theorems}")
        if max_n is None and any(t != "projective" for t in theorems):
            raise UnknownChoice("max_n must be given for box sweeps")
        if max_n is not None and theorems == ("projective",):
            raise UnknownChoice("max_n bounds only box sweeps, and none is selected")
        return super().__new__(cls, max_k, max_n, theorems, out, jobs)


def _enumerate_cases(cfg: SweepConfig) -> Iterator[tuple]:
    box = tuple(t for t in cfg.theorems if t != "projective")
    if box:
        for n in range(1, cfg.max_n + 1):
            for k in range(1, cfg.max_k + 1):
                for p in enumerate_partitions(k, n):
                    yield ("box", box, p.parts, k, n)
    if "projective" in cfg.theorems:
        for k in range(1, cfg.max_k + 1):
            for lam_parts in _strict_parts(k):
                yield ("projective", lam_parts, k)


def _case_entries(case: tuple) -> list[dict]:
    """Check a partition for its identities, or a family member, and return the entries."""
    if case[0] == "box":
        _, theorems, parts, k, n = case
        p = Partition(parts, k, n)
        entries = [_case(p, t) for t in theorems]
        witnesses = _witnesses(p, [_decimal(t) for t in theorems])
        oks = [left == right and cert.verdict for _, left, right, cert in witnesses]
    else:
        _, lam_parts, k = case
        b = alpha_from_strict(StrictPartition(lam_parts, k))
        entries = [_case(b.alpha, "projective", {"lambda": list(lam_parts)})]
        oks = [projective_report(b)["theorem"] == "pass"]
    for entry, ok in zip(entries, oks):
        entry["verdict"] = "pass" if ok else "fail"
    return entries


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
        # streamed: with indent set, dump and dumps run the same encoder, so
        # the bytes are those of dumps without the report held as one string
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _cpus() -> int:
    """The CPUs this process may run on (the host's count where that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_out(path: str) -> None:
    """Raise the OSError that writing a report to path would meet, without
    opening it: an empty path, a missing directory, or a file or directory
    this process may not write.  A report already there is left as it is."""
    parent = os.path.dirname(path) or "."
    if not path or not os.path.isdir(parent):
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _fold(batches: Iterable[list[dict]]) -> tuple[list[dict], dict[str, int], dict | None]:
    """Keep each entry of each case's list as it arrives, with the counts per
    identity and the first failing entry, given its ``repro`` command line."""
    kept: list[dict] = []
    counts: dict[str, int] = {}
    first = None
    for entry in chain.from_iterable(batches):
        kept.append(entry)
        counts[entry["theorem"]] = counts.get(entry["theorem"], 0) + 1
        if first is None and entry["verdict"] == "fail":
            first = {**entry, "repro": _repro(entry)}
    return kept, counts, first


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Run every selected check over the enumerated inputs."""
    started = time.monotonic()
    if cfg.out is not None:
        _check_out(cfg.out)
    cases = _enumerate_cases(cfg)
    # one worker per case read, so the pool is capped by jobs, CPUs and cases
    head = list(islice(cases, min(cfg.jobs, _cpus())))
    workers = len(head)
    cases = chain(head, cases)
    if workers > 1:
        from multiprocessing import Pool  # here, so a serial sweep never loads it

        # each finished chunk of partitions wakes the fold: over box 7 on two
        # workers, chunks of 16 cost the parent about 0.5 s more CPU than 64
        with Pool(workers) as pool:
            entries, counts, first = _fold(pool.imap(_case_entries, cases, chunksize=64))
    else:
        entries, counts, first = _fold(map(_case_entries, cases))
    report = SweepReport(
        config=cfg,
        cases=tuple(entries),
        counts=counts,
        first_counterexample=first,
        duration=time.monotonic() - started,
    )
    if cfg.out is not None:
        report.write(cfg.out)
    return report
