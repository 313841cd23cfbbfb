"""Timing wrappers installed from outside around hookpair's layers.

``Tracer.installed()`` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent) per call, in
every hookpair module namespace that binds the function, so a call through
``hookpair.bijections.build_region`` counts the same as one through
``hookpair.diagrams.build_region``.  ``SweepReport.write`` and the benchmark's
own JSON dump, which stands in for the ``cli`` layer, are wrapped too.
Leaving the block restores the original objects.  Per-cell ``CellSet`` methods are methods, not module functions, so
they are never wrapped; their cost stays in the self time of their caller.

Spans stay in memory until ``write`` saves them.  A span's self time is its
duration minus the time covered by its child spans.  Calls made in worker
processes (``run_sweep`` with ``jobs > 1``) are recorded in those processes
and lost, so a parallel sweep's trace covers its parent process only.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import hookpair
import workloads

TRACED_MODULES = ("diagrams", "dyck", "bijections", "projective", "sweep")

# (owner, attribute, span name) traced besides the modules' public functions
TRACED_METHODS = (
    (hookpair.sweep.SweepReport, "write", "sweep.SweepReport.write"),
    (workloads, "dump_report", "cli.dump"),
)

WRAPPER_MARK = "__bench_wrapped__"


def _result_counters(spans: "PassSpans") -> dict:
    """Counts taken from the return values of some traced functions."""
    c = spans.counts

    def cells(region):
        c["diagrams.cells_built"] += len(region)

    def height(path):
        c["dyck.max_height"] = max(c["dyck.max_height"], path.max_height())

    def certificate(cert):
        c["bijections.certificate.records"] += len(cert.records)
        c["bijections.certificate.failures"] += len(cert.failures)

    return {
        "diagrams.build_region": cells,
        "dyck.build_dyck": height,
        "bijections.build_certificate": certificate,
    }


class PassSpans:
    """Spans of one traced unit, in parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts = {
            "diagrams.cells_built": 0,
            "dyck.max_height": 0,
            "bijections.certificate.records": 0,
            "bijections.certificate.failures": 0,
        }

    def intern(self, label: str) -> int:
        if label not in self.name_id:
            self.name_id[label] = len(self.names)
            self.names.append(label)
        return self.name_id[label]

    def per_name(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)}."""
        n = len(self.name)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            j = self.name[i]
            calls[j] += 1
            self_s[j] += self.end[i] - self.start[i] - covered[i]
        return {label: (calls[j], self_s[j]) for j, label in enumerate(self.names)}

    def to_json(self) -> dict:
        t0 = self.start[0] if self.start else 0.0
        return {
            "names": self.names,
            "name": list(self.name),
            "start_us": [round((t - t0) * 1e6) for t in self.start],
            "end_us": [round((t - t0) * 1e6) for t in self.end],
            "parent": list(self.parent),
        }


def _hookpair_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hookpair" or name.startswith("hookpair."))]


def _traced_functions() -> dict[int, tuple[object, str]]:
    """{id(function): (function, span name)} for each traced public function."""
    found = {}
    for layer in TRACED_MODULES:
        mod = importlib.import_module(f"hookpair.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                found[id(obj)] = (obj, f"{layer}.{attr}")
    return found


class Tracer:
    """Installs wrappers for one unit at a time and keeps every unit's spans."""

    def __init__(self):
        self.passes: list[PassSpans] = []

    @staticmethod
    def _wrap(fn, label: str, spans: PassSpans, stack: list[int], on_result):
        name_id = spans.intern(label)
        names, starts, ends, parents = spans.name, spans.start, spans.end, spans.parent

        def open_span() -> int:
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = perf_counter()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # one span per item drawn, so only the generator's own work counts
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                idx = open_span()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(idx)
                if on_result is not None:
                    on_result(result)
                return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr))
        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    @contextmanager
    def installed(self):
        """Trace the calls made inside the block as one pass."""
        spans = PassSpans()
        stack: list[int] = []
        counters = _result_counters(spans)
        wrappers = {key: self._wrap(fn, label, spans, stack, counters.get(label))
                    for key, (fn, label) in _traced_functions().items()}
        saved = [(mod, attr, obj) for mod in _hookpair_modules()
                 for attr, obj in list(vars(mod).items()) if id(obj) in wrappers]
        for owner, attr, label in TRACED_METHODS:
            fn = vars(owner)[attr]
            wrappers[id(fn)] = self._wrap(fn, label, spans, stack, None)
            saved.append((owner, attr, fn))
        try:
            for owner, attr, original in saved:
                setattr(owner, attr, wrappers[id(original)])
            yield spans
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.passes.append(spans)

    def find_wrappers(self) -> list[str]:
        """Names of traced attributes that are still timing wrappers."""
        left = [f"{mod.__name__}.{attr}" for mod in _hookpair_modules()
                for attr, obj in list(vars(mod).items()) if getattr(obj, WRAPPER_MARK, False)]
        left += [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in TRACED_METHODS
                 if getattr(vars(owner)[attr], WRAPPER_MARK, False)]
        return left

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "passes": [p.to_json() for p in self.passes]}, fh)
