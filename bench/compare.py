"""Compare benchmark runs of a parent commit and of a change.

    python3 bench/compare.py parent.log change.log

Each log is the standard output of any number of ``bench/run.py`` runs,
concatenated.  Runs are paired by workload, trace mode and seed, so run both
commits with the same seeds (at least ten, alternating which side runs
first).  For every metric in BENCHMARK.json and every workload, it prints
each side's median and quartiles, the pairs the change won, and a verdict:

- improved: the change wins at least nine tenths of at least ten pairs, and
  the medians differ by more than the parent's own spread (its interquartile
  range), in the better direction;
- regressed: an end-to-end metric's median is worse than the parent's by more
  than the metric's bound; a per-layer time's parent wins nine tenths of the
  pairs by more than the parent's spread;
- unchanged: neither, and the parent's spread is within the bound;
- unresolved: fewer than ten pairs, or the spread is wider than the bound
  (unless every change run reads better than every parent run).

Counts (units ``count`` and ``bytes``) must repeat exactly, so they are
compared pair by pair: equal in every pair is unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_UNITS = ("count", "bytes")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def read_runs(path: str) -> dict:
    """{(workload, trace): {seed: result}} from a log of run.py outputs."""
    runs: dict = {}
    facts = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "facts" in obj:
                facts = obj["facts"]
            elif "metrics" in obj and facts is not None:
                key = (facts["workload"], facts["trace"])
                runs.setdefault(key, {})[facts["seed"]] = obj
                facts = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(pairs: list[tuple[float, float]], better: str, bound: float | None,
            exact: bool) -> str:
    """Verdict for one metric on one workload from (parent, change) pairs."""
    sign = 1 if better == "higher" else -1
    gains = [sign * (c - p) for p, c in pairs]
    if exact:
        if all(g == 0 for g in gains):
            return "unchanged"
        if all(g >= 0 for g in gains):
            return "improved"
        if all(g <= 0 for g in gains):
            return "regressed"
        return "unresolved"

    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    q1, p_med, q3 = quartiles(parent)
    spread = q3 - q1
    gain = sign * (statistics.median(change) - p_med)
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    if wins >= WIN_SHARE * len(pairs) and gain > spread:
        return "improved"
    if bound is None:
        if losses >= WIN_SHARE * len(pairs) and -gain > spread:
            return "regressed"
        return "unresolved"
    if spread > bound * abs(p_med):
        every_better = min(sign * c for c in change) > max(sign * p for p in parent)
        return "unchanged" if every_better else "unresolved"
    if -gain > bound * abs(p_med):
        return "regressed"
    return "unchanged"


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    rows = []
    metrics = [(m, m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]]
    for key in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            print(f"{key[0]} trace={key[1]}: no seed run on both sides", file=sys.stderr)
            continue
        for m, bound in metrics:
            name = m["name"]
            if name not in parent[key][seeds[0]]["metrics"]:
                continue
            pairs = [(parent[key][s]["metrics"][name]["value"],
                      change[key][s]["metrics"][name]["value"]) for s in seeds]
            p = quartiles([a for a, _ in pairs])
            c = quartiles([b for _, b in pairs])
            sign = 1 if m["better"] == "higher" else -1
            rows.append({
                "workload": key[0], "trace": key[1], "metric": name, "unit": m["unit"],
                "parent": p, "change": c, "pairs": len(pairs),
                "wins": sum(sign * (b - a) > 0 for a, b in pairs),
                "verdict": verdict(pairs, m["better"], bound, m["unit"] in EXACT_UNITS),
            })
    return rows


def failures(runs: dict) -> dict:
    """{(workload, trace): (failed, attempted, runs not correct)}."""
    return {key: (sum(r["failed"] for r in by_seed.values()),
                  sum(r["attempted"] for r in by_seed.values()),
                  sum(not r["correct"] for r in by_seed.values()))
            for key, by_seed in runs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare parent and change runs")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = read_runs(args.parent), read_runs(args.change)

    for side, runs in (("parent", parent), ("change", change)):
        for (workload, trace), (failed, attempted, bad) in sorted(failures(runs).items()):
            print(f"{side:6s} {workload:14s} trace={trace} failed {failed} of "
                  f"{attempted} cases, {bad} runs not correct")
    print(f"{'workload':14s} {'metric':32s} {'parent median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} {'won':>7s}  verdict")
    for r in compare(parent, change, spec):
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:14s} {r['metric']:32s} "
              f"{p[1]:10.4g} [{p[0]:.4g}, {p[2]:.4g}] {r['unit']:6s} "
              f"{c[1]:10.4g} [{c[0]:.4g}, {c[2]:.4g}] {r['unit']:6s} "
              f"{r['wins']:3d}/{r['pairs']:<3d}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
