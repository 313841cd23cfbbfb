"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest -q bench/test_bench.py

Runs each workload's code path once untraced and twice traced on a box of
side 2, the n = k+1 family to k = 3, and three verifies.  It checks that every
metric named in BENCHMARK.json prints with its unit, that exact counts repeat,
that the layers a workload does not touch read zero, and that no timing
wrapper is left installed after a traced run.
"""

import json
import os

import pytest

import compare
import run
import tracer
import workloads

import hookpair

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY = {
    "box-sweep": workloads.SweepWorkload(
        "box-sweep", 2, 2, workloads.BOX_THEOREMS, False, 42, None),
    "proj-sweep": workloads.SweepWorkload(
        "proj-sweep", 3, None, ("projective",), False, 14, None),
    "large-verify": workloads.VerifyWorkload("large-verify", 1, 3, 4, {}),
    "box-sweep-par": workloads.SweepWorkload(
        "box-sweep-par", 2, 2, workloads.BOX_THEOREMS, True, 42, None),
}


@pytest.fixture(autouse=True)
def _one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PER_UNIT", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def _run(name, trace, tmp_path, capsys):
    record = run.measure(TINY[name], 1, 0, trace, str(tmp_path),
                         trace_out=str(tmp_path / "spans.json"))
    run.print_result(record)
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def _check_printed(lines, result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split() == [m["name"], line.split()[1], m["unit"]]
                   for line in lines if line.startswith(m["name"] + " "))


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_print(name, tmp_path, capsys):
    lines, result = _run(name, False, tmp_path, capsys)
    _check_printed(lines, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    facts = json.loads(lines[-2])["facts"]
    assert facts["workload"] == name and 1 <= facts["jobs"] <= facts["nproc"]
    assert any(line.startswith("failed_ratio ") for line in lines)


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run(name, tmp_path, capsys):
    originals = {attr: getattr(hookpair.diagrams, attr) for attr in vars(hookpair.diagrams)}
    first = _run(name, True, tmp_path, capsys)
    second = _run(name, True, tmp_path, capsys)

    assert tracer.Tracer().find_wrappers() == []
    assert all(getattr(hookpair.diagrams, a) is f for a, f in originals.items())
    assert hookpair.bijections.build_region is hookpair.diagrams.build_region
    with open(tmp_path / "spans.json", encoding="utf-8") as fh:
        assert json.load(fh)["passes"][0]["name"]

    for lines, result in (first, second):
        _check_printed(lines, result, SPEC["per_layer"])
    values = [{k: v["value"] for k, v in r["metrics"].items()} for _, r in (first, second)]
    for m in SPEC["per_layer"]:
        if m["unit"] in run.EXACT_UNITS:
            assert values[0][m["name"]] == values[1][m["name"]], m["name"]

    got = values[0]
    assert got["bijections.certificate.failures"] == 0
    if name == "proj-sweep":
        assert got["bijections.phi.calls"] == got["bijections.psi.calls"] == 0
        assert got["dyck.calls"] == 0 and got["projective.report.calls"] == 14
    else:
        assert got["projective.report.calls"] == 0
    if name == "large-verify":
        assert got["cli.report_bytes"] > 0 and got["bijections.certificate.records"] > 0
    if name in ("box-sweep", "proj-sweep"):
        assert got["diagrams.build_region.calls"] > 0 and got["sweep.report_bytes"] > 0


def test_self_time_excludes_children():
    spans = tracer.PassSpans()
    outer, inner = spans.intern("outer"), spans.intern("inner")
    for name, start, end, parent in ((outer, 0.0, 10.0, -1), (inner, 1.0, 4.0, 0),
                                     (inner, 5.0, 6.0, 0)):
        spans.name.append(name)
        spans.start.append(start)
        spans.end.append(end)
        spans.parent.append(parent)
    assert spans.per_name() == {"outer": (1, 6.0), "inner": (2, 4.0)}


@pytest.mark.parametrize("parent, change, expected", [
    ([10.0] * 10, [8.0] * 10, "improved"),
    ([10.0 + i % 2 * 0.1 for i in range(10)], [10.05] * 10, "unchanged"),
    ([10.0] * 10, [12.0] * 10, "regressed"),
    ([10.0, 14.0] * 5, [9.5, 14.5] * 5, "unresolved"),
    ([10.0] * 5, [8.0] * 5, "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    pairs = list(zip(parent, change))
    assert compare.verdict(pairs, "lower", 0.1, False) == expected


def test_compare_counts_are_exact():
    assert compare.verdict([(5, 5), (7, 7)], "lower", None, True) == "unchanged"
    assert compare.verdict([(5, 4), (7, 7)], "lower", None, True) == "improved"
    assert compare.verdict([(5, 4), (7, 8)], "lower", None, True) == "unresolved"
