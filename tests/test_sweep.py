"""Tests for enumeration order and sweep reports."""

import json
import math

import pytest

import hookpair.sweep as sweep_mod
from hookpair.errors import CaseMismatch
from hookpair.projective import is_class_B
from hookpair.sweep import (
    SweepConfig,
    enumerate_class_B,
    enumerate_partitions,
    run_sweep,
)

from util import all_partitions


class TestEnumeratePartitions:
    def test_single_part(self):
        parts = [p.parts for p in enumerate_partitions(1, 2)]
        assert parts == [(0,), (1,), (2,)]

    def test_two_by_two(self):
        parts = [p.parts for p in enumerate_partitions(2, 2)]
        assert parts == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]

    def test_counts_match_binomial(self):
        for k in range(1, 5):
            for n in range(1, 5):
                count = sum(1 for _ in enumerate_partitions(k, n))
                assert count == math.comb(n + k, k)

    def test_matches_recursive_oracle(self):
        ours = [p.parts for p in enumerate_partitions(3, 3)]
        oracle = [p.parts for p in all_partitions(3, 3)]
        assert ours == oracle

    def test_rejects_empty_box(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(0, 2))


class TestEnumerateFamily:
    def test_two_rows(self):
        members = [b.lam.parts for b in enumerate_class_B(2)]
        assert members == [(), (1,), (2,), (2, 1)]

    def test_count(self):
        assert sum(1 for _ in enumerate_class_B(5)) == 32

    def test_contains_known_member(self):
        alphas = {b.alpha.parts for b in enumerate_class_B(5)}
        assert (5, 4, 2, 1, 0) in alphas

    def test_every_member_recognized(self):
        for b in enumerate_class_B(5):
            back = is_class_B(b.alpha)
            assert back is not None and back.lam.parts == b.lam.parts


class TestSweepConfig:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            SweepConfig(max_k=0, max_n=3, theorems=("1",))
        with pytest.raises(ValueError):
            SweepConfig(max_k=3, max_n=0, theorems=("1",))

    def test_rejects_empty_selection(self):
        with pytest.raises(ValueError):
            SweepConfig(max_k=3, max_n=3, theorems=())

    def test_rejects_unknown_identity(self):
        with pytest.raises(ValueError):
            SweepConfig(max_k=3, max_n=3, theorems=("4",))

    def test_projective_needs_no_n(self):
        cfg = SweepConfig(max_k=3, max_n=None, theorems=("projective",))
        assert cfg.max_n is None


class TestRunSweep:
    def test_small_box_passes(self):
        report = run_sweep(SweepConfig(max_k=2, max_n=2, theorems=("1", "2", "3")))
        assert report.verdict == "pass"
        assert report.first_counterexample is None
        cases_per_theorem = sum(
            math.comb(n + k, k) for n in (1, 2) for k in (1, 2)
        )
        assert report.counts == {
            "1": cases_per_theorem,
            "2": cases_per_theorem,
            "3": cases_per_theorem,
        }

    def test_projective_sweep_passes(self):
        report = run_sweep(
            SweepConfig(max_k=4, max_n=None, theorems=("projective",))
        )
        assert report.verdict == "pass"
        assert report.counts == {"projective": 2 + 4 + 8 + 16}

    def test_report_is_deterministic(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            run_sweep(
                SweepConfig(
                    max_k=2, max_n=2, theorems=("1", "2", "3"), out=str(out)
                )
            )
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes().endswith(b"\n")

    def test_worker_count_does_not_change_report(self):
        serial = run_sweep(SweepConfig(max_k=2, max_n=2, theorems=("2",)))
        parallel = run_sweep(
            SweepConfig(max_k=2, max_n=2, theorems=("2",), jobs=2)
        )
        assert serial.to_json() == parallel.to_json()

    def test_case_entries_in_enumeration_order(self):
        report = run_sweep(SweepConfig(max_k=1, max_n=2, theorems=("3",)))
        assert [c["alpha"] for c in report.cases] == [[0], [1], [0], [1], [2]]
        assert [c["n"] for c in report.cases] == [1, 1, 2, 2, 2]

    def test_json_shape(self, tmp_path):
        out = tmp_path / "r.json"
        run_sweep(
            SweepConfig(max_k=1, max_n=1, theorems=("projective", "1"), out=str(out))
        )
        data = json.loads(out.read_text())
        assert sorted(data) == [
            "cases", "config", "counts", "firstCounterexample", "verdict",
        ]
        assert data["verdict"] == "pass"
        assert data["firstCounterexample"] is None
        assert data["config"]["theorems"] == ["projective", "1"]
        projective_rows = [
            c for c in data["cases"] if c["theorem"] == "projective"
        ]
        assert [c["lambda"] for c in projective_rows] == [[], [1]]


class TestWorkerCount:
    """The pool size is computed without starting a pool."""

    @pytest.mark.parametrize(
        "jobs, cpus, cases, expected",
        [
            (1, 8, 100, 1),
            (4, 8, 100, 4),
            (10**6, 2, 100, 2),
            (10**6, 64, 3, 3),
            (8, None, 100, 1),
            (4, 8, 0, 1),
        ],
    )
    def test_capped_by_cpus_and_cases(self, monkeypatch, jobs, cpus, cases, expected):
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: cpus)
        assert sweep_mod._worker_count(jobs, cases) == expected


class TestCaseVerdict:
    def test_projective_alpha_must_match_lambda(self):
        # lambda (2,) with k=2 gives alpha (3, 1)
        assert sweep_mod._case_verdict(("projective", (3, 1), (2,), 2)) is True
        with pytest.raises(CaseMismatch):
            sweep_mod._case_verdict(("projective", (3, 0), (2,), 2))
