"""Tests for enumeration order and sweep reports."""

import json
import math
import multiprocessing

import pytest

import hookpair.cli as cli
import hookpair.sweep as sweep_mod
from hookpair.errors import HookpairError, IndexOutOfRange, NotAnInteger, UnknownChoice
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

    def test_bounds_are_checked_ints(self):
        with pytest.raises(IndexOutOfRange):
            list(enumerate_partitions(2, 0))
        with pytest.raises(NotAnInteger):
            list(enumerate_partitions(2.0, 2))
        with pytest.raises(NotAnInteger):
            list(enumerate_class_B(2.0))
        with pytest.raises(IndexOutOfRange):
            list(enumerate_class_B(0))


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

    def test_cases_build_no_member(self, monkeypatch):
        # the worker builds each member; enumerating the cases must not
        def no_build(lam):
            raise AssertionError(f"built member {lam} while enumerating")

        monkeypatch.setattr(sweep_mod, "alpha_from_strict", no_build)
        cases = sweep_mod._enumerate_cases(SweepConfig(max_k=3, max_n=None,
                                                       theorems=("projective",)))
        assert cases[:3] == [("projective", (), 1), ("projective", (1,), 1),
                             ("projective", (), 2)]
        assert len(cases) == 2 + 4 + 8


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

    @pytest.mark.parametrize(
        "max_n, theorems, message",
        [
            (3, (), "at least one identity must be selected"),
            (3, ("4",), "unknown identity '4'"),
            (None, ("projective", "1"), "max_n must be given for box sweeps"),
            # a string used to be read letter by letter: "12" swept 1 and 2
            (3, "12", "theorems must list identity names, not '12'"),
            (None, "projective", "theorems must list identity names, not 'projective'"),
            (3, ("1", "1"), "an identity is named twice in ('1', '1')"),
            (None, ("projective", "projective"),
             "an identity is named twice in ('projective', 'projective')"),
        ],
        ids=["none", "unknown", "box-without-n", "string", "string-projective",
             "repeated", "repeated-projective"],
    )
    def test_choice_errors_are_package_errors(self, max_n, theorems, message):
        with pytest.raises(HookpairError) as exc:
            SweepConfig(max_k=3, max_n=max_n, theorems=theorems)
        assert isinstance(exc.value, UnknownChoice)
        assert str(exc.value) == message

    def test_names_are_kept_as_a_tuple(self):
        cfg = SweepConfig(max_k=2, max_n=2, theorems=["2", "1"])
        assert cfg.theorems == ("2", "1") and hash(cfg) == hash(cfg._replace())
        assert run_sweep(cfg).counts == {"1": 14, "2": 14}

    def test_projective_needs_no_n(self):
        cfg = SweepConfig(max_k=3, max_n=None, theorems=("projective",))
        assert cfg.max_n is None

    @pytest.mark.parametrize(
        "field, value",
        [("max_k", True), ("max_k", 2.0), ("max_n", 2.0), ("max_n", True), ("jobs", 1.0)],
    )
    def test_rejects_non_int(self, field, value):
        with pytest.raises(NotAnInteger, match=f"^{field} "):
            SweepConfig(**{"max_k": 2, "max_n": 2, "theorems": ("1",), field: value})

    def test_projective_max_n_checked_when_given(self):
        # it used to reach the report as "maxN": -3
        with pytest.raises(IndexOutOfRange):
            SweepConfig(max_k=2, max_n=-3, theorems=("projective",))


class TestRunSweep:
    def test_fractional_bound_is_a_typed_error(self):
        # max_n = 1.5 used to get as far as range() and a bare TypeError
        with pytest.raises(NotAnInteger):
            run_sweep(SweepConfig(max_k=1, max_n=1.5, theorems=("1",)))

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


JOBS = [
    1,
    pytest.param(2, marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="patched checks reach workers only by fork",
    )),
]

# Cases made to fail: (identity, alpha, n) in the box, (lambda, k) in the
# family.  Box cases come first in a sweep, the family last.
FAILING_BOX = {("2", (1, 0), 2), ("2", (3,), 3)}
FAILING_FAMILY = {((1,), 1), ((2, 1), 2)}


@pytest.fixture
def planted_failures(monkeypatch):
    real_theorem = sweep_mod.theorem_report
    real_projective = sweep_mod.projective_report

    def theorem_report(p, theorem):
        report = real_theorem(p, theorem)
        if (str(theorem), p.parts, p.n) in FAILING_BOX:
            report = dict(report, verdict="fail")
        return report

    def projective_report(b):
        report = real_projective(b)
        if (b.lam.parts, b.k) in FAILING_FAMILY:
            report = dict(report, theorem="fail")
        return report

    monkeypatch.setattr(sweep_mod, "theorem_report", theorem_report)
    monkeypatch.setattr(sweep_mod, "projective_report", projective_report)


class TestFailingSweep:
    """A sweep whose checks fail on chosen cases reports exactly those."""

    @pytest.mark.parametrize("jobs", JOBS)
    def test_report_names_first_failure(self, planted_failures, jobs):
        report = run_sweep(SweepConfig(
            max_k=2, max_n=3, theorems=("2", "projective"), jobs=jobs,
        ))
        failing = [
            {"theorem": "2", "alpha": [1, 0], "k": 2, "n": 2, "verdict": "fail"},
            {"theorem": "2", "alpha": [3], "k": 1, "n": 3, "verdict": "fail"},
            {"theorem": "projective", "alpha": [2], "lambda": [1], "k": 1,
             "n": 2, "verdict": "fail"},
            {"theorem": "projective", "alpha": [3, 3], "lambda": [2, 1], "k": 2,
             "n": 3, "verdict": "fail"},
        ]
        assert report.verdict == "fail"
        assert report.counts == {
            "2": sum(math.comb(n + k, k) for n in (1, 2, 3) for k in (1, 2)),
            "projective": 2 + 4,
        }
        assert [c for c in report.cases if c["verdict"] == "fail"] == failing
        assert report.first_counterexample == failing[0]
        data = report.to_json()
        assert data["verdict"] == "fail"
        assert data["firstCounterexample"] == failing[0]

    @pytest.mark.parametrize("jobs", JOBS)
    def test_cli_exits_one(self, planted_failures, capsys, jobs):
        code = cli.main(["sweep", "--max-k", "2", "--max-n", "2",
                         "--jobs", str(jobs)])
        out, _ = capsys.readouterr()
        assert code == 1
        assert out == (
            "checked 42 cases: fail\n"
            '{"alpha": [1, 0], "k": 2, "n": 2, "theorem": "2", "verdict": "fail"}\n'
        )


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
        # where the process's CPU set is unknown, the host's count caps the pool
        monkeypatch.delattr(sweep_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: cpus)
        assert sweep_mod._worker_count(jobs, cases) == expected

    def test_capped_by_cpus_this_process_may_use(self, monkeypatch):
        # under taskset or a cpuset the host's count is too high
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(sweep_mod.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert sweep_mod._worker_count(8, 100) == 1


class TestCaseEntry:
    def test_box_entry(self):
        entry = sweep_mod._case_entry(("box", "3", (2, 1), 2, 3))
        assert entry == {"theorem": "3", "alpha": [2, 1], "k": 2, "n": 3,
                         "verdict": "pass"}

    def test_projective_entry(self):
        # lambda (2,) with k=2 gives alpha (3, 1)
        entry = sweep_mod._case_entry(("projective", (2,), 2))
        assert entry == {"theorem": "projective", "alpha": [3, 1],
                         "lambda": [2], "k": 2, "n": 3, "verdict": "pass"}
