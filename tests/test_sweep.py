"""Tests for enumeration order and sweep reports."""

import json
import math
import multiprocessing
import shlex
import tracemalloc
from collections import Counter

import pytest

import hookpair.bijections as bj
import hookpair.cli as cli
import hookpair.projective as pj
import hookpair.sweep as sweep_mod
from hookpair.bijections import theorem_report
from hookpair.diagrams import Partition
from hookpair.errors import HookpairError, IndexOutOfRange, NotAnInteger, UnknownChoice
from hookpair.projective import is_class_B
from hookpair.sweep import (
    SweepConfig,
    enumerate_class_B,
    enumerate_partitions,
    run_sweep,
)

from util import all_partitions, sweep_fold_reference


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

        monkeypatch.setattr(pj, "alpha_from_strict", no_build)
        cases = list(sweep_mod._enumerate_cases(SweepConfig(max_k=3, max_n=None,
                                                            theorems=("projective",))))
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
            # an empty iterator is truthy: it used to pass as a sweep of no
            # identity that reported pass over 0 cases
            (3, iter([]), "at least one identity must be selected"),
            (3, (t for t in ()), "at least one identity must be selected"),
            (3, ("4",), "unknown identity '4'"),
            (None, ("projective", "1"), "max_n must be given for box sweeps"),
            # it used to check every member and report "maxN": 1
            (1, ("projective",), "max_n bounds only box sweeps, and none is selected"),
            # a string used to be read letter by letter: "12" swept 1 and 2
            (3, "12", "theorems must list identity names, not '12'"),
            (None, "projective", "theorems must list identity names, not 'projective'"),
            (3, ("1", "1"), "an identity is named twice in ('1', '1')"),
            (None, ("projective", "projective"),
             "an identity is named twice in ('projective', 'projective')"),
        ],
        ids=["none", "empty-iterator", "empty-generator", "unknown", "box-without-n",
             "projective-with-n", "string", "string-projective", "repeated",
             "repeated-projective"],
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
    real_witnesses = bj._witnesses
    real_projective = pj.projective_report

    def witnesses(p, which):
        which = list(which)
        for theorem, (stat, left, right, cert) in zip(which, real_witnesses(p, which)):
            if (str(theorem), p.parts, p.n) in FAILING_BOX:
                cert = cert._replace(verdict=False)
            yield stat, left, right, cert

    def projective_report(b):
        report = real_projective(b)
        if (b.lam.parts, b.k) in FAILING_FAMILY:
            report = dict(report, theorem="fail")
        return report

    monkeypatch.setattr(bj, "_witnesses", witnesses)
    monkeypatch.setattr(pj, "projective_report", projective_report)


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
        first = {**failing[0], "repro": "hookpair verify --k 2 --n 2 --alpha 1,0 --theorem 2"}
        assert [c for c in report.cases if c["verdict"] == "fail"] == failing
        assert report.first_counterexample == first
        data = report.to_json()
        assert data["verdict"] == "fail"
        assert data["firstCounterexample"] == first

    @pytest.mark.parametrize("jobs", JOBS)
    def test_cli_exits_one(self, planted_failures, capsys, jobs):
        code = cli.main(["sweep", "--max-k", "2", "--max-n", "2",
                         "--jobs", str(jobs)])
        out, _ = capsys.readouterr()
        assert code == 1
        assert out == (
            "checked 42 cases: fail\n"
            '{"alpha": [1, 0], "k": 2, "n": 2, '
            '"repro": "hookpair verify --k 2 --n 2 --alpha 1,0 --theorem 2", '
            '"theorem": "2", "verdict": "fail"}\n'
        )


def dumped(report):
    """The report text as one ``json.dumps`` string, the way it was once written."""
    return (json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n").encode()


SWEEPS = {
    "box": dict(max_k=3, max_n=3, theorems=("1", "2", "3")),
    "projective": dict(max_k=6, max_n=None, theorems=("projective",)),
    "failing": dict(max_k=2, max_n=3, theorems=("2", "projective")),
}


class TestStreamedReport:
    """The report is streamed to its file, byte for byte as ``json.dumps``."""

    @pytest.mark.parametrize("jobs", JOBS)
    @pytest.mark.parametrize("name", ["box", "projective"])
    def test_write_equals_dumps(self, tmp_path, name, jobs):
        out = tmp_path / "r.json"
        report = run_sweep(SweepConfig(**SWEEPS[name], out=str(out), jobs=jobs))
        assert report.verdict == "pass"
        assert out.read_bytes() == dumped(report)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_failing_write_equals_dumps(self, planted_failures, tmp_path, jobs):
        out = tmp_path / "r.json"
        report = run_sweep(SweepConfig(**SWEEPS["failing"], out=str(out), jobs=jobs))
        assert report.verdict == "fail"
        assert out.read_bytes() == dumped(report)
        data = json.loads(out.read_bytes())
        assert data["firstCounterexample"]["repro"].startswith("hookpair verify ")
        assert not any("repro" in case for case in data["cases"])

    def test_write_holds_no_copy_of_the_report(self, tmp_path):
        # joining the dumped chunks into one string, then adding the newline,
        # took about seven times the file's size
        report = run_sweep(SweepConfig(max_k=8, max_n=None, theorems=("projective",)))
        out = tmp_path / "r.json"
        tracemalloc.start()
        try:
            report.write(str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 50_000
        assert peak < size


class TestRunningFold:
    """Entries are folded as they arrive, with the result of folding the
    finished list."""

    @pytest.mark.parametrize("jobs", JOBS)
    @pytest.mark.parametrize("name", ["box", "projective", "failing"])
    def test_matches_list_then_fold(self, request, name, jobs):
        if name == "failing":
            request.getfixturevalue("planted_failures")
        cfg = SweepConfig(**SWEEPS[name], jobs=jobs)
        cases = list(sweep_mod._enumerate_cases(cfg))
        entries = [e for c in cases for e in sweep_mod._case_entries(c)]
        counts, first = sweep_fold_reference(entries)
        report = run_sweep(cfg)
        assert list(report.cases) == entries
        assert report.counts == counts
        assert report.first_counterexample == first
        assert (first is None) == (name != "failing")

    def test_family_repro_checks_the_member(self, planted_failures, capsys):
        report = run_sweep(SweepConfig(max_k=2, max_n=None, theorems=("projective",)))
        repro = report.first_counterexample["repro"]
        assert repro == "hookpair verify --k 1 --n 2 --alpha 2 --theorem proj"
        # the planted failure is in the sweep only: the real check passes
        assert cli.main(shlex.split(repro)[1:]) == 0
        assert json.loads(capsys.readouterr().out)["theorem"] == "pass"


class TestUnusableOut:
    """A report that cannot be written stops the sweep before its first case."""

    @pytest.fixture
    def no_cases(self, monkeypatch):
        def case_entries(case):
            raise AssertionError(f"checked {case} before the report's target")

        monkeypatch.setattr(sweep_mod, "_case_entries", case_entries)

    def sweep(self, out):
        return run_sweep(SweepConfig(max_k=3, max_n=3, theorems=("1",), out=str(out)))

    def test_missing_directory(self, no_cases, tmp_path):
        with pytest.raises(FileNotFoundError) as exc:
            self.sweep(tmp_path / "missing" / "r.json")
        assert exc.value.filename == str(tmp_path / "missing" / "r.json")

    def test_empty_path(self, no_cases):
        # it used to run every case and write nothing
        with pytest.raises(FileNotFoundError) as exc:
            self.sweep("")
        assert exc.value.filename == ""

    def test_directory_as_target(self, no_cases, tmp_path):
        with pytest.raises(IsADirectoryError):
            self.sweep(tmp_path)

    def test_directory_not_writable(self, no_cases, tmp_path, monkeypatch):
        # a root user may write anywhere, so the permission is faked
        monkeypatch.setattr(sweep_mod.os, "access", lambda path, mode: False)
        with pytest.raises(PermissionError):
            self.sweep(tmp_path / "r.json")

    def test_report_kept_until_the_cases_have_run(self, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        out.write_text("earlier report\n")

        def case_entries(case):
            assert out.read_text() == "earlier report\n"
            raise RuntimeError("stopped in the first case")

        monkeypatch.setattr(sweep_mod, "_case_entries", case_entries)
        with pytest.raises(RuntimeError):
            self.sweep(out)
        assert out.read_text() == "earlier report\n"


class TestWorkerCount:
    """The pool run_sweep opens, seen through a fake pool that records its
    process count and maps in this process, so no process is started."""

    @pytest.fixture
    def opened(self, monkeypatch):
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, iterable, chunksize=1):
                return map(func, iterable)

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        return sizes

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
    def test_capped_by_cpus_and_cases(self, opened, monkeypatch, jobs, cpus, cases,
                                      expected):
        # where the process's CPU set is unknown, the host's count caps the pool
        monkeypatch.delattr(sweep_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: cpus)
        case = ("box", ("1",), (1,), 1, 1)
        monkeypatch.setattr(sweep_mod, "_enumerate_cases", lambda cfg: iter([case] * cases))
        report = run_sweep(SweepConfig(max_k=1, max_n=1, theorems=("1",), jobs=jobs))
        assert report.counts == ({"1": cases} if cases else {})
        assert opened == ([expected] if expected > 1 else [])  # one worker: no pool

    def test_capped_by_a_two_case_box(self, opened, monkeypatch):
        monkeypatch.delattr(sweep_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 64)
        cfg = SweepConfig(max_k=1, max_n=1, theorems=("1",), jobs=10**6)
        report = run_sweep(cfg)
        assert opened == [2]
        assert report.to_json() == run_sweep(cfg._replace(jobs=1)).to_json()

    def test_capped_by_cpus_this_process_may_use(self, opened, monkeypatch):
        # under taskset or a cpuset the host's count is too high
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(sweep_mod.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        run_sweep(SweepConfig(max_k=3, max_n=3, theorems=("1",), jobs=8))
        assert opened == []


class TestCaseEntry:
    def test_box_entry(self):
        entries = sweep_mod._case_entries(("box", ("3",), (2, 1), 2, 3))
        assert entries == [{"theorem": "3", "alpha": [2, 1], "k": 2, "n": 3,
                            "verdict": "pass"}]

    def test_projective_entry(self):
        # lambda (2,) with k=2 gives alpha (3, 1)
        entries = sweep_mod._case_entries(("projective", (2,), 2))
        assert entries == [{"theorem": "projective", "alpha": [3, 1],
                            "lambda": [2], "k": 2, "n": 3, "verdict": "pass"}]


class TestOnePassPerPartition:
    """A box sweep checks each partition's identities in one witness pass,
    with the verdicts ``theorem_report`` gives them one by one."""

    ORDERS = [("1", "2", "3"), ("3", "1")]

    @staticmethod
    def assert_verdicts_match(cfg):
        report = run_sweep(cfg)
        for entry in report.cases:
            p = Partition(tuple(entry["alpha"]), entry["k"], entry["n"])
            expected = theorem_report(p, int(entry["theorem"]))["verdict"]
            assert entry["verdict"] == expected, entry
        return report

    @pytest.mark.parametrize("theorems", ORDERS)
    def test_verdicts_match_reports(self, theorems):
        report = self.assert_verdicts_match(SweepConfig(max_k=5, max_n=5, theorems=theorems))
        partitions = sum(math.comb(n + k, k) for n in range(1, 6) for k in range(1, 6))
        assert report.counts == {t: partitions for t in theorems}
        assert report.verdict == "pass"

    def plant_star_image(self, monkeypatch):
        # images bound for D are tagged R: psi fails wherever D has a cell,
        # phi is untouched
        real = bj._star_image

        def retagged(p, star_rows, y):
            target, tag = real(p, star_rows, y)
            return target, "R"

        monkeypatch.setattr(bj, "_star_image", retagged)

    def plant_phi_target(self, monkeypatch):
        # the second strip cell is sent where the first one goes
        real = bj._phi

        def collided(p, stats):
            entries = list(real(p, stats))
            if len(entries) > 1:
                entries[1] = entries[1]._replace(target=entries[0].target)
            return entries

        monkeypatch.setattr(bj, "_phi", collided)

    @pytest.mark.parametrize("fault", ["plant_star_image", "plant_phi_target"])
    @pytest.mark.parametrize("theorems", ORDERS)
    def test_verdicts_match_reports_under_faults(self, monkeypatch, fault, theorems):
        getattr(self, fault)(monkeypatch)
        report = self.assert_verdicts_match(SweepConfig(max_k=3, max_n=3, theorems=theorems))
        verdicts = {(e["theorem"], e["verdict"]) for e in report.cases}
        assert ("1", "fail") in verdicts and ("1", "pass") in verdicts
        if fault == "plant_star_image":
            assert ("3", "fail") not in verdicts

    def test_one_phi_and_one_table_per_region_per_partition(self, monkeypatch):
        phis, tables = [], []
        real_phi, real_stats = bj._phi, bj._region_stats

        def phi(p, stats):
            phis.append(p)
            return real_phi(p, stats)

        def region_stats(p, kind):
            tables.append((p, kind))
            return real_stats(p, kind)

        def theorem_report(p, which):
            raise AssertionError(f"a sweep ran theorem_report({p}, {which})")

        monkeypatch.setattr(bj, "_phi", phi)
        monkeypatch.setattr(bj, "_region_stats", region_stats)
        monkeypatch.setattr(bj, "theorem_report", theorem_report)
        monkeypatch.setattr(sweep_mod, "theorem_report", theorem_report, raising=False)
        report = run_sweep(SweepConfig(max_k=3, max_n=3, theorems=("1", "2", "3")))
        partitions = [p for n in (1, 2, 3) for k in (1, 2, 3) for p in enumerate_partitions(k, n)]
        assert report.verdict == "pass" and len(report.cases) == 3 * len(partitions)
        assert phis == partitions
        assert Counter(tables) == {(p, kind): 1 for p in partitions
                                   for kind in ("SQ", "R", "D", "T", "Tstar")}

    def test_entries_follow_the_selected_order(self):
        report = run_sweep(SweepConfig(max_k=2, max_n=2, theorems=("3", "1")))
        assert [e["theorem"] for e in report.cases] == ["3", "1"] * 14
        assert report.cases[:2] == (
            {"alpha": [0], "k": 1, "n": 1, "theorem": "3", "verdict": "pass"},
            {"alpha": [0], "k": 1, "n": 1, "theorem": "1", "verdict": "pass"},
        )
